#include "ml/model.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/sync.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAPAYA_MLP_X86 1
#include <immintrin.h>
#endif

namespace papaya::ml {

double LanguageModel::perplexity(std::span<const Sequence> batch) const {
  return std::exp(loss(batch, {}));
}

std::size_t LanguageModel::num_predictions(std::span<const Sequence> batch) {
  std::size_t n = 0;
  for (const auto& s : batch) {
    if (s.size() >= 2) n += s.size() - 1;
  }
  return n;
}

namespace {

void init_params(std::span<float> params, util::Rng& rng) {
  for (auto& p : params) p = static_cast<float>(rng.uniform(-0.08, 0.08));
}

void check_token(std::int32_t t, std::size_t vocab) {
  if (t < 0 || static_cast<std::size_t>(t) >= vocab) {
    throw std::out_of_range("LanguageModel: token id outside vocabulary");
  }
}

// ---------------------------------------------------------------------------
// MLP n-gram language model.
// Parameter layout (flat): E[V*De] | W1[H*(C*De)] | b1[H] | W2[V*H] | b2[V].
// ---------------------------------------------------------------------------
struct MlpLayout {
  explicit MlpLayout(const LmConfig& cfg)
      : w1(cfg.vocab_size * cfg.embed_dim),
        b1(w1 + cfg.hidden_dim * cfg.context * cfg.embed_dim),
        w2(b1 + cfg.hidden_dim),
        b2(w2 + cfg.vocab_size * cfg.hidden_dim),
        size(b2 + cfg.vocab_size) {}
  std::size_t w1, b1, w2, b2, size;  // E starts at 0
};

// MlpLm::loss runs in two phases, each split into parts that run on the
// calling thread and a small pool of workers (see "The kernel in two
// phases").  Phase A does each prediction's own work, kBlock predictions at
// a time: it gathers their context embeddings and runs them forward, then
// back to the input gradient.  Phase B does the sums over predictions.  The
// six products vectorize across independent outputs and never along a
// reduction, so every value is bit-identical to running one prediction at a
// time through matvec, matvec_transposed and outer_accumulate:
//   - a hidden unit or logit sums its row in column order from +0.0f;
//   - a W1, b1, W2 or b2 gradient element sums over predictions in order;
//   - an embedding-gradient row takes its additions in (prediction, context
//     slot) order;
//   - the loss sums in double, in prediction order.
// The parameters do not change during one call, so running every prediction
// first and summing after changes no value.  On x86-64, tanh and exp run a
// vector at a time through lane-wise ports of the algorithms glibc runs (up
// to glibc 2.40; see "tanh and exp a vector at a time"), so they return
// std::tanh's and std::exp's bits; the exp port runs only where glibc
// selects its fused build of expf, on CPUs with FMA and AVX2.  Elsewhere
// they stay scalar libm calls: another target's libm may be compiled with
// contraction, which no port here follows.  No build of the kernel may
// enable FMA: the compiler would contract a*b+c and change the bits.

/// Output widths pad to a multiple of this many floats, which is a multiple
/// of every Isa's vector width.
constexpr std::size_t kLanes = 8;
/// Predictions per block; a multiple of kTileRows.
constexpr std::size_t kBlock = 32;
/// A register tile is kTileRows output rows by up to kTileVecs vectors.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVecs = 3;
static_assert(kBlock % kTileRows == 0 && kLanes % kTileRows == 0,
              "every product's rows must split into whole tiles");

constexpr std::size_t pad_lanes(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// 16-byte vectors: SSE2 on every x86-64 CPU, generic code elsewhere.
struct PortableIsa {
  typedef float Vec __attribute__((vector_size(16)));
  typedef std::int32_t IVec __attribute__((vector_size(16)));
};

/// c[r][j] (+)= sum over k, in order, of a(r, k) * b[k][j], for r < rows and
/// j < cols.  a(r, k) = a[r * a_row + k * a_k] is read one scalar at a time,
/// so `a` may be stored either way round; rows of b and c are contiguous.
/// rows is a multiple of kTileRows and cols a multiple of kLanes.
struct Product {
  const float* a;
  std::size_t a_row, a_k;
  const float* b;
  std::size_t b_row;
  float* c;
  std::size_t c_row;
  std::size_t rows, cols, depth;
  bool accumulate = false;  // start from c rather than from +0.0f
};

/// One kTileRows x NV-vector tile of a Product, held in registers while it
/// runs over the whole depth.  Each lane is one output with its own chain.
template <class Isa, std::size_t NV>
[[gnu::always_inline]] inline void product_tile(const Product& p,
                                                std::size_t r0,
                                                std::size_t j0) {
  using Vec = typename Isa::Vec;
  constexpr std::size_t W = sizeof(Vec) / sizeof(float);
  // Loads and stores go through one local each, which the compiler turns
  // into a register move; memcpy straight into acc[r][j] would keep the
  // whole tile in memory.
  Vec acc[kTileRows][NV];
  for (std::size_t r = 0; r < kTileRows; ++r) {
    for (std::size_t j = 0; j < NV; ++j) {
      Vec v{};
      if (p.accumulate) {
        std::memcpy(&v, p.c + (r0 + r) * p.c_row + j0 + j * W, sizeof v);
      }
      acc[r][j] = v;
    }
  }
  const float* a = p.a + r0 * p.a_row;
  const float* b = p.b + j0;
  for (std::size_t k = 0; k < p.depth; ++k, a += p.a_k, b += p.b_row) {
    Vec bv[NV];
    for (std::size_t j = 0; j < NV; ++j) {
      Vec v;
      std::memcpy(&v, b + j * W, sizeof v);
      bv[j] = v;
    }
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const float s = a[r * p.a_row];
      // vector * scalar broadcasts s; a braced {s, s, ...} does not.
      for (std::size_t j = 0; j < NV; ++j) acc[r][j] += bv[j] * s;
    }
  }
  for (std::size_t r = 0; r < kTileRows; ++r) {
    for (std::size_t j = 0; j < NV; ++j) {
      const Vec v = acc[r][j];
      std::memcpy(p.c + (r0 + r) * p.c_row + j0 + j * W, &v, sizeof v);
    }
  }
}

template <class Isa>
[[gnu::always_inline]] inline void run_product(const Product& p) {
  static_assert(kTileVecs == 3, "the switch below covers 1 and 2 vectors");
  constexpr std::size_t W = sizeof(typename Isa::Vec) / sizeof(float);
  for (std::size_t r0 = 0; r0 < p.rows; r0 += kTileRows) {
    std::size_t j0 = 0;
    for (; j0 + kTileVecs * W <= p.cols; j0 += kTileVecs * W) {
      product_tile<Isa, kTileVecs>(p, r0, j0);
    }
    switch ((p.cols - j0) / W) {
      case 2: product_tile<Isa, 2>(p, r0, j0); break;
      case 1: product_tile<Isa, 1>(p, r0, j0); break;
      default: break;
    }
  }
}

#ifdef PAPAYA_MLP_X86
// ---------------------------------------------------------------------------
// tanh and exp a vector at a time, on x86-64.  A lane that performs libm's
// IEEE operations in libm's order rounds exactly as libm does, so these
// ports of glibc's own algorithms return std::tanh's and std::exp's bits on
// every float input.  They follow glibc up to 2.40 (2.41 replaced tanhf
// with a correctly rounded one); tests/libm_lanes_sweep.cpp checks all 2^32
// inputs against the libm it runs on.
// ---------------------------------------------------------------------------

/// True if any lane of the comparison result m is set.
template <class IVec>
[[gnu::always_inline]] inline bool any_lane(const IVec& m) {
  std::uint64_t words[sizeof m / sizeof(std::uint64_t)];
  std::memcpy(words, &m, sizeof m);
  std::uint64_t any = 0;
  for (const std::uint64_t w : words) any |= w;
  return any != 0;
}

/// x[i] = std::tanh(x[i]) for i < n, a multiple of the vector width.  This is
/// fdlibm's tanhf and the expm1f it calls, as glibc builds them (scalar SSE,
/// no FMA; expm1f with the 5-term polynomial Q1..Q5), with each branch turned
/// into a lane select.  A vector holding ±inf or NaN goes to std::tanh whole.
template <class Isa>
[[gnu::always_inline]] inline void tanh_lanes(float* x, std::size_t n) {
  using Vec = typename Isa::Vec;
  using IVec = typename Isa::IVec;
  constexpr std::size_t W = sizeof(Vec) / sizeof(float);
  constexpr float ln2_hi = 6.9313812256e-01f, ln2_lo = 9.0580006145e-06f,
                  invln2 = 1.4426950216e+00f, Q1 = -3.3333335072e-02f,
                  Q2 = 1.5873016091e-03f, Q3 = -7.9365076090e-05f,
                  Q4 = 4.0082177293e-06f, Q5 = -2.0109921195e-07f;
  const Vec one = Vec{} + 1.0f, two = Vec{} + 2.0f;
  for (std::size_t j = 0; j < n; j += W) {
    Vec v;
    std::memcpy(&v, x + j, sizeof v);
    const IVec ix = reinterpret_cast<IVec>(v) & 0x7fffffff;
    if (any_lane(ix >= 0x7f800000)) {
      for (std::size_t i = j; i < j + W; ++i) x[i] = std::tanh(x[i]);
      continue;
    }
    const IVec tiny = ix < 0x24000000;  // |x| < 2^-55, ±0 too: x*(1+x)
    const IVec huge = ix >= 0x41b00000;  // |x| >= 22: ±1
    const IVec ge1 = ix >= 0x3f800000;   // |x| >= 1
    // tanhf calls expm1f(2|x|) for |x| >= 1 and expm1f(-2|x|) below.  A lane
    // that never calls it gets 1, so k's float-to-int conversion below
    // stays in range.
    const Vec ax = reinterpret_cast<Vec>(ix);
    Vec a = ge1 ? ax + ax : -(ax + ax);
    a = tiny | huge ? one : a;

    // expm1f(a) for a in (-2, 0) or [2, 44), the arguments tanhf passes;
    // expm1f's k = 1 branch and its cases for |a| >= 27 ln2 never run for
    // them.  Reduce a = k*ln2 + r, with r = hi - lo carrying the correction
    // c: k = 0 for |a| <= ln2/2, ±1 below 1.5*ln2, else a/ln2 rounded.
    const IVec hx = reinterpret_cast<IVec>(a) & 0x7fffffff;
    const IVec neg = a < 0.0f;
    IVec k = __builtin_convertvector(invln2 * a + (neg ? -one : one) * 0.5f,
                                     IVec);
    k = hx < 0x3f851592 ? (neg | 1) : k;
    k &= hx > 0x3eb17218;
    const Vec kf = __builtin_convertvector(k, Vec);
    const Vec hi = a - kf * ln2_hi;
    const Vec lo = kf * ln2_lo;
    const Vec r = hi - lo;
    const Vec c = (hi - r) - lo;
    const Vec hfx = 0.5f * r;
    const Vec hxs = r * hfx;
    const Vec r1 =
        1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    const Vec tt = 3.0f - r1 * hfx;
    const Vec e = hxs * ((r1 - tt) / (6.0f - r * tt));
    const Vec ek = r * (e - c) - c - hxs;
    // Other k: y, then y * 2^k as fdlibm does it, by adding k to y's
    // exponent field; 2^-k is built the same way.
    const IVec k23 = k << 23;
    const Vec p2 = reinterpret_cast<Vec>((0x7f << 23) - k23);
    const IVec far = (k <= -2) | (k > 56);
    Vec y = k < 23 ? (1.0f - p2) - (ek - r) : r - (ek + p2) + 1.0f;
    y = far ? 1.0f - (ek - r) : y;
    y = reinterpret_cast<Vec>(reinterpret_cast<IVec>(y) + k23);
    Vec t = far ? y - 1.0f : y;
    t = k == -1 ? 0.5f * (r - ek) - 0.5f : t;
    t = k == 0 ? r - (r * e - hxs) : t;
    t = hx < 0x33000000 ? a : t;  // |a| < 2^-25: expm1f(a) = a

    // tanhf: 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below.
    const Vec q = (ge1 ? two : -t) / (t + 2.0f);
    Vec z = ge1 ? 1.0f - q : q;
    z = huge ? one : z;
    z = reinterpret_cast<IVec>(v) < 0 ? -z : z;
    z = tiny ? v * (1.0f + v) : z;
    std::memcpy(x + j, &z, sizeof z);
  }
}

/// x[i] = std::exp(x[i]) for i < n, on a CPU with FMA and AVX2.  glibc's
/// expf then runs the build of its code (EXP2F_TABLE_BITS 5, a cubic in
/// double) that its compiler contracted: kd = InvLn2N*x + shift,
/// r = InvLn2N*x - kd and the three polynomial steps are each one FMA.  The
/// port spells those as FMA intrinsics; any other a*b+c written here would
/// be contracted too, so there is none.  A vector with a lane at |x| >= 88,
/// ±inf or NaN goes to std::exp whole: that is glibc's special path
/// (overflow, underflow, errno), which is not ported.
__attribute__((target("avx2,fma"))) void exp_fma_lanes(float* x,
                                                        std::size_t n) {
  // glibc's __exp2f_data.tab: bits(2^(i/32)) - (i << 47).
  static constexpr long long kTab[32] = {
      0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
      0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
      0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
      0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
      0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
      0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
      0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
      0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
      0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
      0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
      0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
  const __m256d inv_ln2_n = _mm256_set1_pd(0x1.71547652b82fep+5);
  const __m256d shift = _mm256_set1_pd(0x1.8p+52);
  const __m256d c0 = _mm256_set1_pd(0x1.c6af84b912394p-20);
  const __m256d c1 = _mm256_set1_pd(0x1.ebfce50fac4f3p-13);
  const __m256d c2 = _mm256_set1_pd(0x1.62e42ff0c52d6p-6);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    const __m256i ax = _mm256_and_si256(_mm256_castps_si256(v),
                                        _mm256_set1_epi32(0x7fffffff));
    const __m256i special =
        _mm256_cmpgt_epi32(ax, _mm256_set1_epi32(0x42afffff));
    if (!_mm256_testz_si256(special, special)) {
      for (std::size_t i = j; i < j + 8; ++i) x[i] = std::exp(x[i]);
      continue;
    }
    __m128 half[2];
    for (int h = 0; h < 2; ++h) {
      const __m256d xd = _mm256_cvtps_pd(h == 0 ? _mm256_castps256_ps128(v)
                                                : _mm256_extractf128_ps(v, 1));
      __m256d kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
      const __m256i ki = _mm256_castpd_si256(kd);
      kd = _mm256_sub_pd(kd, shift);
      const __m256d r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
      // s = 2^(k/32): tab[k % 32] with k added to its exponent.
      const __m256i t = _mm256_i64gather_epi64(
          kTab, _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
      const __m256d s =
          _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
      const __m256d z = _mm256_fmadd_pd(c0, r, c1);
      const __m256d r2 = _mm256_mul_pd(r, r);
      __m256d y = _mm256_fmadd_pd(c2, r, one);
      y = _mm256_fmadd_pd(z, r2, y);
      half[h] = _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
    }
    _mm256_storeu_ps(x + j, _mm256_set_m128(half[1], half[0]));
  }
  for (; j < n; ++j) x[j] = std::exp(x[j]);
}

/// glibc's own selector for its fused build of expf.  (A glibc.cpu.hwcaps
/// tunable that hides FMA or AVX2 from glibc does not hide it from this.)
bool cpu_has_fma_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2");
  }();
  return has;
}
#endif  // PAPAYA_MLP_X86

/// x[i] = std::exp(x[i]) for i < n.
inline void exp_in_place(float* x, std::size_t n) {
#ifdef PAPAYA_MLP_X86
  if (cpu_has_fma_avx2()) return exp_fma_lanes(x, n);
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

// ---------------------------------------------------------------------------
// The kernel in two phases.  A call runs them once per chunk of at most
// kChunk predictions, so its buffers stay small.  Each phase splits into
// parts, one per kBlock predictions of the chunk, and the parts of one phase
// run on the calling thread and the pool's workers (KernelPool, below).
// Parts outnumber threads, so a worker that loses its CPU while it holds a
// part holds one block's work, not a thread's share.
//   - Phase A: each prediction's own work.  Part k takes a contiguous run of
//     kTileRows-row tiles of the chunk's predictions and, kBlock predictions
//     at a time, gathers their context embeddings, runs both forward
//     products, tanh, log-sum-exp and the softmax, and stores each
//     prediction's loss term.  A backward call goes on to dlogits,
//     dh = dlogits * W2 times tanh', and dx = dh * W1.
//   - Phase B (backward only): the sums over predictions.  Part k owns whole
//     rows of the W2 and W1 gradients (with their b2 and b1 entries) and the
//     embedding-gradient rows of a range of tokens, and adds the chunk's
//     predictions to them in prediction order.
// The caller sums the loss terms in prediction order.  So no value depends
// on how many parts or threads there are.
// ---------------------------------------------------------------------------

/// Predictions per chunk; a multiple of kBlock.
constexpr std::size_t kChunk = 8 * kBlock;
/// The most parts a phase splits into: one kTileRows-row tile of phase A each.
constexpr std::size_t kMaxParts = kChunk / kTileRows;

/// One loss call's shapes and buffers, and the chunk its phases run on.  The
/// calling thread checks every token and allocates every buffer before a
/// phase starts, so no part of a phase throws or allocates.
struct MlpJob {
  std::size_t V, De, H, C, K, Vp, Hp, Kp;
  const MlpLayout* at;
  std::size_t n_pred;
  std::size_t first, n;  ///< the chunk: predictions [first, first + n)
  std::size_t parts;
  float inv_n;
  bool backward;
  const float *embed, *b1, *b2;
  /// Zero-padded weight copies: transposed for the forward products,
  /// row-major for the backward ones.  Padded lanes are computed but never
  /// read back.
  const float *w1t, *w2t, *w1r, *w2r;
  const std::int32_t* ctx;     ///< C context tokens per prediction
  const std::int32_t* target;  ///< one per prediction
  float* terms;                ///< each prediction's loss term
  /// One row per prediction of the chunk, padded to whole tiles: x holds
  /// the context embeddings, h the hidden layer, dl the logits and then
  /// their gradient, dh and dx (backward only) the hidden and input
  /// gradients.
  float *x, *h, *dl, *dh, *dx;
  /// Backward only: the W1 and W2 gradients, laid out like w1r and w2r with
  /// the rows padded too, so every tile is whole; and the gradient itself.
  float *g1, *g2, *grad;
};

template <class Isa>
[[gnu::always_inline]] inline void mlp_phase_a(const MlpJob& j,
                                               std::size_t part) {
  const std::size_t V = j.V, De = j.De, H = j.H, C = j.C, K = j.K,
                    Vp = j.Vp, Hp = j.Hp, Kp = j.Kp;
  // Rows r of the chunk, prediction j.first + r.
  const std::size_t tiles = (j.n + kTileRows - 1) / kTileRows;
  const std::size_t begin = tiles * part / j.parts * kTileRows;
  const std::size_t end =
      std::min(j.n, tiles * (part + 1) / j.parts * kTileRows);
  for (std::size_t r0 = begin; r0 < end; r0 += kBlock) {
    const std::size_t nb = std::min(kBlock, end - r0);
    const std::size_t rows = (nb + kTileRows - 1) / kTileRows * kTileRows;
    const std::size_t p0 = j.first + r0;
    float* x = j.x + r0 * Kp;
    float* h = j.h + r0 * Hp;
    float* dl = j.dl + r0 * Vp;

    // Gather.  Padding rows and columns are zeroed, so the padded outputs
    // they feed are zero too.
    for (std::size_t r = 0; r < rows; ++r) {
      float* xr = x + r * Kp;
      if (r == nb) {
        std::fill(xr, x + rows * Kp, 0.0f);
        break;
      }
      for (std::size_t c = 0; c < C; ++c) {
        const auto tok = static_cast<std::size_t>(j.ctx[(p0 + r) * C + c]);
        std::memcpy(xr + c * De, j.embed + tok * De, De * sizeof(float));
      }
      std::fill(xr + K, xr + Kp, 0.0f);
    }

    // Forward.
    run_product<Isa>({x, Kp, 1, j.w1t, Hp, h, Hp, rows, Hp, K});
    for (std::size_t r = 0; r < nb; ++r) {
      float* hr = h + r * Hp;
#ifdef PAPAYA_MLP_X86
      for (std::size_t i = 0; i < H; ++i) hr[i] += j.b1[i];
      tanh_lanes<Isa>(hr, Hp);
#else
      for (std::size_t i = 0; i < H; ++i) hr[i] = std::tanh(hr[i] + j.b1[i]);
#endif
    }
    run_product<Isa>({h, Hp, 1, j.w2t, Vp, dl, Vp, rows, Vp, H});
    for (std::size_t r = 0; r < nb; ++r) {
      float* l = dl + r * Vp;
      for (std::size_t v = 0; v < V; ++v) l[v] += j.b2[v];
      // log_sum_exp and the softmax share m, every exp(l - m) and the sum.
      float m = l[0];
      for (std::size_t v = 1; v < V; ++v) {
        if (m < l[v]) m = l[v];
      }
      const auto tv = static_cast<std::size_t>(j.target[p0 + r]);
      const float logit_target = l[tv];
      for (std::size_t v = 0; v < V; ++v) l[v] -= m;
      exp_in_place(l, V);
      float sum = 0.0f;
      for (std::size_t v = 0; v < V; ++v) sum += l[v];
      const float lse = m + std::log(sum);
      j.terms[p0 + r] = lse - logit_target;
      if (!j.backward) continue;
      // dlogits = softmax - onehot(target), scaled by 1/n_pred.
      for (std::size_t v = 0; v < V; ++v) l[v] /= sum;
      l[tv] -= 1.0f;
      for (std::size_t v = 0; v < V; ++v) l[v] *= j.inv_n;
    }
    if (!j.backward) continue;

    // Back to the input.
    float* dh = j.dh + r0 * Hp;
    float* dx = j.dx + r0 * Kp;
    run_product<Isa>({dl, Vp, 1, j.w2r, Hp, dh, Hp, rows, Hp, V});
    for (std::size_t r = 0; r < nb; ++r) {
      float* dhr = dh + r * Hp;
      const float* hr = h + r * Hp;
      // tanh_derivative_from_output, inline.
      for (std::size_t i = 0; i < H; ++i) dhr[i] *= 1.0f - hr[i] * hr[i];
    }
    run_product<Isa>({dh, Hp, 1, j.w1r, Kp, dx, Kp, rows, Kp, H});
  }
}

template <class Isa>
[[gnu::always_inline]] inline void mlp_phase_b(const MlpJob& j,
                                               std::size_t part) {
  const std::size_t V = j.V, De = j.De, H = j.H, C = j.C, K = j.K,
                    Vp = j.Vp, Hp = j.Hp, Kp = j.Kp, n = j.n;
  // The chunk's sums continue the previous chunks'; the last chunk's go out
  // to grad.
  const bool more = j.first > 0;
  const bool last = j.first + n == j.n_pred;
  // The part's output rows: a contiguous run of the W2 gradient's row tiles
  // followed by the W1 gradient's.
  const std::size_t t2 = Vp / kTileRows, tiles = t2 + Hp / kTileRows;
  const std::size_t first = tiles * part / j.parts;
  const std::size_t end = tiles * (part + 1) / j.parts;
  if (first < t2) {
    const std::size_t r0 = first * kTileRows;
    const std::size_t r1 = std::min(end, t2) * kTileRows;
    run_product<Isa>({j.dl + r0, 1, Vp, j.h, Hp, j.g2 + r0 * Hp, Hp, r1 - r0,
                      Hp, n, more});
    const std::size_t v1 = std::min(r1, V);
    float* gb2 = j.grad + j.at->b2;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t v = r0; v < v1; ++v) gb2[v] += j.dl[p * Vp + v];
    }
    for (std::size_t v = r0; last && v < v1; ++v) {
      std::copy_n(j.g2 + v * Hp, H, j.grad + j.at->w2 + v * H);
    }
  }
  if (end > t2) {
    const std::size_t r0 = (std::max(first, t2) - t2) * kTileRows;
    const std::size_t r1 = (end - t2) * kTileRows;
    run_product<Isa>({j.dh + r0, 1, Hp, j.x, Kp, j.g1 + r0 * Kp, Kp, r1 - r0,
                      Kp, n, more});
    const std::size_t i1 = std::min(r1, H);
    float* gb1 = j.grad + j.at->b1;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = r0; i < i1; ++i) gb1[i] += j.dh[p * Hp + i];
    }
    for (std::size_t i = r0; last && i < i1; ++i) {
      std::copy_n(j.g1 + i * Kp, K, j.grad + j.at->w1 + i * K);
    }
  }
  // The embedding-gradient rows of tokens [lo, hi).
  const std::size_t lo = V * part / j.parts, hi = V * (part + 1) / j.parts;
  const std::int32_t* ctx = j.ctx + j.first * C;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t c = 0; c < C; ++c) {
      const auto tok = static_cast<std::size_t>(ctx[p * C + c]);
      if (tok < lo || tok >= hi) continue;
      float* ge = j.grad + tok * De;
      const float* dxc = j.dx + p * Kp + c * De;
      for (std::size_t d = 0; d < De; ++d) ge[d] += dxc[d];
    }
  }
}

using MlpPhase = void (*)(const MlpJob&, std::size_t part);

/// One build of the kernel: its two phases, each compiled under the build's
/// target.  A lambda would not inherit a target attribute, so each is a
/// plain function.
struct MlpBuild {
  MlpPhase a, b;
};

void mlp_phase_a_portable(const MlpJob& j, std::size_t part) {
  mlp_phase_a<PortableIsa>(j, part);
}
void mlp_phase_b_portable(const MlpJob& j, std::size_t part) {
  mlp_phase_b<PortableIsa>(j, part);
}
constexpr MlpBuild kPortableBuild{mlp_phase_a_portable, mlp_phase_b_portable};

#ifdef PAPAYA_MLP_X86
/// 32-byte vectors.  The target adds AVX2 and not FMA (see above).
struct Avx2Isa {
  typedef float Vec __attribute__((vector_size(32)));
  typedef std::int32_t IVec __attribute__((vector_size(32)));
};

__attribute__((target("avx2"))) void mlp_phase_a_avx2(const MlpJob& j,
                                                      std::size_t part) {
  mlp_phase_a<Avx2Isa>(j, part);
}
__attribute__((target("avx2"))) void mlp_phase_b_avx2(const MlpJob& j,
                                                      std::size_t part) {
  mlp_phase_b<Avx2Isa>(j, part);
}
constexpr MlpBuild kAvx2Build{mlp_phase_a_avx2, mlp_phase_b_avx2};

bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }();
  return has;
}
#endif  // PAPAYA_MLP_X86

/// The widest build this CPU runs.
const MlpBuild& native_build() {
#ifdef PAPAYA_MLP_X86
  if (cpu_has_avx2()) return kAvx2Build;
#endif
  return kPortableBuild;
}

// ---------------------------------------------------------------------------
// The pool the phases run on.
// ---------------------------------------------------------------------------

/// The most threads one call runs on, the caller included.  The most the
/// kernel has been measured on.
constexpr std::size_t kMaxThreads = 4;
/// How long a worker spins for its next part before it sleeps.  The phases
/// of one call, and the calls of one client's training, come microseconds
/// apart; a wake from sleep takes tens.
constexpr auto kSpin = std::chrono::microseconds(200);

inline void cpu_relax() {
#ifdef PAPAYA_MLP_X86
  _mm_pause();
#endif
}

/// The calling thread plus up to kMaxThreads - 1 workers, as many as the
/// process's CPU affinity mask and cgroup CPU quota allow.  One call holds
/// the pool at a time; a call that finds it held runs its parts on its own
/// thread.  The parts of a phase are claimed one at a time by whichever
/// thread is free, so a worker that wakes late costs the caller nothing.
/// The mutex is a leaf: no thread takes another lock while it holds it, and
/// workers hold no other lock.
class KernelPool {
 public:
  explicit KernelPool(std::size_t threads)
      : workers_(std::make_unique<Worker[]>(threads - 1)) {
    threads_.reserve(threads - 1);
    for (std::size_t w = 0; w + 1 < threads; ++w) {
      try {
        threads_.emplace_back([this, w] { work(workers_[w]); });
      } catch (const std::system_error&) {
        break;  // run on the threads that did start
      }
    }
  }

  ~KernelPool() {
    for (std::size_t w = 0; w < threads_.size(); ++w) wake(workers_[w], kStop);
    for (auto& t : threads_) t.join();
  }

  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

  std::size_t threads() const { return threads_.size() + 1; }

  /// Claims the pool for one call; false if another call holds it.
  bool try_acquire() {
    return !busy_.exchange(true, std::memory_order_acquire);
  }
  void release() { busy_.store(false, std::memory_order_release); }

  /// Runs phase(job, part) for every part < job.parts on the calling thread
  /// and up to threads - 1 workers, and returns when every part has run.
  /// The caller holds the pool.
  void run(MlpPhase phase, const MlpJob& job, std::size_t threads) {
    phase_ = phase;
    job_ = &job;
    done_.store(0, std::memory_order_relaxed);
    const std::uint64_t epoch = ++epochs_;
    claim_.store(epoch << kEpochShift | job.parts << kPartsShift,
                 std::memory_order_release);
    for (std::size_t w = 0; w + 1 < threads; ++w) wake(workers_[w], epoch);
    while (run_part(epoch)) {
    }
    for (std::size_t spins = 0;
         done_.load(std::memory_order_acquire) != job.parts; ++spins) {
      // A worker that holds a part may have lost its CPU.
      if (spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  struct alignas(64) Worker {
    /// The epoch of the last job handed to the worker, or kStop.
    std::atomic<std::uint64_t> go{0};
    util::CondVar wake;
  };

  static constexpr std::uint64_t kStop = ~std::uint64_t{0};
  /// claim_ packs the job's epoch, its part count and the next unclaimed
  /// part, so that a worker holding an old epoch can never claim a part of
  /// a newer job.
  static constexpr unsigned kEpochShift = 16, kPartsShift = 8;
  static_assert(kMaxParts < (1u << kPartsShift));

  void wake(Worker& worker, std::uint64_t go) {
    worker.go.store(go, std::memory_order_release);
    // A worker checks go under the mutex before it sleeps, so once the
    // mutex has been taken here, it either saw go or is waiting.
    { const util::LockGuard lock(mutex_); }
    worker.wake.notify_one();
  }

  /// Claims and runs one part of job `epoch`; false if none is left.
  bool run_part(std::uint64_t epoch) {
    std::uint64_t c = claim_.load(std::memory_order_acquire);
    std::size_t part = 0;
    do {
      part = c & ((1u << kPartsShift) - 1);
      if (c >> kEpochShift != epoch ||
          part >= ((c >> kPartsShift) & ((1u << kPartsShift) - 1))) {
        return false;
      }
    } while (!claim_.compare_exchange_weak(c, c + 1, std::memory_order_acq_rel,
                                           std::memory_order_acquire));
    phase_(*job_, part);
    done_.fetch_add(1, std::memory_order_release);
    return true;
  }

  void work(Worker& me) {
    std::uint64_t seen = 0;
    while (true) {
      seen = next_job(me, seen);
      if (seen == kStop) return;
      while (run_part(seen)) {
      }
    }
  }

  /// The worker's next job: spins for kSpin, then sleeps until woken.
  std::uint64_t next_job(Worker& me, std::uint64_t seen) {
    const auto until = std::chrono::steady_clock::now() + kSpin;
    do {
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t go = me.go.load(std::memory_order_acquire);
        if (go != seen) return go;
        cpu_relax();
      }
    } while (std::chrono::steady_clock::now() < until);
    util::LockGuard lock(mutex_);
    me.wake.wait(mutex_, lock, [&] {
      return me.go.load(std::memory_order_acquire) != seen;
    });
    return me.go.load(std::memory_order_acquire);
  }

  util::Mutex mutex_;
  std::unique_ptr<Worker[]> workers_;
  std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> done_{0};
  // The current job.  The holder writes them before it publishes the job in
  // claim_, and a thread reads them only after claiming one of its parts.
  MlpPhase phase_ = nullptr;
  const MlpJob* job_ = nullptr;
  std::uint64_t epochs_ = 0;  // written by the holder only
  std::vector<std::thread> threads_;  // last: its threads use the above
};

/// A small file's text, or "" if it cannot be read.  Through stdio: an
/// ifstream here added 0.5 MB to the benchmark's peak RSS.
std::string read_text(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[512];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  return text;
}

}  // namespace

namespace detail {

// Whole CPUs a cgroup CPU quota grants a process, or 0 if it has none.
// self_cgroup is the text of /proc/<pid>/cgroup, and mount is where the
// cgroup filesystems are mounted: cgroup v2 at mount itself, v1's cpu
// controller at mount/cpu.  The quota is the least one set on the process's
// cgroup or any ancestor (cpu.max; v1 cpu.cfs_quota_us over
// cpu.cfs_period_us), rounded down, and at least 1.  Not in a header:
// tests/ml_test.cpp declares it to check it on a made-up tree.
std::size_t cgroup_quota_cpus(std::string_view self_cgroup,
                              const std::string& mount) {
  std::size_t cpus = 0;
  const auto bound = [&cpus](double quota, double period) {
    if (!(quota > 0 && period > 0)) return;
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::min(quota / period, 1e6)));
    cpus = cpus == 0 ? n : std::min(cpus, n);
  };
  while (!self_cgroup.empty()) {
    // hierarchy-id:controllers:path
    const std::size_t eol =
        std::min(self_cgroup.find('\n'), self_cgroup.size());
    const std::string_view line = self_cgroup.substr(0, eol);
    self_cgroup.remove_prefix(std::min(eol + 1, self_cgroup.size()));
    const std::size_t a = line.find(':');
    const std::size_t b = line.find(':', a + 1);
    if (a == std::string_view::npos || b == std::string_view::npos) continue;
    const std::string controllers =
        "," + std::string(line.substr(a + 1, b - a - 1)) + ",";
    const bool v2 = controllers == ",,";
    if (!v2 && controllers.find(",cpu,") == std::string::npos) continue;
    const std::string root = v2 ? mount : mount + "/cpu";
    std::string dir = root + std::string(line.substr(b + 1));
    while (dir.size() > root.size() && dir.back() == '/') dir.pop_back();
    // The cgroup, then each ancestor up to the mount's root.  A path that
    // does not exist under the mount (one from outside a cgroup namespace)
    // reads nothing until it reaches the root.
    while (true) {
      if (v2) {
        // "<quota> <period>", or "max <period>" for none; "max" reads as 0.
        const std::string max = read_text(dir + "/cpu.max");
        char* period = nullptr;
        const double quota = std::strtod(max.c_str(), &period);
        bound(quota, std::strtod(period, nullptr));
      } else {
        // -1 for none.
        const std::string quota = read_text(dir + "/cpu.cfs_quota_us");
        const std::string period = read_text(dir + "/cpu.cfs_period_us");
        bound(std::strtod(quota.c_str(), nullptr),
              std::strtod(period.c_str(), nullptr));
      }
      if (dir.size() <= root.size()) break;
      dir.erase(std::max(dir.rfind('/'), root.size()));
    }
  }
  return cpus;
}

}  // namespace detail

namespace {

/// Threads the pool runs on: the CPUs in this process's affinity mask,
/// bounded by its cgroup CPU quota and by kMaxThreads.
std::size_t pool_threads() {
  std::size_t n = std::thread::hardware_concurrency();
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    n = static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const std::size_t quota = detail::cgroup_quota_cpus(
      read_text("/proc/self/cgroup"), "/sys/fs/cgroup");
  if (quota != 0) n = std::min(n, quota);
#endif
  return std::clamp<std::size_t>(n, 1, kMaxThreads);
}

/// Created on the first loss call, not at model construction.
KernelPool& kernel_pool() {
  static KernelPool pool(pool_threads());
  return pool;
}

/// The calling thread's buffers, kept between its calls.
struct MlpScratch {
  std::vector<float> floats;
  std::vector<std::int32_t> tokens;
};

MlpScratch& mlp_scratch() {
  thread_local MlpScratch scratch;
  return scratch;
}

/// MlpLm::loss on `build`, with each phase of a chunk split into `parts`
/// parts (0: one per kBlock predictions of the chunk).
double mlp_loss(const LmConfig& cfg, std::span<const float> params,
                std::span<const Sequence> batch, std::span<float> grad,
                const MlpBuild& build, std::size_t parts) {
  const std::size_t n_pred = LanguageModel::num_predictions(batch);
  const std::size_t V = cfg.vocab_size, De = cfg.embed_dim,
                    H = cfg.hidden_dim, C = cfg.context, K = C * De;
  MlpScratch& s = mlp_scratch();

  // Every prediction's context window [t-C, t), padded on the left with its
  // sequence's first token, and its target.  Every token is checked here,
  // so that no phase throws.
  s.tokens.resize(n_pred * (C + 1));
  std::int32_t* ctx = s.tokens.data();
  std::int32_t* target = ctx + n_pred * C;
  std::size_t p = 0;
  for (const Sequence& seq : batch) {
    for (std::size_t t = 1; t < seq.size(); ++t, ++p) {
      target[p] = seq[t];
      check_token(target[p], V);
      for (std::size_t c = 0; c < C; ++c) {
        ctx[p * C + c] = t + c >= C ? seq[t + c - C] : seq[0];
        check_token(ctx[p * C + c], V);
      }
    }
  }
  if (!grad.empty()) std::fill(grad.begin(), grad.end(), 0.0f);
  if (n_pred == 0) return 0.0;

  const bool backward = !grad.empty();
  const std::size_t chunk = std::min(n_pred, kChunk);
  const MlpLayout at(cfg);
  const std::size_t Vp = pad_lanes(V), Hp = pad_lanes(H), Kp = pad_lanes(K);
  const std::size_t rows = (chunk + kTileRows - 1) / kTileRows * kTileRows;
  const std::size_t weights =
      K * Hp + H * Vp + (backward ? H * Kp + V * Hp : 0);
  const std::size_t activations =
      rows * (Kp + Hp + Vp) +
      (backward ? rows * (Kp + Hp) + Hp * Kp + Vp * Hp : 0);
  s.floats.resize(weights + activations + n_pred);
  float* next = s.floats.data();
  const auto take = [&next](std::size_t n) {
    return std::exchange(next, next + n);
  };

  MlpJob job{};
  job.V = V, job.De = De, job.H = H, job.C = C, job.K = K;
  job.Vp = Vp, job.Hp = Hp, job.Kp = Kp;
  job.at = &at;
  job.n_pred = n_pred;
  job.inv_n = 1.0f / static_cast<float>(n_pred);
  job.backward = backward;
  job.embed = params.data();
  job.b1 = params.data() + at.b1;
  job.b2 = params.data() + at.b2;
  job.ctx = ctx;
  job.target = target;

  std::fill_n(next, weights, 0.0f);
  const float* w1 = params.data() + at.w1;
  const float* w2 = params.data() + at.w2;
  float* w1t = take(K * Hp);
  float* w2t = take(H * Vp);
  for (std::size_t i = 0; i < H; ++i) {
    for (std::size_t k = 0; k < K; ++k) w1t[k * Hp + i] = w1[i * K + k];
  }
  for (std::size_t v = 0; v < V; ++v) {
    for (std::size_t i = 0; i < H; ++i) w2t[i * Vp + v] = w2[v * H + i];
  }
  job.w1t = w1t;
  job.w2t = w2t;
  job.x = take(rows * Kp);
  job.h = take(rows * Hp);
  job.dl = take(rows * Vp);
  if (backward) {
    float* w1r = take(H * Kp);
    float* w2r = take(V * Hp);
    for (std::size_t i = 0; i < H; ++i) {
      std::copy_n(w1 + i * K, K, w1r + i * Kp);
    }
    for (std::size_t v = 0; v < V; ++v) {
      std::copy_n(w2 + v * H, H, w2r + v * Hp);
    }
    job.w1r = w1r;
    job.w2r = w2r;
    job.dh = take(rows * Hp);
    job.dx = take(rows * Kp);
    job.g1 = take(Hp * Kp);
    job.g2 = take(Vp * Hp);
    job.grad = grad.data();
  }
  job.terms = take(n_pred);

  // On the pool a chunk splits into one part per kBlock predictions, and on
  // the calling thread alone into one part.
  const auto blocks = [](std::size_t n) { return (n + kBlock - 1) / kBlock; };
  KernelPool& pool = kernel_pool();
  const bool on_pool =
      std::min(parts != 0 ? parts : blocks(chunk), pool.threads()) > 1 &&
      pool.try_acquire();
  for (job.first = 0; job.first < n_pred; job.first += job.n) {
    job.n = std::min(chunk, n_pred - job.first);
    job.parts = parts != 0 ? parts : on_pool ? blocks(job.n) : 1;
    const std::size_t threads =
        on_pool ? std::min(job.parts, pool.threads()) : 1;
    if (threads > 1) {
      pool.run(build.a, job, threads);
      if (backward) pool.run(build.b, job, threads);
      continue;
    }
    for (std::size_t part = 0; part < job.parts; ++part) build.a(job, part);
    for (std::size_t part = 0; backward && part < job.parts; ++part) {
      build.b(job, part);
    }
  }
  if (on_pool) pool.release();

  double total_loss = 0.0;
  for (std::size_t q = 0; q < n_pred; ++q) total_loss += job.terms[q];
  return total_loss / static_cast<double>(n_pred);
}

}  // namespace

namespace detail {

// The kernel at a chosen split, and the pool's size.  Not in a header:
// tests/ml_test.cpp declares them to check that every build, at every split,
// returns MlpLm::loss's bits.  avx2 needs an AVX2 CPU; parts is 1 to
// kMaxParts.
double mlp_loss_parts(const LmConfig& cfg, std::span<const float> params,
                      std::span<const Sequence> batch, std::span<float> grad,
                      bool avx2, std::size_t parts) {
  parts = std::clamp<std::size_t>(parts, 1, kMaxParts);
#ifdef PAPAYA_MLP_X86
  if (avx2) return mlp_loss(cfg, params, batch, grad, kAvx2Build, parts);
#endif
  (void)avx2;
  return mlp_loss(cfg, params, batch, grad, kPortableBuild, parts);
}

std::size_t mlp_pool_threads() { return kernel_pool().threads(); }

#ifdef PAPAYA_MLP_X86
// The ports the kernel builds run, over whole arrays.  Not in a header:
// tests/ml_test.cpp and tests/libm_lanes_sweep.cpp declare them to check
// them against libm.  n is a multiple of 8; tanh_avx2 needs an AVX2 CPU and
// exp_fma one with FMA and AVX2.
void tanh_portable(float* x, std::size_t n) { tanh_lanes<PortableIsa>(x, n); }

__attribute__((target("avx2"))) void tanh_avx2(float* x, std::size_t n) {
  tanh_lanes<Avx2Isa>(x, n);
}

void exp_fma(float* x, std::size_t n) { exp_fma_lanes(x, n); }
#endif  // PAPAYA_MLP_X86

}  // namespace detail

namespace {

class MlpLm final : public LanguageModel {
 public:
  MlpLm(const LmConfig& cfg, util::Rng& rng) : cfg_(cfg) {
    params_.resize(MlpLayout(cfg).size);
    init_params(params_, rng);
  }

  std::size_t num_params() const override { return params_.size(); }
  std::span<float> params() override { return params_; }
  std::span<const float> params() const override { return params_; }

  double loss(std::span<const Sequence> batch,
              std::span<float> grad) const override {
    if (!grad.empty() && grad.size() != params_.size()) {
      throw std::invalid_argument("MlpLm::loss: gradient buffer size mismatch");
    }
    return mlp_loss(cfg_, params_, batch, grad, native_build(), 0);
  }

  std::unique_ptr<LanguageModel> clone() const override {
    return std::make_unique<MlpLm>(*this);
  }

 private:
  LmConfig cfg_;
  std::vector<float> params_;
};

}  // namespace

std::unique_ptr<LanguageModel> make_mlp_lm(const LmConfig& config,
                                           util::Rng& rng) {
  return std::make_unique<MlpLm>(config, rng);
}

}  // namespace papaya::ml
