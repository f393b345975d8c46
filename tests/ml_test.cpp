// Tests for the ML substrate: kernel correctness, finite-difference gradient
// checks for both model architectures, optimizer behaviour, dataset
// properties, and end-to-end trainability.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/math.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace papaya::ml {
namespace detail {
// MlpLm::loss (src/ml/model.cpp) on the portable or the AVX2 build, with
// each of its two phases split into `parts` parts (1 to 64) per chunk, run
// on up to as many of the kernel pool's threads; and how many threads the
// pool has.  MlpLm::loss itself takes the widest build the CPU has and, on
// the pool, one part per 32 predictions.
double mlp_loss_parts(const LmConfig& cfg, std::span<const float> params,
                      std::span<const Sequence> batch, std::span<float> grad,
                      bool avx2, std::size_t parts);
std::size_t mlp_pool_threads();
// Whole CPUs a cgroup CPU quota grants, given the text of /proc/<pid>/cgroup
// and the cgroup mount point; 0 if no quota is set.
std::size_t cgroup_quota_cpus(std::string_view self_cgroup,
                              const std::string& mount);
#if defined(__x86_64__)
// The kernel's tanh and exp ports (src/ml/model.cpp): tanh at 4 and 8 lanes
// and glibc's fused expf.  n is a multiple of 8.
void tanh_portable(float* x, std::size_t n);
void tanh_avx2(float* x, std::size_t n);
void exp_fma(float* x, std::size_t n);
#endif
}  // namespace detail

namespace {

// ------------------------------------------------------------------ Math --

TEST(Math, MatvecKnownValues) {
  // W = [[1,2],[3,4],[5,6]], x = [1,-1] -> y = [-1,-1,-1].
  const std::vector<float> w{1, 2, 3, 4, 5, 6};
  const std::vector<float> x{1, -1};
  std::vector<float> y(3);
  matvec(w, x, y, 3, 2);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], -1.0f);
  EXPECT_FLOAT_EQ(y[2], -1.0f);
}

TEST(Math, MatvecTransposedIsAdjoint) {
  // Property: <Wx, y> == <x, W^T y> for random inputs.
  util::Rng rng(1);
  const std::size_t rows = 7, cols = 5;
  std::vector<float> w(rows * cols), x(cols), y(rows), wx(rows), wty(cols);
  for (auto& v : w) v = static_cast<float>(rng.normal());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  matvec(w, x, wx, rows, cols);
  matvec_transposed(w, y, wty, rows, cols);
  EXPECT_NEAR(dot(wx, y), dot(x, wty), 1e-4);
}

TEST(Math, SoftmaxSumsToOneAndIsStable) {
  std::vector<float> x{1000.0f, 1000.0f, 999.0f};
  softmax_in_place(x);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0f, 1e-6);
  EXPECT_GT(x[0], x[2]);
  EXPECT_FALSE(std::isnan(x[0]));
}

TEST(Math, LogSumExpMatchesNaiveForSmallValues) {
  const std::vector<float> x{0.1f, 0.2f, 0.3f};
  const double naive =
      std::log(std::exp(0.1) + std::exp(0.2) + std::exp(0.3));
  EXPECT_NEAR(log_sum_exp(x), naive, 1e-6);
}

TEST(Math, ClipNormScalesDownOnly) {
  std::vector<float> x{3.0f, 4.0f};  // norm 5
  clip_norm(x, 10.0f);
  EXPECT_FLOAT_EQ(x[0], 3.0f);
  clip_norm(x, 1.0f);
  EXPECT_NEAR(norm(x), 1.0f, 1e-6);
}

// ------------------------------------------------- tanh and exp ports --
//
// The kernel's ports of glibc's tanhf and expf must return libm's bits.
// These tests check a sample of the float inputs; tests/libm_lanes_sweep.cpp
// checks all 2^32 of them.

#if defined(__x86_64__)

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Expects each of `ports` to return libm's bits on every float bit pattern
/// at a prime stride; on ±256 ulps around each of `thresholds` and around
/// its negation; and on ±0, subnormals, ±inf and NaN payloads.
void expect_ports_match_libm(
    const std::vector<void (*)(float*, std::size_t)>& ports,
    float (*libm)(float), std::initializer_list<float> thresholds) {
  std::vector<std::uint32_t> bits;
  for (std::uint64_t b = 0; b <= UINT32_MAX; b += 509) {
    bits.push_back(static_cast<std::uint32_t>(b));
  }
  for (const std::uint32_t b : {0x00000000u, 0x00000001u, 0x00000002u,
                                0x003fffffu, 0x00400000u, 0x007fffffu,
                                0x7f800000u, 0x7f800001u, 0x7fa00000u,
                                0x7fc00000u, 0x7fc00001u, 0x7fffffffu}) {
    bits.push_back(b);
    bits.push_back(b | 0x80000000u);
  }
  for (const float t : thresholds) {
    for (const std::uint32_t b : {bits_of(t), bits_of(-t)}) {
      for (std::uint32_t d = 0; d <= 512; ++d) bits.push_back(b - 256 + d);
    }
  }
  bits.resize((bits.size() + 7) / 8 * 8);

  // A chunk at a time, so that no buffer outgrows the cache.
  constexpr std::size_t kChunk = 1 << 14;
  std::vector<float> in(kChunk), want(kChunk), out(kChunk);
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < bits.size(); c += kChunk) {
    const std::size_t n = std::min(kChunk, bits.size() - c);
    std::memcpy(in.data(), bits.data() + c, n * sizeof(float));
    for (std::size_t i = 0; i < n; ++i) want[i] = libm(in[i]);
    for (const auto port : ports) {
      std::copy_n(in.begin(), n, out.begin());
      port(out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (bits_of(want[i]) == bits_of(out[i])) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << std::hexfloat << "x = " << in[i] << ": port "
                        << out[i] << ", libm " << want[i];
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << bits.size() << " inputs";
}

TEST(VecMath, TanhMatchesLibmBitForBit) {
  __builtin_cpu_init();
  std::vector<void (*)(float*, std::size_t)> ports = {detail::tanh_portable};
  if (__builtin_cpu_supports("avx2")) ports.push_back(detail::tanh_avx2);
  // tanhf branches at |x| = 22, 2^-55 and 1.  expm1f(±2|x|) branches at
  // |2x| = 27 ln2, ln2/2, 1.5 ln2 and 2^-25 and where k reaches 23 and 57;
  // k steps to -3 at |2x| = 2.5 ln2.
  expect_ports_match_libm(
      ports, [](float x) { return std::tanh(x); },
      {22.0f, 0x1p-55f, 1.0f, 0x1.2b7088p+3f, 0x1.62e430p-3f, 0x1.0a2b24p-1f,
       0x1p-26f, 0x1.bb9d3cp-1f, 0x1.f310e4p+2f, 0x1.394d72p+4f});
}

TEST(VecMath, ExpMatchesLibmBitForBit) {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "glibc runs its unfused expf here; so does the kernel";
  }
  // expf leaves its main path at |x| = 88 and overflows or underflows past
  // the next three.  The last two are the only inputs on which glibc's
  // unfused build of expf differs from its fused one.
  expect_ports_match_libm(
      {detail::exp_fma}, [](float x) { return std::exp(x); },
      {88.0f, 0x1.62e42ep+6f, 0x1.9fe368p+6f, 0x1.9d1d9ep+6f, 0x1.04845ep+5f,
       0x1.f8cbb2p+5f});
}

#endif  // __x86_64__

// -------------------------------------------------------- Gradient checks --

/// Central-difference gradient check over a random subset of parameters.
void check_gradients(LanguageModel& model, std::span<const Sequence> batch,
                     double tolerance) {
  std::vector<float> grad(model.num_params());
  model.loss(batch, grad);

  util::Rng rng(7);
  const float eps = 1e-3f;
  const std::size_t checks = std::min<std::size_t>(60, model.num_params());
  for (std::size_t c = 0; c < checks; ++c) {
    const std::size_t i = rng.uniform_int(model.num_params());
    const float saved = model.params()[i];
    model.params()[i] = saved + eps;
    const double up = model.loss(batch, {});
    model.params()[i] = saved - eps;
    const double down = model.loss(batch, {});
    model.params()[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric,
                tolerance * std::max(1.0, std::fabs(numeric)))
        << "param " << i;
  }
}

std::vector<Sequence> tiny_batch() {
  return {{0, 3, 1, 4, 1, 5}, {2, 7, 1, 0}, {5, 5, 5}};
}

TEST(MlpLm, GradientsMatchFiniteDifferences) {
  LmConfig cfg;
  cfg.vocab_size = 8;
  cfg.embed_dim = 5;
  cfg.hidden_dim = 6;
  cfg.context = 2;
  util::Rng rng(11);
  auto model = make_mlp_lm(cfg, rng);
  const auto batch = tiny_batch();
  check_gradients(*model, batch, 2e-2);
}

// ------------------------------------------------------ MLP kernel oracle --

/// MlpLm::loss as it was before the block kernel: one prediction at a time
/// through the public math kernels, over the flat parameter layout
/// E[V*De] | W1[H*(C*De)] | b1[H] | W2[V*H] | b2[V].  The block kernel must
/// match it bit for bit.
double mlp_loss_reference(const LmConfig& cfg, std::span<const float> params,
                          std::span<const Sequence> batch,
                          std::span<float> grad) {
  if (!grad.empty()) std::fill(grad.begin(), grad.end(), 0.0f);
  const std::size_t n_pred = LanguageModel::num_predictions(batch);
  if (n_pred == 0) return 0.0;
  const float inv_n = 1.0f / static_cast<float>(n_pred);

  const std::size_t V = cfg.vocab_size, De = cfg.embed_dim,
                    H = cfg.hidden_dim, C = cfg.context;
  const std::size_t o_w1 = V * De, o_b1 = o_w1 + H * C * De, o_w2 = o_b1 + H,
                    o_b2 = o_w2 + V * H;
  const auto embed = params.subspan(0, V * De);
  const auto w1 = params.subspan(o_w1, H * C * De);
  const auto b1 = params.subspan(o_b1, H);
  const auto w2 = params.subspan(o_w2, V * H);
  const auto b2 = params.subspan(o_b2, V);

  std::vector<float> x(C * De), h(H), logits(V), dh(H), dx(C * De);
  std::vector<std::int32_t> ctx(C);
  double total_loss = 0.0;
  for (const auto& seq : batch) {
    if (seq.size() < 2) continue;
    for (std::size_t t = 1; t < seq.size(); ++t) {
      const std::int32_t target = seq[t];
      for (std::size_t j = 0; j < C; ++j) {
        ctx[j] = t + j >= C ? seq[t + j - C] : seq[0];
        std::copy_n(embed.data() + static_cast<std::size_t>(ctx[j]) * De, De,
                    x.data() + j * De);
      }
      matvec(w1, x, h, H, C * De);
      for (std::size_t i = 0; i < H; ++i) h[i] = std::tanh(h[i] + b1[i]);
      matvec(w2, h, logits, V, H);
      for (std::size_t i = 0; i < V; ++i) logits[i] += b2[i];

      const float lse = log_sum_exp(logits);
      total_loss += lse - logits[static_cast<std::size_t>(target)];
      if (grad.empty()) continue;

      softmax_in_place(logits);
      logits[static_cast<std::size_t>(target)] -= 1.0f;
      for (auto& v : logits) v *= inv_n;

      const auto g_embed = grad.subspan(0, V * De);
      const auto g_w1 = grad.subspan(o_w1, H * C * De);
      const auto g_b1 = grad.subspan(o_b1, H);
      const auto g_w2 = grad.subspan(o_w2, V * H);
      const auto g_b2 = grad.subspan(o_b2, V);
      outer_accumulate(g_w2, logits, h, 1.0f, V, H);
      axpy(g_b2, logits, 1.0f);
      matvec_transposed(w2, logits, dh, V, H);
      for (std::size_t i = 0; i < H; ++i) {
        dh[i] *= tanh_derivative_from_output(h[i]);
      }
      outer_accumulate(g_w1, dh, x, 1.0f, H, C * De);
      axpy(g_b1, dh, 1.0f);
      matvec_transposed(w1, dh, dx, H, C * De);
      for (std::size_t j = 0; j < C; ++j) {
        float* ge = g_embed.data() + static_cast<std::size_t>(ctx[j]) * De;
        for (std::size_t d = 0; d < De; ++d) ge[d] += dx[j * De + d];
      }
    }
  }
  return total_loss / static_cast<double>(n_pred);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The kernel builds this CPU runs: portable, and AVX2 where it has it.
std::vector<bool> kernel_builds() {
  std::vector<bool> avx2 = {false};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) avx2.push_back(true);
#endif
  return avx2;
}

/// The splits the bit-exactness tests run the kernel at: 1, 2 and 3 parts,
/// one per thread of the pool, and 64, one 4-row tile of phase A each, so
/// that parts outnumber threads.
std::vector<std::size_t> kernel_splits() {
  std::vector<std::size_t> parts = {1, 2, 3};
  const std::size_t max = detail::mlp_pool_threads();
  if (std::find(parts.begin(), parts.end(), max) == parts.end()) {
    parts.push_back(max);
  }
  parts.push_back(64);
  return parts;
}

TEST(MlpLm, BlockKernelMatchesPerExampleReferenceBitForBit) {
  // Random shapes, including sequences shorter than the context, saturated
  // tanh (weights x20) and repeated context tokens (tokens from {0, 1}).
  // Trials 600 on add two families: weights x300, so logit spreads pass 104
  // and exp vectors go to libm whole; and W1 = b1 = 0, so every tanh input
  // is ±0.  MlpLm::loss runs as it dispatches, and each build of the kernel
  // runs at every split in kernel_splits().
  const std::vector<bool> builds = kernel_builds();
  const std::vector<std::size_t> splits = kernel_splits();
  util::Rng rng(2024);
  for (int trial = 0; trial < 680; ++trial) {
    LmConfig cfg;
    cfg.vocab_size = 2 + rng.uniform_int(90);
    cfg.embed_dim = 1 + rng.uniform_int(20);
    cfg.hidden_dim = 1 + rng.uniform_int(40);
    cfg.context = 1 + rng.uniform_int(6);
    auto model = make_mlp_lm(cfg, rng);
    if (trial >= 600 && trial % 2 == 0) {
      for (auto& p : model->params()) p *= 300.0f;
    } else if (trial >= 600) {
      // W1 | b1 follow E in the layout.
      const std::size_t w1 = cfg.vocab_size * cfg.embed_dim;
      const std::size_t w1_b1 =
          cfg.hidden_dim * (cfg.context * cfg.embed_dim + 1);
      std::fill_n(model->params().begin() + static_cast<std::ptrdiff_t>(w1),
                  w1_b1, 0.0f);
    } else if (trial % 3 == 0) {
      for (auto& p : model->params()) p *= 20.0f;
    }
    const std::uint64_t vocab = trial % 4 == 1 ? 2 : cfg.vocab_size;
    std::vector<Sequence> batch(rng.uniform_int(40));
    for (auto& seq : batch) {
      seq.resize(rng.uniform_int(22));
      for (auto& tok : seq) tok = static_cast<std::int32_t>(rng.uniform_int(vocab));
    }

    std::vector<float> want(model->num_params());
    const double want_loss = mlp_loss_reference(cfg, model->params(), batch, want);
    const std::string where = "trial " + std::to_string(trial);

    std::vector<float> got(model->num_params(), -1.0f);
    EXPECT_TRUE(same_bits(model->loss(batch, got), want_loss)) << where;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << where;
    EXPECT_TRUE(same_bits(model->loss(batch, {}), want_loss)) << where;

    for (const bool avx2 : builds) {
      for (const std::size_t parts : splits) {
        const std::string at = where + (avx2 ? ", avx2" : ", portable") +
                               ", " + std::to_string(parts) + " parts";
        std::fill(got.begin(), got.end(), -1.0f);
        EXPECT_TRUE(same_bits(detail::mlp_loss_parts(cfg, model->params(),
                                                     batch, got, avx2, parts),
                              want_loss))
            << at;
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
            << at;
        EXPECT_TRUE(same_bits(detail::mlp_loss_parts(cfg, model->params(),
                                                     batch, {}, avx2, parts),
                              want_loss))
            << at;
      }
    }
  }
}

/// A model and a batch of about 400 predictions, enough for MlpLm::loss to
/// run on every thread of the kernel pool.
struct PoolSizedCase {
  PoolSizedCase() {
    cfg.vocab_size = 64;
    cfg.embed_dim = 12;
    cfg.hidden_dim = 24;
    cfg.context = 2;
    util::Rng rng(31);
    model = make_mlp_lm(cfg, rng);
    batch.resize(40);
    for (auto& seq : batch) {
      seq.resize(11);
      for (auto& tok : seq) {
        tok = static_cast<std::int32_t>(rng.uniform_int(cfg.vocab_size));
      }
    }
    want.resize(model->num_params());
    want_loss = mlp_loss_reference(cfg, model->params(), batch, want);
  }
  LmConfig cfg;
  std::unique_ptr<LanguageModel> model;
  std::vector<Sequence> batch;
  std::vector<float> want;
  double want_loss = 0.0;
};

TEST(MlpLm, ConcurrentCallsReturnReferenceBits) {
  // One call at a time holds the kernel pool; the others run on their own
  // thread.  Every call must return the reference's bits either way.
  const PoolSizedCase c;
  constexpr int kThreads = 4, kCalls = 25;
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<float> got(c.model->num_params());
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kCalls; ++i) {
        const bool backward = i % 2 == 0;
        const double loss =
            c.model->loss(c.batch, backward ? std::span<float>(got)
                                            : std::span<float>());
        if (!same_bits(loss, c.want_loss) ||
            (backward && std::memcmp(got.data(), c.want.data(),
                                     got.size() * sizeof(float)) != 0)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(MlpLm, OutOfVocabTokenThrowsBeforeAnyWork) {
  // The last token of the last sequence is outside the vocabulary.  Tokens
  // are checked on the calling thread before any part runs, so the call
  // throws with the gradient untouched, and the next call is unharmed.
  PoolSizedCase c;
  std::vector<Sequence> bad = c.batch;
  bad.back().back() = static_cast<std::int32_t>(c.cfg.vocab_size);
  std::vector<float> got(c.model->num_params(), -1.0f);
  EXPECT_THROW(c.model->loss(bad, got), std::out_of_range);
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](float g) { return g == -1.0f; }));
  EXPECT_THROW(c.model->loss(bad, {}), std::out_of_range);

  EXPECT_TRUE(same_bits(c.model->loss(c.batch, got), c.want_loss));
  EXPECT_EQ(std::memcmp(got.data(), c.want.data(), got.size() * sizeof(float)),
            0);
  EXPECT_TRUE(same_bits(c.model->loss(c.batch, {}), c.want_loss));
}

TEST(MlpLm, KernelPoolHonoursTheCgroupCpuQuota) {
  // A made-up cgroup mount: the quota is the least set on the process's
  // cgroup or an ancestor, in whole CPUs and at least one.
  namespace fs = std::filesystem;
  const fs::path mount =
      fs::temp_directory_path() /
      ("papaya_cgroup_" + std::to_string(std::random_device{}()));
  const auto put = [&mount](const std::string& file, const std::string& text) {
    fs::create_directories((mount / file).parent_path());
    std::ofstream(mount / file) << text << "\n";
  };
  put("a/b/cpu.max", "max 100000");
  put("a/cpu.max", "250000 100000");
  put("cpu.max", "max 100000");
  put("cpu/x/cpu.cfs_quota_us", "-1");
  put("cpu/x/cpu.cfs_period_us", "100000");
  put("cpu/cpu.cfs_quota_us", "50000");
  put("cpu/cpu.cfs_period_us", "100000");
  const std::string m = mount.string();

  // cgroup v2: the quota on the parent bounds the child.
  EXPECT_EQ(detail::cgroup_quota_cpus("0::/a/b\n", m), 2u);
  EXPECT_EQ(detail::cgroup_quota_cpus("0::/a/\n", m), 2u);
  EXPECT_EQ(detail::cgroup_quota_cpus("0::/\n", m), 0u);
  // A path from outside the cgroup namespace reads up to the mount's root.
  EXPECT_EQ(detail::cgroup_quota_cpus("0::/docker/abc\n", m), 0u);
  // cgroup v1's cpu controller, alone or with others; half a CPU rounds up
  // to one.  Other controllers' lines are skipped.
  EXPECT_EQ(detail::cgroup_quota_cpus("4:memory:/a\n1:cpu,cpuacct:/x\n", m),
            1u);
  EXPECT_EQ(detail::cgroup_quota_cpus("2:cpuacct:/x\n", m), 0u);
  // Both, as on a hybrid host: the least wins.
  EXPECT_EQ(detail::cgroup_quota_cpus("1:cpu:/\n0::/a/b\n", m), 1u);
  EXPECT_EQ(detail::cgroup_quota_cpus("", m), 0u);
  EXPECT_EQ(detail::cgroup_quota_cpus("0::/a/b\n", m + "/missing"), 0u);
  fs::remove_all(mount);

  EXPECT_GE(detail::mlp_pool_threads(), 1u);
  EXPECT_LE(detail::mlp_pool_threads(), 4u);
}

TEST(LstmLm, GradientsMatchFiniteDifferences) {
  LmConfig cfg;
  cfg.vocab_size = 8;
  cfg.embed_dim = 4;
  cfg.hidden_dim = 5;
  util::Rng rng(12);
  auto model = make_lstm_lm(cfg, rng);
  const auto batch = tiny_batch();
  check_gradients(*model, batch, 2e-2);
}

TEST(LanguageModel, LossIsLogVocabAtInit) {
  // With near-zero init, predictions are near-uniform: loss ~ log(V).
  LmConfig cfg;
  cfg.vocab_size = 32;
  util::Rng rng(13);
  for (auto factory : {&make_mlp_lm, &make_lstm_lm}) {
    auto model = factory(cfg, rng);
    const auto batch = std::vector<Sequence>{{1, 2, 3, 4, 5, 6, 7, 8}};
    EXPECT_NEAR(model->loss(batch, {}), std::log(32.0), 0.2);
  }
}

TEST(LanguageModel, PerplexityIsExpOfLoss) {
  LmConfig cfg;
  cfg.vocab_size = 16;
  util::Rng rng(14);
  auto model = make_mlp_lm(cfg, rng);
  const auto batch = std::vector<Sequence>{{1, 2, 3, 4}};
  EXPECT_NEAR(model->perplexity(batch), std::exp(model->loss(batch, {})), 1e-6);
}

TEST(LanguageModel, EmptyAndSingletonSequencesContributeNothing) {
  LmConfig cfg;
  cfg.vocab_size = 16;
  util::Rng rng(15);
  auto model = make_mlp_lm(cfg, rng);
  const std::vector<Sequence> batch{{}, {3}};
  EXPECT_DOUBLE_EQ(model->loss(batch, {}), 0.0);
  EXPECT_EQ(LanguageModel::num_predictions(batch), 0u);
}

TEST(LanguageModel, OutOfVocabTokenThrows) {
  LmConfig cfg;
  cfg.vocab_size = 8;
  util::Rng rng(16);
  auto model = make_mlp_lm(cfg, rng);
  const std::vector<Sequence> batch{{1, 99}};
  EXPECT_THROW(model->loss(batch, {}), std::out_of_range);
}

TEST(LanguageModel, CloneIsIndependentDeepCopy) {
  LmConfig cfg;
  cfg.vocab_size = 8;
  util::Rng rng(17);
  auto model = make_lstm_lm(cfg, rng);
  auto copy = model->clone();
  copy->params()[0] += 1.0f;
  EXPECT_NE(model->params()[0], copy->params()[0]);
}

TEST(LanguageModel, TrainingReducesLossOnFixedBatch) {
  // Overfit check for both architectures: SGD on one batch must drive the
  // loss well below the uniform baseline.
  LmConfig cfg;
  cfg.vocab_size = 12;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  util::Rng rng(18);
  const std::vector<Sequence> batch{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
                                    {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}};
  for (auto factory : {&make_mlp_lm, &make_lstm_lm}) {
    auto model = factory(cfg, rng);
    const double initial = model->loss(batch, {});
    std::vector<float> grad(model->num_params());
    Adam adam(model->num_params(), {.lr = 0.05f});
    for (int step = 0; step < 400; ++step) {
      model->loss(batch, grad);
      adam.step(model->params(), grad);
    }
    const double final_loss = model->loss(batch, {});
    EXPECT_LT(final_loss, initial * 0.5);
  }
}

// -------------------------------------------------------------- Optimizers --

TEST(Sgd, StepMovesAgainstGradient) {
  std::vector<float> params{1.0f, 2.0f};
  std::vector<float> grad{0.5f, -0.5f};
  const Sgd sgd(0.1f);
  sgd.step(params, grad);
  EXPECT_FLOAT_EQ(params[0], 0.95f);
  EXPECT_FLOAT_EQ(params[1], 2.05f);
}

TEST(Sgd, SizeMismatchThrows) {
  std::vector<float> params{1.0f, 2.0f};
  std::vector<float> grad{0.5f};
  const Sgd sgd(0.1f);
  EXPECT_THROW(sgd.step(params, grad), std::invalid_argument);
  EXPECT_FLOAT_EQ(params[1], 2.0f);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, Adam's first step has magnitude ~lr regardless of
  // gradient scale.
  for (float scale : {0.01f, 1.0f, 100.0f}) {
    Adam adam(1, {.lr = 0.1f});
    std::vector<float> params{0.0f};
    const std::vector<float> grad{scale};
    adam.step(params, grad);
    EXPECT_NEAR(params[0], -0.1f, 1e-3) << "scale " << scale;
  }
}

TEST(Adam, ConvergesOnQuadratic) {
  Adam adam(1, {.lr = 0.1f});
  std::vector<float> params{5.0f};
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> grad{2.0f * params[0]};  // d/dx x^2
    adam.step(params, grad);
  }
  EXPECT_NEAR(params[0], 0.0f, 0.05f);
}

TEST(FedAdam, AppliesDeltaInItsDirection) {
  // A positive aggregated delta must move parameters up (FedAdam adds).
  FedAdam opt(2, {.lr = 0.1f});
  std::vector<float> params{0.0f, 0.0f};
  const std::vector<float> delta{1.0f, -1.0f};
  opt.step(params, delta);
  EXPECT_GT(params[0], 0.0f);
  EXPECT_LT(params[1], 0.0f);
}

TEST(FedAdam, SizeMismatchThrows) {
  FedAdam opt(2, {});
  std::vector<float> params{0.0f, 0.0f};
  const std::vector<float> delta{1.0f};
  EXPECT_THROW(opt.step(params, delta), std::invalid_argument);
}

TEST(FedAdam, RepeatedStepsTrackConstantDelta) {
  FedAdam opt(1, {.lr = 0.01f});
  std::vector<float> params{0.0f};
  for (int i = 0; i < 100; ++i) opt.step(params, std::vector<float>{0.5f});
  EXPECT_GT(params[0], 0.5f);  // accumulated movement in delta direction
}

// -------------------------------------------------- ServerOptimizer family --

TEST(ServerOptimizer, FedAdamKindMatchesFedAdamClassExactly) {
  // The unified optimizer must be a drop-in replacement for the original
  // FedAdam: identical trajectories on an identical delta sequence.
  FedAdam reference(3, {.lr = 0.05f, .beta1 = 0.8f});
  ServerOptimizer unified(
      3, {.kind = ServerOptimizerKind::kFedAdam, .lr = 0.05f, .beta1 = 0.8f});
  std::vector<float> p1{0.1f, -0.2f, 0.3f};
  std::vector<float> p2 = p1;
  for (int s = 0; s < 20; ++s) {
    const std::vector<float> delta{0.1f * s, -0.05f, 0.5f - 0.04f * s};
    reference.step(p1, delta);
    unified.step(p2, delta);
  }
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
}

TEST(ServerOptimizer, FedSgdIsExactlyLrTimesDelta) {
  ServerOptimizer opt(2, {.kind = ServerOptimizerKind::kFedSgd, .lr = 0.5f});
  std::vector<float> params{1.0f, 2.0f};
  opt.step(params, std::vector<float>{0.2f, -0.4f});
  EXPECT_FLOAT_EQ(params[0], 1.1f);
  EXPECT_FLOAT_EQ(params[1], 1.8f);
}

TEST(ServerOptimizer, FedAvgMAcceleratesUnderConstantDelta) {
  // Heavy-ball momentum: with a constant delta, each step is larger than
  // the last (until the geometric series saturates).
  ServerOptimizer opt(1, {.kind = ServerOptimizerKind::kFedAvgM,
                          .lr = 0.1f,
                          .beta1 = 0.9f});
  std::vector<float> params{0.0f};
  const std::vector<float> delta{1.0f};
  opt.step(params, delta);
  const float first = params[0];
  opt.step(params, delta);
  const float second = params[0] - first;
  EXPECT_GT(second, first);
}

TEST(ServerOptimizer, FedAdagradStepSizeDecays) {
  // Adagrad's accumulated v makes successive steps under a constant delta
  // strictly smaller.
  ServerOptimizer opt(1, {.kind = ServerOptimizerKind::kFedAdagrad,
                          .lr = 0.1f,
                          .beta1 = 0.0f});
  std::vector<float> params{0.0f};
  const std::vector<float> delta{1.0f};
  float prev = 0.0f;
  float prev_step = std::numeric_limits<float>::infinity();
  for (int s = 0; s < 5; ++s) {
    opt.step(params, delta);
    const float step = params[0] - prev;
    EXPECT_LT(step, prev_step);
    prev = params[0];
    prev_step = step;
  }
}

TEST(ServerOptimizer, FedYogiSecondMomentMovesTowardDeltaSquared) {
  // Yogi's v update v -= (1-b2) d^2 sign(v - d^2) moves v toward d^2 by a
  // bounded amount each step; under a constant delta the step size
  // stabilizes instead of decaying like Adagrad.
  ServerOptimizer yogi(1, {.kind = ServerOptimizerKind::kFedYogi,
                           .lr = 0.1f,
                           .beta1 = 0.0f,
                           .beta2 = 0.9f});
  ServerOptimizer adagrad(1, {.kind = ServerOptimizerKind::kFedAdagrad,
                              .lr = 0.1f,
                              .beta1 = 0.0f});
  std::vector<float> py{0.0f}, pa{0.0f};
  const std::vector<float> delta{1.0f};
  for (int s = 0; s < 50; ++s) {
    yogi.step(py, delta);
    adagrad.step(pa, delta);
  }
  // Yogi's v converges to d^2 = 1 so its per-step movement stays ~lr/(1+tau);
  // Adagrad's v grows to 50 so it has slowed to ~lr/sqrt(50).
  EXPECT_GT(py[0], pa[0]);
}

TEST(ServerOptimizer, SizeMismatchThrows) {
  ServerOptimizer opt(2, {});
  std::vector<float> params{0.0f, 0.0f};
  EXPECT_THROW(opt.step(params, std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(ServerOptimizer, StepsTakenCounts) {
  ServerOptimizer opt(1, {.kind = ServerOptimizerKind::kFedSgd});
  std::vector<float> params{0.0f};
  EXPECT_EQ(opt.steps_taken(), 0u);
  opt.step(params, std::vector<float>{1.0f});
  opt.step(params, std::vector<float>{1.0f});
  EXPECT_EQ(opt.steps_taken(), 2u);
}

TEST(ServerOptimizer, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(ServerOptimizerKind::kFedSgd), "FedSGD");
  EXPECT_STREQ(to_string(ServerOptimizerKind::kFedAvgM), "FedAvgM");
  EXPECT_STREQ(to_string(ServerOptimizerKind::kFedAdagrad), "FedAdagrad");
  EXPECT_STREQ(to_string(ServerOptimizerKind::kFedAdam), "FedAdam");
  EXPECT_STREQ(to_string(ServerOptimizerKind::kFedYogi), "FedYogi");
}

/// Every member of the family must move parameters in the delta's direction
/// and drive a 1-D quadratic toward its optimum when fed true deltas.
class ServerOptimizerSweep
    : public ::testing::TestWithParam<ServerOptimizerKind> {};

TEST_P(ServerOptimizerSweep, MovesInDeltaDirection) {
  ServerOptimizer opt(2, {.kind = GetParam(), .lr = 0.05f});
  std::vector<float> params{0.0f, 0.0f};
  opt.step(params, std::vector<float>{1.0f, -1.0f});
  EXPECT_GT(params[0], 0.0f);
  EXPECT_LT(params[1], 0.0f);
}

TEST_P(ServerOptimizerSweep, DrivesQuadraticTowardOptimum) {
  // Pseudo-gradient of f(w) = (w - 3)^2 is -(df/dw) = 2 (3 - w): feeding the
  // descent direction as the "aggregated delta" must approach w = 3.
  // Adagrad's 1/sqrt(sum d^2) decay needs a larger lr to cover the same
  // distance in the same number of steps.
  const float lr = GetParam() == ServerOptimizerKind::kFedAdagrad ? 0.2f : 0.02f;
  ServerOptimizer opt(1, {.kind = GetParam(), .lr = lr});
  std::vector<float> w{0.0f};
  for (int s = 0; s < 800; ++s) {
    const std::vector<float> delta{2.0f * (3.0f - w[0])};
    opt.step(w, delta);
  }
  EXPECT_NEAR(w[0], 3.0f, 0.2f);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ServerOptimizerSweep,
                         ::testing::Values(ServerOptimizerKind::kFedSgd,
                                           ServerOptimizerKind::kFedAvgM,
                                           ServerOptimizerKind::kFedAdagrad,
                                           ServerOptimizerKind::kFedAdam,
                                           ServerOptimizerKind::kFedYogi));

// ----------------------------------------------------------------- Dataset --

TEST(FederatedCorpus, DeterministicPerClient) {
  const CorpusConfig cfg;
  FederatedCorpus corpus(cfg, 99);
  const auto a = corpus.client_dataset(7, 20);
  const auto b = corpus.client_dataset(7, 20);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i], b.train[i]);
  }
}

TEST(FederatedCorpus, DifferentClientsDifferentData) {
  const CorpusConfig cfg;
  FederatedCorpus corpus(cfg, 99);
  const auto a = corpus.client_dataset(1, 20);
  const auto b = corpus.client_dataset(2, 20);
  EXPECT_NE(a.train, b.train);
}

TEST(FederatedCorpus, SplitCoversAllExamples) {
  const CorpusConfig cfg;
  FederatedCorpus corpus(cfg, 99);
  const auto d = corpus.client_dataset(3, 100);
  EXPECT_EQ(d.train.size() + d.validation.size() + d.test.size(), 100u);
  EXPECT_GT(d.train.size(), 60u);  // ~80%
  EXPECT_FALSE(d.train.empty());
}

TEST(FederatedCorpus, TokensWithinVocabulary) {
  CorpusConfig cfg;
  cfg.vocab_size = 32;
  FederatedCorpus corpus(cfg, 5);
  const auto d = corpus.client_dataset(0, 50);
  for (const auto& seq : d.train) {
    for (const auto tok : seq) {
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, 32);
    }
  }
}

TEST(FederatedCorpus, SequenceLengthsWithinConfiguredRange) {
  CorpusConfig cfg;
  cfg.seq_len_min = 5;
  cfg.seq_len_max = 9;
  FederatedCorpus corpus(cfg, 6);
  const auto d = corpus.client_dataset(0, 50);
  for (const auto& seq : d.train) {
    EXPECT_GE(seq.size(), 5u);
    EXPECT_LE(seq.size(), 9u);
  }
}

TEST(FederatedCorpus, CorpusIsLearnable) {
  // The synthetic corpus must have enough structure that training on it
  // beats the uniform baseline on *held-out* data.
  CorpusConfig cfg;
  cfg.vocab_size = 32;
  FederatedCorpus corpus(cfg, 123);
  LmConfig mcfg;
  mcfg.vocab_size = 32;
  mcfg.embed_dim = 12;
  mcfg.hidden_dim = 24;
  mcfg.context = 2;
  util::Rng rng(21);
  auto model = make_mlp_lm(mcfg, rng);

  std::vector<Sequence> train;
  for (std::uint64_t c = 0; c < 8; ++c) {
    auto d = corpus.client_dataset(c, 40);
    train.insert(train.end(), d.train.begin(), d.train.end());
  }
  const auto test = corpus.global_test_set(100);
  const double baseline = model->loss(test, {});

  std::vector<float> grad(model->num_params());
  Adam adam(model->num_params(), {.lr = 0.03f});
  for (int step = 0; step < 200; ++step) {
    model->loss(train, grad);
    adam.step(model->params(), grad);
  }
  const double trained = model->loss(test, {});
  EXPECT_LT(trained, baseline - 0.3);
}

}  // namespace
}  // namespace papaya::ml
