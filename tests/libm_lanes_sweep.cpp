// Exhaustive check of the MLP kernel's tanh and exp ports (src/ml/model.cpp)
// against the libm this program runs on: all 2^32 float bit patterns go
// through tanh at 4 lanes and at 8 lanes, and through the fused exp, on one
// thread per CPU.  Prints each port's mismatch count and exits non-zero on
// any mismatch.  Ports the CPU cannot run (8-lane tanh without AVX2, fused
// exp without FMA and AVX2) are reported as skipped.
//
//   ./build/libm_lanes_sweep
//
// Not a ctest suite: it takes about 50 s on 4 CPUs.  tests/ml_test.cpp
// checks a sample of the same inputs in the tier-1 run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <thread>
#include <vector>

#if defined(__x86_64__)

namespace papaya::ml::detail {
// Defined in src/ml/model.cpp; n is a multiple of 8.
void tanh_portable(float* x, std::size_t n);
void tanh_avx2(float* x, std::size_t n);
void exp_fma(float* x, std::size_t n);
}  // namespace papaya::ml::detail

namespace {

struct Port {
  const char* name;
  void (*run)(float*, std::size_t);
  float (*libm)(float);
  bool supported;
};

struct Tally {
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint32_t> first{UINT32_MAX};  // lowest mismatching input
};

float libm_tanh(float x) { return std::tanh(x); }
float libm_exp(float x) { return std::exp(x); }

}  // namespace

int main() {
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool fma = __builtin_cpu_supports("fma") && avx2;
  const Port ports[] = {
      {"tanh, 4 lanes", papaya::ml::detail::tanh_portable, libm_tanh, true},
      {"tanh, 8 lanes", papaya::ml::detail::tanh_avx2, libm_tanh, avx2},
      {"exp, fused", papaya::ml::detail::exp_fma, libm_exp, fma},
  };
  constexpr std::size_t kPorts = std::size(ports);
  Tally tallies[kPorts];

  constexpr std::uint64_t kChunk = 1 << 16;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  std::atomic<std::uint64_t> next{0};
  const unsigned n_threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      std::vector<float> in(kChunk), out(kChunk);
      for (std::uint64_t c; (c = next.fetch_add(1)) < kChunks;) {
        for (std::uint64_t i = 0; i < kChunk; ++i) {
          const auto bits = static_cast<std::uint32_t>(c * kChunk + i);
          std::memcpy(&in[i], &bits, sizeof bits);
        }
        for (std::size_t p = 0; p < kPorts; ++p) {
          if (!ports[p].supported) continue;
          out = in;
          ports[p].run(out.data(), kChunk);
          for (std::uint64_t i = 0; i < kChunk; ++i) {
            const float want = ports[p].libm(in[i]);
            if (std::memcmp(&want, &out[i], sizeof want) == 0) continue;
            tallies[p].mismatches.fetch_add(1);
            std::uint32_t bits;
            std::memcpy(&bits, &in[i], sizeof bits);
            std::uint32_t seen = tallies[p].first.load();
            while (bits < seen &&
                   !tallies[p].first.compare_exchange_weak(seen, bits)) {
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  int status = 0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    if (!ports[p].supported) {
      std::printf("%-14s skipped: this CPU cannot run it\n", ports[p].name);
      continue;
    }
    const std::uint64_t bad = tallies[p].mismatches.load();
    std::printf("%-14s %llu mismatches of 2^32 inputs", ports[p].name,
                static_cast<unsigned long long>(bad));
    if (bad != 0) {
      const std::uint32_t bits = tallies[p].first.load();
      float x;
      std::memcpy(&x, &bits, sizeof x);
      std::printf(" (first: 0x%08x = %a)", bits, static_cast<double>(x));
      status = 1;
    }
    std::printf("\n");
  }
  return status;
}

#else

int main() {
  std::printf("the tanh and exp ports run on x86-64 only; nothing to check\n");
  return 0;
}

#endif
