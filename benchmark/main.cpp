// Benchmark driver: runs one workload for a wall-clock budget and prints
//   pass <i> warmup=<0|1> traced=<0|1> setup_s=<s> run_s=<s> ops=<n>
//   metric <name>=<value> unit=<u> better=lower|higher workload=<w>
//   outcome workload=<w> seed=<n> op=<update|event> ops=<n> ...
// and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   papaya_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke]
//
// A run is a series of passes.  Each pass constructs the system, drives the
// workload through it once (timed), and releases it; passes repeat until
// --seconds have elapsed, and rates are medians over passes.  The first pass
// warms the heap and page tables and is checked but not measured.  Set-up
// is timed in a separate loop of back-to-back constructions.  With
// --trace 1 (traced binary only) the measured passes alternate between
// recording on and off: the per-layer numbers come from the recorded
// passes, and the others give the tracing overhead.  --smoke runs the small
// variant of the workload with no warm-up pass.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PAPAYA_BENCH_TRACED
#define PAPAYA_BENCH_TRACED 0
#endif

namespace {

using namespace papaya::benchmark;
using Clock = std::chrono::steady_clock;

/// Set-up takes milliseconds and its samples scatter, so its median needs
/// more of them than one per pass: at least kMinSetupSamples, and more while
/// they fit in kSetupBudgetS, up to kMaxSetupSamples.
constexpr std::size_t kMinSetupSamples = 11;
constexpr std::size_t kMaxSetupSamples = 101;
constexpr double kSetupBudgetS = 0.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
};

struct Pass {
  bool warmup = false;
  bool traced = false;
  double run_s = 0.0;
  std::uint64_t ops = 0;
  Outcome outcome;
  trace::Totals trace_delta;
};

std::uint64_t count_ops(Op op, const Outcome& o) {
  return op == Op::kEvent ? o.events : o.updates;
}

const char* op_name(Op op) { return op == Op::kEvent ? "event" : "update"; }

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: papaya_bench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\nworkloads:",
               why.c_str());
  for (const auto& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.trace && !PAPAYA_BENCH_TRACED) {
    usage("--trace 1 needs the traced binary, papaya_bench_traced");
  }
  return opt;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// VmHWM rather than getrusage's ru_maxrss: ru_maxrss survives exec, so it
/// would report the launching shell's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kib) == 1) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return 0.0;
}

void print_host() {
  const char* rev = std::getenv("PAPAYA_BENCH_REV");
  std::printf("host nproc=%u compiler=\"%s\" build=%s rev=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PAPAYA_BENCH_BUILD_TYPE,
              rev != nullptr && *rev != '\0' ? rev : "unknown");
}

/// Median over the measured, unrecorded passes of `count` per second.
template <class Count>
double median_rate(const std::vector<Pass>& passes, Count count) {
  std::vector<double> rates;
  for (const Pass& p : passes) {
    if (!p.warmup && !p.traced) {
      rates.push_back(static_cast<double>(count(p)) / p.run_s);
    }
  }
  return median(rates);
}

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const std::vector<double>& setups) {
  return {
      {"setup_s", median(setups), "s", "lower"},
      {"ops_per_s", median_rate(passes, [](const Pass& p) { return p.ops; }),
       "1/s", "higher"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "lower"},
  };
}

/// Workload-specific numbers: printed, checked by the workload, not gated.
std::vector<Metric> info_metrics(const Workload& workload,
                                 const std::vector<Pass>& passes) {
  std::vector<Metric> out;
  std::vector<double> run_s;
  std::vector<double> acks;
  for (const Pass& p : passes) {
    if (p.warmup || p.traced) continue;
    run_s.push_back(p.run_s);
    acks.insert(acks.end(), p.outcome.ack_ms.begin(), p.outcome.ack_ms.end());
  }
  out.push_back({"run_s", median(run_s), "s", "lower"});
  if (workload.op() != Op::kUpdate) {
    out.push_back({"updates_per_s",
                   median_rate(passes, [](const Pass& p) { return p.outcome.updates; }),
                   "1/s", "higher"});
  }
  if (workload.op() != Op::kEvent && passes.front().outcome.events > 0) {
    out.push_back({"events_per_s",
                   median_rate(passes, [](const Pass& p) { return p.outcome.events; }),
                   "1/s", "higher"});
  }
  if (!acks.empty()) {
    out.push_back({"ack_p50_ms", percentile(acks, 50), "ms", "lower"});
    out.push_back({"ack_p99_ms", percentile(acks, 99), "ms", "lower"});
    out.push_back({"ack_samples", static_cast<double>(acks.size()), "count",
                   "higher"});
  }
  const std::vector<Metric>& info = passes.front().outcome.info;
  out.insert(out.end(), info.begin(), info.end());
  return out;
}

std::vector<Metric> per_layer_metrics(const std::vector<Pass>& passes) {
  trace::Totals sum;
  std::vector<double> traced_s;
  std::vector<double> plain_s;
  double traced_total_s = 0.0;
  for (const Pass& p : passes) {
    if (p.warmup) continue;
    if (!p.traced) {
      plain_s.push_back(p.run_s);
      continue;
    }
    traced_s.push_back(p.run_s);
    traced_total_s += p.run_s;
    sum += p.trace_delta;
  }
  const auto per_pass = static_cast<double>(traced_s.size());
  const double ticks_per_s = trace::calibrate();
  const auto counter = [&](trace::Counter c) {
    return static_cast<double>(sum.counters[static_cast<std::size_t>(c)]);
  };
  const auto calls = [&](trace::Span s) {
    return static_cast<double>(sum.calls[static_cast<std::size_t>(s)]);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> out;
  double coverage = 0.0;
  for (std::size_t i = 0; i < trace::kNumSpans; ++i) {
    const std::string name = trace::kSpanNames[i];
    const double share = 100.0 * ratio(static_cast<double>(sum.self_ticks[i]),
                                       ticks_per_s * traced_total_s);
    coverage += share;
    out.push_back({name + ".calls",
                   static_cast<double>(sum.calls[i]) / per_pass, "count",
                   "lower"});
    out.push_back({name + ".share", share, "%", "lower"});
  }
  using trace::Counter;
  using trace::Span;
  const auto per_pass_count = [&](const char* name, Counter c) {
    out.push_back({name, counter(c) / per_pass, "count", "lower"});
  };
  per_pass_count("ml.kernel.flops", Counter::kMlFlops);
  per_pass_count("fl.fold.pick.locked", Counter::kPickLocked);
  per_pass_count("fl.fold.pick.morsel", Counter::kPickMorsel);
  per_pass_count("fl.fold.pick.striped", Counter::kPickStriped);
  out.push_back({"fl.report.accept_ratio",
                 ratio(counter(Counter::kReportAccepted), calls(Span::kFlReport)),
                 "ratio", "higher"});
  out.push_back({"fl.assemble.reject_ratio",
                 ratio(counter(Counter::kAssembleRejected),
                       counter(Counter::kAssembleAccepts)),
                 "ratio", "lower"});
  out.push_back({"secagg.accept_ratio",
                 ratio(counter(Counter::kSecaggAccepted),
                       calls(Span::kSecaggReport)),
                 "ratio", "higher"});
  out.push_back({"sim.events",
                 static_cast<double>(passes.front().outcome.events), "count",
                 "lower"});
  out.push_back({"trace.run_s", median(traced_s), "s", "lower"});
  out.push_back({"trace.overhead",
                 100.0 * (median(traced_s) / median(plain_s) - 1.0), "%",
                 "lower"});
  out.push_back({"trace.coverage", coverage, "%", "higher"});
  return out;
}

/// Output checks across passes: every pass's own checks, identical outcomes
/// from every pass (recorded or not), and in recorded passes, each span that
/// runs once per client update called exactly that many times.
std::vector<std::string> cross_checks(const Workload& workload,
                                      const std::vector<Pass>& passes) {
  std::vector<std::string> failures;
  const Outcome& first = passes.front().outcome;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const std::string where = "pass " + std::to_string(i) + ": ";
    const Outcome& o = passes[i].outcome;
    for (const std::string& f : o.failures) failures.push_back(where + f);
    if (o.updates != first.updates || o.events != first.events ||
        o.steps != first.steps || o.model_hash != first.model_hash) {
      failures.push_back(where + "outcome differs from pass 0");
    }
    if (!passes[i].traced) continue;
    for (const trace::Span span : workload.per_update_spans()) {
      const auto s = static_cast<std::size_t>(span);
      const std::uint64_t n = passes[i].trace_delta.calls[s];
      if (n != o.updates) {
        failures.push_back(where + trace::kSpanNames[s] + ".calls=" +
                           std::to_string(n) + " != updates=" +
                           std::to_string(o.updates));
      }
    }
  }
  return failures;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a non-finite value fails the run instead.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  std::unique_ptr<Workload> workload =
      make_workload(opt.workload, opt.seed, opt.smoke);
  if (!workload) usage("unknown workload " + opt.workload);
  print_host();
  trace::calibrate();

  // Passes until the budget is spent; the traced run needs at least one
  // measured pass with recording on and one with it off.
  std::vector<Pass> passes;
  const std::size_t warmups = opt.smoke ? 0 : 1;
  const std::size_t min_passes = warmups + (opt.trace ? 2 : 1);
  const Clock::time_point start = Clock::now();
  while (passes.size() < min_passes ||
         (!opt.smoke && seconds_since(start) < opt.seconds)) {
    Pass pass;
    pass.warmup = passes.size() < warmups;
    pass.traced = opt.trace && !pass.warmup && (passes.size() - warmups) % 2 == 0;
    Clock::time_point t = Clock::now();
    workload->setup();
    const double setup_s = seconds_since(t);

    const trace::Totals before = trace::totals();
    trace::set_enabled(pass.traced);
    t = Clock::now();
    pass.outcome = workload->run();
    pass.run_s = seconds_since(t);
    pass.ops = count_ops(workload->op(), pass.outcome);
    trace::set_enabled(false);
    pass.trace_delta = trace::totals() - before;
    workload->reset();
    std::printf("pass %zu warmup=%d traced=%d setup_s=%.6f run_s=%.6f ops=%llu\n",
                passes.size(), pass.warmup ? 1 : 0, pass.traced ? 1 : 0,
                setup_s, pass.run_s, static_cast<unsigned long long>(pass.ops));
    std::fflush(stdout);
    passes.push_back(std::move(pass));
  }

  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  while (!opt.trace && setups.size() < (opt.smoke ? 1 : kMaxSetupSamples) &&
         (setups.size() < kMinSetupSamples ||
          seconds_since(setup_start) < kSetupBudgetS)) {
    const Clock::time_point t = Clock::now();
    workload->setup();
    setups.push_back(seconds_since(t));
    workload->reset();
  }

  std::vector<std::string> failures = cross_checks(*workload, passes);
  const std::vector<Metric> gated = opt.trace
                                        ? per_layer_metrics(passes)
                                        : end_to_end_metrics(passes, setups);
  std::vector<Metric> shown = gated;
  if (!opt.trace) {
    const std::vector<Metric> info = info_metrics(*workload, passes);
    shown.insert(shown.end(), info.begin(), info.end());
  }
  for (const Metric& m : shown) {
    if (!std::isfinite(m.value)) failures.push_back(m.name + " is not finite");
    std::printf("metric %s=%.10g unit=%s better=%s workload=%s\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.better.c_str(),
                opt.workload.c_str());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "check failed [%s]: %s\n", opt.workload.c_str(),
                 f.c_str());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Pass& p : passes) {
    attempted += p.outcome.updates;
    failed += p.outcome.failed_updates;
  }
  const Outcome& o = passes.front().outcome;
  std::printf("outcome workload=%s seed=%llu op=%s ops=%llu updates=%llu "
              "failed_updates=%llu events=%llu steps=%llu model_hash=%016llx\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              op_name(workload->op()),
              static_cast<unsigned long long>(passes.front().ops),
              static_cast<unsigned long long>(o.updates),
              static_cast<unsigned long long>(o.failed_updates),
              static_cast<unsigned long long>(o.events),
              static_cast<unsigned long long>(o.steps),
              static_cast<unsigned long long>(o.model_hash));
  const bool correct = failures.empty() && failed == 0;
  print_json(correct, attempted, failed, gated);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error [%s]: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
