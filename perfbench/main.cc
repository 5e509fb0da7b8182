// DLACEP benchmark driver.
//
//   dlacep_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR]
//   dlacep_perfbench --selftest
//   dlacep_perfbench --list-metrics
//
// A run sets the workload up kSetups times (setup_s is the median),
// makes one untimed warm-up call, then repeats timed calls for S
// seconds. With --trace 0 every call is untraced and the last stdout
// line carries the end-to-end metrics; with --trace 1 untraced and
// traced calls alternate, the last line carries the per-layer metrics
// (medians over the traced calls) and the self-time table is printed
// and written. Every call's outputs are checked; a call failing a check
// is counted in "failed", makes "correct" false and the exit code 1.
// See NOTES.md.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"events_per_sec", "ev/s"},
      {"recall", "ratio"},
      {"rss_growth_mb", "MB"},
      {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"stream.producer_blocked_s", "s"},
      {"stream.ingest_lag_p99_ms", "ms"},
      {"stream.self_s", "s"},
      {"runtime.stream_s", "s"},
      {"runtime.shard_skew", "ratio"},
      {"runtime.shard_busy_max", "ratio"},
      {"runtime.windows_per_call", "count"},
      {"runtime.queue_high_water", "count"},
      {"runtime.failed_window_frac", "ratio"},
      {"runtime.window_latency_p50_ms", "ms"},
      {"runtime.window_latency_p99_ms", "ms"},
      {"runtime.self_s", "s"},
      {"dlacep.mark_busy_s", "s"},
      {"dlacep.mark_us_per_window", "us"},
      {"dlacep.relay_frac", "ratio"},
      {"dlacep.useful_relay_frac", "ratio"},
      {"dlacep.featurize_s", "s"},
      {"dlacep.self_s", "s"},
      {"nn.forward_s", "s"},
      {"nn.gemm_s", "s"},
      {"nn.cell_s", "s"},
      {"cep.extract_s", "s"},
      {"cep.partial_matches", "count"},
      {"cep.transitions", "count"},
      {"cep.matches_per_partial", "ratio"},
      {"cep.exact_s", "s"},
      {"serve.engines_run", "count"},
      {"serve.engines_shared", "count"},
      {"serve.partitions", "count"},
      {"serve.chunks_run", "count"},
      {"serve.pruned", "count"},
      {"serve.self_s", "s"},
      {"trace.uncovered_share", "ratio"},
      {"trace.overhead_eps", "ev/s"},
  };
  return specs;
}

/// Self time per layer for the self-time table, from the per-layer
/// metrics. serve_8q runs the engines inside the serve layer's shared
/// extraction, which cannot be split from outside, so that time is the
/// serve layer's and the cep row is 0 there.
std::vector<std::pair<const char*, double>> SelfTimes(
    const std::map<std::string, double>& layer) {
  const double serve = layer.at("serve.self_s");
  return {
      {"stream", layer.at("stream.self_s")},
      {"runtime", layer.at("runtime.self_s")},
      {"dlacep", layer.at("dlacep.self_s")},
      {"nn", layer.at("nn.forward_s")},
      {"cep", serve > 0.0 ? 0.0 : layer.at("cep.extract_s")},
      {"serve", serve},
  };
}

/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  bool selftest = false;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (flag == "--list-metrics") {
      args->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return args->selftest || args->list_metrics || !args->workload.empty();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string json = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    json += std::string(i ? ", " : "") + "\"" + specs[i].name +
            "\": {\"value\": " + Num(it == values.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return json + "}";
}

std::vector<double> Collect(const std::vector<Rep>& reps,
                            double Rep::*field) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(rep.*field);
  return values;
}

/// Nearest-rank quantiles and schedule lateness on hand-built samples.
int ArithmeticSelfTests() {
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("selftest %-58s %s\n", what, ok ? "PASS" : "FAIL");
    failures += ok ? 0 : 1;
  };
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  check(NearestRank(ten, 0.5) == 5.0, "nearest-rank p50 of 1..10 is 5");
  check(NearestRank(ten, 0.9) == 9.0, "nearest-rank p90 of 1..10 is 9");
  check(NearestRank(ten, 0.99) == 10.0, "nearest-rank p99 of 1..10 is 10");
  check(NearestRank(ten, 0.0) == 1.0, "nearest-rank p0 is the minimum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(NearestRank(hundred, 0.99) == 99.0, "nearest-rank p99 of 1..100 is 99");
  check(NearestRank(hundred, 0.995) == 100.0,
        "nearest-rank p99.5 of 1..100 is 100");
  check(NearestRank({}, 0.5) == 0.0, "nearest-rank of no samples is 0");
  check(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");
  // 4 events/s from t = 10: slots at 10, 10.25, 10.5, 10.75.
  check(DueTime(10.0, 4.0, 0) == 10.0 && DueTime(10.0, 4.0, 3) == 10.75,
        "due time of slot i is start + i/rate");
  check(Lateness(10.875, DueTime(10.0, 4.0, 3)) == 0.125,
        "lateness is issue minus due when late");
  check(Lateness(10.5, DueTime(10.0, 4.0, 3)) == 0.0,
        "an early issue is on time");
  return failures;
}

void PrintMetricList(const char* key, const std::vector<MetricSpec>& specs) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                specs[i].name, specs[i].unit);
  }
  std::printf("]");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_times, exact_times;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    std::unique_ptr<Workload> fresh = MakeWorkload(args.workload);
    if (fresh == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    const double start = Now();
    fresh->Setup(args.seed);
    setup_times.push_back(Now() - start);
    exact_times.push_back(fresh->exact_seconds());
    workload = std::move(fresh);
    std::printf("setup %d: %.3f s (exact reference %.3f s)\n", k,
                setup_times.back(), exact_times.back());
  }

  SpanLog spans;
  size_t attempted = 0, failed = 0;
  auto account = [&](const Rep& rep, const char* tag) {
    ++attempted;
    if (!rep.errors.empty()) ++failed;
    std::printf("%-8s wall=%.4fs  %.0f ev/s  recall=%.4f  matches=%zu  "
                "digest=%016llx  failed_windows=%.4f  rss+%.1fMB  "
                "latency p50=%.3fms p99=%.3fms (%zu windows)%s\n",
                tag, rep.wall_seconds, rep.events_per_sec, rep.recall,
                rep.matches, static_cast<unsigned long long>(rep.digest),
                rep.failed_window_frac, rep.rss_growth_mb,
                NearestRank(rep.latency_ms, 0.50),
                NearestRank(rep.latency_ms, 0.99), rep.latency_ms.size(),
                rep.errors.empty() ? "" : "  CHECK FAILED");
    for (const std::string& error : rep.errors) {
      std::printf("  check failed: %s\n", error.c_str());
    }
  };

  Rep warm = workload->RunOnce(&spans);
  account(warm, "warmup");
  std::vector<Rep> untraced, traced;
  const size_t min_calls = args.trace ? 4 : 3;
  const double loop_start = Now();
  for (size_t i = 0;
       i < min_calls || Now() - loop_start < args.seconds; ++i) {
    const bool trace = args.trace && i % 2 == 1;
    spans.set_enabled(trace);
    Rep rep = workload->RunOnce(&spans);
    spans.set_enabled(false);
    rep.layer["runtime.window_latency_p50_ms"] =
        NearestRank(rep.latency_ms, 0.50);
    rep.layer["runtime.window_latency_p99_ms"] =
        NearestRank(rep.latency_ms, 0.99);
    const bool stable = workload->deterministic() ||
                        (rep.failed_window_frac == 0.0 &&
                         warm.failed_window_frac == 0.0);
    if (stable && rep.digest != warm.digest) {
      rep.errors.push_back("match-set digest differs from the warm-up call");
    }
    account(rep, trace ? "traced" : "timed");
    (trace ? traced : untraced).push_back(std::move(rep));
  }

  // Latency quantiles are taken per call and the median call reported:
  // one call hit by a host stall moves a pooled tail, not the median.
  std::vector<double> call_p50, call_p99;
  size_t latency_samples = 0;
  for (const Rep& rep : untraced) {
    latency_samples += rep.latency_ms.size();
    call_p50.push_back(NearestRank(rep.latency_ms, 0.50));
    call_p99.push_back(NearestRank(rep.latency_ms, 0.99));
  }
  std::map<std::string, double> e2e;
  e2e["events_per_sec"] = Median(Collect(untraced, &Rep::events_per_sec));
  e2e["recall"] = Median(Collect(untraced, &Rep::recall));
  e2e["rss_growth_mb"] = Median(Collect(untraced, &Rep::rss_growth_mb));
  e2e["setup_s"] = Median(setup_times);
  const double failed_window_frac =
      Median(Collect(untraced, &Rep::failed_window_frac));

  std::printf("workload=%s seed=%llu train_seed=%llu test_seed=%llu "
              "calls=%zu (untraced %zu, traced %zu) setups=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kTrainSeed),
              static_cast<unsigned long long>(TestSeed(args.seed)),
              attempted, untraced.size(), traced.size(), kSetups);
  std::printf("  events_per_sec        %14.1f ev/s  median of %zu calls\n",
              e2e["events_per_sec"], untraced.size());
  std::printf("  recall                %14.5f       median of %zu calls\n",
              e2e["recall"], untraced.size());
  std::printf("  window_latency_p50_ms %14.4f ms    median call of %zu, "
              "%zu samples (per-layer, ungated)\n",
              Median(call_p50), untraced.size(), latency_samples);
  std::printf("  window_latency_p99_ms %14.4f ms    median call of %zu, "
              "%zu samples (per-layer, ungated)\n",
              Median(call_p99), untraced.size(), latency_samples);
  std::printf("  rss_growth_mb         %14.2f MB    median of %zu calls\n",
              e2e["rss_growth_mb"], untraced.size());
  std::printf("  setup_s               %14.3f s     median of %d setups\n",
              e2e["setup_s"], kSetups);
  std::printf("  failed_window_frac    %14.5f       median of %zu calls\n",
              failed_window_frac, untraced.size());
  std::printf("  digest                %016llx\n",
              static_cast<unsigned long long>(warm.digest));

  std::map<std::string, double> layer;
  std::string table;
  if (args.trace) {
    for (const MetricSpec& spec : PerLayerMetrics()) {
      std::vector<double> values;
      for (const Rep& rep : traced) {
        const auto it = rep.layer.find(spec.name);
        values.push_back(it == rep.layer.end() ? 0.0 : it->second);
      }
      layer[spec.name] = Median(values);
    }
    layer["cep.exact_s"] = Median(exact_times);
    const double traced_eps = Median(Collect(traced, &Rep::events_per_sec));
    layer["trace.overhead_eps"] = traced_eps - e2e["events_per_sec"];
    const double wall = Median(Collect(traced, &Rep::wall_seconds));
    char line[160];
    table += "  layer     self_s      share_of_run\n";
    for (const auto& [name, self_s] : SelfTimes(layer)) {
      std::snprintf(line, sizeof(line), "  %-8s %10.5f  %10.4f\n", name,
                    self_s, wall > 0.0 ? self_s / wall : 0.0);
      table += line;
    }
    std::snprintf(line, sizeof(line),
                  "  uncovered share of run: %.4f   run wall: %.5f s\n"
                  "  tracing overhead: traced - untraced = %.1f ev/s "
                  "(%+.2f%%)\n",
                  layer["trace.uncovered_share"], wall,
                  layer["trace.overhead_eps"],
                  100.0 * layer["trace.overhead_eps"] /
                      std::max(e2e["events_per_sec"], 1e-9));
    table += line;
    std::printf("self time per layer (median of %zu traced calls; threads "
                "summed, so shares can add past 1):\n%s",
                traced.size(), table.c_str());
  }

  const bool correct = failed == 0;
  if (!args.out.empty()) {
    mkdir(args.out.c_str(), 0755);
    const std::string path = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"train_seed\": "
                   "%llu, \"test_seed\": %llu, \"correct\": %s,\n"
                   " \"attempted\": %zu, \"failed\": %zu, \"digest\": "
                   "\"%016llx\", \"latency_samples\": %zu,\n"
                   " \"untraced_calls\": %zu, \"traced_calls\": %zu,\n"
                   " \"end_to_end\": %s,\n \"per_layer\": %s,\n"
                   " \"self_time_table\": \"",
                   args.workload.c_str(),
                   static_cast<unsigned long long>(args.seed),
                   static_cast<unsigned long long>(kTrainSeed),
                   static_cast<unsigned long long>(TestSeed(args.seed)),
                   correct ? "true" : "false", attempted, failed,
                   static_cast<unsigned long long>(warm.digest),
                   latency_samples, untraced.size(), traced.size(),
                   MetricsJson(EndToEndMetrics(), e2e).c_str(),
                   MetricsJson(PerLayerMetrics(), layer).c_str());
      for (const char c : table) {
        if (c == '\n') {
          std::fputs("\\n", f);
        } else {
          std::fputc(c, f);
        }
      }
      std::fputs("\",\n \"spans\": [", f);
      // Spans of the last traced call: name, start/end relative to the
      // run root, thread, window id and windows marked.
      if (!traced.empty()) {
        const std::vector<Span>& last = traced.back().spans;
        double origin = 0.0;
        for (const Span& span : last) {
          if (std::strcmp(span.name, "run") == 0) origin = span.start;
        }
        for (size_t i = 0; i < last.size(); ++i) {
          const Span& s = last[i];
          std::fprintf(f, "%s\n  [\"%s\", %.9f, %.9f, %zu, %lld, %zu]",
                       i ? "," : "", s.name, s.start - origin,
                       s.end - origin, s.thread, s.window, s.windows);
        }
      }
      std::fputs("]}\n", f);
      std::fclose(f);
      std::printf("results written to %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              args.trace ? MetricsJson(PerLayerMetrics(), layer).c_str()
                         : MetricsJson(EndToEndMetrics(), e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dlacep_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n"
                 "       dlacep_perfbench --selftest | --list-metrics\n");
    return 2;
  }
  if (args.list_metrics) {
    std::printf("{\"workloads\": [");
    for (size_t i = 0; i < WorkloadNames().size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", WorkloadNames()[i].c_str());
    }
    std::printf("], ");
    PrintMetricList("end_to_end", EndToEndMetrics());
    std::printf(", ");
    PrintMetricList("per_layer", PerLayerMetrics());
    std::printf("}\n");
    return 0;
  }
  if (args.selftest) {
    const int failures = ArithmeticSelfTests() + RunWrapperSelfTests();
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return Run(args);
}
