// Micro benchmarks (google-benchmark): raw engine throughput and the
// §3.2 scaling claims — ECEP work grows steeply with the window size W
// and the pattern length, for all three engines.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/oracle.h"
#include "workloads/queries_b.h"
#include "workloads/recipes.h"

namespace dlacep {
namespace {

using workloads::QBOfLength;
using workloads::SyntheticStream;

const EventStream& SharedStream() {
  static const EventStream stream = SyntheticStream(2000, 77);
  return stream;
}

void BM_NfaWindowScaling(benchmark::State& state) {
  const EventStream& stream = SharedStream();
  const size_t w = static_cast<size_t>(state.range(0));
  const Pattern pattern = QBOfLength(stream.schema_ptr(), 5, w, 0.6, 1.6);
  for (auto _ : state) {
    auto engine = CreateEngine(EngineKind::kNfa, pattern);
    MatchSet out;
    benchmark::DoNotOptimize(
        engine.value()->Evaluate({stream.events().data(), stream.size()},
                                 &out));
    state.counters["partial_matches"] = static_cast<double>(
        engine.value()->stats().partial_matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_NfaWindowScaling)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_NfaPatternLengthScaling(benchmark::State& state) {
  const EventStream& stream = SharedStream();
  const size_t len = static_cast<size_t>(state.range(0));
  const Pattern pattern =
      QBOfLength(stream.schema_ptr(), len, 100, 0.6, 1.6);
  for (auto _ : state) {
    auto engine = CreateEngine(EngineKind::kNfa, pattern);
    MatchSet out;
    benchmark::DoNotOptimize(
        engine.value()->Evaluate({stream.events().data(), stream.size()},
                                 &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_NfaPatternLengthScaling)->Arg(4)->Arg(5)->Arg(6);

// Also the per-engine cost row: ns_per_work_unit is the engine's own
// Evaluate time over its work units (transitions + partial matches, the
// unit the adaptive selector's cost model counts), so the ratios between
// the three rows are what kLazySurcharge / kTreeSurcharge stand for.
void BM_EngineComparison(benchmark::State& state) {
  const EventStream& stream = SharedStream();
  const EngineKind kind = static_cast<EngineKind>(state.range(0));
  const Pattern pattern = QBOfLength(stream.schema_ptr(), 5, 60, 0.6, 1.6);
  double seconds = 0.0;
  double work_units = 0.0;
  for (auto _ : state) {
    auto engine = CreateEngine(kind, pattern);
    MatchSet out;
    benchmark::DoNotOptimize(
        engine.value()->Evaluate({stream.events().data(), stream.size()},
                                 &out));
    const EngineStats& stats = engine.value()->stats();
    seconds += stats.elapsed_seconds;
    work_units += static_cast<double>(stats.transitions + stats.partial_matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
  state.counters["work_units"] =
      work_units / static_cast<double>(state.iterations());
  state.counters["ns_per_work_unit"] =
      work_units > 0.0 ? 1e9 * seconds / work_units : 0.0;
  state.SetLabel(EngineKindName(kind));
}
BENCHMARK(BM_EngineComparison)
    ->Arg(static_cast<int>(EngineKind::kNfa))
    ->Arg(static_cast<int>(EngineKind::kTree))
    ->Arg(static_cast<int>(EngineKind::kLazy));

void BM_OracleEnumeration(benchmark::State& state) {
  const EventStream& stream = SharedStream();
  const Pattern pattern = QBOfLength(stream.schema_ptr(), 4, 40, 0.6, 1.6);
  const auto span = stream.View(0, 400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateAllMatches(pattern, span));
  }
}
BENCHMARK(BM_OracleEnumeration);

}  // namespace
}  // namespace dlacep

// --json F is translated into google-benchmark's own JSON reporter so
// all 16 bench binaries share one flag for machine-readable output.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static std::string out_flag;
  static std::string fmt_flag = "--benchmark_out_format=json";
  for (size_t i = 1; i < args.size(); ++i) {
    std::string arg = args[i];
    std::string path;
    if (arg == "--json" && i + 1 < args.size()) {
      path = args[i + 1];
      args.erase(args.begin() + i, args.begin() + i + 2);
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      args.erase(args.begin() + i);
    } else {
      continue;
    }
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
    break;
  }
  int rewritten_argc = static_cast<int>(args.size());
  benchmark::Initialize(&rewritten_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(rewritten_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
