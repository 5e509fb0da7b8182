// The four benchmark workloads. Each is driven only through the
// program's public entry points (OnlineDlacep::Run,
// MultiQueryServer::Run, DlacepPipeline::Evaluate) with the wrappers of
// wrappers.h around the calls into each layer.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wrappers.h"

namespace perfbench {

/// Stream seeds. The test stream, which every timed call processes,
/// comes from --seed. The history the filters are trained on is the
/// same for every --seed: models trained on different histories differ
/// by up to 22% in NN cost per window (the LSTM cell's transcendental
/// cost depends on the learned weights), which would make every timing
/// metric a property of the model rather than of the program.
constexpr uint64_t kTrainSeed = 0;
inline uint64_t TestSeed(uint64_t seed) { return seed + 1; }

/// Outcome of one timed call.
struct Rep {
  std::vector<std::string> errors;  ///< failed output checks
  uint64_t digest = 0;              ///< match-set digest
  size_t matches = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double recall = 0.0;
  double failed_window_frac = 0.0;
  std::vector<double> latency_ms;   ///< one sample per marked window
  std::vector<double> lateness_ms;  ///< one sample per paced event
  double rss_growth_mb = 0.0;
  std::map<std::string, double> layer;  ///< per-layer metrics
  std::vector<Span> spans;              ///< traced calls only
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the streams from `seed`, trains the filter and runs the
  /// exact reference over the unfiltered test stream.
  virtual void Setup(uint64_t seed) = 0;

  /// One timed call through the public entry point, with output checks.
  /// Spans are recorded when `spans` is enabled.
  virtual Rep RunOnce(SpanLog* spans) = 0;

  /// Seconds the setup-time exact reference took.
  virtual double exact_seconds() const = 0;

  /// True when every call must reproduce the same match-set digest: the
  /// run is lossless and no overload decision can change its marks.
  virtual bool deterministic() const { return true; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Self-tests of the wrappers and the digest contract on a small
/// stream; prints one line per check and returns the failure count.
int RunWrapperSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
