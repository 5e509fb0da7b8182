#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "cep/match.h"
#include "dlacep/extractor.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/pipeline.h"
#include "obs/stages.h"
#include "runtime/online.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"

namespace perfbench {
namespace {

using dlacep::EventStream;
using dlacep::MatchSet;
using dlacep::OnlineConfig;
using dlacep::OnlineDlacep;
using dlacep::OnlineResult;
using dlacep::Pattern;
using dlacep::RuntimeStats;

// Stream sizes. Every timed call processes the whole test stream: under
// a second for the single-query workloads and about two for serve_8q on
// a 4-vCPU machine, so a 15 s run repeats it 7 to 20 times.
constexpr size_t kTrainEvents = 4000;
constexpr size_t kTestEvents = 24000;
constexpr size_t kServeTrainEvents = 3000;
constexpr size_t kServeTestEvents = 12000;
/// serve_8q's ingest queue: a sixth of its test stream, as online_1q's
/// 4096 is of its stream, so most windows see the steady-state queue
/// rather than the start-up fill.
constexpr size_t kServeQueueCapacity = 2048;
/// Independently seeded segments per stream (see SegmentedStockStream).
constexpr size_t kSegments = 16;

/// Training epochs: enough for recall near 0.95, few enough that a run
/// can repeat its setup.
constexpr size_t kTrainEpochs = 6;
constexpr size_t kServeTrainEpochs = 5;

/// paced_1q's open-loop arrival rate (events/s), about a quarter of
/// online_1q's stream-phase capacity.
constexpr double kPacedRate = 25000.0;

/// The single-query job: QA1(j=3, k=4, α=0.9, β=1.1, p=2, W=20).
Pattern SingleQuery(std::shared_ptr<const dlacep::Schema> schema) {
  return dlacep::workloads::QA1(schema, 3, 4, 0.9, 1.1, 2, 20);
}

/// Event-network filter for the single-query job: hidden 64, 1 layer,
/// threshold 0.35.
dlacep::DlacepConfig SingleQueryConfig() {
  dlacep::DlacepConfig config = dlacep::workloads::BenchConfig();
  config.network.hidden_dim = 64;
  config.network.num_layers = 1;
  config.event_threshold = 0.35;
  config.train.max_epochs = kTrainEpochs;
  return config;
}

/// online_1q / paced_1q runtime: 2 shards, micro-batch 8, lossless.
OnlineConfig SingleQueryOnline(bool overload) {
  OnlineConfig config;
  config.num_shards = 2;
  config.batch_size = 8;
  config.queue_capacity = 4096;
  config.drop_when_full = false;
  config.overload.enabled = overload;
  return config;
}

/// bench_multi_query's 8-query serving mix (two structural-twin pairs)
/// over windows of 12.
std::vector<Pattern> ServingMix(std::shared_ptr<const dlacep::Schema> s) {
  using namespace dlacep::workloads;
  const size_t w = 12;
  std::vector<Pattern> patterns;
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 5, 5, 0.85, 1.15, 2, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA4(s, 4, 6, 3, 1, 3, 0.9, 1.1, 0.8, 1.25, w));
  patterns.push_back(QA10(s, 3, 8, 0.85, 1.2, w));
  patterns.push_back(QA11(s, false, 8, 0.8, 1.25, w));
  return patterns;
}

/// A Zipf stocksim stream of `events` events made of `segments` (at
/// most 16) equal segments; segment k is generated with seed 16·seed+k.
/// A single stocksim seed fixes every symbol's base volume for the whole
/// stream, and with it how often the band conditions can hold. Joining
/// independently seeded segments averages that over several markets, so
/// two benchmark seeds differ in detail but not in kind.
EventStream SegmentedStockStream(size_t events, size_t segments,
                                 uint64_t seed) {
  using dlacep::workloads::StockConfig;
  DLACEP_CHECK_LE(segments, 16u);
  const size_t length = events / segments;
  EventStream stream =
      dlacep::GenerateStockStream(StockConfig(length, 16 * seed));
  for (size_t k = 1; k < segments; ++k) {
    const double offset = stream.events().back().timestamp + 1.0;
    const EventStream segment = dlacep::GenerateStockStream(
        StockConfig(length, 16 * seed + k), stream.schema_ptr());
    for (const dlacep::Event& e : segment.events()) {
      stream.Append(e.type, offset + e.timestamp, e.attrs);
    }
  }
  return stream;
}

/// Registered name of query q ("q0".."q7").
std::string QueryName(size_t q) {
  std::string name = "q";
  name += std::to_string(q);
  return name;
}

/// Exact matches of `pattern` over the whole unfiltered stream.
MatchSet ExactMatches(const Pattern& pattern, const EventStream& stream) {
  dlacep::CepExtractor extractor(pattern);
  std::vector<const dlacep::Event*> all;
  all.reserve(stream.size());
  for (const dlacep::Event& e : stream.events()) all.push_back(&e);
  MatchSet exact;
  const dlacep::Status status = extractor.Extract(std::move(all), &exact);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  return exact;
}

/// Registry instruments the per-layer metrics are deltas of.
struct RegistryTotals {
  double featurize = 0.0;
  double forward = 0.0;
  double gemm = 0.0;
  double cell = 0.0;
  double window_mark = 0.0;
  double partial_matches = 0.0;
  double transitions = 0.0;
  double matches = 0.0;

  static RegistryTotals Read() {
    namespace obs = dlacep::obs;
    RegistryTotals t;
    t.featurize = obs::StageFeatureBuild()->Sum();
    t.forward = obs::StageNnForwardInfer()->Sum();
    t.gemm = obs::StageNnGemm()->Sum() + obs::StageNnGemmBatched()->Sum();
    t.cell = obs::StageNnCell()->Sum();
    t.window_mark = obs::StageWindowMark()->Sum();
    for (const char* engine : {"nfa", "zstream-tree", "lazy", "adaptive"}) {
      t.partial_matches +=
          static_cast<double>(obs::CepPartialMatches(engine)->Value());
      t.transitions +=
          static_cast<double>(obs::CepTransitions(engine)->Value());
      t.matches += static_cast<double>(obs::CepMatches(engine)->Value());
    }
    return t;
  }

  /// Writes the registry-derived layer metrics of `*this - before`.
  void AddDelta(const RegistryTotals& before, Rep* rep) const {
    rep->layer["dlacep.featurize_s"] = featurize - before.featurize;
    rep->layer["nn.forward_s"] = forward - before.forward;
    rep->layer["nn.gemm_s"] = gemm - before.gemm;
    rep->layer["nn.cell_s"] = cell - before.cell;
    const double partial = partial_matches - before.partial_matches;
    rep->layer["cep.partial_matches"] = partial;
    rep->layer["cep.transitions"] = transitions - before.transitions;
    rep->layer["cep.matches_per_partial"] =
        partial > 0.0 ? (matches - before.matches) / partial : 0.0;
  }
};

void Fail(Rep* rep, std::string error) {
  rep->errors.push_back(std::move(error));
}

/// Starts the peak-RSS probe; a probe that cannot start fails the call.
void BeginRss(RssProbe* rss, Rep* rep) {
  if (!rss->Begin()) Fail(rep, "cannot reset VmHWM (/proc/self/clear_refs)");
}

/// Mark-time metrics from `busy` seconds spent marking `windows`
/// windows. The nn layer's forward time is nested in the marks, so it
/// is taken out of the dlacep layer's self time.
void AddMarkLayers(double busy, double windows, Rep* rep) {
  rep->layer["dlacep.mark_busy_s"] = busy;
  rep->layer["dlacep.mark_us_per_window"] =
      windows > 0.0 ? 1e6 * busy / windows : 0.0;
  rep->layer["dlacep.self_s"] = busy - rep->layer["nn.forward_s"];
}

/// Emitted ⊆ exact (every workload pattern is NEG-free, so a filtered
/// stream can only lose matches, never invent them).
void CheckSubset(const MatchSet& emitted, const MatchSet& exact,
                 const std::string& what, Rep* rep) {
  if (emitted.IntersectionSize(exact) != emitted.size()) {
    Fail(rep, what + ": emitted matches not in the exact set");
  }
}

/// Accounting and losslessness of one runtime call over `n` events.
void CheckRuntime(const RuntimeStats& s, size_t n, Rep* rep) {
  if (!s.Accounted()) Fail(rep, "RuntimeStats::Accounted() is false");
  if (s.events_dropped_queue != 0) Fail(rep, "queue drops on a lossless run");
  if (s.events_ingested != n) Fail(rep, "ingested != stream size");
  if (s.source_aborted) Fail(rep, "source aborted");
}

/// Runtime-layer metrics from the public RuntimeStats.
void AddRuntimeLayers(const RuntimeStats& s, double wall, Rep* rep) {
  const double stream_s = wall - s.extract_seconds;
  rep->layer["runtime.stream_s"] = stream_s;
  double routed_max = 0.0, routed_sum = 0.0, busy_max = 0.0;
  double marked = 0.0, calls = 0.0;
  for (const dlacep::ShardStats& shard : s.shards) {
    const double routed = static_cast<double>(shard.windows_routed);
    routed_max = std::max(routed_max, routed);
    routed_sum += routed;
    busy_max = std::max(busy_max, shard.mark_seconds);
    marked += static_cast<double>(shard.windows_marked);
    calls += static_cast<double>(shard.filter_calls);
  }
  rep->layer["runtime.shard_skew"] =
      routed_sum > 0.0
          ? routed_max / (routed_sum / static_cast<double>(s.shards.size()))
          : 0.0;
  rep->layer["runtime.shard_busy_max"] =
      stream_s > 0.0 ? busy_max / stream_s : 0.0;
  rep->layer["runtime.windows_per_call"] = calls > 0.0 ? marked / calls : 0.0;
  rep->layer["runtime.queue_high_water"] =
      static_cast<double>(s.queue_high_water);
  const double failed =
      static_cast<double>(s.windows_boosted + s.windows_shed +
                          s.windows_quarantined + s.windows_degraded);
  rep->failed_window_frac =
      s.windows_closed > 0
          ? failed / static_cast<double>(s.windows_closed)
          : 0.0;
  rep->layer["runtime.failed_window_frac"] = rep->failed_window_frac;
  rep->layer["dlacep.relay_frac"] =
      s.events_appended > 0 ? static_cast<double>(s.events_relayed) /
                                  static_cast<double>(s.events_appended)
                            : 0.0;
  rep->layer["cep.extract_s"] = s.extract_seconds;
}

/// Relayed events that appear in at least one emitted match.
double UsefulRelayFrac(const std::vector<const MatchSet*>& emitted,
                       double relayed) {
  std::unordered_set<dlacep::EventId> used;
  for (const MatchSet* set : emitted) {
    for (const dlacep::Match& match : *set) {
      used.insert(match.ids.begin(), match.ids.end());
    }
  }
  return relayed > 0.0 ? static_cast<double>(used.size()) / relayed : 0.0;
}

/// Closes a traced call: adds the `run` root and the extraction span
/// (placed at the end of `run` from the reported extraction time), takes
/// the call's spans, and charges the share of `run` that no other span
/// covers (router close/route, merge hand-off, thread start and join) to
/// the runtime's self time.
void FinishTrace(SpanLog* spans, double start, double end,
                 const char* extract_span, double extract_seconds, Rep* rep) {
  if (!spans->enabled()) return;
  spans->Add("run", start, end);
  spans->Add(extract_span, end - extract_seconds, end);
  rep->spans = spans->Take();
  std::vector<std::pair<double, double>> intervals;
  for (const Span& span : rep->spans) {
    if (std::string(span.name) == "run") continue;
    const double a = std::max(span.start, start);
    const double b = std::min(span.end, end);
    if (b > a) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0, reach = start;
  for (const auto& [a, b] : intervals) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  const double wall = end - start;
  const double uncovered = std::max(0.0, wall - covered);
  rep->layer["trace.uncovered_share"] = wall > 0.0 ? uncovered / wall : 0.0;
  rep->layer["runtime.self_s"] = uncovered;
}

/// Finishes the end-to-end part shared by every workload.
void FinishRep(double start, double end, size_t events, size_t exact,
               size_t emitted, Rep* rep) {
  rep->wall_seconds = end - start;
  rep->events_per_sec =
      static_cast<double>(events) / std::max(rep->wall_seconds, 1e-9);
  rep->recall = exact > 0 ? static_cast<double>(emitted) /
                                static_cast<double>(exact)
                          : 1.0;
  rep->matches = emitted;
}

/// online_1q and paced_1q: one query through OnlineDlacep::Run.
class SingleQueryWorkload : public Workload {
 public:
  /// rate <= 0: unpaced, overload off (online_1q). rate > 0: open-loop
  /// at `rate`, overload control at its defaults (paced_1q).
  explicit SingleQueryWorkload(double rate) : rate_(rate) {}

  void Setup(uint64_t seed) override {
    const EventStream train =
        SegmentedStockStream(kTrainEvents, kSegments, kTrainSeed);
    test_ = std::make_unique<EventStream>(
        SegmentedStockStream(kTestEvents, kSegments, TestSeed(seed)));
    pattern_ = std::make_unique<Pattern>(SingleQuery(train.schema_ptr()));
    built_ = dlacep::BuildDlacep(*pattern_, train,
                                 dlacep::FilterKind::kEventNetwork,
                                 SingleQueryConfig());
    const double start = Now();
    exact_ = ExactMatches(*pattern_, *test_);
    exact_seconds_ = Now() - start;
    filter_ = std::make_unique<TracingFilter>(&built_.pipeline->filter());
    online_ = std::make_unique<OnlineDlacep>(*pattern_, filter_.get(),
                                             SingleQueryOnline(rate_ > 0.0));
  }

  double exact_seconds() const override { return exact_seconds_; }

  /// An overload decision taken under pressure changes marks, so the
  /// paced run only promises a stable digest while it sheds nothing.
  bool deterministic() const override { return rate_ <= 0.0; }

  Rep RunOnce(SpanLog* spans) override {
    Rep rep;
    filter_->Reset(spans);
    BenchSource source(test_.get(), rate_, spans);
    RssProbe rss;
    BeginRss(&rss, &rep);
    const RegistryTotals before = RegistryTotals::Read();
    const double start = Now();
    OnlineResult result = online_->Run(&source);
    const double end = Now();
    rep.rss_growth_mb = rss.EndMb();
    RegistryTotals::Read().AddDelta(before, &rep);

    CheckRuntime(result.stats, test_->size(), &rep);
    CheckSubset(result.matches, exact_, "matches", &rep);
    rep.digest = Digest(result.matches);
    FinishRep(start, end, test_->size(), exact_.size(),
              result.matches.size(), &rep);
    for (const auto& [last, done] : filter_->done()) {
      if (last >= 0 && static_cast<size_t>(last) < source.events_read()) {
        rep.latency_ms.push_back(1e3 * (done - source.due(last)));
      }
    }
    for (const double late : source.lateness()) {
      rep.lateness_ms.push_back(1e3 * late);
    }

    AddRuntimeLayers(result.stats, rep.wall_seconds, &rep);
    rep.layer["stream.producer_blocked_s"] = source.blocked_seconds();
    rep.layer["stream.ingest_lag_p99_ms"] =
        NearestRank(rep.lateness_ms, 0.99);
    rep.layer["stream.self_s"] = source.read_seconds();
    AddMarkLayers(filter_->busy_seconds(),
                  static_cast<double>(filter_->windows()), &rep);
    rep.layer["dlacep.useful_relay_frac"] = UsefulRelayFrac(
        {&result.matches}, static_cast<double>(result.stats.events_relayed));
    FinishTrace(spans, start, end, "cep.extract",
                result.stats.extract_seconds, &rep);
    return rep;
  }

 private:
  double rate_;
  std::unique_ptr<EventStream> test_;
  std::unique_ptr<Pattern> pattern_;
  dlacep::BuiltDlacep built_;
  MatchSet exact_;
  double exact_seconds_ = 0.0;
  std::unique_ptr<TracingFilter> filter_;
  std::unique_ptr<OnlineDlacep> online_;
};

class ServeWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    const EventStream train =
        SegmentedStockStream(kServeTrainEvents, kSegments, kTrainSeed);
    test_ = std::make_unique<EventStream>(
        SegmentedStockStream(kServeTestEvents, kSegments, TestSeed(seed)));
    patterns_ = ServingMix(train.schema_ptr());
    dlacep::DlacepConfig config = dlacep::workloads::FastBenchConfig();
    config.network.hidden_dim = 96;
    config.train.max_epochs = kServeTrainEpochs;
    multi_ = std::make_unique<dlacep::MultiPatternDlacep>(patterns_, train,
                                                          config);
    const double start = Now();
    exact_.clear();
    for (const Pattern& pattern : patterns_) {
      exact_.push_back(ExactMatches(pattern, *test_));
    }
    exact_seconds_ = Now() - start;

    registry_ = std::make_unique<dlacep::serve::QueryRegistry>();
    for (size_t q = 0; q < patterns_.size(); ++q) {
      dlacep::serve::QueryOptions options;
      options.name = QueryName(q);
      const auto id = registry_->Register(patterns_[q], options);
      DLACEP_CHECK_MSG(id.ok(), id.status().ToString());
    }
    step_ = multi_->max_window();
    mark_ = 2 * step_;
    dlacep::serve::ServeConfig serve;
    serve.online.num_shards = 2;
    serve.online.queue_capacity = kServeQueueCapacity;
    serve.online.batch_size = 8;
    serve.online.overload.enabled = false;
    serve.online.mark_size = mark_;
    serve.online.step_size = step_;
    // The per-query heads cannot be wrapped without changing the
    // serving path; the runtime's public per-window hook timestamps the
    // moment a shard starts marking each window instead.
    serve.online.worker_window_hook = [this](uint64_t seq) {
      const double now = Now();
      std::lock_guard<std::mutex> lock(hook_mu_);
      hooks_.emplace_back(seq, now);
    };
    server_ = std::make_unique<dlacep::serve::MultiQueryServer>(
        registry_.get(), multi_->filter(), multi_->filter(), serve);
  }

  double exact_seconds() const override { return exact_seconds_; }

  Rep RunOnce(SpanLog* spans) override {
    Rep rep;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hooks_.clear();
    }
    BenchSource source(test_.get(), 0.0, spans);
    RssProbe rss;
    BeginRss(&rss, &rep);
    const RegistryTotals before = RegistryTotals::Read();
    const double start = Now();
    dlacep::serve::MultiQueryResult result;
    const dlacep::Status status = server_->Run(&source, &result);
    const double end = Now();
    rep.rss_growth_mb = rss.EndMb();
    const RegistryTotals after = RegistryTotals::Read();
    after.AddDelta(before, &rep);
    if (!status.ok()) Fail(&rep, "serve run: " + status.ToString());

    CheckRuntime(result.stats, test_->size(), &rep);
    size_t exact_total = 0, emitted_total = 0;
    uint64_t digest = 1469598103934665603ULL;
    std::vector<const MatchSet*> emitted;
    if (result.queries.size() != patterns_.size()) {
      Fail(&rep, "query count changed");
    } else {
      for (size_t q = 0; q < patterns_.size(); ++q) {
        const MatchSet& matches = result.queries[q].matches;
        CheckSubset(matches, exact_[q], QueryName(q), &rep);
        if (result.queries[q].degraded) {
          Fail(&rep, QueryName(q) + " degraded");
        }
        exact_total += exact_[q].size();
        emitted_total += matches.size();
        digest = Digest(matches, digest);
        emitted.push_back(&matches);
      }
    }
    rep.digest = digest;
    FinishRep(start, end, test_->size(), exact_total, emitted_total, &rep);
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      if (hooks_.size() != result.stats.windows_closed) {
        Fail(&rep, "window hook count != windows closed");
      }
      for (const auto& [seq, at] : hooks_) {
        const size_t last =
            std::min<size_t>(seq * step_ + mark_, source.events_read()) - 1;
        if (seq * step_ < source.events_read()) {
          rep.latency_ms.push_back(1e3 * (at - source.due(last)));
        }
      }
    }

    AddRuntimeLayers(result.stats, rep.wall_seconds, &rep);
    rep.layer["stream.producer_blocked_s"] = source.blocked_seconds();
    rep.layer["stream.self_s"] = source.read_seconds();
    AddMarkLayers(after.window_mark - before.window_mark,
                  static_cast<double>(result.stats.windows_closed), &rep);
    rep.layer["dlacep.useful_relay_frac"] = UsefulRelayFrac(
        emitted, static_cast<double>(result.stats.events_relayed));
    const dlacep::serve::SharingStats& sharing = result.sharing;
    rep.layer["serve.engines_run"] = static_cast<double>(sharing.engines_run);
    rep.layer["serve.engines_shared"] =
        static_cast<double>(sharing.engines_shared);
    rep.layer["serve.partitions"] = static_cast<double>(sharing.partitions);
    rep.layer["serve.chunks_run"] = static_cast<double>(sharing.chunks_run);
    rep.layer["serve.pruned"] =
        static_cast<double>(sharing.guard_pruned + sharing.type_pruned);
    // Shared extraction runs the CEP engines inside the serve layer's
    // plan; from outside its time is the serve layer's.
    rep.layer["serve.self_s"] = result.stats.extract_seconds;
    FinishTrace(spans, start, end, "serve.extract",
                result.stats.extract_seconds, &rep);
    return rep;
  }

 private:
  std::unique_ptr<EventStream> test_;
  std::vector<Pattern> patterns_;
  std::unique_ptr<dlacep::MultiPatternDlacep> multi_;
  std::vector<MatchSet> exact_;
  double exact_seconds_ = 0.0;
  std::unique_ptr<dlacep::serve::QueryRegistry> registry_;
  std::unique_ptr<dlacep::serve::MultiQueryServer> server_;
  size_t step_ = 0;
  size_t mark_ = 0;
  std::mutex hook_mu_;
  std::vector<std::pair<uint64_t, double>> hooks_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"online_1q", "paced_1q",
                                                 "serve_8q"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "online_1q") return std::make_unique<SingleQueryWorkload>(0.0);
  if (name == "paced_1q") {
    return std::make_unique<SingleQueryWorkload>(kPacedRate);
  }
  if (name == "serve_8q") return std::make_unique<ServeWorkload>();
  return nullptr;
}

}  // namespace perfbench

namespace perfbench {
namespace {

int Check(bool ok, const std::string& what) {
  std::printf("selftest %-58s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

bool SameMatches(const MatchSet& a, const MatchSet& b) {
  return a.size() == b.size() && Digest(a) == Digest(b);
}

/// Wrapped vs unwrapped runs of the single-query runtime and pipeline,
/// and the online/batch digest contract, on a small stream.
int SingleQuerySelfTests() {
  const EventStream train = SegmentedStockStream(2000, 2, kTrainSeed);
  const EventStream test = SegmentedStockStream(3000, 2, TestSeed(7));
  const Pattern pattern = SingleQuery(train.schema_ptr());
  dlacep::DlacepConfig config = SingleQueryConfig();
  config.network.hidden_dim = 8;
  config.train.max_epochs = 3;
  dlacep::BuiltDlacep built = dlacep::BuildDlacep(
      pattern, train, dlacep::FilterKind::kEventNetwork, config);
  const dlacep::StreamFilter& trained = built.pipeline->filter();
  int failures = 0;

  // Online runtime: bare filter + ReplaySource vs wrappers, traced.
  OnlineDlacep bare(pattern, &trained, SingleQueryOnline(false));
  dlacep::ReplaySource replay(&test);
  const OnlineResult plain = bare.Run(&replay);
  TracingFilter filter(&trained);
  SpanLog spans;
  spans.set_enabled(true);
  filter.Reset(&spans);
  OnlineDlacep wrapped(pattern, &filter, SingleQueryOnline(false));
  BenchSource source(&test, 0.0, &spans);
  const OnlineResult traced = wrapped.Run(&source);
  failures += Check(plain.marked_ids == traced.marked_ids,
                    "online: wrapped marks byte-identical");
  failures += Check(SameMatches(plain.matches, traced.matches),
                    "online: wrapped matches byte-identical");
  failures += Check(!plain.matches.empty(), "online: run emits matches");
  failures += Check(filter.windows() == traced.stats.windows_closed,
                    "online: wrapper saw every window");

  // Paced wrapper source: same marks at a rate well below capacity.
  filter.Reset(&spans);
  BenchSource paced(&test, 50000.0, &spans);
  const OnlineResult paced_result = wrapped.Run(&paced);
  failures += Check(plain.marked_ids == paced_result.marked_ids,
                    "online: paced wrapped marks byte-identical");

  // Batch pipeline: the trained pipeline vs a wrapped single-thread,
  // per-window pipeline.
  const dlacep::PipelineResult batch_plain = built.pipeline->Evaluate(test);
  dlacep::DlacepConfig batch_config = config;
  batch_config.num_threads = 1;
  batch_config.batch_size = 1;
  auto owned = std::make_unique<TracingFilter>(&trained);
  owned->Reset(&spans);
  dlacep::DlacepPipeline pipeline(pattern, std::move(owned), batch_config);
  const dlacep::PipelineResult batch_traced = pipeline.Evaluate(test);
  failures += Check(batch_plain.marked_ids == batch_traced.marked_ids,
                    "batch: wrapped marks byte-identical");
  failures += Check(SameMatches(batch_plain.matches, batch_traced.matches),
                    "batch: wrapped matches byte-identical");

  // The runtime's byte-identity contract: online_1q's configuration and
  // a single-thread, per-window batch Evaluate give the same digest.
  failures += Check(Digest(traced.matches) == Digest(batch_traced.matches),
                    "online_1q and batch Evaluate digests agree");
  failures += Check(traced.marked_ids == batch_traced.marked_ids,
                    "online_1q and batch Evaluate marks agree");
  failures += Check(!spans.Take().empty(), "traced calls recorded spans");
  return failures;
}

/// Serving with and without the source wrapper and window hook.
int ServeSelfTests() {
  const EventStream train = SegmentedStockStream(1500, 2, kTrainSeed);
  const EventStream test = SegmentedStockStream(2000, 2, TestSeed(7));
  const std::vector<Pattern> patterns = ServingMix(train.schema_ptr());
  dlacep::DlacepConfig config = dlacep::workloads::FastBenchConfig();
  config.network.hidden_dim = 8;
  config.train.max_epochs = 2;
  dlacep::MultiPatternDlacep multi(patterns, train, config);
  dlacep::serve::QueryRegistry registry;
  for (size_t q = 0; q < patterns.size(); ++q) {
    dlacep::serve::QueryOptions options;
    options.name = QueryName(q);
    DLACEP_CHECK(registry.Register(patterns[q], options).ok());
  }
  dlacep::serve::ServeConfig serve;
  serve.online.num_shards = 2;
  serve.online.batch_size = 8;
  serve.online.overload.enabled = false;
  dlacep::serve::MultiQueryServer bare(&registry, multi.filter(),
                                       multi.filter(), serve);
  std::atomic<size_t> hooks{0};
  serve.online.worker_window_hook = [&hooks](uint64_t) { ++hooks; };
  dlacep::serve::MultiQueryServer hooked(&registry, multi.filter(),
                                         multi.filter(), serve);
  dlacep::ReplaySource replay(&test);
  dlacep::serve::MultiQueryResult plain;
  DLACEP_CHECK(bare.Run(&replay, &plain).ok());
  SpanLog spans;
  BenchSource source(&test, 0.0, &spans);
  dlacep::serve::MultiQueryResult traced;
  DLACEP_CHECK(hooked.Run(&source, &traced).ok());
  bool same = plain.queries.size() == traced.queries.size();
  for (size_t q = 0; same && q < plain.queries.size(); ++q) {
    same = SameMatches(plain.queries[q].matches, traced.queries[q].matches);
  }
  int failures = Check(same, "serve: wrapped per-query matches identical");
  failures += Check(hooks.load() == traced.stats.windows_closed,
                    "serve: hook saw every window");
  return failures;
}

}  // namespace

int RunWrapperSelfTests() {
  return SingleQuerySelfTests() + ServeSelfTests();
}

}  // namespace perfbench
