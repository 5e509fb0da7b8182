#include "runtime/online.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/stages.h"
#include "obs/trace.h"
#include "serve/filter.h"

namespace dlacep {

namespace {

// Producer-side retry policy for transient (kUnavailable) source reads:
// exponential backoff from 1ms, at most 8 attempts per read before the
// source is declared dead. The counter resets on every successful read,
// so a flaky-but-alive source never accumulates toward the limit.
constexpr int kMaxSourceRetries = 8;
constexpr double kSourceBackoffBaseSeconds = 1e-3;

// Burst sizes: the router pops up to this many
// arrivals per ingest-queue lock, and a shard worker pops up to this
// many window tasks per work-ring lock. Bursts amortize the mutex
// atomics and futex wakeups; correctness never depends on the values.
constexpr size_t kRouterIngestBurst = 64;
constexpr size_t kShardWorkBurst = 16;

}  // namespace

/// Per-Run mutable state. Threading contract: the producer thread only
/// touches `queue` (and its own local counters); shard workers only
/// touch their own Shard (rings, stats) and read the detached
/// EventStreams they are handed; everything else is owned by the router
/// (caller) thread.
struct OnlineDlacep::RunState {
  RunState(const OnlineConfig& config, const Pattern& anchor)
      : queue(config.queue_capacity),
        type_shed(anchor),
        controller(config.overload),
        guard(config.health) {}

  // Queue element: the event plus its push timestamp, so queue-wait is
  // measured exactly (the stamp travels with the event through the
  // queue's own synchronization — no side-channel, no race, correct
  // under drop_when_full). Stamping is skipped while metrics are off.
  struct Arrival {
    Event event;
    double pushed_seconds = 0.0;
  };

  RingQueue<Arrival> queue;
  std::shared_ptr<const Schema> schema;
  /// Level-2 type-shedding fallback, judged against the anchor query.
  TypeSheddingFilter type_shed;

  // Assembler: arrivals not yet consumed by every window that needs
  // them. `buffer_offset` is the global stream index of buffer.front();
  // events below the next window begin are pruned after dispatch, so
  // memory stays O(mark_size + queue), not O(stream).
  std::deque<Event> buffer;
  size_t buffer_offset = 0;
  size_t appended = 0;
  size_t next_begin = 0;
  size_t windows_dispatched = 0;
  size_t last_end = 0;

  // Router-side shadow of every dispatched-but-unmerged window, in
  // dispatch order: pending.front() is sequence `next_merge`, so
  // pending.size() is the number of windows in flight. A deadline
  // abandon synthesizes its quarantined stand-in from the shadow,
  // without the worker's cooperation.
  struct Pending {
    size_t begin = 0;
    int level = 0;
    double close_seconds = 0.0;
    std::shared_ptr<EventStream> events;
  };
  std::deque<Pending> pending;
  size_t next_merge = 0;

  // One closed window forwarded to its shard (the exchange stage). The
  // level/probe decisions were already taken by the router at close
  // time; the worker only marks.
  struct WindowTask {
    size_t seq = 0;
    size_t begin = 0;
    int level = 0;
    bool probe = false;
    double close_seconds = 0.0;
    std::shared_ptr<EventStream> events;
  };
  // One finished window on a shard's completion ring. A shard's worker
  // is FIFO over its work ring, so these come off sequence-ordered per
  // shard — the property the cross-shard merge relies on.
  struct SeqDone {
    size_t seq = 0;
    DoneWindow window;
  };
  struct Shard {
    Shard(size_t work_capacity, size_t done_capacity)
        : work(work_capacity), done(done_capacity) {}
    RingQueue<WindowTask> work;  ///< router -> worker (SPSC)
    RingQueue<SeqDone> done;     ///< worker -> router (SPSC)
    ShardStats stats;            ///< single-writer fields, read post-join
    std::thread thread;
  };
  std::vector<std::unique_ptr<Shard>> shards;

  // Merge products. marked_store is a deque so Event addresses stay
  // stable as it grows. `stored` dedups the store across overlapping
  // windows; `seen` holds ids relayed by a healthy mark,
  // `quarantined_ids` ids relayed through a quarantined or degraded
  // window (an id can be in both — accounting attributes it to `seen`).
  std::vector<EventId> marked_ids;
  std::unordered_set<EventId> seen;
  std::unordered_set<EventId> quarantined_ids;
  std::unordered_set<EventId> stored;
  std::deque<Event> marked_store;

  OverloadController controller;
  HealthGuard guard;
  size_t degraded_since_probe = 0;
  std::unique_ptr<DriftMonitor> drift;
  double latency_ewma = 0.0;
  bool latency_seen = false;
  size_t latency_samples = 0;  ///< observations offered (incl. discarded)

  // Checkpoint bookkeeping (router thread).
  uint64_t base_ingested = 0;  ///< events already accounted pre-restore
  uint64_t last_checkpoint = 0;

  std::atomic<bool> source_aborted{false};

  RuntimeStats stats;
  Stopwatch watch;
};

Status OnlineDlacep::ValidateForOnline(const Pattern& pattern,
                                       EngineKind engine) {
  if (pattern.window().kind != WindowKind::kCount) {
    return Status::InvalidArgument(
        "DLACEP filtration requires a count window (WITHIN N); "
        "time-window queries can only be evaluated exactly (dlacep run)");
  }
  // Extraction builds the engine at end of stream; refuse a pattern
  // outside its class now, not after the whole run.
  return CreateEngine(engine, pattern).status();
}

namespace {

// The pattern constructor's registry: the pattern as its only query.
std::unique_ptr<serve::QueryRegistry> OneQueryRegistry(
    const Pattern& pattern, const OnlineConfig& config) {
  auto registry = std::make_unique<serve::QueryRegistry>();
  serve::QueryOptions options;
  options.name = config.engine_options.pattern_label;
  options.engine = config.engine;
  const StatusOr<serve::QueryId> id = registry->Register(pattern, options);
  DLACEP_CHECK_MSG(id.ok(), id.status().ToString());
  return registry;
}

}  // namespace

OnlineDlacep::OnlineDlacep(const Pattern& pattern, const StreamFilter* filter,
                           const OnlineConfig& config)
    : OnlineDlacep(OneQueryRegistry(pattern, config), nullptr, filter,
                   config, serve::BreakerConfig{}, nullptr) {}

OnlineDlacep::OnlineDlacep(const serve::QueryRegistry* registry,
                           const StreamFilter* filter,
                           const OnlineConfig& config,
                           const serve::BreakerConfig& breaker,
                           const serve::ServeFilter* attribution)
    : OnlineDlacep(nullptr, registry, filter, config, breaker, attribution) {}

OnlineDlacep::OnlineDlacep(std::unique_ptr<serve::QueryRegistry> owned,
                           const serve::QueryRegistry* registry,
                           const StreamFilter* filter,
                           const OnlineConfig& config,
                           const serve::BreakerConfig& breaker,
                           const serve::ServeFilter* attribution)
    : owned_registry_(std::move(owned)),
      registry_(owned_registry_ != nullptr ? owned_registry_.get()
                                           : registry),
      attribution_(attribution),
      config_(config),
      filter_(filter),
      random_shed_(config.overload.random_keep_probability,
                   config.overload.random_seed),
      stage_(*registry_->Acquire(), config.engine_options, breaker) {
  DLACEP_CHECK(registry_ != nullptr);
  DLACEP_CHECK(filter_ != nullptr);
  // One worker thread (spawned per Run) and one scratch arena per shard.
  num_shards_ = ResolveNumThreads(config_.num_shards);
  for (size_t i = 0; i < num_shards_; ++i) {
    contexts_.push_back(std::make_unique<InferenceContext>());
  }
  // Deep enough for every shard to hold two full micro-batches, so a
  // busy shard's backlog can form batches of batch_size.
  const size_t batch = std::max<size_t>(config_.batch_size, 1);
  max_in_flight_ = config_.max_windows_in_flight != 0
                       ? config_.max_windows_in_flight
                       : 2 * num_shards_ * batch + 2;
}

void OnlineDlacep::MergeOne(RunState* state, DoneWindow window) {
  obs::TraceSpan merge_span(obs::StageWindowMerge());
  const double now = state->watch.ElapsedSeconds();
  const double latency = std::max(0.0, now - window.close_seconds);
  state->stats.window_latency.Record(latency);
  // The first latency_warmup_windows observations never reach the EWMA:
  // the warm-up window is routinely a cold-cache outlier, and because
  // the EWMA seeds from its first observation, admitting it would hold
  // the smoothed latency above the escalation bar for several windows —
  // a spurious escalation from one slow window (overload.h).
  if (state->latency_samples++ >= config_.overload.latency_warmup_windows) {
    state->latency_ewma = state->latency_seen
                              ? 0.8 * state->latency_ewma + 0.2 * latency
                              : latency;
    state->latency_seen = true;
  }

  ++state->stats.windows_closed;
  obs::WindowsClosed()->Increment();
  if (window.level == 1) {
    ++state->stats.windows_boosted;
    obs::WindowsBoosted()->Increment();
  }
  if (window.level >= OverloadController::kMaxLevel &&
      window.level != OverloadController::kDegradedLevel) {
    ++state->stats.windows_shed;
    obs::WindowsShed()->Increment();
  }

  const size_t window_size = window.events->size();
  const bool degraded_window =
      window.level == OverloadController::kDegradedLevel;
  bool quarantine = false;

  if (degraded_window) {
    ++state->stats.windows_degraded;
    obs::WindowsDegraded()->Increment();
    if (window.probe) {
      ++state->stats.probes_run;
      obs::ProbesRun()->Increment();
      bool recovered = false;
      const bool passed = state->guard.ProbeHealthy(
          window.shadow_marks, window_size, latency, &recovered);
      if (passed) {
        ++state->stats.probes_passed;
        obs::ProbesPassed()->Increment();
      }
      if (recovered) {
        state->controller.ExitDegraded();
        ++state->stats.health_recoveries;
        obs::HealthRecoveries()->Increment();
        obs::HealthDegraded()->Set(0.0);
        state->guard.ResetStreaks();
        state->degraded_since_probe = 0;
        DLACEP_LOG(Info) << "filter re-enabled after "
                         << state->guard.config().probe_passes
                         << " healthy probes";
      }
    }
  } else if (config_.health.enabled) {
    HealthViolation v =
        window.timed_out
            ? HealthViolation::kDeadline
            : state->guard.Inspect(window.marks, window_size, latency);
    if (v != HealthViolation::kNone) {
      quarantine = true;
      ++state->stats.health_violations;
      obs::HealthViolations()->Increment();
      ++state->stats.windows_quarantined;
      obs::WindowsQuarantined()->Increment();
      DLACEP_LOG(Warning)
          << "window at " << window.begin << " quarantined ("
          << HealthViolationName(v) << "); degrading to exact CEP";
      if (!state->controller.degraded()) {
        state->controller.ForceDegrade(
            static_cast<double>(state->queue.size()) /
                static_cast<double>(state->queue.capacity()),
            latency);
        ++state->stats.health_degrades;
        obs::HealthDegrades()->Increment();
        obs::HealthDegraded()->Set(1.0);
      }
      state->guard.ResetStreaks();
      state->degraded_since_probe = 0;
    }
  } else {
    // Health checks off: the PR-3 invariant — a filter must cover its
    // window — is a programmer error again.
    DLACEP_CHECK_EQ(window.marks.size(), window.events->size());
  }

  if (degraded_window || quarantine) {
    // Relay the whole window unfiltered: recall 1.0 by construction.
    for (size_t t = 0; t < window_size; ++t) {
      const Event& event = (*window.events)[t];
      state->marked_ids.push_back(event.id);
      state->quarantined_ids.insert(event.id);
      if (state->stored.insert(event.id).second) {
        state->marked_store.push_back(event);
      }
    }
  } else {
    for (size_t t = 0; t < window.marks.size(); ++t) {
      if (window.marks[t] == 0) continue;
      const Event& event = (*window.events)[t];
      state->marked_ids.push_back(event.id);
      if (state->seen.insert(event.id).second) {
        obs::EventsRelayed()->Increment();
      }
      if (state->stored.insert(event.id).second) {
        state->marked_store.push_back(event);
      }
    }
    if (state->drift != nullptr && state->drift->Observe(window.marks)) {
      ++state->stats.drift_flags;
      // Flag-only policy: re-anchor to the live rate so the monitor
      // re-arms instead of firing on every subsequent window (the
      // retraining loop in drift.h is the heavyweight alternative).
      state->drift->ResetReference();
    }
  }
}

void OnlineDlacep::DrainMerges(RunState* state, size_t target_in_flight) {
  const double deadline =
      config_.health.enabled ? config_.health.mark_deadline_seconds : 0.0;
  // Retires the merge line, from the owner's completion or — after a
  // deadline abandon — from the router's shadow.
  auto retire = [&](DoneWindow window) {
    state->pending.pop_front();
    ++state->next_merge;
    MergeOne(state, std::move(window));
  };
  // Anything popped below the merge line is the late result of a
  // previously abandoned window — stale, discard. Every lower sequence
  // the owner holds has merged or been discarded, so the first live
  // completion is exactly the merge line.
  auto take = [&](RunState::SeqDone& done, DoneWindow* window) {
    if (done.seq < state->next_merge) return false;
    DLACEP_CHECK_EQ(done.seq, state->next_merge);
    *window = std::move(done.window);
    return true;
  };
  while (state->pending.size() > target_in_flight) {
    const RunState::Pending& p = state->pending.front();
    RunState::Shard& shard = *state->shards[state->next_merge % num_shards_];
    DoneWindow window;
    bool have = false;
    while (!have) {
      RunState::SeqDone done;
      if (deadline <= 0.0) {
        if (!shard.done.Pop(&done)) break;  // ring closed (shutdown)
      } else {
        const double wait_s =
            p.close_seconds + deadline - state->watch.ElapsedSeconds();
        if (wait_s <= 0.0) break;  // overdue: abandon below
        bool timed_out = false;
        if (!shard.done.PopFor(&done, wait_s, &timed_out)) {
          if (timed_out) continue;  // recomputes wait_s, then abandons
          break;                    // ring closed (shutdown)
        }
      }
      have = take(done, &window);
    }
    if (!have) {
      // Deadline abandon: the worker is wedged (or just too slow).
      // MergeOne relays the stand-in's events unfiltered and degrades.
      window.begin = p.begin;
      window.level = p.level;
      window.close_seconds = p.close_seconds;
      window.events = p.events;
      window.timed_out = true;
    }
    retire(std::move(window));
  }
  // Opportunistically retire whatever the owner of the merge line has
  // already finished, so merge latency tracks worker completion, not
  // the in-flight bound.
  while (!state->pending.empty()) {
    RunState::Shard& shard = *state->shards[state->next_merge % num_shards_];
    DoneWindow window;
    bool have = false;
    RunState::SeqDone done;
    while (!have && shard.done.TryPop(&done)) have = take(done, &window);
    if (!have) break;
    retire(std::move(window));
  }
}

void OnlineDlacep::ShardLoop(RunState* state, size_t shard_index) {
  RunState::Shard& shard = *state->shards[shard_index];
  if (config_.pin_shard_threads && num_shards_ > 1) {
    const size_t cores = ResolveNumThreads(0);
    shard.stats.pinned = PinCurrentThreadToCore(shard_index % cores);
  }
  InferenceContext* ctx = contexts_[shard_index].get();
  const size_t batch_cap = config_.batch_size > 1 ? config_.batch_size : 1;
  std::vector<RunState::WindowTask> burst;
  std::vector<RunState::SeqDone> finished;
  for (;;) {
    burst.clear();
    if (shard.work.PopBurst(&burst, kShardWorkBurst) == 0) break;
    finished.clear();
    finished.reserve(burst.size());
    size_t i = 0;
    while (i < burst.size()) {
      // Micro-batching: adjacent level-0/1 windows in the burst mark
      // through one MarkBatchOnline call (a busy shard's backlog
      // batches naturally, an idle shard marks solo with no added
      // latency). Shed, degraded, and probe windows always mark alone:
      // their marking is trivial or intentionally separate, so a
      // degraded run behaves exactly like batch_size = 1.
      const RunState::WindowTask& head = burst[i];
      const bool batchable = head.level < OverloadController::kMaxLevel;
      size_t j = i + 1;
      if (batchable) {
        while (j < burst.size() && j - i < batch_cap &&
               burst[j].level < OverloadController::kMaxLevel) {
          ++j;
        }
      }
      // Shed windows mark with the shedding policy's filter; a degraded
      // window relays unfiltered, and only a probe shadow-marks it with
      // the primary filter (at base threshold).
      const bool degraded = head.level == OverloadController::kDegradedLevel;
      const StreamFilter* marker = filter_;
      if (head.level == OverloadController::kMaxLevel) {
        marker = config_.overload.shedding == SheddingPolicy::kRandom
                     ? static_cast<const StreamFilter*>(&random_shed_)
                     : static_cast<const StreamFilter*>(&state->type_shed);
      }
      Stopwatch mark_watch;
      obs::TraceSpan mark_span(obs::StageWindowMark());
      std::vector<OnlineWindow> windows;
      windows.reserve(j - i);
      for (size_t k = i; k < j; ++k) {
        const RunState::WindowTask& t = burst[k];
        if (config_.worker_window_hook) config_.worker_window_hook(t.seq);
        windows.push_back(OnlineWindow{
            t.events.get(), t.begin,
            t.level == 1 ? config_.overload.threshold_boost : 0.0});
      }
      std::vector<std::vector<int>> marks(j - i);
      if (!degraded || head.probe) {
        marker->MarkBatchOnline(windows, ctx, marks.data());
      }
      for (size_t k = i; k < j; ++k) {
        RunState::WindowTask& t = burst[k];
        DoneWindow window;
        window.begin = t.begin;
        window.level = t.level;
        window.close_seconds = t.close_seconds;
        window.probe = t.probe;
        if (degraded) {
          window.marks.assign(t.events->size(), 1);
          window.shadow_marks = std::move(marks[k - i]);
        } else {
          window.marks = std::move(marks[k - i]);
        }
        window.events = std::move(t.events);
        finished.push_back(RunState::SeqDone{t.seq, std::move(window)});
      }
      mark_span.Finish();
      shard.stats.mark_seconds += mark_watch.ElapsedSeconds();
      shard.stats.windows_marked += j - i;
      ++shard.stats.filter_calls;
      obs::ShardWindowsMarked(shard_index)->Increment(j - i);
      obs::ShardMarkLatency(shard_index)
          ->Observe(mark_watch.ElapsedSeconds());
      i = j;
    }
    shard.done.PushBurst(finished.data(), finished.size());
  }
}

void OnlineDlacep::CloseWindow(RunState* state, size_t begin, size_t end) {
  DrainMerges(state, max_in_flight_ - 1);

  // The overload decision is taken at close time, on the router
  // thread, from the current ingest-queue depth and the smoothed merge
  // latency — so the level a window runs under is deterministic given
  // the arrival/processing interleaving, and level changes are totally
  // ordered with window dispatch. While degraded, Observe() returns
  // kDegradedLevel unconditionally.
  const int level = state->controller.Observe(
      static_cast<double>(state->queue.size()) /
          static_cast<double>(state->queue.capacity()),
      state->latency_seen ? state->latency_ewma : 0.0);
  obs::QueueDepth()->Set(static_cast<double>(state->queue.size()));
  obs::OverloadLevel()->Set(static_cast<double>(level));

  // Probe scheduling is router-side (deterministic regardless of
  // shard count): every probe_period-th degraded window additionally
  // shadow-marks with the primary filter.
  bool probe = false;
  if (level == OverloadController::kDegradedLevel &&
      config_.health.enabled && config_.health.probe_period > 0) {
    if (++state->degraded_since_probe >= config_.health.probe_period) {
      probe = true;
      state->degraded_since_probe = 0;
    }
  }

  // Detach the window into its own EventStream (ids preserved): workers
  // must never read the router's growing buffer, and the copy is
  // what lets the buffer prune below.
  auto events = std::make_shared<EventStream>(state->schema);
  for (size_t i = begin; i < end; ++i) {
    events->AppendArrival(state->buffer[i - state->buffer_offset]);
  }

  // Adaptive engine selection: the router feeds each closed window into
  // the persistent selectors' frequency estimators right here — before
  // dispatch, on the one thread that closes windows — so the observation
  // order, the decayed counts, and every reselection point are
  // deterministic at any shard count. No-op without adaptive queries.
  stage_.ObserveWindow(
      std::span<const Event>(events->events().data(), events->size()));

  const size_t seq = state->windows_dispatched++;
  state->last_end = end;
  state->next_begin = begin + step_size_;
  while (state->buffer_offset < state->next_begin && !state->buffer.empty()) {
    state->buffer.pop_front();
    ++state->buffer_offset;
  }

  const double close_seconds = state->watch.ElapsedSeconds();
  state->pending.push_back(
      RunState::Pending{begin, level, close_seconds, events});
  obs::WindowsInFlight()->Set(static_cast<double>(state->pending.size()));

  // Exchange stage: the detached window is forwarded whole to shard
  // (seq mod N). Occupancy is bounded by the in-flight count (capped at
  // max_in_flight_ by the DrainMerges above), so the push lands without
  // blocking unless deadline abandons have piled extra tasks onto a
  // wedged shard — then blocking here is the intended backpressure.
  const size_t owner = seq % num_shards_;
  RunState::Shard& shard = *state->shards[owner];
  RunState::WindowTask task{seq,   begin, level,
                            probe, close_seconds, std::move(events)};
  const bool accepted = shard.work.Push(std::move(task));
  DLACEP_CHECK(accepted);
  ++shard.stats.windows_routed;
  obs::ShardRingDepth(owner)->Set(static_cast<double>(shard.work.size()));
}

void OnlineDlacep::WriteCheckpointNow(RunState* state) {
  // Quiesce: a checkpoint is only consistent once every dispatched
  // window has merged (the snapshot has no notion of in-flight work).
  DrainMerges(state, 0);

  obs::TraceSpan checkpoint_span(obs::StageCheckpointWrite());
  CheckpointState snap;
  snap.mark_size = mark_size_;
  snap.step_size = step_size_;
  snap.appended = state->appended;
  snap.next_begin = state->next_begin;
  snap.windows_dispatched = state->windows_dispatched;
  snap.last_end = state->last_end;
  snap.buffer_offset = state->buffer_offset;
  snap.buffer.assign(state->buffer.begin(), state->buffer.end());
  snap.marked_ids = state->marked_ids;
  snap.marked_events.assign(state->marked_store.begin(),
                            state->marked_store.end());
  snap.seen.assign(state->seen.begin(), state->seen.end());
  std::sort(snap.seen.begin(), snap.seen.end());
  snap.quarantined.assign(state->quarantined_ids.begin(),
                          state->quarantined_ids.end());
  std::sort(snap.quarantined.begin(), snap.quarantined.end());
  snap.events_dropped_queue = state->stats.events_dropped_queue;
  snap.windows_closed = state->stats.windows_closed;
  snap.windows_boosted = state->stats.windows_boosted;
  snap.windows_shed = state->stats.windows_shed;
  snap.windows_quarantined = state->stats.windows_quarantined;
  snap.windows_degraded = state->stats.windows_degraded;
  snap.health_violations = state->stats.health_violations;
  snap.health_degrades = state->stats.health_degrades;
  snap.health_recoveries = state->stats.health_recoveries;
  snap.probes_run = state->stats.probes_run;
  snap.probes_passed = state->stats.probes_passed;
  snap.checkpoints_written = state->stats.checkpoints_written + 1;
  snap.drift_flags = state->stats.drift_flags;
  snap.controller_level = state->controller.level();
  snap.probe_pass_run = state->guard.probe_pass_run();
  snap.degraded_since_probe = state->degraded_since_probe;
  if (const AdaptiveEngine* adaptive = stage_.first_adaptive()) {
    const AdaptiveSnapshot a = adaptive->Snapshot();
    snap.has_adaptive = 1;
    snap.adaptive_selected = a.selected;
    snap.adaptive_windows_observed = a.windows_observed;
    snap.adaptive_switches = a.switches;
    snap.adaptive_external_feed = a.external_feed;
    snap.adaptive_freq_types.reserve(a.frequencies.size());
    snap.adaptive_freq_counts.reserve(a.frequencies.size());
    for (const auto& [type, count] : a.frequencies) {
      snap.adaptive_freq_types.push_back(type);
      snap.adaptive_freq_counts.push_back(count);
    }
  }

  const Status status = SaveCheckpoint(snap, config_.checkpoint.dir);
  if (status.ok()) {
    ++state->stats.checkpoints_written;
    obs::CheckpointsWritten()->Increment();
  } else {
    // A failed checkpoint degrades durability, not availability.
    DLACEP_LOG(Warning) << "checkpoint write failed: " << status.ToString();
  }
}

Status OnlineDlacep::RestoreFrom(RunState* state, StreamSource* source) {
  if (config_.drop_when_full) {
    return Status::FailedPrecondition(
        "checkpoint restore requires lossless ingest "
        "(drop_when_full = false): with drops the arrival-id counter "
        "no longer tracks the source position");
  }
  StatusOr<CheckpointState> loaded = LoadCheckpoint(config_.checkpoint.dir);
  if (!loaded.ok()) return loaded.status();
  CheckpointState& cs = *loaded;
  if (cs.mark_size != mark_size_ || cs.step_size != step_size_) {
    return Status::FailedPrecondition(
        "checkpoint window geometry does not match this runtime");
  }
  if (cs.buffer.size() != cs.appended - cs.buffer_offset) {
    return Status::InvalidArgument(
        "checkpoint buffer does not cover [buffer_offset, appended)");
  }
  // Engine-selection state must round-trip exactly: an adaptive resume
  // needs the frequency counts and observation counter to land on the
  // same reselection points, and a static resume must not silently
  // discard a selection trail the checkpoint carries.
  AdaptiveEngine* adaptive = stage_.first_adaptive();
  if (cs.has_adaptive != 0) {
    if (adaptive == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint carries adaptive engine-selection state but this "
          "runtime is configured with a static engine");
    }
    AdaptiveSnapshot a;
    a.selected = cs.adaptive_selected;
    a.windows_observed = cs.adaptive_windows_observed;
    a.switches = cs.adaptive_switches;
    a.external_feed = cs.adaptive_external_feed;
    a.frequencies.reserve(cs.adaptive_freq_types.size());
    for (size_t i = 0; i < cs.adaptive_freq_types.size(); ++i) {
      a.frequencies.emplace_back(cs.adaptive_freq_types[i],
                                 cs.adaptive_freq_counts[i]);
    }
    const Status restored = adaptive->Restore(a);
    if (!restored.ok()) return restored;
  } else if (adaptive != nullptr) {
    return Status::FailedPrecondition(
        "adaptive engine selection configured but the checkpoint has no "
        "selection state (taken by a static-engine or pre-v2 run)");
  }

  state->appended = cs.appended;
  state->next_begin = cs.next_begin;
  state->windows_dispatched = cs.windows_dispatched;
  state->next_merge = cs.windows_dispatched;  // quiescent at snapshot
  state->last_end = cs.last_end;
  state->buffer_offset = cs.buffer_offset;
  state->buffer.assign(cs.buffer.begin(), cs.buffer.end());
  state->marked_ids = std::move(cs.marked_ids);
  for (Event& e : cs.marked_events) {
    state->stored.insert(e.id);
    state->marked_store.push_back(std::move(e));
  }
  state->seen.insert(cs.seen.begin(), cs.seen.end());
  state->quarantined_ids.insert(cs.quarantined.begin(),
                                cs.quarantined.end());

  state->stats.events_dropped_queue = cs.events_dropped_queue;
  state->stats.windows_closed = cs.windows_closed;
  state->stats.windows_boosted = cs.windows_boosted;
  state->stats.windows_shed = cs.windows_shed;
  state->stats.windows_quarantined = cs.windows_quarantined;
  state->stats.windows_degraded = cs.windows_degraded;
  state->stats.health_violations = cs.health_violations;
  state->stats.health_degrades = cs.health_degrades;
  state->stats.health_recoveries = cs.health_recoveries;
  state->stats.probes_run = cs.probes_run;
  state->stats.probes_passed = cs.probes_passed;
  state->stats.checkpoints_written = cs.checkpoints_written;
  state->stats.drift_flags = cs.drift_flags;

  // Fold the restored baselines into the metric counters so a scrape
  // equals RuntimeStats whether or not the run resumed from a
  // checkpoint (relayed increments live on seen-insert; the restored
  // seen set never re-inserts, so its baseline lands here).
  obs::EventsIngested()->Increment(cs.appended);
  obs::EventsDropped()->Increment(cs.events_dropped_queue);
  obs::EventsRelayed()->Increment(cs.seen.size());
  obs::WindowsClosed()->Increment(cs.windows_closed);
  obs::WindowsBoosted()->Increment(cs.windows_boosted);
  obs::WindowsShed()->Increment(cs.windows_shed);
  obs::WindowsQuarantined()->Increment(cs.windows_quarantined);
  obs::WindowsDegraded()->Increment(cs.windows_degraded);
  obs::HealthViolations()->Increment(cs.health_violations);
  obs::HealthDegrades()->Increment(cs.health_degrades);
  obs::HealthRecoveries()->Increment(cs.health_recoveries);
  obs::ProbesRun()->Increment(cs.probes_run);
  obs::ProbesPassed()->Increment(cs.probes_passed);
  obs::CheckpointsWritten()->Increment(cs.checkpoints_written);

  state->controller.RestoreLevel(cs.controller_level);
  obs::OverloadLevel()->Set(static_cast<double>(cs.controller_level));
  obs::HealthDegraded()->Set(
      cs.controller_level == OverloadController::kDegradedLevel ? 1.0 : 0.0);
  state->guard.RestoreProbeRun(cs.probe_pass_run);
  state->degraded_since_probe = cs.degraded_since_probe;

  state->base_ingested = cs.appended;
  state->last_checkpoint = cs.appended;

  const size_t skipped = source->Skip(cs.appended);
  if (skipped != cs.appended) {
    return Status::FailedPrecondition(
        "source ended before the checkpoint watermark — restore needs "
        "the same deterministic stream the checkpoint was taken from");
  }
  DLACEP_LOG(Info) << "restored checkpoint at watermark " << cs.appended
                   << " (" << state->marked_store.size()
                   << " relayed events)";
  return Status::Ok();
}

OnlineResult OnlineDlacep::Run(StreamSource* source) {
  OnlineResult result;
  const Status status = Run(source, &result);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  return result;
}

Status OnlineDlacep::Run(StreamSource* source, OnlineResult* result) {
  DLACEP_CHECK(source != nullptr);
  DLACEP_CHECK(result != nullptr);
  const auto start_snapshot = registry_->Acquire();
  if (start_snapshot->queries.empty()) {
    return Status::FailedPrecondition("cannot serve: no queries registered");
  }
  const InputAssembler assembler = InputAssembler::ForWindow(
      start_snapshot->max_window, config_.mark_size, config_.step_size);
  mark_size_ = assembler.mark_size();
  step_size_ = assembler.step_size();
  RunState state(config_, *start_snapshot->queries[0].pattern);
  state.schema = source->schema();
  if (config_.drift.enabled) {
    state.drift = std::make_unique<DriftMonitor>(
        config_.drift.reference_rate, config_.drift.tolerance,
        config_.drift.window_budget);
  }
  const bool checkpointing = !config_.checkpoint.dir.empty();
  if (config_.checkpoint.restore) {
    if (!checkpointing) {
      return Status::InvalidArgument("--restore needs a checkpoint dir");
    }
    DLACEP_RETURN_IF_ERROR(RestoreFrom(&state, source));
  }

  // Spawn the shard workers before any window can close. Without
  // deadline abandons, ring occupancy is bounded by the in-flight count
  // (<= max_in_flight_), so pushes never block. Abandoned windows leave
  // the in-flight count while their task/late result still occupies a
  // ring, so capacity carries 2x slack; if a ring still fills behind a
  // wedged shard, the push blocking IS the backpressure (the merge line
  // keeps advancing via abandons and drains the ring on its next visit).
  const size_t ring_capacity = 2 * (max_in_flight_ + 1);
  for (size_t s = 0; s < num_shards_; ++s) {
    state.shards.push_back(
        std::make_unique<RunState::Shard>(ring_capacity, ring_capacity));
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    state.shards[s]->thread =
        std::thread(&OnlineDlacep::ShardLoop, this, &state, s);
  }

  // Producer: pull, stamp the arrival id BEFORE the queue (a dropped
  // event leaves an id gap, keeping the count-window constraint
  // anchored to real arrivals, §4.4), push. Transient read failures
  // retry with exponential backoff; a persistent failure closes the
  // queue and flags the abort — the serve loop never crashes on a bad
  // source. Counters are thread-local and folded into stats after
  // join().
  uint64_t ingested = 0;
  uint64_t dropped = 0;
  uint64_t read_errors = 0;
  uint64_t retries = 0;
  obs::QueueCapacity()->Set(static_cast<double>(state.queue.capacity()));
  std::thread producer([&] {
    RunState::Arrival arrival;
    EventId next_id = state.appended;  // restored runs resume the id line
    int consecutive_failures = 0;
    for (;;) {
      const Status read = source->Read(&arrival.event);
      if (read.ok()) {
        consecutive_failures = 0;
        arrival.event.id = next_id++;
        ++ingested;
        obs::EventsIngested()->Increment();
        arrival.pushed_seconds =
            obs::MetricsEnabled() ? state.watch.ElapsedSeconds() : 0.0;
        const bool accepted = config_.drop_when_full
                                  ? state.queue.TryPush(arrival)
                                  : state.queue.Push(arrival);
        if (!accepted) {
          ++dropped;
          obs::EventsDropped()->Increment();
        }
        continue;
      }
      if (read.code() == StatusCode::kOutOfRange) break;  // clean end
      ++read_errors;
      if (read.code() == StatusCode::kUnavailable &&
          consecutive_failures < kMaxSourceRetries) {
        ++retries;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            kSourceBackoffBaseSeconds *
            static_cast<double>(1 << consecutive_failures)));
        ++consecutive_failures;
        continue;
      }
      DLACEP_LOG(Error) << "stream source failed permanently: "
                        << read.ToString();
      state.source_aborted.store(true, std::memory_order_release);
      break;
    }
    state.queue.Close();
  });

  // Router loop: a full window closes by watermark the moment its last
  // event arrives — the running prefix of CountWindows(appended, mark,
  // step). Arrivals are burst-popped so the ingest queue's lock and
  // wakeup cost amortize across kRouterIngestBurst events.
  auto ingest = [&](RunState::Arrival& arrival) {
    if (arrival.pushed_seconds > 0.0) {
      obs::StageQueueWait()->Observe(std::max(
          0.0, state.watch.ElapsedSeconds() - arrival.pushed_seconds));
    }
    state.buffer.push_back(std::move(arrival.event));
    ++state.appended;
    while (state.appended >= state.next_begin + mark_size_) {
      CloseWindow(&state, state.next_begin,
                  state.next_begin + mark_size_);
    }
    if (checkpointing && config_.checkpoint.every_events > 0 &&
        state.appended - state.last_checkpoint >=
            config_.checkpoint.every_events) {
      WriteCheckpointNow(&state);
      state.last_checkpoint = state.appended;
    }
  };
  std::vector<RunState::Arrival> arrivals;
  arrivals.reserve(kRouterIngestBurst);
  for (;;) {
    arrivals.clear();
    if (state.queue.PopBurst(&arrivals, kRouterIngestBurst) == 0) break;
    for (RunState::Arrival& arrival : arrivals) ingest(arrival);
  }

  // End of stream: emit the truncated suffix exactly as CountWindows
  // would — at least one window on a nonempty stream, and windows until
  // one ends at the final event. After a source abort the suffix is NOT
  // fabricated: those windows would differ from the ones an
  // uninterrupted run eventually closes, which would poison a later
  // restore. The buffered tail stays in the checkpoint instead.
  const bool aborted = state.source_aborted.load(std::memory_order_acquire);
  const size_t total = state.appended;
  if (total > 0 && !aborted) {
    while (state.windows_dispatched == 0 || state.last_end != total) {
      CloseWindow(&state, state.next_begin,
                  std::min(state.next_begin + mark_size_, total));
    }
  }
  DrainMerges(&state, 0);
  // All windows are merged; close the work rings (the workers exit once
  // drained) and join, so no worker can touch RunState after Run returns.
  for (auto& shard : state.shards) shard->work.Close();
  for (auto& shard : state.shards) shard->thread.join();
  producer.join();

  // Final checkpoint at full quiescence (also the abort-path snapshot a
  // --restore run resumes from).
  if (checkpointing) WriteCheckpointNow(&state);

  state.stats.events_ingested = state.base_ingested + ingested;
  state.stats.events_dropped_queue += dropped;
  state.stats.events_appended = state.appended;
  state.stats.events_relayed = state.seen.size();
  uint64_t quarantined_only = 0;
  for (const EventId id : state.quarantined_ids) {
    if (state.seen.find(id) == state.seen.end()) ++quarantined_only;
  }
  state.stats.events_quarantined = quarantined_only;
  state.stats.events_filtered = state.appended - state.stored.size();
  // Filtered and quarantined-only are set-complement quantities: they
  // exist only once the run is over (a filtered event might still be
  // marked by a later overlapping window), so they sync to counters
  // here rather than incrementing live.
  obs::EventsQuarantined()->Increment(state.stats.events_quarantined);
  obs::EventsFiltered()->Increment(state.stats.events_filtered);
  state.stats.queue_capacity = state.queue.capacity();
  state.stats.queue_high_water = state.queue.high_water();
  for (auto& shard : state.shards) {
    shard->stats.work_high_water = shard->work.high_water();
    state.stats.shards.push_back(shard->stats);
  }
  state.stats.overload_escalations = state.controller.escalations();
  state.stats.overload_recoveries = state.controller.recoveries();
  state.stats.overload_level_at_exit = state.controller.level();
  state.stats.transitions = state.controller.transitions();
  state.stats.source_read_errors = read_errors;
  state.stats.source_retries = retries;
  state.stats.source_aborted = aborted;

  // Extraction serves whatever is registered when the stream ends.
  Stopwatch extract_watch;
  const auto snapshot = registry_->Acquire();
  std::vector<EventId> quarantined(state.quarantined_ids.begin(),
                                   state.quarantined_ids.end());
  std::sort(quarantined.begin(), quarantined.end());
  std::map<serve::QueryId, std::vector<EventId>> recorded;
  if (attribution_ != nullptr) recorded = attribution_->RecordedMarks();
  std::vector<serve::QueryResult> queries;
  DLACEP_RETURN_IF_ERROR(stage_.Extract(
      *snapshot, state.marked_store, quarantined,
      attribution_ != nullptr ? &recorded : nullptr, &queries,
      &result->sharing, &result->cep_stats));
  state.stats.extract_seconds = extract_watch.ElapsedSeconds();
  obs::StageCepEval()->Observe(state.stats.extract_seconds);
  state.stats.cep_partial_matches_dropped =
      result->cep_stats.partial_matches_dropped;
  // The adaptive selection when the stream drained, else the first
  // query's engine (the one query's, for the pattern constructor).
  if (const AdaptiveEngine* adaptive = stage_.first_adaptive()) {
    state.stats.engine_selected = EngineKindName(adaptive->selected_kind());
    state.stats.engine_switches = adaptive->switches();
  } else if (!snapshot->queries.empty()) {
    state.stats.engine_selected = EngineKindName(snapshot->queries[0].engine);
  }
  for (const serve::QueryResult& query : queries) {
    state.stats.matches += query.matches.size();
  }
  if (owned_registry_ != nullptr) {
    result->matches = std::move(queries[0].matches);
  } else {
    result->queries = std::move(queries);
  }
  state.stats.elapsed_seconds = state.watch.ElapsedSeconds();

  result->marked_ids = std::move(state.marked_ids);
  result->stats = std::move(state.stats);
  result->marked_events = result->stats.events_relayed;
  return Status::Ok();
}

}  // namespace dlacep
