#include "runtime/extraction.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/stages.h"

namespace dlacep {

namespace {

/// One extraction input, shared by every query with the same id set.
struct EventSet {
  std::vector<const Event*> events;  ///< ascending id, blanks included
  std::unordered_set<TypeId> types;
  std::vector<Event> dense;          ///< blank-stripped copy, on first use
};

EventSet MakeSet(std::vector<const Event*> events) {
  EventSet set;
  set.events = std::move(events);
  for (const Event* e : set.events) set.types.insert(e->type);
  return set;
}

void AddStats(const EngineStats& from, EngineStats* to) {
  to->events_processed += from.events_processed;
  to->partial_matches += from.partial_matches;
  to->matches_emitted += from.matches_emitted;
  to->partial_matches_dropped += from.partial_matches_dropped;
  to->transitions += from.transitions;
  to->partial_matches_pruned += from.partial_matches_pruned;
  to->budget_aborts += from.budget_aborts;
  to->evaluations += from.evaluations;
  to->elapsed_seconds += from.elapsed_seconds;
}

}  // namespace

ExtractionStage::ExtractionStage(const serve::RegistrySnapshot& known,
                                 const EngineOptions& options,
                                 const serve::BreakerConfig& breaker)
    : options_(options), breaker_config_(breaker) {
  for (const serve::QueryEntry& entry : known.queries) {
    if (entry.engine != EngineKind::kAdaptive) continue;
    std::unique_ptr<CepEngine> engine = MakeEngine(entry);
    auto* adaptive = static_cast<AdaptiveEngine*>(engine.release());
    persistent_.emplace(entry.id, std::unique_ptr<AdaptiveEngine>(adaptive));
    if (first_adaptive_ == nullptr) first_adaptive_ = adaptive;
  }
}

std::unique_ptr<CepEngine> ExtractionStage::MakeEngine(
    const serve::QueryEntry& entry) const {
  EngineOptions options = options_;
  options.pattern_label = entry.name;
  auto engine = CreateEngine(entry.engine, *entry.pattern, options);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  if (entry.engine == EngineKind::kAdaptive) {
    const std::string label = entry.name;
    static_cast<AdaptiveEngine*>(engine.value().get())
        ->set_selection_hook([label](EngineKind kind) {
          obs::EngineSelected(EngineKindName(kind), label)->Increment();
        });
  }
  return std::move(engine).value();
}

void ExtractionStage::ObserveWindow(std::span<const Event> window) {
  for (auto& [id, engine] : persistent_) engine->ObserveWindow(window);
}

Status ExtractionStage::Extract(const serve::RegistrySnapshot& snapshot,
                                const std::deque<Event>& store,
                                std::span<const EventId> quarantined,
                                const std::map<serve::QueryId, std::vector<EventId>>* recorded,
                                std::vector<serve::QueryResult>* queries,
                                serve::SharingStats* sharing,
                                EngineStats* engine_stats) {
  using serve::QueryBreaker;
  using serve::QueryEntry;
  const size_t num_queries = snapshot.queries.size();
  *sharing = serve::SharingStats{};
  *engine_stats = EngineStats{};
  queries->assign(num_queries, serve::QueryResult{});
  for (size_t q = 0; q < num_queries; ++q) {
    (*queries)[q].id = snapshot.queries[q].id;
    (*queries)[q].name = snapshot.queries[q].name;
  }

  // Per-query extraction inputs, deduplicated across queries: twins
  // (and guard sharers) with the same id set share one entry.
  std::vector<EventSet> sets;
  std::vector<size_t> query_set(num_queries, 0);
  if (recorded == nullptr) {
    std::vector<const Event*> all;
    all.reserve(store.size());
    for (const Event& event : store) all.push_back(&event);
    std::sort(all.begin(), all.end(), [](const Event* a, const Event* b) {
      return a->id < b->id;
    });
    sets.push_back(MakeSet(std::move(all)));
    for (serve::QueryResult& query : *queries) {
      query.marked_events = store.size();
    }
  } else {
    std::unordered_map<EventId, const Event*> by_id;
    by_id.reserve(store.size());
    for (const Event& event : store) by_id.emplace(event.id, &event);

    // Attribution is recorded at mark time, before the health guard's
    // quarantine verdict at window close, so a quarantined window's
    // events can carry stale per-query marks: strip those here — the
    // window-level recall-1.0 contract supersedes the decode.
    std::unordered_set<EventId> attributed;
    for (const auto& [id, ids] : *recorded) {
      attributed.insert(ids.begin(), ids.end());
    }
    for (const EventId id : quarantined) attributed.erase(id);
    std::vector<EventId> unattributed;
    for (const Event& event : store) {
      if (attributed.find(event.id) == attributed.end()) {
        unattributed.push_back(event.id);
      }
    }
    std::sort(unattributed.begin(), unattributed.end());

    std::map<std::vector<EventId>, size_t> set_index;
    for (size_t q = 0; q < num_queries; ++q) {
      std::vector<EventId> ids;
      const auto it = recorded->find(snapshot.queries[q].id);
      if (it != recorded->end()) {
        ids.resize(it->second.size() + unattributed.size());
        ids.erase(std::set_union(it->second.begin(), it->second.end(),
                                 unattributed.begin(), unattributed.end(),
                                 ids.begin()),
                  ids.end());
      } else {
        ids = unattributed;
      }
      (*queries)[q].marked_events = ids.size();
      auto [set_it, inserted] = set_index.emplace(std::move(ids),
                                                  sets.size());
      if (inserted) {
        std::vector<const Event*> events;
        events.reserve(set_it->first.size());
        for (const EventId id : set_it->first) {
          const auto event_it = by_id.find(id);
          DLACEP_CHECK(event_it != by_id.end());
          events.push_back(event_it->second);
        }
        sets.push_back(MakeSet(std::move(events)));
      }
      query_set[q] = set_it->second;
    }
  }

  // Every live query gets a breaker; trips persist across calls.
  std::vector<uint64_t> trips_before(num_queries, 0);
  std::vector<uint64_t> aborts_before(num_queries, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    const auto [it, unused] = breakers_.try_emplace(
        snapshot.queries[q].id, QueryBreaker(breaker_config_));
    trips_before[q] = it->second.trips();
    aborts_before[q] = it->second.budget_aborts();
  }
  auto breaker_of = [&](size_t q) -> QueryBreaker& {
    return breakers_.find(snapshot.queries[q].id)->second;
  };

  // Witness results are a property of (guard, event set): cache across
  // groups sharing a prefix.
  std::map<std::pair<int, size_t>, bool> witness_cache;

  // One extraction *unit* per (structural group × event set) partition:
  // a dense blank-stripped event span, one engine, and the members it
  // serves. A budgeted span is evaluated in overlapping id-range chunks
  // of L = 8W with step L-(W-1): every match spans at most W-1 id units
  // (the count window is enforced over ids), a match's start is itself
  // an event id, and the chunk covering it contains *all* events in its
  // id range — so chunked evaluation plus MatchSet dedup is
  // byte-identical to evaluating the whole span at once, and the
  // scheduler can interleave chunks of different units fairly. Without
  // a budget or deadline nothing can abort, so a unit is one chunk.
  struct Unit {
    std::vector<size_t> members;  ///< query indexes; [0] is canonical
    std::span<const Event> events;
    std::vector<std::pair<size_t, size_t>> chunks;  ///< [begin,end) idx
    size_t next_chunk = 0;
    CepEngine* engine = nullptr;
    std::unique_ptr<CepEngine> owned;  ///< null for a persistent engine
    MatchSet matches;
    uint64_t cost = 0;  ///< fair-share units: chunks run + pm created
    bool ran = false;   ///< at least one chunk actually evaluated
  };
  std::vector<Unit> units;
  const bool budgeted =
      options_.partial_match_budget > 0 || options_.deadline_seconds > 0.0;
  for (auto& [id, engine] : persistent_) engine->ResetStats();

  for (const serve::SharedGroup& group : snapshot.plan.groups) {
    std::map<size_t, std::vector<size_t>> partitions;
    for (const size_t member : group.members) {
      partitions[query_set[member]].push_back(member);
    }
    for (const auto& [set_id, members] : partitions) {
      ++sharing->partitions;
      EventSet& set = sets[set_id];

      bool occupied = true;
      for (const std::vector<TypeId>& required : group.required_types) {
        bool present = false;
        for (const TypeId type : required) {
          present |= set.types.count(type) > 0;
        }
        if (!present) {
          occupied = false;
          break;
        }
      }
      if (!occupied) {
        sharing->type_pruned += members.size();
        continue;  // every member's MatchSet stays empty
      }

      if (group.guard >= 0) {
        const std::pair<int, size_t> key(group.guard, set_id);
        auto cached = witness_cache.find(key);
        if (cached == witness_cache.end()) {
          ++sharing->guard_checks;
          cached = witness_cache
                       .emplace(key, serve::SeqPrefixWitness(
                                         snapshot.plan.guards[static_cast<
                                             size_t>(group.guard)],
                                         set.events))
                       .first;
        }
        if (!cached->second) {
          sharing->guard_pruned += members.size();
          continue;
        }
      }

      if (set.dense.empty()) {
        set.dense.reserve(set.events.size());
        for (const Event* e : set.events) {
          if (!e->is_blank()) set.dense.push_back(*e);
        }
      }
      if (set.dense.empty()) continue;

      const QueryEntry& canonical = snapshot.queries[members[0]];
      Unit unit;
      unit.members = members;
      unit.events = set.dense;
      // Window-aligned chunk geometry (ids, not positions); an unbudgeted
      // chunk spans the unit's whole id range.
      const size_t w =
          std::max<size_t>(canonical.pattern->window().count_size(), 2);
      const EventId span =
          budgeted ? static_cast<EventId>(8 * w)
                   : unit.events.back().id - unit.events.front().id + 1;
      const EventId step = span - static_cast<EventId>(w - 1);
      size_t begin = 0;
      while (begin < unit.events.size()) {
        const EventId base = unit.events[begin].id;
        size_t end = begin;
        while (end < unit.events.size() &&
               unit.events[end].id < base + span) {
          ++end;
        }
        unit.chunks.emplace_back(begin, end);
        if (end == unit.events.size()) break;
        size_t next = begin;
        while (next < unit.events.size() &&
               unit.events[next].id < base + step) {
          ++next;
        }
        begin = next;
      }

      const auto persistent = persistent_.find(canonical.id);
      if (persistent != persistent_.end()) {
        unit.engine = persistent->second.get();
      } else {
        unit.owned = MakeEngine(canonical);
        unit.engine = unit.owned.get();
      }
      units.push_back(std::move(unit));
    }
  }

  // Fair-share scheduling: every pass visits each unfinished unit once,
  // cheapest accumulated cost first, and runs exactly one chunk — a
  // heavy query can't monopolize extraction, and the visit order is a
  // deterministic function of counted work (not wall clock).
  std::vector<bool> missed(num_queries, false);
  std::vector<uint64_t> query_cost(num_queries, 0);
  for (;;) {
    std::vector<size_t> live;
    for (size_t u = 0; u < units.size(); ++u) {
      if (units[u].next_chunk < units[u].chunks.size()) live.push_back(u);
    }
    if (live.empty()) break;
    std::stable_sort(live.begin(), live.end(), [&](size_t a, size_t b) {
      return units[a].cost < units[b].cost;
    });

    for (const size_t u : live) {
      Unit& unit = units[u];
      const auto [begin, end] = unit.chunks[unit.next_chunk++];

      std::vector<size_t> runnable;
      std::vector<size_t> parked;
      for (const size_t m : unit.members) {
        (breaker_of(m).ShouldRun() ? runnable : parked).push_back(m);
      }
      if (runnable.empty()) {
        // Every member is tripped: the chunk is not evaluated at all —
        // the blown-up engine gets no cycles. Skips advance the probe
        // clock, so a later chunk of this same run can be the probe.
        ++sharing->chunks_skipped;
        unit.cost += 1;
        for (const size_t m : unit.members) {
          breaker_of(m).OnSkipped();
          missed[m] = true;
        }
        continue;
      }

      const uint64_t pm_before = unit.engine->stats().partial_matches;
      const Status status = unit.engine->Evaluate(
          unit.events.subspan(begin, end - begin), &unit.matches);
      const uint64_t pm_delta =
          unit.engine->stats().partial_matches - pm_before;
      unit.cost += 1 + pm_delta;
      unit.ran = true;
      for (const size_t m : runnable) query_cost[m] += 1 + pm_delta;

      if (status.code() == StatusCode::kBudgetExceeded) {
        ++sharing->budget_aborts;
        for (const size_t m : runnable) {
          QueryBreaker& breaker = breaker_of(m);
          const uint64_t trips = breaker.trips();
          breaker.OnBudgetAbort();
          sharing->breaker_trips +=
              static_cast<size_t>(breaker.trips() - trips);
          missed[m] = true;
        }
      } else if (!status.ok()) {
        return status;
      } else {
        ++sharing->chunks_run;
        for (const size_t m : runnable) breaker_of(m).OnRunOk();
      }
      for (const size_t m : parked) {
        breaker_of(m).OnSkipped();
        missed[m] = true;
      }
    }
  }

  // Fan each unit's matches out to its members and publish its engine's
  // work counters. A query is canonical in at most one unit, so each
  // engine serves one unit, and a persistent engine's stats were reset
  // above: they cover this call only.
  for (Unit& unit : units) {
    if (unit.ran) {
      ++sharing->engines_run;
      sharing->engines_shared += unit.members.size() - 1;
      const EngineStats& stats = unit.engine->stats();
      const std::string engine_name = unit.engine->name();
      obs::CepEvents(engine_name)->Increment(stats.events_processed);
      obs::CepPartialMatches(engine_name)->Increment(stats.partial_matches);
      obs::CepPartialMatchesPruned(engine_name)
          ->Increment(stats.partial_matches_pruned);
      obs::CepTransitions(engine_name)->Increment(stats.transitions);
      obs::CepMatches(engine_name)->Increment(unit.matches.size());
      obs::CepPartialMatchesDropped(engine_name)
          ->Increment(stats.partial_matches_dropped);
      obs::CepBudgetAborts(engine_name)->Increment(stats.budget_aborts);
      AddStats(stats, engine_stats);
    }
    // Twins get copies; the canonical member takes the set itself.
    for (size_t i = 1; i < unit.members.size(); ++i) {
      (*queries)[unit.members[i]].matches = unit.matches;
      (*queries)[unit.members[i]].shared = true;
    }
    (*queries)[unit.members[0]].matches = std::move(unit.matches);
  }

  for (size_t q = 0; q < num_queries; ++q) {
    const QueryBreaker& breaker = breaker_of(q);
    serve::QueryResult& query = (*queries)[q];
    query.degraded = missed[q];
    query.breaker_state = breaker.state();
    query.budget_aborts = breaker.budget_aborts() - aborts_before[q];
    query.breaker_trips = breaker.trips() - trips_before[q];
    query.extract_cost = query_cost[q];
  }

  // Bound breaker memory under registry churn: drop entries for queries
  // no longer registered (a re-registered query starts healthy).
  std::unordered_set<serve::QueryId> live_ids;
  for (const QueryEntry& entry : snapshot.queries) live_ids.insert(entry.id);
  for (auto it = breakers_.begin(); it != breakers_.end();) {
    it = live_ids.count(it->first) ? std::next(it) : breakers_.erase(it);
  }
  return Status::Ok();
}

}  // namespace dlacep
