#include "serve/server.h"

#include <utility>

#include "obs/stages.h"

namespace dlacep {
namespace serve {

namespace {

/// The serve budgets become the extraction engines' options.
OnlineConfig RuntimeConfig(const ServeConfig& config) {
  OnlineConfig online = config.online;
  online.engine_options.partial_match_budget = config.query_pm_budget;
  online.engine_options.deadline_seconds = config.query_deadline_seconds;
  return online;
}

}  // namespace

size_t MultiQueryResult::total_matches() const {
  size_t total = 0;
  for (const QueryResult& query : queries) total += query.matches.size();
  return total;
}

double MultiQueryResult::events_per_sec() const {
  return stats.elapsed_seconds > 0.0
             ? static_cast<double>(stats.events_appended) /
                   stats.elapsed_seconds
             : 0.0;
}

MultiQueryServer::MultiQueryServer(QueryRegistry* registry,
                                   const StreamFilter* base,
                                   const EventNetworkFilter* heads,
                                   const ServeConfig& config)
    : filter_(registry, base, heads),
      runtime_(registry, &filter_, RuntimeConfig(config), config.breaker,
               &filter_) {}

Status MultiQueryServer::Run(StreamSource* source, MultiQueryResult* result) {
  *result = MultiQueryResult{};
  filter_.ResetRecording();
  OnlineResult raw;
  DLACEP_RETURN_IF_ERROR(runtime_.Run(source, &raw));
  result->queries = std::move(raw.queries);
  result->stats = std::move(raw.stats);
  result->sharing = raw.sharing;

  for (const QueryResult& query : result->queries) {
    obs::QueryMatches(query.name)->Increment(query.matches.size());
    obs::QueryMarkedEvents(query.name)->Increment(query.marked_events);
    obs::QueryBudgetAborts(query.name)->Increment(query.budget_aborts);
    obs::QueryBreakerTrips(query.name)->Increment(query.breaker_trips);
    obs::QueryBreakerState(query.name)
        ->Set(static_cast<double>(query.breaker_state));
    obs::QueryExtractCost(query.name)
        ->Set(static_cast<double>(query.extract_cost));
  }
  obs::ServeEnginesRun()->Increment(result->sharing.engines_run);
  obs::ServeEnginesShared()->Increment(result->sharing.engines_shared);
  obs::ServeEnginesGuardPruned()->Increment(result->sharing.guard_pruned);
  obs::ServeEnginesTypePruned()->Increment(result->sharing.type_pruned);
  obs::ServeChunksRun()->Increment(result->sharing.chunks_run);
  obs::ServeChunksSkipped()->Increment(result->sharing.chunks_skipped);
  obs::ServeChunksAborted()->Increment(result->sharing.budget_aborts);
  return Status::Ok();
}

}  // namespace serve
}  // namespace dlacep
