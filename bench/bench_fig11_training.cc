// Figure 11: impact of the amount of training epochs (a, b) and of the
// fraction of training data (c, d) on throughput gain and FN%.
//
// Protocol mirrors §5.2: the epoch sweep snapshots one training run's
// parameters at increasing epoch counts and evaluates each snapshot; the
// data sweep retrains from scratch on random subsets (paper: trained for
// a fixed 30-epoch budget). Expectation: FN% stabilizes quickly; the
// gain decreases and stabilizes as more data/epochs reduce the early
// over-filtering caused by class imbalance.

#include <cstdio>
#include <map>

#include "common/string_util.h"
#include "dlacep/event_filter.h"
#include "dlacep/pipeline.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"
#include "workloads/report.h"

#include "bench_json.h"

namespace dlacep {
namespace workloads {
namespace {

struct Snapshot {
  size_t epoch;
  std::vector<Matrix> values;
};

int Run() {
  const EventStream train = GenerateStockStream(StockConfig(5000, 1001));
  const EventStream test = GenerateStockStream(StockConfig(3000, 2002));
  auto s = train.schema_ptr();
  const size_t w = 18;
  // Paper: QA9(j=5); scaled to j=4.
  const Pattern pattern = QA9(s, 4, 10, 20, 0.9, 1.1, 0.85, 1.2, w);
  DlacepConfig config = BenchConfig();
  config.train.max_epochs = 30;
  config.train.convergence_epochs = 1000;  // disable early stop

  const Featurizer featurizer(pattern, train);
  const InputAssembler assembler = InputAssembler::ForWindow(w);
  const FilterDataset dataset =
      BuildFilterDataset(pattern, train, assembler, featurizer,
                         config.train_fraction, config.split_seed);

  // Exact baseline, measured once.
  auto ecep = CreateEngine(EngineKind::kNfa, pattern);
  DLACEP_CHECK(ecep.ok());
  MatchSet exact;
  DLACEP_CHECK(ecep.value()
                   ->Evaluate({test.events().data(), test.size()}, &exact)
                   .ok());
  const double ecep_seconds = ecep.value()->stats().elapsed_seconds;

  auto evaluate = [&](EventNetworkFilter* filter, const char* label,
                      const std::string& x_value) {
    DlacepPipeline pipeline(pattern,
                            std::make_unique<BorrowedFilter>(filter),
                            config);
    const PipelineResult result = pipeline.Evaluate(test);
    const MatchSetMetrics quality = CompareMatchSets(exact, result.matches);
    std::printf("%-10s %8s  tp-gain=%8.2f  FN%%=%6.2f  filt=%5.1f%%  "
                "matches=%zu/%zu\n",
                label, x_value.c_str(),
                ecep_seconds / std::max(result.elapsed_seconds(), 1e-9),
                quality.false_negative_pct, result.filtering_ratio() * 100,
                result.matches.size(), exact.size());
    std::fflush(stdout);
  };

  // ------------------------------------------------------------------
  std::printf("=== Fig 11(a,b): gain & FN%% vs training epochs, "
              "QA9(j=4) ===\n");
  const std::vector<size_t> checkpoints = {1, 3, 6, 12, 20, 30};
  EventNetworkFilter filter(&featurizer, config.network,
                            config.event_threshold);
  std::vector<Snapshot> snapshots;
  TrainConfig train_config = config.train;
  train_config.on_epoch = [&](size_t epoch, double) {
    for (size_t c : checkpoints) {
      if (epoch + 1 == c) {
        Snapshot snap;
        snap.epoch = c;
        for (Parameter* p : filter.Params()) snap.values.push_back(p->value);
        snapshots.push_back(std::move(snap));
      }
    }
    return true;
  };
  filter.Fit(dataset.train_event, train_config);

  for (const Snapshot& snap : snapshots) {
    const std::vector<Parameter*> params = filter.Params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = snap.values[i];
    }
    filter.OnParamsChanged();  // repack frozen inference weights
    evaluate(&filter, "epochs", StrFormat("%zu", snap.epoch));
  }

  // ------------------------------------------------------------------
  std::printf("\n=== Fig 11(c,d): gain & FN%% vs training data %% "
              "(fixed 20-epoch budget) ===\n");
  for (double pct : {0.1, 0.25, 0.5, 1.0}) {
    std::vector<Sample> subset;
    const size_t count = std::max<size_t>(
        1, static_cast<size_t>(pct *
                               static_cast<double>(
                                   dataset.train_event.size())));
    // The dataset order is already a random permutation of windows.
    subset.assign(dataset.train_event.begin(),
                  dataset.train_event.begin() + static_cast<ptrdiff_t>(count));
    EventNetworkFilter fresh(&featurizer, config.network,
                             config.event_threshold);
    TrainConfig subset_config = config.train;
    subset_config.max_epochs = 20;
    fresh.Fit(subset, subset_config);
    evaluate(&fresh, "data%", StrFormat("%.0f%%", pct * 100));
  }
  std::printf("\n(paper: FN%% stabilizes quickly; gain decreases then "
              "stabilizes with more data/epochs)\n");
  return 0;
}

}  // namespace
}  // namespace workloads
}  // namespace dlacep

int main(int argc, char** argv) {
  dlacep::workloads::JsonReport::Init(argc, argv);
  return dlacep::workloads::JsonReport::Finish(dlacep::workloads::Run());
}
