#include "dlacep/labeler.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"

namespace dlacep {

namespace {

// Collects types referenced under NEG operators.
void CollectNegatedTypes(const PatternNode& node, bool under_neg,
                         std::set<TypeId>* out) {
  if (node.kind == OpKind::kPrimitive) {
    if (under_neg) out->insert(node.types.begin(), node.types.end());
    return;
  }
  const bool neg = under_neg || node.kind == OpKind::kNeg;
  for (const auto& child : node.children) {
    CollectNegatedTypes(*child, neg, out);
  }
}

}  // namespace

SampleLabeler::SampleLabeler(const Pattern& pattern) : pattern_(pattern) {
  CollectNegatedTypes(pattern_.root(), /*under_neg=*/false,
                      &negated_types_);
  auto engine = CreateEngine(EngineKind::kNfa, pattern_);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  engine_ = std::move(engine).value();
}

LabeledSample SampleLabeler::Label(const EventStream& stream,
                                   WindowRange range) const {
  LabeledSample sample = Label(stream.View(range.begin, range.size()));
  sample.range = range;
  return sample;
}

LabeledSample SampleLabeler::Label(std::span<const Event> span) const {
  LabeledSample sample;
  sample.event_labels.assign(span.size(), 0);

  MatchSet matches;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    const Status status = engine_->Evaluate(span, &matches);
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
  }
  sample.num_matches = matches.size();
  sample.window_label = matches.empty() ? 0 : 1;

  // Participant ids → positional labels. Ids inside the span are
  // contiguous, so offset arithmetic suffices; blank events never match.
  for (const Match& match : matches) {
    for (EventId id : match.ids) {
      DLACEP_CHECK_GE(id, span.front().id);
      const size_t offset = static_cast<size_t>(id - span.front().id);
      DLACEP_CHECK_LT(offset, sample.event_labels.size());
      sample.event_labels[offset] = 1;
    }
  }
  // Negation awareness: relay candidate negated events too (§4.4).
  if (!negated_types_.empty()) {
    for (size_t t = 0; t < span.size(); ++t) {
      if (negated_types_.count(span[t].type) > 0) {
        sample.event_labels[t] = 1;
      }
    }
  }
  return sample;
}

namespace {

// Labels every assembler window from one global exact-CEP pass. A match
// must span at most W - 1 id units, and MarkSize >= 2W / StepSize <= W
// guarantee every such id interval lies inside at least one sample
// window, so per-window labels derived from the global match set equal
// the labels a per-window CEP run would produce — at half the cost (no
// overlap is re-evaluated).
std::vector<LabeledSample> LabelAllWindows(
    const Pattern& pattern, const EventStream& stream,
    const std::vector<WindowRange>& windows,
    const std::set<TypeId>& negated_types) {
  auto engine = CreateEngine(EngineKind::kNfa, pattern);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  MatchSet matches;
  const Status status = engine.value()->Evaluate(
      {stream.events().data(), stream.size()}, &matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());

  // Sort matches by their minimal event id for windowed lookups.
  std::vector<const Match*> by_min;
  by_min.reserve(matches.size());
  for (const Match& m : matches) by_min.push_back(&m);
  std::sort(by_min.begin(), by_min.end(),
            [](const Match* a, const Match* b) {
              return a->ids.front() < b->ids.front();
            });

  std::vector<LabeledSample> out;
  out.reserve(windows.size());
  const EventId base = stream.empty() ? 0 : stream[0].id;
  for (const WindowRange& range : windows) {
    LabeledSample sample;
    sample.range = range;
    sample.event_labels.assign(range.size(), 0);
    const EventId lo = base + range.begin;
    const EventId hi = base + range.end;  // exclusive
    auto it = std::lower_bound(
        by_min.begin(), by_min.end(), lo,
        [](const Match* m, EventId id) { return m->ids.front() < id; });
    for (; it != by_min.end() && (*it)->ids.front() < hi; ++it) {
      if ((*it)->ids.back() >= hi) continue;  // not fully inside
      ++sample.num_matches;
      for (EventId id : (*it)->ids) {
        sample.event_labels[static_cast<size_t>(id - lo)] = 1;
      }
    }
    sample.window_label = sample.num_matches > 0 ? 1 : 0;
    if (!negated_types.empty()) {
      for (size_t t = 0; t < range.size(); ++t) {
        if (negated_types.count(stream[range.begin + t].type) > 0) {
          sample.event_labels[t] = 1;
        }
      }
    }
    out.push_back(std::move(sample));
  }
  return out;
}

std::set<TypeId> NegatedTypesOf(const Pattern& pattern) {
  std::set<TypeId> out;
  CollectNegatedTypes(pattern.root(), /*under_neg=*/false, &out);
  return out;
}

}  // namespace

FilterDataset BuildFilterDataset(const Pattern& pattern,
                                 const EventStream& stream,
                                 const InputAssembler& assembler,
                                 const Featurizer& featurizer,
                                 double train_fraction, uint64_t seed,
                                 bool negation_aware) {
  DLACEP_CHECK_GT(train_fraction, 0.0);
  DLACEP_CHECK_LE(train_fraction, 1.0);
  const std::vector<WindowRange> windows = assembler.Windows(stream.size());
  std::vector<LabeledSample> all_labeled = LabelAllWindows(
      pattern, stream, windows,
      negation_aware ? NegatedTypesOf(pattern) : std::set<TypeId>{});

  FilterDataset dataset;
  Rng rng(seed);
  const std::vector<size_t> order = rng.Permutation(windows.size());
  const size_t train_count = static_cast<size_t>(
      train_fraction * static_cast<double>(windows.size()) + 0.5);

  for (size_t k = 0; k < order.size(); ++k) {
    const WindowRange range = windows[order[k]];
    LabeledSample labeled = std::move(all_labeled[order[k]]);
    Sample event_sample;
    event_sample.features =
        featurizer.Encode(stream.View(range.begin, range.size()));
    event_sample.labels = labeled.event_labels;
    Sample window_sample;
    window_sample.features = event_sample.features;
    window_sample.labels = {labeled.window_label};

    const bool is_train = k < train_count;
    if (is_train) {
      dataset.train_raw.push_back(std::move(labeled));
      dataset.train_event.push_back(std::move(event_sample));
      dataset.train_window.push_back(std::move(window_sample));
    } else {
      dataset.test_raw.push_back(std::move(labeled));
      dataset.test_event.push_back(std::move(event_sample));
      dataset.test_window.push_back(std::move(window_sample));
    }
  }
  return dataset;
}

}  // namespace dlacep
