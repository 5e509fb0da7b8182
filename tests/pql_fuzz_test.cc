// Grammar-directed PQL fuzzing.
//
//  * FIXPOINT — random valid queries drawn from the PQL grammar parse,
//    re-render via Pattern::ToString(), re-parse, and re-render to the
//    identical string: ToString() is a fixpoint under parse∘render, so
//    the textual form is a faithful canonical serialization.
//
//  * ROBUSTNESS — random single-character mutations of valid queries
//    (deletions, insertions, replacements) either parse or return a
//    Status error; they never crash or corrupt state. The corpus is
//    bounded and deterministic, and the whole file runs under
//    ASan/UBSan in CI, so out-of-bounds reads in the lexer/parser
//    surface as hard failures.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "pattern/parser.h"
#include "stream/generator.h"

namespace dlacep {
namespace {

/// Deterministic generator over the documented PQL grammar. Only
/// schema-valid, structurally valid queries are produced: unique
/// variable names, declared types/attributes, KC bounds ordered, NEG
/// only between two positive positions, conditions only over plain
/// positive variables of a single branch.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    var_counter_ = 0;
    condition_vars_.clear();
    std::string node;
    switch (Pick(4)) {
      case 0:
        node = Seq();
        break;
      case 1:
        node = "CONJ(" + PrimList(2 + Pick(2)) + ")";
        break;
      case 2: {
        // DISJ of two SEQ branches; conditions stay inside branch 0.
        const std::string left = Seq();
        std::vector<std::string> saved = condition_vars_;
        const std::string right = Seq();
        condition_vars_ = std::move(saved);
        node = "DISJ(" + left + ", " + right + ")";
        break;
      }
      default:
        // Top-level Kleene over a short sequence (the Q^A_6 shape).
        // Its variables iterate, so no conditions reference them.
        node = "KC(" + Seq(/*allow_extras=*/false) + "){1.." +
               std::to_string(1 + Pick(2)) + "}";
        condition_vars_.clear();
        break;
    }
    std::string query;
    if (Pick(2) == 0) query += "PATTERN ";
    query += node;
    query += Where();
    query += Within();
    return query;
  }

 private:
  size_t Pick(size_t n) { return std::uniform_int_distribution<size_t>(
      0, n - 1)(rng_); }

  std::string Type() { return std::string(1, static_cast<char>('A' + Pick(6))); }
  std::string Attr() { return Pick(2) == 0 ? "vol" : "a1"; }

  std::string FreshVar() { return StrFormat("v%d", var_counter_++); }

  /// One primitive position; plain primitives register their variable
  /// as condition-eligible.
  std::string Prim(bool eligible = true) {
    const std::string var = FreshVar();
    std::string out;
    if (Pick(4) == 0) {
      const size_t n = 2 + Pick(3);
      const size_t start = Pick(6);
      out = "ANY(";
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) out += ", ";
        out += std::string(1, static_cast<char>('A' + (start + i) % 6));
      }
      out += ") " + var;
    } else {
      out = Type() + " " + var;
    }
    if (eligible) condition_vars_.push_back(var);
    return out;
  }

  std::string PrimList(size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out += ", ";
      out += Prim();
    }
    return out;
  }

  /// SEQ of 2..4 positions; interior slots may be KC or NEG wrapped
  /// (both keep a plain positive on each side).
  std::string Seq(bool allow_extras = true) {
    const size_t positions = 2 + Pick(3);
    std::string out = "SEQ(";
    for (size_t i = 0; i < positions; ++i) {
      if (i > 0) out += ", ";
      const bool interior = i > 0 && i + 1 < positions;
      if (allow_extras && interior && Pick(4) == 0) {
        const size_t lo = 1 + Pick(2);
        out += "KC(" + Prim(/*eligible=*/false) + "){" +
               std::to_string(lo) + ".." + std::to_string(lo + Pick(3)) +
               "}";
      } else if (allow_extras && interior && Pick(4) == 0) {
        out += "NEG(" + Prim(/*eligible=*/false) + ")";
      } else {
        out += Prim();
      }
    }
    out += ")";
    return out;
  }

  std::string Term(const std::string& var) {
    std::string out;
    if (Pick(3) == 0) {
      const double coef = 0.5 + 0.25 * static_cast<double>(Pick(7));
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g * ", coef);
      out += buf;
    }
    out += var + "." + Attr();
    if (Pick(4) == 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " + %g",
                    0.5 * static_cast<double>(1 + Pick(4)));
      out += buf;
    }
    return out;
  }

  std::string Where() {
    if (condition_vars_.size() < 2 || Pick(4) == 0) return "";
    const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
    std::string out = " WHERE ";
    const size_t clauses = 1 + Pick(2);
    for (size_t c = 0; c < clauses; ++c) {
      if (c > 0) out += Pick(3) == 0 ? " OR " : " AND ";
      const std::string& a = condition_vars_[Pick(condition_vars_.size())];
      const std::string& b = condition_vars_[Pick(condition_vars_.size())];
      out += Term(a) + " " + ops[Pick(6)] + " " + Term(b);
      if (Pick(4) == 0) {
        // Chained comparison, the paper's α·x < y < β·x notation.
        out += " < " +
               Term(condition_vars_[Pick(condition_vars_.size())]);
      }
    }
    return out;
  }

  std::string Within() {
    switch (Pick(3)) {
      case 0:
        return " WITHIN " + std::to_string(8 + Pick(50)) + " EVENTS";
      case 1: {
        char buf[32];
        std::snprintf(buf, sizeof buf, " WITHIN %g TIME",
                      2.0 + 0.5 * static_cast<double>(Pick(20)));
        return buf;
      }
      default:
        return "";  // default count window of 100
    }
  }

  std::mt19937_64 rng_;
  int var_counter_ = 0;
  std::vector<std::string> condition_vars_;
};

constexpr size_t kCorpusSize = 200;
constexpr size_t kMutationsPerQuery = 4;

TEST(PqlFuzz, GeneratedQueriesRoundTripToAFixpoint) {
  auto schema = MakeSyntheticSchema(6, 2);
  QueryGenerator gen(0xD1ACEF);
  size_t with_conditions = 0;
  for (size_t i = 0; i < kCorpusSize; ++i) {
    const std::string query = gen.Next();
    auto first = ParsePattern(query, schema);
    ASSERT_TRUE(first.ok()) << "generator produced an invalid query:\n"
                            << query << "\n"
                            << first.status().ToString();
    const std::string rendered = first.value().ToString();
    auto second = ParsePattern(rendered, schema);
    ASSERT_TRUE(second.ok())
        << "ToString() output is not re-parseable:\n  query:    " << query
        << "\n  rendered: " << rendered << "\n  "
        << second.status().ToString();
    EXPECT_EQ(second.value().ToString(), rendered)
        << "ToString() is not a fixpoint for:\n" << query;
    EXPECT_EQ(second.value().num_vars(), first.value().num_vars()) << query;
    EXPECT_EQ(second.value().conditions().size(),
              first.value().conditions().size())
        << query;
    EXPECT_EQ(second.value().window().kind, first.value().window().kind)
        << query;
    with_conditions += !first.value().conditions().empty();
  }
  // The corpus must actually exercise the WHERE grammar.
  EXPECT_GE(with_conditions, kCorpusSize / 10);
}

TEST(PqlFuzz, MutatedQueriesNeverCrash) {
  auto schema = MakeSyntheticSchema(6, 2);
  QueryGenerator gen(0xFADE);
  std::mt19937_64 rng(0xBEEF);
  const std::string charset = " ()<>.,*+-{}0123456789abvSEQ";
  size_t rejected = 0;
  size_t accepted = 0;
  for (size_t i = 0; i < kCorpusSize; ++i) {
    const std::string query = gen.Next();
    for (size_t m = 0; m < kMutationsPerQuery; ++m) {
      std::string mutated = query;
      const size_t kind = rng() % 3;
      const size_t at = rng() % mutated.size();
      if (kind == 0) {
        mutated.erase(at, 1);
      } else if (kind == 1) {
        mutated.insert(at, 1, charset[rng() % charset.size()]);
      } else {
        mutated[at] = charset[rng() % charset.size()];
      }
      // The only contract: a Status comes back, the process survives.
      auto result = ParsePattern(mutated, schema);
      if (result.ok()) {
        ++accepted;
        // Whatever parsed must still render and re-parse cleanly.
        EXPECT_TRUE(ParsePattern(result.value().ToString(), schema).ok())
            << mutated;
      } else {
        ++rejected;
        EXPECT_FALSE(result.status().ToString().empty());
      }
    }
  }
  // Single-character damage should usually be caught.
  EXPECT_GT(rejected, accepted);
}

}  // namespace
}  // namespace dlacep
