// Pattern conditions (the WHERE clause).
//
// A condition constrains the attribute values of events bound to pattern
// variables. Every query in the paper's evaluation uses conjunctions of
// linear comparisons of the form
//     alpha * x.attr  (op)  beta * y.attr + c
// which `CompareCondition` models directly; `AndCondition` /
// `OrCondition` / `NotCondition` compose them, and `LambdaCondition`
// admits arbitrary user predicates.
//
// Variables bound under a Kleene closure hold a *list* of events. A
// comparison involving lists is evaluated
//  * aligned, when both sides are lists of the same length > 1 (the two
//    variables belong to the same KC(SEQ(...)) repetition group), i.e.
//    element i is compared with element i;
//  * universally over the cross product otherwise (a KC variable against
//    a singleton variable: the comparison must hold for every element).

#ifndef DLACEP_PATTERN_CONDITION_H_
#define DLACEP_PATTERN_CONDITION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/event.h"
#include "stream/schema.h"

namespace dlacep {

/// Index of a pattern variable (position in Pattern::vars()).
using VarId = int32_t;

/// The events bound to one variable. A list of up to kInlineCapacity
/// events lives inline; only a longer (Kleene) list spills to the heap,
/// and it returns inline as soon as pop_back or a copy makes it short
/// again (spilled() iff size() > kInlineCapacity). Copying the slot of a
/// non-Kleene variable therefore never allocates, which keeps the
/// engines' partial-match copies cheap. 24 bytes, like the std::vector it
/// replaces, so partial-match storage does not grow.
class EventList {
 public:
  static constexpr uint32_t kInlineCapacity = 2;

  EventList() = default;
  EventList(const EventList& other) { CopyFrom(other); }
  EventList(EventList&& other) noexcept { StealFrom(&other); }
  EventList& operator=(const EventList& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  EventList& operator=(EventList&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(&other);
    }
    return *this;
  }
  ~EventList() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True while the events live in heap storage.
  bool spilled() const { return capacity_ > kInlineCapacity; }
  const Event* const* begin() const { return data(); }
  const Event* const* end() const { return data() + size_; }
  const Event* operator[](size_t i) const { return data()[i]; }
  const Event* front() const { return data()[0]; }
  const Event* back() const { return data()[size_ - 1]; }

  void push_back(const Event* e) {
    if (size_ == capacity_) Grow();
    mutable_data()[size_++] = e;
  }
  void pop_back() {
    --size_;
    if (spilled() && size_ <= kInlineCapacity) {
      const Event** heap = heap_;
      for (uint32_t i = 0; i < size_; ++i) inline_[i] = heap[i];
      delete[] heap;
      capacity_ = kInlineCapacity;
    }
  }

 private:
  const Event* const* data() const { return spilled() ? heap_ : inline_; }
  const Event** mutable_data() { return spilled() ? heap_ : inline_; }
  void Grow();
  void CopyFrom(const EventList& other);
  void StealFrom(EventList* other) {
    size_ = other->size_;
    capacity_ = other->capacity_;
    if (other->spilled()) {
      heap_ = other->heap_;
    } else {
      for (uint32_t i = 0; i < size_; ++i) inline_[i] = other->inline_[i];
    }
    other->size_ = 0;
    other->capacity_ = kInlineCapacity;
  }
  void Release() {
    if (spilled()) delete[] heap_;
    capacity_ = kInlineCapacity;
  }

  union {
    const Event* inline_[kInlineCapacity] = {};
    const Event** heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
};
static_assert(sizeof(EventList) == 24, "a slot stays the size of a vector");

/// A (possibly partial) assignment of stream events to pattern variables.
/// slots[v] is empty when variable v is unbound; non-KC variables bind
/// exactly one event, KC variables bind one event per absorbed repetition.
struct Binding {
  std::vector<EventList> slots;

  explicit Binding(size_t num_vars = 0) : slots(num_vars) {}

  bool IsBound(VarId v) const {
    return v >= 0 && static_cast<size_t>(v) < slots.size() &&
           !slots[static_cast<size_t>(v)].empty();
  }
  const EventList& Of(VarId v) const {
    DLACEP_CHECK(IsBound(v));
    return slots[static_cast<size_t>(v)];
  }
  /// The single event of a non-KC variable.
  const Event& Single(VarId v) const {
    const auto& list = Of(v);
    DLACEP_CHECK_EQ(list.size(), 1u);
    return *list[0];
  }
  void Bind(VarId v, const Event* e) {
    DLACEP_CHECK_GE(v, 0);
    slots[static_cast<size_t>(v)].push_back(e);
  }
  void Unbind(VarId v) {
    DLACEP_CHECK(IsBound(v));
    slots[static_cast<size_t>(v)].pop_back();
  }
  /// Collects the distinct events of all bound variables.
  std::vector<const Event*> AllEvents() const;
};

/// One side of a comparison: coeff * var.attr + constant, or a constant
/// when `ref` is absent.
struct Term {
  struct AttrRef {
    VarId var = -1;
    size_t attr = 0;
  };
  double coeff = 1.0;
  std::optional<AttrRef> ref;
  double constant = 0.0;

  static Term Attr(VarId var, size_t attr, double coeff = 1.0,
                   double constant = 0.0) {
    Term t;
    t.coeff = coeff;
    t.ref = AttrRef{var, attr};
    t.constant = constant;
    return t;
  }
  static Term Const(double value) {
    Term t;
    t.coeff = 0.0;
    t.constant = value;
    return t;
  }

  double ValueFor(const Event& e) const {
    DLACEP_CHECK(ref.has_value());
    return coeff * e.attr(ref->attr) + constant;
  }
};

enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CmpOpName(CmpOp op);
bool ApplyCmp(CmpOp op, double lhs, double rhs);

/// Abstract condition. Implementations must be pure functions of the
/// binding (no hidden state) so that engines may evaluate them eagerly,
/// lazily, or repeatedly.
class Condition {
 public:
  virtual ~Condition() = default;

  /// Evaluates against a binding in which all of Vars() are bound.
  virtual bool Eval(const Binding& binding) const = 0;

  /// The variables this condition references (no duplicates).
  virtual std::vector<VarId> Vars() const = 0;

  /// Human-readable rendering (schema may be null).
  virtual std::string ToString(const Schema* schema) const = 0;

  virtual std::unique_ptr<Condition> Clone() const = 0;

  /// True when every referenced variable is bound, i.e. Eval is legal.
  bool CanEval(const Binding& binding) const;
};

/// Linear comparison between two terms.
class CompareCondition : public Condition {
 public:
  CompareCondition(Term lhs, CmpOp op, Term rhs)
      : lhs_(lhs), op_(op), rhs_(rhs) {}

  bool Eval(const Binding& binding) const override;
  std::vector<VarId> Vars() const override;
  std::string ToString(const Schema* schema) const override;
  std::unique_ptr<Condition> Clone() const override {
    return std::make_unique<CompareCondition>(lhs_, op_, rhs_);
  }

  const Term& lhs() const { return lhs_; }
  CmpOp op() const { return op_; }
  const Term& rhs() const { return rhs_; }

 private:
  Term lhs_;
  CmpOp op_;
  Term rhs_;
};

/// Conjunction of sub-conditions.
class AndCondition : public Condition {
 public:
  explicit AndCondition(std::vector<std::unique_ptr<Condition>> children)
      : children_(std::move(children)) {}

  bool Eval(const Binding& binding) const override;
  std::vector<VarId> Vars() const override;
  std::string ToString(const Schema* schema) const override;
  std::unique_ptr<Condition> Clone() const override;

  const std::vector<std::unique_ptr<Condition>>& children() const {
    return children_;
  }

 private:
  std::vector<std::unique_ptr<Condition>> children_;
};

/// Disjunction of sub-conditions.
class OrCondition : public Condition {
 public:
  explicit OrCondition(std::vector<std::unique_ptr<Condition>> children)
      : children_(std::move(children)) {}

  bool Eval(const Binding& binding) const override;
  std::vector<VarId> Vars() const override;
  std::string ToString(const Schema* schema) const override;
  std::unique_ptr<Condition> Clone() const override;

  const std::vector<std::unique_ptr<Condition>>& children() const {
    return children_;
  }

 private:
  std::vector<std::unique_ptr<Condition>> children_;
};

/// Logical negation of a sub-condition.
class NotCondition : public Condition {
 public:
  explicit NotCondition(std::unique_ptr<Condition> child)
      : child_(std::move(child)) {}

  bool Eval(const Binding& binding) const override {
    return !child_->Eval(binding);
  }
  std::vector<VarId> Vars() const override { return child_->Vars(); }
  std::string ToString(const Schema* schema) const override {
    std::string out = "NOT (";
    out += child_->ToString(schema);
    out += ")";
    return out;
  }
  std::unique_ptr<Condition> Clone() const override {
    return std::make_unique<NotCondition>(child_->Clone());
  }

  const Condition& child() const { return *child_; }

 private:
  std::unique_ptr<Condition> child_;
};

/// Arbitrary user predicate over a binding. `vars` must list every
/// variable the callable inspects.
class LambdaCondition : public Condition {
 public:
  using Fn = std::function<bool(const Binding&)>;

  LambdaCondition(std::vector<VarId> vars, Fn fn, std::string description)
      : vars_(std::move(vars)),
        fn_(std::move(fn)),
        description_(std::move(description)) {}

  bool Eval(const Binding& binding) const override { return fn_(binding); }
  std::vector<VarId> Vars() const override { return vars_; }
  std::string ToString(const Schema*) const override { return description_; }
  std::unique_ptr<Condition> Clone() const override {
    return std::make_unique<LambdaCondition>(vars_, fn_, description_);
  }

 private:
  std::vector<VarId> vars_;
  Fn fn_;
  std::string description_;
};

/// Convenience factory: lo * y.attr < x.attr < hi * y.attr, the "band"
/// predicate that dominates the paper's query templates. Returns an
/// AndCondition of two CompareConditions.
std::unique_ptr<Condition> MakeBandCondition(VarId x, size_t x_attr, VarId y,
                                             size_t y_attr, double lo,
                                             double hi);

}  // namespace dlacep

#endif  // DLACEP_PATTERN_CONDITION_H_
