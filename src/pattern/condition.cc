#include "pattern/condition.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"

namespace dlacep {

void EventList::Grow() {
  const uint32_t capacity = 2 * capacity_;
  const Event** heap = new const Event*[capacity];
  const Event* const* from = data();
  for (uint32_t i = 0; i < size_; ++i) heap[i] = from[i];
  Release();
  heap_ = heap;
  capacity_ = capacity;
}

void EventList::CopyFrom(const EventList& other) {
  if (other.size_ <= kInlineCapacity) {
    Release();  // short lists always live inline
  } else if (other.size_ > capacity_) {
    const Event** heap = new const Event*[other.size_];
    Release();
    heap_ = heap;
    capacity_ = other.size_;
  }
  const Event* const* from = other.data();
  const Event** to = mutable_data();
  for (uint32_t i = 0; i < other.size_; ++i) to[i] = from[i];
  size_ = other.size_;
}

std::vector<const Event*> Binding::AllEvents() const {
  std::vector<const Event*> out;
  for (const auto& slot : slots) {
    out.insert(out.end(), slot.begin(), slot.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Event* a, const Event* b) { return a->id < b->id; });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
  }
  return "?";
}

bool ApplyCmp(CmpOp op, double lhs, double rhs) {
  switch (op) {
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
  }
  return false;
}

bool Condition::CanEval(const Binding& binding) const {
  for (VarId v : Vars()) {
    if (!binding.IsBound(v)) return false;
  }
  return true;
}

namespace {

// Renders one term, e.g. "0.55*a.vol" or "3.1".
std::string TermToString(const Term& term, const Schema* schema) {
  if (!term.ref.has_value()) {
    return StrFormat("%g", term.constant);
  }
  std::string attr_name = schema != nullptr && term.ref->attr < schema->num_attrs()
                              ? schema->AttrName(term.ref->attr)
                              : StrFormat("attr%zu", term.ref->attr);
  std::string base = StrFormat("v%d.%s", term.ref->var, attr_name.c_str());
  if (term.coeff != 1.0) base = StrFormat("%g*", term.coeff) + base;
  if (term.constant != 0.0) base += StrFormat("%+g", term.constant);
  return base;
}

}  // namespace

bool CompareCondition::Eval(const Binding& binding) const {
  // Constant vs constant.
  if (!lhs_.ref.has_value() && !rhs_.ref.has_value()) {
    return ApplyCmp(op_, lhs_.constant, rhs_.constant);
  }
  // One-sided constant: universal over the variable's list.
  if (!lhs_.ref.has_value()) {
    for (const Event* e : binding.Of(rhs_.ref->var)) {
      if (!ApplyCmp(op_, lhs_.constant, rhs_.ValueFor(*e))) return false;
    }
    return true;
  }
  if (!rhs_.ref.has_value()) {
    for (const Event* e : binding.Of(lhs_.ref->var)) {
      if (!ApplyCmp(op_, lhs_.ValueFor(*e), rhs_.constant)) return false;
    }
    return true;
  }
  const auto& left = binding.Of(lhs_.ref->var);
  const auto& right = binding.Of(rhs_.ref->var);
  if (lhs_.ref->var == rhs_.ref->var) {
    // Same variable on both sides: compare element-wise with itself.
    for (const Event* e : left) {
      if (!ApplyCmp(op_, lhs_.ValueFor(*e), rhs_.ValueFor(*e))) return false;
    }
    return true;
  }
  if (left.size() == right.size() && left.size() > 1) {
    // Aligned semantics: both variables belong to the same repetition
    // group (see header comment).
    for (size_t i = 0; i < left.size(); ++i) {
      if (!ApplyCmp(op_, lhs_.ValueFor(*left[i]), rhs_.ValueFor(*right[i]))) {
        return false;
      }
    }
    return true;
  }
  // Universal over the cross product.
  for (const Event* l : left) {
    for (const Event* r : right) {
      if (!ApplyCmp(op_, lhs_.ValueFor(*l), rhs_.ValueFor(*r))) return false;
    }
  }
  return true;
}

std::vector<VarId> CompareCondition::Vars() const {
  std::vector<VarId> vars;
  if (lhs_.ref.has_value()) vars.push_back(lhs_.ref->var);
  if (rhs_.ref.has_value() &&
      (vars.empty() || vars[0] != rhs_.ref->var)) {
    vars.push_back(rhs_.ref->var);
  }
  return vars;
}

std::string CompareCondition::ToString(const Schema* schema) const {
  return TermToString(lhs_, schema) + " " + CmpOpName(op_) + " " +
         TermToString(rhs_, schema);
}

bool AndCondition::Eval(const Binding& binding) const {
  for (const auto& child : children_) {
    if (!child->Eval(binding)) return false;
  }
  return true;
}

std::vector<VarId> AndCondition::Vars() const {
  std::set<VarId> vars;
  for (const auto& child : children_) {
    for (VarId v : child->Vars()) vars.insert(v);
  }
  return std::vector<VarId>(vars.begin(), vars.end());
}

std::string AndCondition::ToString(const Schema* schema) const {
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const auto& child : children_) parts.push_back(child->ToString(schema));
  std::string out = "(";
  out += Join(parts, " AND ");
  out += ")";
  return out;
}

std::unique_ptr<Condition> AndCondition::Clone() const {
  std::vector<std::unique_ptr<Condition>> copies;
  copies.reserve(children_.size());
  for (const auto& child : children_) copies.push_back(child->Clone());
  return std::make_unique<AndCondition>(std::move(copies));
}

bool OrCondition::Eval(const Binding& binding) const {
  for (const auto& child : children_) {
    if (child->Eval(binding)) return true;
  }
  return false;
}

std::vector<VarId> OrCondition::Vars() const {
  std::set<VarId> vars;
  for (const auto& child : children_) {
    for (VarId v : child->Vars()) vars.insert(v);
  }
  return std::vector<VarId>(vars.begin(), vars.end());
}

std::string OrCondition::ToString(const Schema* schema) const {
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const auto& child : children_) parts.push_back(child->ToString(schema));
  std::string out = "(";
  out += Join(parts, " OR ");
  out += ")";
  return out;
}

std::unique_ptr<Condition> OrCondition::Clone() const {
  std::vector<std::unique_ptr<Condition>> copies;
  copies.reserve(children_.size());
  for (const auto& child : children_) copies.push_back(child->Clone());
  return std::make_unique<OrCondition>(std::move(copies));
}

std::unique_ptr<Condition> MakeBandCondition(VarId x, size_t x_attr, VarId y,
                                             size_t y_attr, double lo,
                                             double hi) {
  std::vector<std::unique_ptr<Condition>> parts;
  parts.push_back(std::make_unique<CompareCondition>(
      Term::Attr(y, y_attr, lo), CmpOp::kLt, Term::Attr(x, x_attr)));
  parts.push_back(std::make_unique<CompareCondition>(
      Term::Attr(x, x_attr), CmpOp::kLt, Term::Attr(y, y_attr, hi)));
  return std::make_unique<AndCondition>(std::move(parts));
}

}  // namespace dlacep
