// A tests-only reference chase: the independent oracle every chase sweep
// compares production against. It uses nothing from src/chase but the
// public types (Assignment, Fact, SkolemMemo): its own nested-loop matcher
// scans every relation's full extension in set order, with no index, no
// segment and no delta. Every round re-matches every rule in full, tgds and
// SO clauses fire under the restricted chase in enumeration order, and an
// egd is applied one unification at a time — match, unify the first
// violation, rewrite the whole target and Skolem memo, match again. A
// Skolem-memo key collision after a rewrite queues one more unification of
// the two images, applied the same way.
//
// It reports the chased instance and the number of unifications, which
// must agree with the production chase up to the names of labeled nulls
// (exactly, for full-tgd closures that invent none).
#ifndef MM2_TESTS_REFERENCE_CHASE_H_
#define MM2_TESTS_REFERENCE_CHASE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "common/result.h"
#include "common/status.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"

namespace mm2::chase::reference {

// Extends `partial` over atoms[index..] by scanning each atom's relation in
// full; stops once `limit` assignments are found (0 = unlimited).
inline void MatchFrom(const std::vector<logic::Atom>& atoms, std::size_t index,
                      const instance::Instance& db, const Assignment& partial,
                      std::vector<Assignment>* out, std::size_t limit) {
  if (limit != 0 && out->size() >= limit) return;
  if (index == atoms.size()) {
    out->push_back(partial);
    return;
  }
  const logic::Atom& atom = atoms[index];
  const instance::RelationInstance* rel = db.Find(atom.relation);
  if (rel == nullptr || rel->arity() != atom.terms.size()) return;
  for (const instance::Tuple& tuple : rel->tuples()) {
    Assignment extended = partial;
    bool fits = true;
    for (std::size_t i = 0; i < tuple.size() && fits; ++i) {
      const logic::Term& term = atom.terms[i];
      switch (term.kind()) {
        case logic::Term::Kind::kConstant:
          fits = term.value() == tuple[i];
          break;
        case logic::Term::Kind::kVariable: {
          auto [it, fresh] = extended.emplace(term.name(), tuple[i]);
          fits = fresh || it->second == tuple[i];
          break;
        }
        case logic::Term::Kind::kFunction:
          fits = false;
          break;
      }
    }
    if (fits) MatchFrom(atoms, index + 1, db, extended, out, limit);
    if (limit != 0 && out->size() >= limit) return;
  }
}

// Every assignment of the variables of `atoms` into `db`.
inline std::vector<Assignment> Match(const std::vector<logic::Atom>& atoms,
                                     const instance::Instance& db,
                                     std::size_t limit = 0) {
  std::vector<Assignment> out;
  MatchFrom(atoms, 0, db, Assignment(), &out, limit);
  return out;
}

struct ReferenceResult {
  instance::Instance target;
  std::size_t egd_unifications = 0;
};

class ReferenceChase {
 public:
  ReferenceChase(const instance::Instance* source, instance::Instance target)
      : source_(source), target_(std::move(target)) {
    std::int64_t max_label = target_.MaxNullLabel();
    if (source_ != nullptr) {
      max_label = std::max(max_label, source_->MaxNullLabel());
    }
    next_label_ = std::max<std::int64_t>(0, max_label + 1);
  }

  Result<ReferenceResult> Run(const std::vector<logic::SoTgdClause>& clauses,
                              const std::vector<logic::Tgd>& tgds,
                              const std::vector<logic::Egd>& egds,
                              std::size_t max_rounds = 10000) {
    bool changed = true;
    std::size_t rounds = 0;
    while (changed) {
      if (++rounds > max_rounds) {
        return Status::Internal("reference chase exceeded max_rounds");
      }
      changed = false;
      for (const logic::SoTgdClause& clause : clauses) {
        MM2_ASSIGN_OR_RETURN(bool fired, FireClause(clause));
        changed |= fired;
      }
      for (const logic::Tgd& tgd : tgds) {
        MM2_ASSIGN_OR_RETURN(bool fired, FireTgd(tgd));
        changed |= fired;
      }
      for (const logic::Egd& egd : egds) {
        MM2_ASSIGN_OR_RETURN(bool fired, FireEgd(egd));
        changed |= fired;
      }
    }
    return ReferenceResult{std::move(target_), unifications_};
  }

 private:
  const instance::Instance& read_db() const {
    return source_ == nullptr ? target_ : *source_;
  }

  std::optional<instance::Value> Eval(const logic::Term& term,
                                      const Assignment& assignment,
                                      bool invent) {
    switch (term.kind()) {
      case logic::Term::Kind::kConstant:
        return term.value();
      case logic::Term::Kind::kVariable: {
        auto it = assignment.find(term.name());
        if (it == assignment.end()) return std::nullopt;
        return it->second;
      }
      case logic::Term::Kind::kFunction: {
        std::vector<instance::Value> args;
        for (const logic::Term& arg : term.args()) {
          std::optional<instance::Value> v = Eval(arg, assignment, invent);
          if (!v.has_value()) return std::nullopt;
          args.push_back(*v);
        }
        auto key = std::make_pair(term.name(), std::move(args));
        auto it = skolem_.find(key);
        if (it != skolem_.end()) return it->second;
        if (!invent) return std::nullopt;
        instance::Value null = instance::Value::LabeledNull(next_label_++);
        skolem_.emplace(std::move(key), null);
        return null;
      }
    }
    return std::nullopt;
  }

  std::optional<std::vector<Fact>> EvalHead(
      const std::vector<logic::Atom>& head, const Assignment& assignment,
      bool invent) {
    std::vector<Fact> facts;
    for (const logic::Atom& atom : head) {
      Fact fact{atom.relation, {}};
      for (const logic::Term& t : atom.terms) {
        std::optional<instance::Value> v = Eval(t, assignment, invent);
        if (!v.has_value()) return std::nullopt;
        fact.tuple.push_back(*v);
      }
      facts.push_back(std::move(fact));
    }
    return facts;
  }

  Result<bool> Insert(const std::vector<Fact>& facts) {
    bool inserted = false;
    for (const Fact& f : facts) {
      if (!target_.HasRelation(f.relation)) {
        target_.DeclareRelation(f.relation, f.tuple.size());
      }
      instance::RelationInstance* rel = target_.FindMutable(f.relation);
      if (rel->arity() != f.tuple.size()) {
        return Status::InvalidArgument("arity mismatch on '" + f.relation +
                                       "' during chase");
      }
      inserted |= rel->Insert(f.tuple);
    }
    return inserted;
  }

  Result<bool> FireClause(const logic::SoTgdClause& clause) {
    bool changed = false;
    for (const Assignment& assignment : Match(clause.body, read_db())) {
      bool filtered_out = false;
      for (const auto& [l, r] : clause.equalities) {
        std::optional<instance::Value> lv = Eval(l, assignment, true);
        std::optional<instance::Value> rv = Eval(r, assignment, true);
        if (!lv.has_value() || !rv.has_value()) {
          return Status::Internal("unbound term in SO-tgd equality");
        }
        if (*lv == *rv) continue;
        if (!lv->is_labeled_null() && !rv->is_labeled_null()) {
          filtered_out = true;
          break;
        }
        MM2_RETURN_IF_ERROR(Unify(*lv, *rv));
        changed = true;
      }
      if (filtered_out) continue;
      std::optional<std::vector<Fact>> existing =
          EvalHead(clause.head, assignment, false);
      if (existing.has_value() && AllPresent(*existing)) continue;
      std::optional<std::vector<Fact>> facts =
          EvalHead(clause.head, assignment, true);
      if (!facts.has_value()) {
        return Status::Internal("unbound head variable in SO-tgd clause");
      }
      MM2_ASSIGN_OR_RETURN(bool inserted, Insert(*facts));
      changed |= inserted;
    }
    return changed;
  }

  bool AllPresent(const std::vector<Fact>& facts) const {
    for (const Fact& f : facts) {
      const instance::RelationInstance* rel = target_.Find(f.relation);
      if (rel == nullptr || !rel->Contains(f.tuple)) return false;
    }
    return true;
  }

  Result<bool> FireTgd(const logic::Tgd& tgd) {
    bool changed = false;
    const std::set<std::string> existentials = tgd.ExistentialVariables();
    for (Assignment assignment : Match(tgd.body, read_db())) {
      // Restricted chase: skip when some extension of the assignment maps
      // the head into the target. Bound variables become constants.
      std::vector<logic::Atom> pinned;
      for (const logic::Atom& atom : tgd.head) {
        logic::Atom p{atom.relation, {}};
        for (const logic::Term& t : atom.terms) {
          auto it = t.kind() == logic::Term::Kind::kVariable
                        ? assignment.find(t.name())
                        : assignment.end();
          p.terms.push_back(it == assignment.end()
                                ? t
                                : logic::Term::Const(it->second));
        }
        pinned.push_back(std::move(p));
      }
      if (!Match(pinned, target_, 1).empty()) continue;
      for (const std::string& e : existentials) {
        assignment[e] = instance::Value::LabeledNull(next_label_++);
      }
      std::optional<std::vector<Fact>> facts =
          EvalHead(tgd.head, assignment, false);
      if (!facts.has_value()) {
        return Status::Internal("unbound head variable in tgd");
      }
      MM2_ASSIGN_OR_RETURN(bool inserted, Insert(*facts));
      changed |= inserted;
    }
    return changed;
  }

  Result<bool> FireEgd(const logic::Egd& egd) {
    bool changed = false;
    while (true) {
      bool fired = false;
      for (const Assignment& assignment : Match(egd.body, target_)) {
        auto li = assignment.find(egd.left);
        auto ri = assignment.find(egd.right);
        if (li == assignment.end() || ri == assignment.end()) {
          return Status::InvalidArgument("egd equality over unbound var");
        }
        if (li->second == ri->second) continue;
        MM2_RETURN_IF_ERROR(Unify(li->second, ri->second));
        fired = changed = true;
        break;
      }
      if (!fired) return changed;
    }
  }

  // The value `v` stands for now, after every unification so far.
  instance::Value Resolve(instance::Value v) const {
    for (auto it = merged_.find(v); it != merged_.end(); it = merged_.find(v)) {
      v = it->second;
    }
    return v;
  }

  Status Unify(const instance::Value& a, const instance::Value& b) {
    instance::Value from;
    instance::Value to;
    if (a.is_labeled_null()) {
      from = a;
      to = b;
    } else if (b.is_labeled_null()) {
      from = b;
      to = a;
    } else {
      return Status::Inconsistent("egd forces distinct constants equal: " +
                                  a.ToString() + " = " + b.ToString());
    }
    ++unifications_;
    merged_[from] = to;
    auto rewrite = [&](instance::Tuple* t) {
      bool hit = false;
      for (instance::Value& v : *t) {
        if (v == from) {
          v = to;
          hit = true;
        }
      }
      return hit;
    };
    for (auto& [name, rel] : target_.relations_mutable()) {
      std::vector<instance::Tuple> removed;
      for (const instance::Tuple& t : rel.tuples()) {
        instance::Tuple copy = t;
        if (rewrite(&copy)) removed.push_back(t);
      }
      for (const instance::Tuple& t : removed) rel.Erase(t);
      for (instance::Tuple& t : removed) {
        rewrite(&t);
        rel.Insert(std::move(t));
      }
    }
    std::vector<std::pair<instance::Value, instance::Value>> collisions;
    SkolemMemo rewritten;
    for (const auto& [key, value] : skolem_) {
      auto new_key = key;
      rewrite(&new_key.second);
      const instance::Value new_value = value == from ? to : value;
      auto placed = rewritten.emplace(std::move(new_key), new_value);
      if (!placed.second && placed.first->second != new_value) {
        collisions.emplace_back(placed.first->second, new_value);
      }
    }
    skolem_ = std::move(rewritten);
    for (const auto& [x, y] : collisions) {
      const instance::Value rx = Resolve(x);
      const instance::Value ry = Resolve(y);
      if (rx != ry) MM2_RETURN_IF_ERROR(Unify(rx, ry));
    }
    return Status::OK();
  }

  const instance::Instance* source_;  // nullptr: closure mode
  instance::Instance target_;
  SkolemMemo skolem_;
  std::map<instance::Value, instance::Value> merged_;
  std::int64_t next_label_ = 0;
  std::size_t unifications_ = 0;
};

// Reference counterpart of RunChase.
inline Result<ReferenceResult> ReferenceRunChase(
    const logic::Mapping& mapping, const instance::Instance& source) {
  ReferenceChase chase(&source, instance::Instance::EmptyFor(mapping.target()));
  if (mapping.is_second_order()) {
    return chase.Run(mapping.so_tgd().clauses, {}, mapping.target_egds());
  }
  return chase.Run({}, mapping.tgds(), mapping.target_egds());
}

// Reference counterpart of ChaseInstance.
inline Result<ReferenceResult> ReferenceChaseInstance(
    const std::vector<logic::Tgd>& tgds, const std::vector<logic::Egd>& egds,
    const instance::Instance& database) {
  return ReferenceChase(nullptr, database).Run({}, tgds, egds);
}

}  // namespace mm2::chase::reference

#endif  // MM2_TESTS_REFERENCE_CHASE_H_
