// A tests-only core oracle, the independent check every core test compares
// production against. It uses nothing from src/chase but the public types:
// homomorphisms are searched with the nested-loop Match of
// reference_chase.h, atom by atom over full relation scans.
//
// J is a core iff no endomorphism of J has a proper image. Facts without
// labeled nulls are fixed by every homomorphism, so that is the same as:
// for every fact g of J that holds a null, there is no homomorphism from J
// into J minus g. The search is exponential in the number of nulls, so
// sweeps keep their instances small (at most 8 nulls).
#ifndef MM2_TESTS_REFERENCE_CORE_H_
#define MM2_TESTS_REFERENCE_CORE_H_

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "instance/instance.h"
#include "logic/formula.h"
#include "reference_chase.h"

namespace mm2::chase::reference {

// Every fact of `db` as an atom, labeled null N<k> read as variable "n<k>".
// Ground atoms come first (each has at most one image); then each next
// atom is one sharing the most variables with those before it, so the
// nested loops prune on bound nulls instead of enumerating free ones.
inline std::vector<logic::Atom> AtomsOf(const instance::Instance& db) {
  std::vector<logic::Atom> ground;
  std::vector<logic::Atom> open;
  for (const auto& [name, rel] : db.relations()) {
    for (const instance::Tuple& tuple : rel.tuples()) {
      logic::Atom atom;
      atom.relation = name;
      bool has_null = false;
      for (const instance::Value& v : tuple) {
        if (v.is_labeled_null()) {
          has_null = true;
          atom.terms.push_back(
              logic::Term::Var("n" + std::to_string(v.label())));
        } else {
          atom.terms.push_back(logic::Term::Const(v));
        }
      }
      (has_null ? open : ground).push_back(std::move(atom));
    }
  }
  std::set<std::string> bound;
  auto shared = [&](const logic::Atom& atom) {
    std::size_t n = 0;
    for (const logic::Term& t : atom.terms) {
      if (t.is_variable() && bound.count(t.name()) > 0) ++n;
    }
    return n;
  };
  while (!open.empty()) {
    auto next = std::max_element(
        open.begin(), open.end(),
        [&](const logic::Atom& a, const logic::Atom& b) {
          return shared(a) < shared(b);
        });
    for (const logic::Term& t : next->terms) {
      if (t.is_variable()) bound.insert(t.name());
    }
    ground.push_back(std::move(*next));
    open.erase(next);
  }
  return ground;
}

// True iff some homomorphism maps `from` into `to`: constants fixed,
// labeled nulls mapped anywhere, every fact landing on a fact of `to`.
inline bool Homomorphic(const instance::Instance& from,
                        const instance::Instance& to) {
  return !Match(AtomsOf(from), to, /*limit=*/1).empty();
}

inline bool HomEquivalent(const instance::Instance& a,
                          const instance::Instance& b) {
  return Homomorphic(a, b) && Homomorphic(b, a);
}

// True iff `db` is a core: no fact holding a null can be dropped by mapping
// `db` into itself.
inline bool IsCore(const instance::Instance& db) {
  std::vector<logic::Atom> atoms = AtomsOf(db);
  for (const auto& [name, rel] : db.relations()) {
    for (const instance::Tuple& g : rel.tuples()) {
      if (std::none_of(g.begin(), g.end(), [](const instance::Value& v) {
            return v.is_labeled_null();
          })) {
        continue;
      }
      instance::Instance without = db;
      without.FindMutable(name)->Erase(g);
      if (!Match(atoms, without, /*limit=*/1).empty()) return false;
    }
  }
  return true;
}

}  // namespace mm2::chase::reference

#endif  // MM2_TESTS_REFERENCE_CORE_H_
