// Differential tests for the chase: the production chase (semi-naive,
// restricted, segment-backed, under either schedule) must agree
// with the tests-only reference chase in reference_chase.h, which shares no
// matcher or chase code with it, on every randomly generated mapping.
// Agreement means identical status codes and, on success, instances equal
// up to null renaming with the same number of egd unifications. Full-tgd
// closure cases invent no nulls, so there the results must be exactly
// equal. The stratified axis further requires production runs to be
// bit-identical to the flat run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "reference_chase.h"
#include "instance/instance.h"
#include "instance/value.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "text/sexpr.h"
#include "workload/generators.h"

namespace mm2::chase {
namespace {

using instance::Instance;
using instance::InstanceEqualsUpToNulls;
using instance::Value;
using logic::Atom;
using logic::Egd;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using workload::Rng;

ChaseOptions StratifiedMode() {
  ChaseOptions o;
  o.stratified = true;
  return o;
}

// Exchange-mode agreement with the reference: same status code, and on
// success the same instance up to null names with the same number of egd
// unifications.
void ExpectMatchesReference(const Result<ChaseResult>& chased,
                            const Result<reference::ReferenceResult>& ref,
                            const std::string& what) {
  ASSERT_EQ(chased.status().code(), ref.status().code())
      << what << ": chase=" << chased.status() << " reference=" << ref.status();
  if (!ref.ok()) return;
  EXPECT_TRUE(InstanceEqualsUpToNulls(chased->target, ref->target))
      << what << "\nchase:\n" << chased->target.ToString()
      << "\nreference:\n" << ref->target.ToString();
  EXPECT_EQ(chased->stats.egd_unifications, ref->egd_unifications) << what;
}

// A random data-exchange scenario: all-Int64 relational schemas (small
// constant domains maximize join hits and egd collisions), s-t tgds with
// joins and existentials, and occasional target key egds.
struct Scenario {
  model::Schema source{"Src", model::Metamodel::kRelational};
  model::Schema target{"Tgt", model::Metamodel::kRelational};
  std::vector<Tgd> tgds;
  std::vector<Egd> egds;
  Instance db;
};

model::Relation IntRelation(const std::string& name, std::size_t arity) {
  std::vector<model::Attribute> attrs;
  for (std::size_t i = 0; i < arity; ++i) {
    attrs.push_back({"a" + std::to_string(i), model::DataType::Int64()});
  }
  return model::Relation(name, std::move(attrs), {0});
}

// 1-2 atoms over the source relations R<i> (arities `src_arity`). Each
// column reuses an earlier variable half the time (join / repeated var),
// else binds a fresh one, appended to `vars`.
std::vector<Atom> RandomBody(Rng* rng,
                             const std::vector<std::size_t>& src_arity,
                             std::vector<std::string>* vars) {
  std::vector<Atom> body;
  const std::size_t body_atoms = 1 + rng->Uniform(2);
  for (std::size_t b = 0; b < body_atoms; ++b) {
    const std::size_t rel = rng->Uniform(src_arity.size());
    Atom atom;
    atom.relation = "R" + std::to_string(rel);
    for (std::size_t c = 0; c < src_arity[rel]; ++c) {
      if (!vars->empty() && rng->Chance(0.5)) {
        atom.terms.push_back(Term::Var((*vars)[rng->Uniform(vars->size())]));
      } else {
        vars->push_back("x" + std::to_string(vars->size()));
        atom.terms.push_back(Term::Var(vars->back()));
      }
    }
    body.push_back(std::move(atom));
  }
  return body;
}

Scenario MakeScenario(std::uint64_t seed) {
  Rng rng(seed + 1);
  Scenario s;

  std::size_t source_rels = 2 + rng.Uniform(3);  // 2..4
  std::size_t target_rels = 2 + rng.Uniform(2);  // 2..3
  std::vector<std::size_t> src_arity(source_rels);
  std::vector<std::size_t> tgt_arity(target_rels);
  for (std::size_t i = 0; i < source_rels; ++i) {
    src_arity[i] = 1 + rng.Uniform(3);  // 1..3
    s.source.AddRelation(IntRelation("R" + std::to_string(i), src_arity[i]));
  }
  for (std::size_t i = 0; i < target_rels; ++i) {
    tgt_arity[i] = 1 + rng.Uniform(3);
    s.target.AddRelation(IntRelation("T" + std::to_string(i), tgt_arity[i]));
  }

  // Tgds: 1-2 body atoms over shared variables (joins), 1-2 head atoms
  // mixing body variables with existentials.
  std::size_t rules = 2 + rng.Uniform(4);  // 2..5
  for (std::size_t r = 0; r < rules; ++r) {
    Tgd tgd;
    std::vector<std::string> vars;
    tgd.body = RandomBody(&rng, src_arity, &vars);
    std::size_t head_atoms = 1 + rng.Uniform(2);
    std::size_t existentials = 0;
    for (std::size_t h = 0; h < head_atoms; ++h) {
      std::size_t rel = rng.Uniform(target_rels);
      Atom atom;
      atom.relation = "T" + std::to_string(rel);
      for (std::size_t c = 0; c < tgt_arity[rel]; ++c) {
        if (rng.Chance(0.3)) {
          atom.terms.push_back(
              Term::Var("y" + std::to_string(existentials++)));
        } else {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        }
      }
      tgd.head.push_back(std::move(atom));
    }
    s.tgds.push_back(std::move(tgd));
  }

  // Occasional key egd on a target relation of arity >= 2: two atoms
  // sharing the key variable force the first non-key column equal.
  if (rng.Chance(0.5)) {
    for (std::size_t rel = 0; rel < target_rels; ++rel) {
      if (tgt_arity[rel] < 2 || rng.Chance(0.5)) continue;
      Egd egd;
      Atom a1, a2;
      a1.relation = a2.relation = "T" + std::to_string(rel);
      a1.terms.push_back(Term::Var("k"));
      a2.terms.push_back(Term::Var("k"));
      for (std::size_t c = 1; c < tgt_arity[rel]; ++c) {
        a1.terms.push_back(Term::Var("u" + std::to_string(c)));
        a2.terms.push_back(Term::Var("v" + std::to_string(c)));
      }
      egd.body = {std::move(a1), std::move(a2)};
      egd.left = "u1";
      egd.right = "v1";
      s.egds.push_back(std::move(egd));
      break;
    }
  }

  // Source data: small domains so bodies actually join and egds actually
  // fire (including constant-vs-constant collisions -> Inconsistent).
  s.db = Instance::EmptyFor(s.source);
  for (std::size_t rel = 0; rel < source_rels; ++rel) {
    std::size_t rows = 3 + rng.Uniform(6);
    for (std::size_t row = 0; row < rows; ++row) {
      instance::Tuple t;
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        t.push_back(Value::Int64(static_cast<std::int64_t>(rng.Uniform(4))));
      }
      s.db.InsertUnchecked("R" + std::to_string(rel), std::move(t));
    }
  }
  return s;
}

// A random second-order scenario: SO-tgd clauses whose heads carry
// Skolem terms nested up to two deep (g(f(x)) next to f(x)), now and then
// a premise equality between two Skolem terms, and key egds on the
// target. Merging two nulls makes Skolem terms over them collide, so the
// memo must keep merging — the path first-order scenarios never reach.
// (A premise equality against a body variable is left out: the chase
// resolves it first come, first served, so its result depends on the
// enumeration order, which differs between executors.)
struct SkolemScenario {
  model::Schema source{"Src", model::Metamodel::kRelational};
  model::Schema target{"Tgt", model::Metamodel::kRelational};
  logic::SoTgd so;
  std::vector<Egd> egds;
  Instance db;

  Mapping ToMapping() const {
    return Mapping::FromSoTgd("m", source, target, so, egds);
  }
};

SkolemScenario MakeSkolemScenario(std::uint64_t seed) {
  Rng rng(seed * 6151 + 3);
  SkolemScenario s;
  const std::size_t source_rels = 2 + rng.Uniform(2);  // 2..3
  const std::size_t target_rels = 2 + rng.Uniform(2);  // 2..3
  std::vector<std::size_t> src_arity(source_rels);
  std::vector<std::size_t> tgt_arity(target_rels);
  for (std::size_t i = 0; i < source_rels; ++i) {
    src_arity[i] = 1 + rng.Uniform(3);
    s.source.AddRelation(IntRelation("R" + std::to_string(i), src_arity[i]));
  }
  for (std::size_t i = 0; i < target_rels; ++i) {
    tgt_arity[i] = 2 + rng.Uniform(2);
    s.target.AddRelation(IntRelation("T" + std::to_string(i), tgt_arity[i]));
  }
  s.so.functions = {"f", "g"};
  const std::size_t clauses = 2 + rng.Uniform(3);  // 2..4
  for (std::size_t c = 0; c < clauses; ++c) {
    logic::SoTgdClause clause;
    std::vector<std::string> vars;
    clause.body = RandomBody(&rng, src_arity, &vars);
    auto var = [&] { return Term::Var(vars[rng.Uniform(vars.size())]); };
    auto skolem = [&]() -> Term {
      Term inner = Term::Func("f", {var()});
      return rng.Chance(0.5) ? Term::Func("g", {inner}) : inner;
    };
    const std::size_t head_atoms = 1 + rng.Uniform(2);
    for (std::size_t h = 0; h < head_atoms; ++h) {
      const std::size_t rel = rng.Uniform(target_rels);
      Atom atom;
      atom.relation = "T" + std::to_string(rel);
      for (std::size_t k = 0; k < tgt_arity[rel]; ++k) {
        atom.terms.push_back(k > 0 && rng.Chance(0.5) ? skolem() : var());
      }
      clause.head.push_back(std::move(atom));
    }
    if (rng.Chance(0.2)) clause.equalities.emplace_back(skolem(), skolem());
    s.so.clauses.push_back(std::move(clause));
  }
  // Key egds: equal first columns force the second column equal.
  for (std::size_t rel = 0; rel < target_rels; ++rel) {
    if (rng.Chance(0.4)) continue;
    Egd egd;
    Atom a1;
    Atom a2;
    a1.relation = a2.relation = "T" + std::to_string(rel);
    a1.terms.push_back(Term::Var("k"));
    a2.terms.push_back(Term::Var("k"));
    for (std::size_t k = 1; k < tgt_arity[rel]; ++k) {
      a1.terms.push_back(Term::Var("u" + std::to_string(k)));
      a2.terms.push_back(Term::Var("v" + std::to_string(k)));
    }
    egd.body = {std::move(a1), std::move(a2)};
    egd.left = "u1";
    egd.right = "v1";
    s.egds.push_back(std::move(egd));
  }
  s.db = Instance::EmptyFor(s.source);
  for (std::size_t rel = 0; rel < source_rels; ++rel) {
    const std::size_t rows = 3 + rng.Uniform(5);
    for (std::size_t row = 0; row < rows; ++row) {
      instance::Tuple t;
      for (std::size_t k = 0; k < src_arity[rel]; ++k) {
        t.push_back(Value::Int64(static_cast<std::int64_t>(rng.Uniform(4))));
      }
      s.db.InsertUnchecked("R" + std::to_string(rel), std::move(t));
    }
  }
  return s;
}

class ChaseDiffProperty : public ::testing::TestWithParam<int> {};

// The test names predate the reference chase: the sweep once compared
// three production executors with each other; it now compares the one
// production chase with the reference.
TEST_P(ChaseDiffProperty, NaiveIndexedSemiNaiveAgree) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  auto chased = RunChase(mapping, s.db);
  ExpectMatchesReference(chased, reference::ReferenceRunChase(mapping, s.db),
                         "seed " + std::to_string(GetParam()));
  // The first full pass of every rule consumes its body extension.
  if (chased.ok()) {
    EXPECT_GT(chased->stats.delta_tuples, 0u) << "seed " << GetParam();
  }
}

// The same agreement over second-order scenarios with key egds: Skolem
// semantics leaves no firing-order freedom.
TEST_P(ChaseDiffProperty, SkolemEgdScenariosAgree) {
  SkolemScenario s = MakeSkolemScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping = s.ToMapping();
  ExpectMatchesReference(RunChase(mapping, s.db),
                         reference::ReferenceRunChase(mapping, s.db),
                         "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseDiffProperty, ::testing::Range(0, 100));

// Interning must be invisible to results: serializing a chase result to
// text and reparsing it (which re-interns every string and reassigns pool
// ids) must reproduce the *exact* instance — tuple sets, iteration order,
// labeled-null labels, everything Equals checks. Runs over the same 100
// random-mapping seeds as the executor-agreement sweep.
class ChaseSerializeDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseSerializeDiffProperty, ResultsSurviveTextRoundTrip) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  auto result = RunChase(mapping, s.db);
  if (!result.ok()) return;  // Inconsistent scenarios have no instance

  std::string printed = text::InstanceToText(result->target);
  auto reparsed = text::ParseInstance(printed);
  ASSERT_TRUE(reparsed.ok()) << "seed " << GetParam() << ": "
                             << reparsed.status();
  EXPECT_TRUE(result->target.Equals(*reparsed)) << "seed " << GetParam();
  // Printing the reparsed instance is bit-identical: same sorted-set
  // iteration order through the pool-resolved value comparisons.
  EXPECT_EQ(printed, text::InstanceToText(*reparsed))
      << "seed " << GetParam();

  // The source database round-trips the same way.
  std::string db_printed = text::InstanceToText(s.db);
  auto db_reparsed = text::ParseInstance(db_printed);
  ASSERT_TRUE(db_reparsed.ok()) << db_reparsed.status();
  EXPECT_TRUE(s.db.Equals(*db_reparsed)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseSerializeDiffProperty,
                         ::testing::Range(0, 100));

// Full-tgd closure (no existentials, no nulls): the fixpoint is a unique
// set of ground tuples, so production and the reference must produce
// *identical* instances. Random graphs chased to their transitive closure
// exercise multi-round delta propagation hard.
class ClosureDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureDiffProperty, TransitiveClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  std::size_t nodes = 5 + rng.Uniform(6);
  std::size_t edges = nodes + rng.Uniform(nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  std::vector<Tgd> tgds = {copy, step};

  auto ref = reference::ReferenceChaseInstance(tgds, {}, db);
  auto semi = ChaseInstance(tgds, {}, db);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_TRUE(semi.ok()) << semi.status();

  EXPECT_TRUE(semi->target.Equals(ref->target)) << "seed " << GetParam();
  // Semi-naive actually consumed deltas (round 1 counts the extension).
  EXPECT_GT(semi->stats.delta_tuples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureDiffProperty, ::testing::Range(0, 20));

// ChaseOptions::threads is ignored: the chase runs serially, so a run that
// asks for 2, 4 or 8 threads is the default run, with the same instance
// text (null names included), one worker and no fan-out.
class ChaseParallelDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseParallelDiffProperty, ThreadCountIsImplementationDetail) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  auto serial = RunChase(mapping, s.db);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ChaseOptions options;
    options.threads = threads;
    auto asked = RunChase(mapping, s.db, options);
    ASSERT_EQ(serial.status().code(), asked.status().code())
        << "seed " << GetParam() << " threads " << threads;
    if (!serial.ok()) continue;
    EXPECT_EQ(text::InstanceToText(asked->target),
              text::InstanceToText(serial->target))
        << "seed " << GetParam() << " threads " << threads;
    EXPECT_EQ(asked->stats.workers, 1u);
    EXPECT_EQ(asked->stats.parallel_regions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseParallelDiffProperty,
                         ::testing::Range(0, 40));

// The same over transitive closures, whose multi-round delta propagation
// also matches the reference exactly.
class ClosureParallelDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureParallelDiffProperty, ParallelClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  std::size_t nodes = 8 + rng.Uniform(9);
  std::size_t edges = nodes + rng.Uniform(2 * nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  std::vector<Tgd> tgds = {copy, step};

  auto ref = reference::ReferenceChaseInstance(tgds, {}, db);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (std::size_t threads : {2u, 4u, 8u}) {
    ChaseOptions options;
    options.threads = threads;
    auto asked = ChaseInstance(tgds, {}, db, options);
    ASSERT_TRUE(asked.ok()) << asked.status();
    EXPECT_TRUE(asked->target.Equals(ref->target))
        << "seed " << GetParam() << " threads " << threads;
    EXPECT_EQ(asked->stats.workers, 1u);
    EXPECT_EQ(asked->stats.parallel_regions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureParallelDiffProperty,
                         ::testing::Range(0, 12));

// Stratified-scheduling axis: running the chase with mapping analysis
// attached (ChaseOptions::stratified) must be a pure scheduling
// optimization. Strata only defer egd matching until the tgd strata are
// quiescent (exchange mode) or retire rule groups the flat scheduler
// would have delta-skipped anyway, so the *result* — the instance text,
// which pins down null naming, and every firing-attribution counter —
// must be bit-identical to the flat semi-naive run. Round counts and
// delta-skip tallies legitimately differ (that skipped work is the
// point), so they are deliberately not compared. The stratified run must
// also match the reference.
void ExpectSameRuleAttribution(const ChaseStats& flat,
                               const ChaseStats& strat, int seed) {
  EXPECT_EQ(flat.tgd_firings, strat.tgd_firings) << "seed " << seed;
  EXPECT_EQ(flat.nulls_created, strat.nulls_created) << "seed " << seed;
  EXPECT_EQ(flat.egd_unifications, strat.egd_unifications) << "seed " << seed;
  EXPECT_EQ(flat.assignments_matched, strat.assignments_matched)
      << "seed " << seed;
  ASSERT_EQ(flat.rules.size(), strat.rules.size()) << "seed " << seed;
  for (std::size_t i = 0; i < flat.rules.size(); ++i) {
    EXPECT_EQ(flat.rules[i].label, strat.rules[i].label) << "seed " << seed;
    EXPECT_EQ(flat.rules[i].firings, strat.rules[i].firings)
        << "seed " << seed << " rule " << flat.rules[i].label;
    EXPECT_EQ(flat.rules[i].triggers_tested, strat.rules[i].triggers_tested)
        << "seed " << seed << " rule " << flat.rules[i].label;
    EXPECT_EQ(flat.rules[i].nulls_created, strat.rules[i].nulls_created)
        << "seed " << seed << " rule " << flat.rules[i].label;
    EXPECT_EQ(flat.rules[i].unifications, strat.rules[i].unifications)
        << "seed " << seed << " rule " << flat.rules[i].label;
  }
}

class ChaseStratifiedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseStratifiedDiffProperty, StratifiedEqualsFlatBitForBit) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);

  auto flat = RunChase(mapping, s.db);
  auto strat = RunChase(mapping, s.db, StratifiedMode());
  ASSERT_EQ(flat.status().code(), strat.status().code())
      << "seed " << GetParam() << ": flat=" << flat.status()
      << " stratified=" << strat.status();
  ExpectMatchesReference(strat, reference::ReferenceRunChase(mapping, s.db),
                         "seed " + std::to_string(GetParam()));
  if (!flat.ok()) return;

  // Instance text equality is the strongest form: it covers tuple sets,
  // iteration order, and labeled-null names.
  EXPECT_EQ(text::InstanceToText(strat->target),
            text::InstanceToText(flat->target))
      << "seed " << GetParam();
  ExpectSameRuleAttribution(flat->stats, strat->stats, GetParam());

  // The scheduler actually ran, and its telemetry stayed off on the flat
  // side (the disabled path materializes nothing).
  EXPECT_GT(strat->stats.strata_count, 0u) << "seed " << GetParam();
  EXPECT_EQ(flat->stats.strata_count, 0u);
  // Every rule got a stratum; flat rules stay unassigned.
  for (const RuleStats& rule : strat->stats.rules) {
    EXPECT_GE(rule.stratum, 0) << "seed " << GetParam();
  }
  for (const RuleStats& rule : flat->stats.rules) {
    EXPECT_EQ(rule.stratum, -1);
  }
  // S-t scenarios are always weakly acyclic, and the predicted round
  // bound must dominate what either scheduler observed.
  EXPECT_TRUE(strat->stats.predicted_terminating) << "seed " << GetParam();
  EXPECT_LE(flat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
  EXPECT_LE(strat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseStratifiedDiffProperty,
                         ::testing::Range(0, 100));

// Closure mode only retires quiescent strata (late activation would
// reorder null invention), so transitive closure over random graphs must
// stay exactly equal too — including when an independent shallow chain
// rides along, the case where retirement skips real delta-check passes.
class ClosureStratifiedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureStratifiedDiffProperty, StratifiedClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  db.DeclareRelation("A", 1);
  db.DeclareRelation("B", 1);
  std::size_t nodes = 5 + rng.Uniform(6);
  std::size_t edges = nodes + rng.Uniform(nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }
  for (std::size_t a = 0; a < 3; ++a) {
    db.InsertUnchecked(
        "A", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  // Independent depth-1 stratum: quiescent after one round while the
  // closure stratum keeps iterating — the retirement win.
  Tgd shallow;
  shallow.body = {Atom{"A", {Term::Var("x")}}};
  shallow.head = {Atom{"B", {Term::Var("x")}}};
  std::vector<Tgd> tgds = {copy, step, shallow};

  auto flat = ChaseInstance(tgds, {}, db);
  auto strat = ChaseInstance(tgds, {}, db, StratifiedMode());
  auto ref = reference::ReferenceChaseInstance(tgds, {}, db);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(strat.ok()) << strat.status();
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_TRUE(strat->target.Equals(flat->target)) << "seed " << GetParam();
  EXPECT_TRUE(strat->target.Equals(ref->target)) << "seed " << GetParam();
  ExpectSameRuleAttribution(flat->stats, strat->stats, GetParam());
  EXPECT_GT(strat->stats.strata_count, 0u);
  // Full tgds invent nothing, so the classifier must say terminating and
  // its round bound must hold.
  EXPECT_TRUE(strat->stats.predicted_terminating);
  EXPECT_LE(strat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureStratifiedDiffProperty,
                         ::testing::Range(0, 20));

// Segment axis: every run seals its relations into sorted columnar runs,
// serves prefix probes from them and batches existential-free head checks
// through them. The segment-backed production chase must match the
// reference, which scans plain sets.
class ChaseSegmentedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseSegmentedDiffProperty, StorageModeIsImplementationDetail) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  auto ref = reference::ReferenceRunChase(mapping, s.db);
  const std::string what = "seed " + std::to_string(GetParam());
  auto chased = RunChase(mapping, s.db);
  ExpectMatchesReference(chased, ref, what);
  if (!chased.ok()) return;
  // The source and every touched target relation were sealed.
  EXPECT_GT(chased->stats.segment.seals, 0u) << what;
  EXPECT_GT(chased->stats.segment_shape.live_segments, 0u) << what;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseSegmentedDiffProperty,
                         ::testing::Range(0, 100));

// Transitive closure over segment storage: full tgds invent no nulls, so
// the fixpoint must equal the reference's exactly — and because the
// closure rules are existential-free the restricted check runs through the
// batched retain path, whose telemetry must show segment probes and retain
// batches actually happened (i.e. the sweep exercises the segment code,
// not a silent fallback).
class ClosureSegmentedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureSegmentedDiffProperty, SegmentedClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 69997 + 13);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  std::size_t nodes = 8 + rng.Uniform(9);
  std::size_t edges = nodes + rng.Uniform(2 * nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  std::vector<Tgd> tgds = {copy, step};

  auto ref = reference::ReferenceChaseInstance(tgds, {}, db);
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto seg = ChaseInstance(tgds, {}, db);
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_TRUE(seg->target.Equals(ref->target)) << "seed " << GetParam();
  EXPECT_EQ(text::InstanceToText(seg->target),
            text::InstanceToText(ref->target))
      << "seed " << GetParam();
  // The segment layer must actually carry the hot path: prefix probes
  // served from sealed segments and head dedup through batched retain.
  EXPECT_GT(seg->stats.segment.probes, 0u) << "seed " << GetParam();
  EXPECT_GT(seg->stats.segment.retain_batches, 0u) << "seed " << GetParam();
  EXPECT_GT(seg->stats.segment.seals, 0u);
  // A run that only ever declined (fallbacks with zero served probes)
  // would mean the tiered view silently never engaged.
  EXPECT_FALSE(seg->stats.segment.fallbacks > 0 &&
               seg->stats.segment.probes == 0)
      << "silent fallback: " << seg->stats.segment.fallbacks
      << " fallbacks with zero served probes (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureSegmentedDiffProperty,
                         ::testing::Range(0, 20));

// Egd-reference axis: the production chase applies each egd pass as one
// batched substitution, while the reference unifies one violation at a
// time and rewrites everything after each. These cases run production
// flat, and the key-egd graphs and Skolem scenarios also stratified
// (ChaseDiffProperty and ChaseStratifiedDiffProperty cover the rest);
// all must reach the
// reference's instance up to null names with the same number of
// unifications.
//
// A random key-egd graph, shaped like the benchmark's closure workload
// but small: transitive closure over R, an existential E(x, y, n) per edge
// with a key egd on E(x, ., n) that merges every node's nulls, and a few
// C(x, c) facts that pin a node's null to a constant — two of them on one
// node make the chase inconsistent.
struct KeyEgdGraph {
  std::vector<Tgd> tgds;
  std::vector<Egd> egds;
  Instance db;
};

KeyEgdGraph MakeKeyEgdGraph(std::uint64_t seed) {
  Rng rng(seed * 4099 + 11);
  KeyEgdGraph g;
  auto v = [](const char* name) { return Term::Var(name); };
  Tgd copy;
  copy.body = {Atom{"R", {v("x"), v("y")}}};
  copy.head = {Atom{"T", {v("x"), v("y")}}};
  Tgd step;
  step.body = {Atom{"T", {v("x"), v("y")}}, Atom{"R", {v("y"), v("z")}}};
  step.head = {Atom{"T", {v("x"), v("z")}}};
  Tgd exist;
  exist.body = {Atom{"T", {v("x"), v("y")}}};
  exist.head = {Atom{"E", {v("x"), v("y"), v("n")}}};
  Tgd pin;
  pin.body = {Atom{"C", {v("x"), v("c")}}, Atom{"E", {v("x"), v("y"), v("n")}}};
  pin.head = {Atom{"E", {v("x"), v("x"), v("c")}}};
  g.tgds = {copy, step, exist, pin};
  Egd key;
  key.body = {Atom{"E", {v("x"), v("y"), v("n")}},
              Atom{"E", {v("x"), v("w"), v("m")}}};
  key.left = "n";
  key.right = "m";
  g.egds = {key};
  g.db.DeclareRelation("R", 2);
  g.db.DeclareRelation("T", 2);
  g.db.DeclareRelation("E", 3);
  g.db.DeclareRelation("C", 2);
  const std::size_t nodes = 4 + rng.Uniform(6);
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    const std::size_t fanout = 1 + rng.Uniform(2);
    for (std::size_t e = 0; e < fanout; ++e) {
      const std::size_t j = i + 1 + rng.Uniform(std::min<std::size_t>(
                                        3, nodes - i - 1));
      g.db.InsertUnchecked("R", {Value::Int64(static_cast<std::int64_t>(i)),
                                 Value::Int64(static_cast<std::int64_t>(j))});
    }
  }
  const std::size_t pins = rng.Uniform(3);
  for (std::size_t p = 0; p < pins; ++p) {
    g.db.InsertUnchecked(
        "C", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(100 + static_cast<std::int64_t>(rng.Uniform(2)))});
  }
  return g;
}

class EgdReferenceDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(EgdReferenceDiffProperty, KeyEgdGraphMatchesReference) {
  KeyEgdGraph g = MakeKeyEgdGraph(static_cast<std::uint64_t>(GetParam()));
  auto ref = reference::ReferenceChaseInstance(g.tgds, g.egds, g.db);
  const std::string seed = "seed " + std::to_string(GetParam());
  ExpectMatchesReference(ChaseInstance(g.tgds, g.egds, g.db), ref,
                         seed + " flat");
  ExpectMatchesReference(ChaseInstance(g.tgds, g.egds, g.db, StratifiedMode()),
                         ref, seed + " stratified");
}

TEST_P(EgdReferenceDiffProperty, TgdScenarioMatchesReference) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  ExpectMatchesReference(RunChase(mapping, s.db),
                         reference::ReferenceRunChase(mapping, s.db),
                         "seed " + std::to_string(GetParam()) + " flat");
}

TEST_P(EgdReferenceDiffProperty, SkolemScenarioMatchesReference) {
  SkolemScenario s = MakeSkolemScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping = s.ToMapping();
  auto ref = reference::ReferenceRunChase(mapping, s.db);
  const std::string seed = "seed " + std::to_string(GetParam());
  ExpectMatchesReference(RunChase(mapping, s.db), ref, seed + " flat");
  ExpectMatchesReference(RunChase(mapping, s.db, StratifiedMode()), ref,
                         seed + " stratified");
}

INSTANTIATE_TEST_SUITE_P(Sweep, EgdReferenceDiffProperty,
                         ::testing::Range(0, 100));

}  // namespace
}  // namespace mm2::chase
