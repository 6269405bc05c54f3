// Property-based suites: operator invariants swept across generated
// workloads with TEST_P. Each property is the instance-level law the paper
// states (or implies) for the operator, checked on families of schemas,
// mappings, and databases rather than single examples.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "chase/chase.h"
#include "compose/compose.h"
#include "diff/diff.h"
#include "inverse/inverse.h"
#include "merge/merge.h"
#include "model/schema.h"
#include "modelgen/modelgen.h"
#include "reference_core.h"
#include "rewrite/rewrite.h"
#include "text/sexpr.h"
#include "transgen/relational.h"
#include "transgen/transgen.h"
#include "workload/generators.h"

namespace mm2 {
namespace {

using instance::Instance;
using instance::Tuple;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Mapping;
using logic::Term;

bool HomEquivalent(const Instance& a, const Instance& b) {
  return chase::ExistsHomomorphism(a, b) && chase::ExistsHomomorphism(b, a);
}

// ---------------------------------------------------------------------------
// Compose: semantics and associativity over evolution chains.
// ---------------------------------------------------------------------------

class ComposeChainProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ComposeChainProperty, ComposedEqualsStepwise) {
  auto [seed, length, attrs] = GetParam();
  workload::EvolutionChain chain =
      workload::MakeEvolutionChain(static_cast<std::size_t>(length),
                                   static_cast<std::size_t>(attrs));
  workload::Rng rng(static_cast<std::uint64_t>(seed));
  Instance db = workload::MakeChainInstance(chain, 8, &rng);

  Instance stepwise = db;
  for (const Mapping& step : chain.steps) {
    auto result = chase::RunChase(step, stepwise);
    ASSERT_TRUE(result.ok());
    stepwise = result->target;
  }
  Mapping composed = chain.steps[0];
  for (std::size_t i = 1; i < chain.steps.size(); ++i) {
    auto next = compose::Compose(composed, chain.steps[i]);
    ASSERT_TRUE(next.ok()) << next.status();
    composed = *next;
  }
  auto direct = chase::RunChase(composed, db);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(HomEquivalent(direct->target, stepwise));
}

// Associativity over a chain of length + 2 steps (so every grid point has
// at least three): folding Compose from the left and from the right must
// give mappings whose chase results agree up to homomorphic equivalence.
TEST_P(ComposeChainProperty, ComposeIsAssociativeOnInstances) {
  auto [seed, length, attrs] = GetParam();
  workload::EvolutionChain chain = workload::MakeEvolutionChain(
      static_cast<std::size_t>(length) + 2, static_cast<std::size_t>(attrs));
  workload::Rng rng(static_cast<std::uint64_t>(seed));
  Instance db = workload::MakeChainInstance(chain, 6, &rng);

  Mapping left = chain.steps.front();
  for (std::size_t i = 1; i < chain.steps.size(); ++i) {
    auto next = compose::Compose(left, chain.steps[i]);
    ASSERT_TRUE(next.ok()) << next.status();
    left = *next;
  }
  Mapping right = chain.steps.back();
  for (std::size_t i = chain.steps.size() - 1; i-- > 0;) {
    auto next = compose::Compose(chain.steps[i], right);
    ASSERT_TRUE(next.ok()) << next.status();
    right = *next;
  }

  auto via_left = chase::RunChase(left, db);
  auto via_right = chase::RunChase(right, db);
  ASSERT_TRUE(via_left.ok() && via_right.ok());
  EXPECT_TRUE(HomEquivalent(via_left->target, via_right->target));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComposeChainProperty,
    ::testing::Combine(::testing::Values(1, 2, 3),       // seed
                       ::testing::Values(1, 2, 3, 5),    // chain length
                       ::testing::Values(2, 4, 6)));     // attributes

// ---------------------------------------------------------------------------
// Invert is an involution on every tgd mapping we generate.
// ---------------------------------------------------------------------------

class InvertProperty : public ::testing::TestWithParam<int> {};

TEST_P(InvertProperty, DoubleInvertIsIdentity) {
  workload::EvolutionChain chain =
      workload::MakeEvolutionChain(2, 4 + GetParam() % 3);
  for (const Mapping& m : chain.steps) {
    auto inv = inverse::Invert(m);
    ASSERT_TRUE(inv.ok());
    auto back = inverse::Invert(*inv);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->tgds().size(), m.tgds().size());
    for (std::size_t i = 0; i < m.tgds().size(); ++i) {
      EXPECT_EQ(back->tgds()[i].ToString(), m.tgds()[i].ToString());
    }
    EXPECT_EQ(back->source().name(), m.source().name());
    EXPECT_EQ(back->target().name(), m.target().name());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InvertProperty, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// TransGen roundtripping across hierarchy shapes and strategies.
// ---------------------------------------------------------------------------

class RoundtripProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RoundtripProperty, UpdateThenQueryIsIdentity) {
  auto [depth, fanout, strategy_index] = GetParam();
  modelgen::InheritanceStrategy strategy =
      static_cast<modelgen::InheritanceStrategy>(strategy_index);
  model::Schema er =
      workload::MakeHierarchy(static_cast<std::size_t>(depth),
                              static_cast<std::size_t>(fanout), 2);
  workload::Rng rng(static_cast<std::uint64_t>(depth * 10 + fanout));
  Instance entities = workload::MakeHierarchyInstance(er, 4, &rng);

  auto generated = modelgen::ErToRelational(er, strategy);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto views = transgen::CompileFragments(er, "Objects",
                                          generated->relational,
                                          generated->fragments);
  ASSERT_TRUE(views.ok()) << views.status();
  auto ok =
      transgen::VerifyRoundtrip(*views, er, generated->relational, entities);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(*ok) << modelgen::InheritanceStrategyToString(strategy)
                   << " depth=" << depth << " fanout=" << fanout;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundtripProperty,
    ::testing::Combine(::testing::Values(1, 2, 3),   // depth
                       ::testing::Values(1, 2, 3),   // fanout
                       ::testing::Values(0, 1, 2))); // strategy

// ---------------------------------------------------------------------------
// Chase output is universal: it maps homomorphically into the instantiated
// solution obtained by grounding every labeled null.
// ---------------------------------------------------------------------------

class UniversalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(UniversalityProperty, ChaseResultEmbedsIntoGroundedSolution) {
  workload::EvolutionChain chain = workload::MakeEvolutionChain(1, 5);
  workload::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Instance db = workload::MakeChainInstance(chain, 6, &rng);
  auto result = chase::RunChase(chain.steps[0], db);
  ASSERT_TRUE(result.ok());

  // Ground: replace each labeled null by a fresh constant.
  Instance grounded;
  for (const auto& [name, rel] : result->target.relations()) {
    grounded.DeclareRelation(name, rel.arity());
    for (const Tuple& t : rel.tuples()) {
      Tuple g = t;
      for (instance::Value& v : g) {
        if (v.is_labeled_null()) {
          v = instance::Value::String("ground" + std::to_string(v.label()));
        }
      }
      grounded.InsertUnchecked(name, std::move(g));
    }
  }
  EXPECT_TRUE(chase::ExistsHomomorphism(result->target, grounded));
  // And the grounding is genuinely a different instance unless no nulls
  // were created.
  if (result->stats.nulls_created > 0) {
    EXPECT_FALSE(grounded.Equals(result->target));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UniversalityProperty,
                         ::testing::Range(1, 8));

// ---------------------------------------------------------------------------
// Core is idempotent and never grows.
// ---------------------------------------------------------------------------

class CoreProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoreProperty, IdempotentAndShrinking) {
  workload::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Instance db;
  db.DeclareRelation("R", 2);
  // Random mixture of constants and nulls.
  for (int i = 0; i < 12; ++i) {
    instance::Value a = rng.Chance(0.5)
                            ? instance::Value::Int64(
                                  static_cast<std::int64_t>(rng.Uniform(4)))
                            : instance::Value::LabeledNull(
                                  static_cast<std::int64_t>(rng.Uniform(6)));
    instance::Value b = rng.Chance(0.5)
                            ? instance::Value::Int64(
                                  static_cast<std::int64_t>(rng.Uniform(4)))
                            : instance::Value::LabeledNull(
                                  static_cast<std::int64_t>(rng.Uniform(6)));
    db.InsertUnchecked("R", {a, b});
  }
  Instance once = chase::ComputeCore(db);
  Instance twice = chase::ComputeCore(once);
  EXPECT_LE(once.TotalTuples(), db.TotalTuples());
  EXPECT_TRUE(twice.Equals(once));
  // The core is hom-equivalent to the original, and minimal.
  EXPECT_TRUE(HomEquivalent(once, db));
  EXPECT_TRUE(chase::reference::IsCore(once)) << once.ToString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoreProperty, ::testing::Range(1, 10));

// ---------------------------------------------------------------------------
// Core of s-t chase results: minimal and hom-equivalent, by the reference
// oracle. Random mappings S(a,b) -> E(x,y), F(x) whose tgds have one- or
// two-atom bodies and two- or three-atom heads with up to two existentials,
// so nulls come in cycles, chains and loops that fold in blocks.
// ---------------------------------------------------------------------------

class CoreMinimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoreMinimalityProperty, ChaseResultCoreIsMinimal) {
  workload::Rng rng(static_cast<std::uint64_t>(GetParam()));
  model::Schema src = model::SchemaBuilder("S", model::Metamodel::kRelational)
                          .Relation("S", {{"a", model::DataType::Int64()},
                                          {"b", model::DataType::Int64()}})
                          .Build();
  model::Schema tgt = model::SchemaBuilder("T", model::Metamodel::kRelational)
                          .Relation("E", {{"x", model::DataType::Int64()},
                                          {"y", model::DataType::Int64()}})
                          .Relation("F", {{"x", model::DataType::Int64()}})
                          .Build();
  std::vector<logic::Tgd> tgds(1 + rng.Uniform(3));
  for (logic::Tgd& tgd : tgds) {
    std::vector<std::string> pool = {"u", "v", "x", "y"};
    tgd.body = {Atom{"S", {Term::Var("u"), Term::Var("v")}}};
    if (rng.Chance(0.3)) {
      tgd.body.push_back(Atom{"S", {Term::Var("v"), Term::Var("w")}});
      pool.push_back("w");
    }
    std::size_t head_atoms = 2 + rng.Uniform(2);
    for (std::size_t i = 0; i < head_atoms; ++i) {
      auto term = [&] { return Term::Var(pool[rng.Uniform(pool.size())]); };
      if (rng.Chance(0.8)) {
        tgd.head.push_back(Atom{"E", {term(), term()}});
      } else {
        tgd.head.push_back(Atom{"F", {term()}});
      }
    }
  }
  Mapping m = Mapping::FromTgds("m", src, tgt, tgds);
  std::vector<Tuple> rows(1 + rng.Uniform(4));
  for (Tuple& row : rows) {
    row = {instance::Value::Int64(static_cast<std::int64_t>(rng.Uniform(3))),
           instance::Value::Int64(static_cast<std::int64_t>(rng.Uniform(3)))};
  }
  // Drop source rows until the chase result has at most 8 nulls, which
  // keeps the exponential oracle cheap.
  Instance chased;
  while (true) {
    Instance db;
    db.DeclareRelation("S", 2);
    for (const Tuple& row : rows) db.InsertUnchecked("S", row);
    auto result = chase::RunChase(m, db);
    ASSERT_TRUE(result.ok()) << result.status();
    std::set<instance::Value> nulls;
    for (const auto& [name, rel] : result->target.relations()) {
      for (const Tuple& t : rel.tuples()) {
        for (const instance::Value& v : t) {
          if (v.is_labeled_null()) nulls.insert(v);
        }
      }
    }
    if (nulls.size() <= 8 || rows.size() == 1) {
      ASSERT_LE(nulls.size(), 8u);
      chased = std::move(result->target);
      break;
    }
    rows.pop_back();
  }
  Instance core = chase::ComputeCore(chased);
  EXPECT_TRUE(chase::reference::IsCore(core))
      << "not minimal:\n" << core.ToString() << "chase result:\n"
      << chased.ToString();
  EXPECT_TRUE(chase::reference::HomEquivalent(core, chased))
      << core.ToString();
  EXPECT_EQ(core.Minus(chased).TotalTuples(), 0u)
      << "the core is not a subinstance of the chase result";
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoreMinimalityProperty,
                         ::testing::Range(1, 101));

// ---------------------------------------------------------------------------
// Diff/Extract complement across random schemas.
// ---------------------------------------------------------------------------

class DiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffProperty, ExtractJoinDiffIsLossless) {
  workload::Rng rng(static_cast<std::uint64_t>(GetParam()));
  model::Schema source =
      workload::RandomRelationalSchema("Src", 3 + GetParam() % 4, 6, &rng);

  // Mapping that carries the key plus every even attribute.
  model::Schema target("Half", model::Metamodel::kRelational);
  std::vector<logic::Tgd> tgds;
  for (const model::Relation& r : source.relations()) {
    std::vector<model::Attribute> kept;
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < r.arity(); ++i) {
      if (i == 0 || i % 2 == 0) {
        kept.push_back(r.attribute(i));
        positions.push_back(i);
      }
    }
    target.AddRelation(model::Relation(r.name() + "_h", kept, {0}));
    logic::Tgd tgd;
    Atom body;
    body.relation = r.name();
    for (std::size_t i = 0; i < r.arity(); ++i) {
      body.terms.push_back(Term::Var("x" + std::to_string(i)));
    }
    Atom head;
    head.relation = r.name() + "_h";
    for (std::size_t p : positions) {
      head.terms.push_back(Term::Var("x" + std::to_string(p)));
    }
    tgd.body = {std::move(body)};
    tgd.head = {std::move(head)};
    tgds.push_back(std::move(tgd));
  }
  Mapping mapping = Mapping::FromTgds("half", source, target, tgds);

  auto extract = diff::Extract(mapping);
  auto complement = diff::Diff(mapping);
  ASSERT_TRUE(extract.ok() && complement.ok());
  Instance db = workload::RandomInstance(source, 12, &rng);
  auto e = diff::Apply(*extract, db);
  auto d = diff::Apply(*complement, db);
  ASSERT_TRUE(e.ok() && d.ok());
  auto rebuilt = diff::Reconstruct(source, *extract, *e, *complement, *d);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(rebuilt->Equals(db));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiffProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Merge size formula and projection-mapping sanity across densities.
// ---------------------------------------------------------------------------

class MergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergeProperty, SizeFormulaHolds) {
  workload::Rng rng(static_cast<std::uint64_t>(GetParam() + 100));
  model::Schema left = workload::RandomRelationalSchema("L", 5, 5, &rng);
  workload::PerturbedSchema right = workload::PerturbNames(left, &rng);
  std::size_t take =
      right.reference.size() * static_cast<std::size_t>(GetParam() * 12) /
      100;
  take = std::min(take, right.reference.size());
  std::vector<match::Correspondence> corrs(
      right.reference.begin(),
      right.reference.begin() + static_cast<std::ptrdiff_t>(take));

  auto result = merge::Merge(left, right.schema, corrs);
  ASSERT_TRUE(result.ok()) << result.status();
  std::size_t total_left = 0;
  std::size_t total_right = 0;
  std::size_t merged = 0;
  for (const model::Relation& r : left.relations()) total_left += r.arity();
  for (const model::Relation& r : right.schema.relations()) {
    total_right += r.arity();
  }
  for (const model::Relation& r : result->merged.relations()) {
    merged += r.arity();
  }
  EXPECT_EQ(merged,
            total_left + total_right - result->stats.attributes_merged);
  EXPECT_TRUE(result->to_left.Validate().ok());
  EXPECT_TRUE(result->to_right.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MergeProperty, ::testing::Range(0, 9));

// ---------------------------------------------------------------------------
// Compiled loaders and rewriting agree with the chase.
// ---------------------------------------------------------------------------

class ExecutionAgreementProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExecutionAgreementProperty, CompiledLoadEqualsChase) {
  auto [seed, attrs] = GetParam();
  workload::EvolutionChain chain =
      workload::MakeEvolutionChain(1, static_cast<std::size_t>(attrs));
  workload::Rng rng(static_cast<std::uint64_t>(seed));
  Instance db = workload::MakeChainInstance(chain, 10, &rng);
  const Mapping& mapping = chain.steps[0];
  auto compiled = transgen::CompileRelationalMapping(mapping);
  ASSERT_TRUE(compiled.ok());
  auto fast = transgen::ExecuteCompiledMapping(*compiled, mapping, db);
  auto slow = chase::RunChase(mapping, db);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_TRUE(fast->Equals(slow->target));
}

TEST_P(ExecutionAgreementProperty, RewriteEqualsMaterializeThenQuery) {
  auto [seed, attrs] = GetParam();
  workload::EvolutionChain chain =
      workload::MakeEvolutionChain(1, static_cast<std::size_t>(attrs));
  workload::Rng rng(static_cast<std::uint64_t>(seed));
  Instance db = workload::MakeChainInstance(chain, 10, &rng);
  const Mapping& mapping = chain.steps[0];

  // Query: project the key of the first target relation.
  const model::Relation& target_rel = mapping.target().relations()[0];
  ConjunctiveQuery q;
  q.head = Atom{"Q", {Term::Var("k")}};
  Atom body;
  body.relation = target_rel.name();
  body.terms.push_back(Term::Var("k"));
  for (std::size_t i = 1; i < target_rel.arity(); ++i) {
    body.terms.push_back(Term::Var("v" + std::to_string(i)));
  }
  q.body = {body};

  auto fast = rewrite::AnswerOnSource(mapping, q, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto chased = chase::RunChase(mapping, db);
  ASSERT_TRUE(chased.ok());
  auto slow = chase::CertainAnswers(q, chased->target);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(std::set<Tuple>(fast->begin(), fast->end()),
            std::set<Tuple>(slow->begin(), slow->end()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecutionAgreementProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(2, 4, 6)));

// ---------------------------------------------------------------------------
// Text round-trips across random schemas and instances.
// ---------------------------------------------------------------------------

class TextProperty : public ::testing::TestWithParam<int> {};

TEST_P(TextProperty, SchemaAndInstanceSurviveRoundTrip) {
  workload::Rng rng(static_cast<std::uint64_t>(GetParam() + 7));
  model::Schema schema =
      workload::RandomRelationalSchema("T", 4, 5, &rng);
  auto parsed_schema = text::ParseSchema(text::SchemaToText(schema));
  ASSERT_TRUE(parsed_schema.ok()) << parsed_schema.status();
  EXPECT_EQ(parsed_schema->relations().size(), schema.relations().size());
  EXPECT_EQ(text::SchemaToText(*parsed_schema), text::SchemaToText(schema));

  Instance db = workload::RandomInstance(schema, 6, &rng);
  auto parsed_db = text::ParseInstance(text::InstanceToText(db));
  ASSERT_TRUE(parsed_db.ok()) << parsed_db.status();
  EXPECT_TRUE(parsed_db->Equals(db));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TextProperty, ::testing::Range(1, 8));

}  // namespace
}  // namespace mm2
