// Incremental exchange: delta-driven target maintenance (runtime layer)
// and its two satellites — the canonical-null-renaming comparator
// InstanceEqualsUpToNulls and tombstone-aware DeltaViewSince slices.
//
// The centerpiece is a 100-seed differential sweep: random head-disjoint
// mappings, random insert/erase batches, MaintainExchange vs a full
// re-chase of the mutated source. The maintained target must be equal to
// the re-chased one up to a labeled-null bijection, with identical certain
// answers (the null-free tuples), and the returned target delta must
// replay the old target into the new one exactly. Both sweeps also compare
// the maintained target with the tests-only reference chase of
// reference_chase.h, which shares no matcher or chase code with src/.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "reference_chase.h"
#include "runtime/runtime.h"
#include "workload/generators.h"

namespace mm2::runtime {
namespace {

using instance::Instance;
using instance::InstanceEqualsUpToNulls;
using instance::RelationInstance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::Egd;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using workload::Rng;

Term V(const std::string& name) { return Term::Var(name); }

// ---------------------------------------------------------------------------
// InstanceEqualsUpToNulls
// ---------------------------------------------------------------------------

TEST(EqualsUpToNullsTest, GroundInstancesCompareExactly) {
  Instance a;
  a.DeclareRelation("R", 2);
  ASSERT_TRUE(a.Insert("R", {Value::Int64(1), Value::String("x")}).ok());
  Instance b = a;
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, b));
  ASSERT_TRUE(b.Insert("R", {Value::Int64(2), Value::String("y")}).ok());
  EXPECT_FALSE(InstanceEqualsUpToNulls(a, b));
}

TEST(EqualsUpToNullsTest, RenamedNullsAreEqual) {
  Instance a;
  a.DeclareRelation("R", 2);
  a.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(10)});
  a.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(11)});
  Instance b;
  b.DeclareRelation("R", 2);
  b.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(77)});
  b.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(33)});
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, b));
}

TEST(EqualsUpToNullsTest, SharedNullStructureMustMatch) {
  // Left shares one null across two rows; right uses two distinct nulls.
  // No bijection can align them.
  Instance a;
  a.DeclareRelation("R", 2);
  a.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(5)});
  a.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(5)});
  Instance b;
  b.DeclareRelation("R", 2);
  b.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(8)});
  b.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(9)});
  EXPECT_FALSE(InstanceEqualsUpToNulls(a, b));
}

TEST(EqualsUpToNullsTest, CrossRelationBijectionIsGlobal) {
  // The same null appearing in two relations must map consistently.
  Instance a;
  a.DeclareRelation("R", 1);
  a.DeclareRelation("S", 1);
  a.InsertUnchecked("R", {Value::LabeledNull(1)});
  a.InsertUnchecked("S", {Value::LabeledNull(1)});
  Instance b;
  b.DeclareRelation("R", 1);
  b.DeclareRelation("S", 1);
  b.InsertUnchecked("R", {Value::LabeledNull(2)});
  b.InsertUnchecked("S", {Value::LabeledNull(3)});
  EXPECT_FALSE(InstanceEqualsUpToNulls(a, b));
  // Aligning S to the same null restores the bijection.
  Instance c;
  c.DeclareRelation("R", 1);
  c.DeclareRelation("S", 1);
  c.InsertUnchecked("R", {Value::LabeledNull(2)});
  c.InsertUnchecked("S", {Value::LabeledNull(2)});
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, c));
}

TEST(EqualsUpToNullsTest, EmptyRelationsAreIgnored) {
  Instance a;
  a.DeclareRelation("R", 1);
  a.DeclareRelation("Empty", 3);
  a.InsertUnchecked("R", {Value::Int64(1)});
  Instance b;
  b.DeclareRelation("R", 1);
  b.InsertUnchecked("R", {Value::Int64(1)});
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, b));
}

// ---------------------------------------------------------------------------
// Tombstone-aware DeltaViewSince
// ---------------------------------------------------------------------------

Tuple Row2(std::int64_t a, std::int64_t b) {
  return {Value::Int64(a), Value::Int64(b)};
}

// Materializes every row of a view (refs then slices).
std::multiset<Tuple> ViewRows(const instance::DeltaView& view) {
  std::multiset<Tuple> rows;
  view.ForEachRow(0, view.size(), [&](const Tuple& t) {
    rows.insert(t);
    return true;
  });
  return rows;
}

TEST(TombstoneDeltaViewTest, EraseInOneRunKeepsOtherRunsSliced) {
  RelationInstance rel(2);
  // Run 0: a large sealed batch; run 1: a small later batch (sizes differ
  // enough that tiered compaction keeps them separate).
  for (std::int64_t i = 0; i < 16; ++i) rel.Insert(Row2(i, i));
  rel.PrepareSegments();
  const std::size_t run0_end = rel.Watermark();
  rel.Insert(Row2(100, 100));
  rel.Insert(Row2(101, 101));
  rel.PrepareSegments();
  ASSERT_GE(rel.segment_shape().live_segments, 2u);

  // Erase a row sealed into run 0. Watermarks at run 0's end must still see
  // run 1 as a zero-copy slice — the erase only poisons run 0.
  ASSERT_TRUE(rel.Erase(Row2(3, 3)));
  instance::DeltaView later = rel.DeltaViewSince(run0_end);
  EXPECT_TRUE(later.sliced);
  EXPECT_EQ(later.size(), rel.DeltaSince(run0_end).size());

  // A watermark-0 view walks run 0 through tombstone-skipping refs: same
  // rows as the plain delta, erased row excluded.
  instance::DeltaView full = rel.DeltaViewSince(0);
  EXPECT_EQ(full.size(), rel.DeltaSince(0).size());
  std::multiset<Tuple> rows = ViewRows(full);
  EXPECT_EQ(rows.count(Row2(3, 3)), 0u);
  EXPECT_EQ(rows.count(Row2(100, 100)), 1u);
  EXPECT_EQ(rows.size(), 17u);
}

TEST(TombstoneDeltaViewTest, UnsealedSuffixSkipsTombstones) {
  RelationInstance rel(2);
  for (std::int64_t i = 0; i < 8; ++i) rel.Insert(Row2(i, i));
  rel.PrepareSegments();
  const std::size_t mark = rel.Watermark();
  // Post-seal epoch: inserts and an erase of one of them, all unsealed.
  rel.Insert(Row2(50, 50));
  rel.Insert(Row2(51, 51));
  ASSERT_TRUE(rel.Erase(Row2(50, 50)));
  instance::DeltaView view = rel.DeltaViewSince(mark);
  EXPECT_EQ(view.size(), rel.DeltaSince(mark).size());
  std::multiset<Tuple> rows = ViewRows(view);
  EXPECT_EQ(rows.count(Row2(50, 50)), 0u);
  EXPECT_EQ(rows.count(Row2(51, 51)), 1u);
}

TEST(TombstoneDeltaViewTest, SizeContractHoldsAcrossWatermarks) {
  RelationInstance rel(2);
  Rng rng(42);
  for (std::int64_t i = 0; i < 12; ++i) rel.Insert(Row2(i, i));
  rel.PrepareSegments();
  for (std::int64_t i = 12; i < 15; ++i) rel.Insert(Row2(i, i));
  rel.PrepareSegments();
  ASSERT_TRUE(rel.Erase(Row2(2, 2)));
  ASSERT_TRUE(rel.Erase(Row2(13, 13)));
  rel.Insert(Row2(99, 99));
  for (std::size_t mark = 0; mark <= rel.Watermark(); ++mark) {
    instance::DeltaView view = rel.DeltaViewSince(mark);
    auto refs = rel.DeltaSince(mark);
    ASSERT_EQ(view.size(), refs.size()) << "watermark " << mark;
    std::multiset<Tuple> expect;
    for (const Tuple* t : refs) expect.insert(*t);
    ASSERT_EQ(ViewRows(view), expect) << "watermark " << mark;
  }
}

// ---------------------------------------------------------------------------
// Targeted DRed cases
// ---------------------------------------------------------------------------

// R(x, y) -> T(y): T(5) is derivable from two source rows, but provenance
// records only the first derivation (duplicate insertions are no-ops).
// Deleting the recorded witness must over-delete T(5) and then re-derive it
// from the surviving row — the returned delta is empty.
TEST(MaintainDRedTest, OverDeleteThenRederiveSharedFact) {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "R", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(
      model::Relation("T", {{"b", model::DataType::Int64(), false}}, {}));
  Tgd tgd;
  tgd.body = {Atom{"R", {V("x"), V("y")}}};
  tgd.head = {Atom{"T", {V("y")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {tgd});

  Instance source = Instance::EmptyFor(src);
  ASSERT_TRUE(source.Insert("R", Row2(1, 5)).ok());
  ASSERT_TRUE(source.Insert("R", Row2(2, 5)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(session.target.Find("T")->Contains({Value::Int64(5)}));

  Delta delta;
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 5));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_TRUE(maintained.value().Empty());
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_TRUE(session.target.Find("T")->Contains({Value::Int64(5)}));

  // Deleting the second row removes the last derivation for good.
  Delta delta2;
  delta2.deletes.DeclareRelation("R", 2);
  delta2.deletes.InsertUnchecked("R", Row2(2, 5));
  auto maintained2 = MaintainExchange(session, delta2);
  ASSERT_TRUE(maintained2.ok()) << maintained2.status().message();
  EXPECT_EQ(maintained2.value().deletes.TotalTuples(), 1u);
  EXPECT_EQ(session.target.Find("T")->size(), 0u);
  EXPECT_EQ(session.fallbacks, 0u);
}

// One deleted source row feeds two rules (a copy and a join): both derived
// facts must go, in one maintain.
TEST(MaintainDRedTest, CascadingDeleteAcrossRules) {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "R", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  src.AddRelation(model::Relation(
      "S", {{"b", model::DataType::Int64(), false},
            {"c", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "A", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  tgt.AddRelation(model::Relation(
      "B", {{"a", model::DataType::Int64(), false},
            {"c", model::DataType::Int64(), false}}, {}));
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"A", {V("x"), V("y")}}};
  Tgd join;
  join.body = {Atom{"R", {V("x"), V("y")}}, Atom{"S", {V("y"), V("z")}}};
  join.head = {Atom{"B", {V("x"), V("z")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {copy, join});

  Instance source = Instance::EmptyFor(src);
  ASSERT_TRUE(source.Insert("R", Row2(1, 5)).ok());
  ASSERT_TRUE(source.Insert("S", Row2(5, 7)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(session.target.Find("B")->Contains(Row2(1, 7)));

  Delta delta;
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 5));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(maintained.value().deletes.TotalTuples(), 2u);
  EXPECT_EQ(session.target.Find("A")->size(), 0u);
  EXPECT_EQ(session.target.Find("B")->size(), 0u);
  EXPECT_EQ(session.fallbacks, 0u);
}

// Egd-merged nulls: S(k) invents P(k,n) and R(k,v) copies P(k,v) in the
// same round; the key egd then unifies the null with the ground value,
// leaving one merged target fact holding BOTH derivations as witnesses.
// (The existential tgd must run first — the restricted probe would see a
// ground P(k,v) as satisfying ∃n P(k,n) and never invent the null.)
Mapping KeyedExistentialMapping() {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "S", {{"k", model::DataType::Int64(), false}}, {}));
  src.AddRelation(model::Relation(
      "R", {{"k", model::DataType::Int64(), false},
            {"v", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "P", {{"k", model::DataType::Int64(), false},
            {"n", model::DataType::Int64(), false}}, {}));
  Tgd exist;
  exist.body = {Atom{"S", {V("k")}}};
  exist.head = {Atom{"P", {V("k"), V("n")}}};  // n existential
  Tgd copy;
  copy.body = {Atom{"R", {V("k"), V("v")}}};
  copy.head = {Atom{"P", {V("k"), V("v")}}};
  Egd key;
  key.body = {Atom{"P", {V("k"), V("n1")}}, Atom{"P", {V("k"), V("n2")}}};
  key.left = "n1";
  key.right = "n2";
  return Mapping::FromTgds("m", src, tgt, {exist, copy}, {key});
}

// Deleting one of the two derivations keeps the merged fact through its
// surviving witness — no fallback, no target change (the counting
// shortcut applied to an egd-merged fact).
TEST(MaintainDRedTest, EgdMergedFactKeptBySurvivingWitness) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  ASSERT_TRUE(source.Insert("R", Row2(1, 10)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  // The egd merged the invented null into the ground copy.
  ASSERT_EQ(session.target.Find("P")->size(), 1u);
  ASSERT_TRUE(session.target.Find("P")->Contains(Row2(1, 10)));

  Delta delta;
  delta.deletes.DeclareRelation("S", 1);
  delta.deletes.InsertUnchecked("S", {Value::Int64(1)});
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_TRUE(maintained.value().Empty());
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(session.target.Find("P")->size(), 1u);

  // Cross-check against a from-scratch exchange of the mutated source.
  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));
}

// The mirror case: deleting the ground copy keeps the merged fact through
// the existential's witness, but the merge itself lost its ground — the
// invented null must come back, so the maintain falls back to a re-chase.
TEST(MaintainDRedTest, DeletingMergeAnchorFallsBackToRechase) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  ASSERT_TRUE(source.Insert("R", Row2(1, 10)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(session.target.Find("P")->Contains(Row2(1, 10)));

  Delta delta;
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 10));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 1u);
  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
      << "maintained:\n" << session.target.ToString() << "\nrechased:\n"
      << full.value().target.ToString();
}

// Deleting BOTH derivations over-deletes the merged fact, which witnessed
// the unification — the maintain must fall back to a full re-chase and
// still land on the right instance.
TEST(MaintainDRedTest, DeletingMergedFactFallsBackToRechase) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  ASSERT_TRUE(source.Insert("R", Row2(1, 10)).ok());
  ASSERT_TRUE(source.Insert("R", Row2(2, 30)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_EQ(session.target.Find("P")->size(), 2u);

  // Remove both derivations of the merged P(1,10): the DRed candidate is a
  // unification witness, so the maintain must rebuild from scratch.
  Delta delta;
  delta.deletes.DeclareRelation("S", 1);
  delta.deletes.InsertUnchecked("S", {Value::Int64(1)});
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 10));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 1u);
  EXPECT_EQ(session.target.Find("P")->size(), 1u);
  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));

  // The session survives the fallback: later maintains resume normally.
  Delta insert;
  insert.inserts.DeclareRelation("R", 2);
  insert.inserts.InsertUnchecked("R", Row2(3, 40));
  auto maintained2 = MaintainExchange(session, insert);
  ASSERT_TRUE(maintained2.ok()) << maintained2.status().message();
  EXPECT_EQ(maintained2.value().inserts.TotalTuples(), 1u);
  EXPECT_EQ(session.fallbacks, 1u);
}

// Insert-only maintain with an egd merge at maintain time: the null
// invented at Begin is unified with a ground copy arriving via the delta,
// and RewriteValue books the -null/+ground pair into the reported delta.
TEST(MaintainDRedTest, InsertOnlyMaintainMatchesRechase) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_EQ(session.target.Find("P")->size(), 1u);
  Instance before = session.target;

  Delta delta;
  delta.inserts.DeclareRelation("R", 2);
  delta.inserts.InsertUnchecked("R", Row2(1, 30));  // same key: egd merges
  delta.inserts.InsertUnchecked("R", Row2(2, 40));  // new key: ground copy
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(session.target.Find("P")->size(), 2u);
  EXPECT_TRUE(session.target.Find("P")->Contains(Row2(1, 30)));
  EXPECT_TRUE(session.target.Find("P")->Contains(Row2(2, 40)));
  // The merge retracts the invented null: one delete, two inserts, and
  // replaying the delta onto the pre-maintain target lands exactly on the
  // maintained instance.
  EXPECT_EQ(maintained.value().deletes.TotalTuples(), 1u);
  EXPECT_EQ(maintained.value().inserts.TotalTuples(), 2u);
  ASSERT_TRUE(ApplyDelta(maintained.value(), &before).ok());
  EXPECT_TRUE(before.Equals(session.target));

  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));
}

// A maintain that erases from and inserts into the session source, after
// the first chase sealed it: the source keeps its runs, the rebuild of the
// erase-dirtied relation is deferred (the join's prefix probes decline to
// the hash index instead), and the target still matches a fresh exchange.
TEST(MaintainDRedTest, SealedSourceDefersRebuild) {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "R", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "T", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  tgt.AddRelation(model::Relation(
      "U", {{"a", model::DataType::Int64(), false},
            {"c", model::DataType::Int64(), false},
            {"e", model::DataType::Int64(), false}}, {}));
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"T", {V("x"), V("y")}}};
  Tgd path;
  path.body = {Atom{"R", {V("x"), V("y")}}, Atom{"R", {V("y"), V("z")}}};
  path.head = {Atom{"U", {V("x"), V("z"), V("e")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {copy, path});

  Instance source = Instance::EmptyFor(src);
  for (std::int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(source.Insert("R", Row2(i, i + 1)).ok());
  }
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(session.source.Find("R")->SegmentCurrent());
  const instance::SegmentOpStats before = session.source.SegmentStatsTotal();

  Delta delta;
  delta.deletes.DeclareRelation("R", 2);
  delta.inserts.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(10, 11));
  delta.inserts.InsertUnchecked("R", Row2(40, 0));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 0u);

  const instance::SegmentOpStats after = session.source.SegmentStatsTotal();
  EXPECT_GT(after.deferred_rebuilds, before.deferred_rebuilds);
  EXPECT_GT(after.fallbacks, before.fallbacks);
  EXPECT_EQ(after.sealed_rows, before.sealed_rows);  // no full reseal
  EXPECT_FALSE(session.target.Find("T")->Contains(Row2(10, 11)));
  EXPECT_TRUE(session.target.Find("T")->Contains(Row2(40, 0)));

  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
      << "maintained:\n" << session.target.ToString() << "\nrechased:\n"
      << full.value().target.ToString();
}

TEST(MaintainDRedTest, BeginRejectsComputeCore) {
  Mapping m = KeyedExistentialMapping();
  ExchangeOptions options;
  options.compute_core = true;
  auto begun = BeginExchangeSession(m, Instance{}, options);
  EXPECT_FALSE(begun.ok());
}

// ---------------------------------------------------------------------------
// Skolem-memo collisions under egd merges
// ---------------------------------------------------------------------------

// Emp(e, d) -> Worker(e, g(d)), Boss(g(d), f(g(d))) with a key egd on
// Worker(e, .). Two departments of one employee merge g("a") into g("b"),
// which turns f(g("a")) and f(g("b")) into the same Skolem term: their
// images must merge as well, and the memo, provenance and session state
// must all move to the merged vocabulary.
Mapping NestedSkolemKeyMapping() {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "Emp", {{"eid", model::DataType::Int64(), false},
              {"dept", model::DataType::String(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "Worker", {{"eid", model::DataType::Int64(), false},
                 {"mgr", model::DataType::Int64(), false}}, {}));
  tgt.AddRelation(model::Relation(
      "Boss", {{"mgr", model::DataType::Int64(), false},
               {"chief", model::DataType::Int64(), false}}, {}));
  const Term g = Term::Func("g", {V("d")});
  logic::SoTgd so;
  so.functions = {"f", "g"};
  logic::SoTgdClause clause;
  clause.body = {Atom{"Emp", {V("e"), V("d")}}};
  clause.head = {Atom{"Worker", {V("e"), g}},
                 Atom{"Boss", {g, Term::Func("f", {g})}}};
  so.clauses = {clause};
  Egd key;
  key.body = {Atom{"Worker", {V("e"), V("m1")}},
              Atom{"Worker", {V("e"), V("m2")}}};
  key.left = "m1";
  key.right = "m2";
  return Mapping::FromSoTgd("m", src, tgt, so, {key});
}

Instance EmpSource() {
  Instance source;
  source.DeclareRelation("Emp", 2);
  source.InsertUnchecked("Emp", {Value::Int64(1), Value::String("a")});
  source.InsertUnchecked("Emp", {Value::Int64(1), Value::String("b")});
  return source;
}

TEST(SkolemCollisionTest, CollidingImagesMergeInOneChase) {
  auto result = chase::RunChase(NestedSkolemKeyMapping(), EmpSource());
  ASSERT_TRUE(result.ok()) << result.status().message();
  // g("a") = g("b") from the key, then f(...) = f(...) from the memo.
  EXPECT_EQ(result->stats.egd_unifications, 2u);
  EXPECT_EQ(result->target.Find("Worker")->size(), 1u);
  EXPECT_EQ(result->target.Find("Boss")->size(), 1u);
}

TEST(SkolemCollisionTest, MaintainResolvesMergedSkolemTerms) {
  Mapping m = NestedSkolemKeyMapping();
  auto begun = BeginExchangeSession(m, EmpSource());
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_EQ(session.target.Find("Boss")->size(), 1u);

  // A new employee of department "a" must land on the merged g("a").
  Delta delta;
  delta.inserts.DeclareRelation("Emp", 2);
  delta.inserts.InsertUnchecked("Emp", {Value::Int64(2), Value::String("a")});
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(session.target.Find("Boss")->size(), 1u);

  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok()) << full.status().message();
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
      << "maintained:\n" << session.target.ToString() << "\nrechased:\n"
      << full.value().target.ToString();
}

// ---------------------------------------------------------------------------
// 100-seed differential sweep
// ---------------------------------------------------------------------------

// A random head-disjoint mapping: every tgd writes its own target relation,
// so the resumed restricted chase and a from-scratch chase agree up to null
// renaming (cross-rule firing-order effects need overlapping heads). Bodies
// join on the shared key variable; heads project body variables and
// occasionally invent an existential.
struct SweepCase {
  Mapping mapping;
  Instance source;
  std::vector<std::size_t> arity;  // per source relation
};

SweepCase MakeSweepCase(Rng* rng) {
  const std::size_t nsrc = 2 + rng->Uniform(2);
  model::Schema src("Src", model::Metamodel::kRelational);
  std::vector<std::size_t> arity(nsrc);
  for (std::size_t i = 0; i < nsrc; ++i) {
    arity[i] = 2 + rng->Uniform(2);
    std::vector<model::Attribute> attrs;
    for (std::size_t c = 0; c < arity[i]; ++c) {
      attrs.push_back(
          {"c" + std::to_string(c), model::DataType::Int64(), false});
    }
    src.AddRelation(
        model::Relation("S" + std::to_string(i), std::move(attrs), {}));
  }

  const std::size_t ntgd = 2 + rng->Uniform(3);
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  std::vector<Tgd> tgds;
  for (std::size_t t = 0; t < ntgd; ++t) {
    Tgd tgd;
    std::vector<std::string> body_vars;
    const std::size_t natoms = 1 + rng->Uniform(2);
    for (std::size_t a = 0; a < natoms; ++a) {
      const std::size_t rel = rng->Uniform(nsrc);
      Atom atom;
      atom.relation = "S" + std::to_string(rel);
      for (std::size_t c = 0; c < arity[rel]; ++c) {
        // Position 0 is the key; atoms of one body share it (the join).
        std::string var = c == 0 ? "k"
                                 : "v" + std::to_string(a) + "_" +
                                       std::to_string(c);
        if (c != 0 || a == 0) body_vars.push_back(var);
        atom.terms.push_back(V(var));
      }
      tgd.body.push_back(std::move(atom));
    }
    const std::size_t head_arity = 1 + rng->Uniform(3);
    Atom head;
    head.relation = "T" + std::to_string(t);
    std::vector<model::Attribute> attrs;
    for (std::size_t c = 0; c < head_arity; ++c) {
      if (rng->Chance(0.25)) {
        head.terms.push_back(V("e" + std::to_string(c)));  // existential
      } else {
        head.terms.push_back(V(body_vars[rng->Uniform(body_vars.size())]));
      }
      attrs.push_back(
          {"h" + std::to_string(c), model::DataType::Int64(), false});
    }
    tgd.head.push_back(std::move(head));
    tgt.AddRelation(model::Relation(head.relation, std::move(attrs), {}));
    tgds.push_back(std::move(tgd));
  }

  SweepCase out{Mapping::FromTgds("sweep", src, tgt, std::move(tgds)),
                Instance::EmptyFor(src), std::move(arity)};
  const std::size_t rows = 6 + rng->Uniform(10);
  for (std::size_t i = 0; i < out.arity.size(); ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      Tuple tuple;
      tuple.push_back(Value::Int64(static_cast<std::int64_t>(r)));
      for (std::size_t c = 1; c < out.arity[i]; ++c) {
        tuple.push_back(
            Value::Int64(static_cast<std::int64_t>(rng->Uniform(20))));
      }
      out.source.InsertUnchecked("S" + std::to_string(i), std::move(tuple));
    }
  }
  return out;
}

// A random batch against the session's current source: brand-new keyed
// rows, duplicates of existing rows (join fan-out on shared keys), and
// erases of existing rows.
Delta MakeRandomDelta(const SweepCase& c, const Instance& current,
                      std::size_t epoch, Rng* rng) {
  Delta delta;
  for (std::size_t i = 0; i < c.arity.size(); ++i) {
    const std::string name = "S" + std::to_string(i);
    delta.inserts.DeclareRelation(name, c.arity[i]);
    delta.deletes.DeclareRelation(name, c.arity[i]);
    const std::size_t ninserts = rng->Uniform(4);
    for (std::size_t j = 0; j < ninserts; ++j) {
      Tuple tuple;
      // Half the inserts reuse live key range (extending joins), half
      // introduce fresh keys.
      const std::int64_t key =
          rng->Chance(0.5)
              ? static_cast<std::int64_t>(rng->Uniform(16))
              : static_cast<std::int64_t>(1000 + epoch * 100 + j);
      tuple.push_back(Value::Int64(key));
      for (std::size_t col = 1; col < c.arity[i]; ++col) {
        tuple.push_back(
            Value::Int64(static_cast<std::int64_t>(rng->Uniform(20))));
      }
      const RelationInstance* rel = current.Find(name);
      if (rel != nullptr && rel->Contains(tuple)) continue;
      if (delta.inserts.Find(name)->Contains(tuple)) continue;
      delta.inserts.InsertUnchecked(name, std::move(tuple));
    }
    const RelationInstance* rel = current.Find(name);
    if (rel == nullptr || rel->size() == 0) continue;
    std::vector<Tuple> live(rel->tuples().begin(), rel->tuples().end());
    const std::size_t nerases = rng->Uniform(3);
    std::set<std::size_t> picked;
    for (std::size_t j = 0; j < nerases && picked.size() < live.size(); ++j) {
      std::size_t idx = rng->Uniform(live.size());
      if (!picked.insert(idx).second) continue;
      delta.deletes.InsertUnchecked(name, live[idx]);
    }
  }
  return delta;
}

TEST(IncrementalSweepTest, HundredSeedsMatchFullRechase) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    SweepCase c = MakeSweepCase(&rng);
    auto begun = BeginExchangeSession(c.mapping, c.source);
    ASSERT_TRUE(begun.ok()) << "seed " << seed << ": "
                            << begun.status().message();
    ExchangeSession session = std::move(begun.value());

    const std::size_t epochs = 2 + rng.Uniform(2);
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      Delta delta = MakeRandomDelta(c, session.source, epoch, &rng);
      Instance before = session.target;
      auto maintained = MaintainExchange(session, delta);
      ASSERT_TRUE(maintained.ok())
          << "seed " << seed << " epoch " << epoch << ": "
          << maintained.status().message();

      // The returned delta replays the old target into the new one.
      ASSERT_TRUE(ApplyDelta(maintained.value(), &before).ok())
          << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(before.Equals(session.target))
          << "seed " << seed << " epoch " << epoch;

      // Differential: a full exchange of the mutated source, and the
      // reference chase of it, agree up to null renaming.
      auto full = Exchange(c.mapping, session.source, ExchangeOptions{});
      ASSERT_TRUE(full.ok()) << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
          << "seed " << seed << " epoch " << epoch << "\nmaintained:\n"
          << session.target.ToString() << "\nrechased:\n"
          << full.value().target.ToString();
      auto ref = chase::reference::ReferenceRunChase(c.mapping, session.source);
      ASSERT_TRUE(ref.ok()) << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(InstanceEqualsUpToNulls(session.target, ref.value().target))
          << "seed " << seed << " epoch " << epoch << "\nmaintained:\n"
          << session.target.ToString() << "\nreference:\n"
          << ref.value().target.ToString();

      // Certain answers (null-free rows per relation) are identical, not
      // just isomorphic.
      for (const auto& [name, rel] : full.value().target.relations()) {
        std::set<Tuple> expect;
        for (const Tuple& t : rel.tuples()) {
          bool ground = true;
          for (const Value& v : t) ground &= !v.is_labeled_null();
          if (ground) expect.insert(t);
        }
        std::set<Tuple> got;
        const RelationInstance* mine = session.target.Find(name);
        if (mine != nullptr) {
          for (const Tuple& t : mine->tuples()) {
            bool ground = true;
            for (const Value& v : t) ground &= !v.is_labeled_null();
            if (ground) got.insert(t);
          }
        }
        ASSERT_EQ(got, expect)
            << "seed " << seed << " epoch " << epoch << " relation " << name;
      }
    }
    // Egd-free head-disjoint sweeps never hit the unification fallback.
    EXPECT_EQ(session.fallbacks, 0u) << "seed " << seed;
  }
}

// A random second-order case next to key egds: every clause writes its
// own target relation, and on a keyed relation the second column is a
// Skolem term over a non-key body variable, f(v) or g(f(v)), so the key
// egd merges the nulls of one key and Skolem terms over merged nulls
// collide in the memo. Each clause's remaining head columns mix body
// variables and nested Skolem terms.
SweepCase MakeSkolemSweepCase(Rng* rng) {
  const std::size_t nsrc = 2 + rng->Uniform(2);
  model::Schema src("Src", model::Metamodel::kRelational);
  std::vector<std::size_t> arity(nsrc);
  for (std::size_t i = 0; i < nsrc; ++i) {
    arity[i] = 2 + rng->Uniform(2);
    std::vector<model::Attribute> attrs;
    for (std::size_t c = 0; c < arity[i]; ++c) {
      attrs.push_back(
          {"c" + std::to_string(c), model::DataType::Int64(), false});
    }
    src.AddRelation(
        model::Relation("S" + std::to_string(i), std::move(attrs), {}));
  }
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  logic::SoTgd so;
  so.functions = {"f", "g"};
  std::vector<Egd> egds;
  const std::size_t nclauses = 2 + rng->Uniform(2);
  for (std::size_t t = 0; t < nclauses; ++t) {
    logic::SoTgdClause clause;
    std::vector<std::string> values;  // non-key body variables
    const std::size_t natoms = 1 + rng->Uniform(2);
    for (std::size_t a = 0; a < natoms; ++a) {
      const std::size_t rel = rng->Uniform(nsrc);
      Atom atom;
      atom.relation = "S" + std::to_string(rel);
      for (std::size_t c = 0; c < arity[rel]; ++c) {
        std::string var = c == 0 ? "k"
                                 : "v" + std::to_string(a) + "_" +
                                       std::to_string(c);
        if (c != 0) values.push_back(var);
        atom.terms.push_back(V(var));
      }
      clause.body.push_back(std::move(atom));
    }
    auto value = [&] { return V(values[rng->Uniform(values.size())]); };
    auto skolem = [&]() -> Term {
      Term inner = Term::Func("f", {value()});
      return rng->Chance(0.5) ? Term::Func("g", {inner}) : inner;
    };
    const bool keyed = rng->Chance(0.6);
    const std::size_t head_arity = 2 + rng->Uniform(2);
    Atom head;
    head.relation = "T" + std::to_string(t);
    std::vector<model::Attribute> attrs;
    for (std::size_t c = 0; c < head_arity; ++c) {
      if (c == 0) {
        head.terms.push_back(V("k"));
      } else if ((c == 1 && keyed) || rng->Chance(0.4)) {
        head.terms.push_back(skolem());
      } else {
        head.terms.push_back(value());
      }
      attrs.push_back(
          {"h" + std::to_string(c), model::DataType::Int64(), false});
    }
    if (keyed) {
      Egd key;
      Atom a1{head.relation, {V("k"), V("m1")}};
      Atom a2{head.relation, {V("k"), V("m2")}};
      for (std::size_t c = 2; c < head_arity; ++c) {
        a1.terms.push_back(V("p" + std::to_string(c)));
        a2.terms.push_back(V("q" + std::to_string(c)));
      }
      key.body = {std::move(a1), std::move(a2)};
      key.left = "m1";
      key.right = "m2";
      egds.push_back(std::move(key));
    }
    clause.head.push_back(std::move(head));
    tgt.AddRelation(model::Relation("T" + std::to_string(t), std::move(attrs),
                                    {}));
    so.clauses.push_back(std::move(clause));
  }
  SweepCase out{Mapping::FromSoTgd("sweep", src, tgt, std::move(so),
                                   std::move(egds)),
                Instance::EmptyFor(src), std::move(arity)};
  const std::size_t rows = 6 + rng->Uniform(10);
  for (std::size_t i = 0; i < out.arity.size(); ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      Tuple tuple;
      // Few keys, so one key carries several rows and the egds merge.
      tuple.push_back(Value::Int64(static_cast<std::int64_t>(r % 5)));
      for (std::size_t c = 1; c < out.arity[i]; ++c) {
        tuple.push_back(
            Value::Int64(static_cast<std::int64_t>(rng->Uniform(20))));
      }
      out.source.InsertUnchecked("S" + std::to_string(i), std::move(tuple));
    }
  }
  return out;
}

// Maintain == re-chase over the second-order cases. Deletions that touch
// a unification witness fall back to a re-chase; every other maintain
// must resolve merged Skolem terms exactly as a fresh exchange does.
TEST(IncrementalSweepTest, SkolemEgdSweepMatchesFullRechase) {
  std::size_t merged = 0;
  std::size_t incremental = 0;  // maintains answered without a re-chase
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 2237);
    SweepCase c = MakeSkolemSweepCase(&rng);
    auto begun = BeginExchangeSession(c.mapping, c.source);
    ASSERT_TRUE(begun.ok()) << "seed " << seed << ": "
                            << begun.status().message();
    ExchangeSession session = std::move(begun.value());
    merged += session.state.unification_witnesses.size();
    const std::size_t epochs = 2 + rng.Uniform(2);
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      Delta delta = MakeRandomDelta(c, session.source, epoch, &rng);
      Instance before = session.target;
      const std::size_t fallbacks = session.fallbacks;
      auto maintained = MaintainExchange(session, delta);
      ASSERT_TRUE(maintained.ok())
          << "seed " << seed << " epoch " << epoch << ": "
          << maintained.status().message();
      if (session.fallbacks == fallbacks) ++incremental;
      ASSERT_TRUE(ApplyDelta(maintained.value(), &before).ok())
          << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(before.Equals(session.target))
          << "seed " << seed << " epoch " << epoch;
      auto full = Exchange(c.mapping, session.source, ExchangeOptions{});
      ASSERT_TRUE(full.ok()) << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
          << "seed " << seed << " epoch " << epoch << "\nmaintained:\n"
          << session.target.ToString() << "\nrechased:\n"
          << full.value().target.ToString();
    }
  }
  // The sweep must actually merge nulls and maintain some deltas in place,
  // or it tests nothing new.
  EXPECT_GT(merged, 0u);
  EXPECT_GT(incremental, 0u);
}

// The sweep again over other seeds, against the reference only: the
// maintain path must give the reference's answers while deltas ride
// tombstone-aware segment slices and the sealed session source defers its
// erase-dirtied rebuilds — which the sweep must actually exercise.
TEST(IncrementalSweepTest, SegmentedStorageSweep) {
  std::uint64_t deferred = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    SweepCase c = MakeSweepCase(&rng);
    auto begun = BeginExchangeSession(c.mapping, c.source);
    ASSERT_TRUE(begun.ok()) << "seed " << seed;
    ExchangeSession session = std::move(begun.value());
    for (std::size_t epoch = 0; epoch < 2; ++epoch) {
      Delta delta = MakeRandomDelta(c, session.source, epoch, &rng);
      const std::uint64_t deferred0 =
          session.source.SegmentStatsTotal().deferred_rebuilds;
      auto maintained = MaintainExchange(session, delta);
      ASSERT_TRUE(maintained.ok())
          << "seed " << seed << " epoch " << epoch << ": "
          << maintained.status().message();
      deferred +=
          session.source.SegmentStatsTotal().deferred_rebuilds - deferred0;
      auto ref = chase::reference::ReferenceRunChase(c.mapping, session.source);
      ASSERT_TRUE(ref.ok());
      ASSERT_TRUE(InstanceEqualsUpToNulls(session.target, ref.value().target))
          << "seed " << seed << " epoch " << epoch;
    }
  }
  EXPECT_GT(deferred, 0u);
}

}  // namespace
}  // namespace mm2::runtime
