#include <gtest/gtest.h>

#include "model/schema.h"
#include "modelgen/modelgen.h"
#include "runtime/runtime.h"
#include "transgen/transgen.h"

namespace mm2::runtime {
namespace {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

Term V(const char* name) { return Term::Var(name); }

TEST(DeltaTest, DiffAndApplyRoundtrip) {
  Instance before;
  before.DeclareRelation("R", 1);
  ASSERT_TRUE(before.Insert("R", {Value::Int64(1)}).ok());
  ASSERT_TRUE(before.Insert("R", {Value::Int64(2)}).ok());
  Instance after;
  after.DeclareRelation("R", 1);
  ASSERT_TRUE(after.Insert("R", {Value::Int64(2)}).ok());
  ASSERT_TRUE(after.Insert("R", {Value::Int64(3)}).ok());

  Delta delta = DiffInstances(before, after);
  EXPECT_EQ(delta.Size(), 2u);
  EXPECT_TRUE(delta.inserts.Find("R")->Contains({Value::Int64(3)}));
  EXPECT_TRUE(delta.deletes.Find("R")->Contains({Value::Int64(1)}));

  Instance patched = before;
  ASSERT_TRUE(ApplyDelta(delta, &patched).ok());
  EXPECT_TRUE(patched.Equals(after));
}

TEST(DeltaTest, EmptyDeltaOnIdenticalInstances) {
  Instance a;
  a.DeclareRelation("R", 1);
  ASSERT_TRUE(a.Insert("R", {Value::Int64(1)}).ok());
  Delta delta = DiffInstances(a, a);
  EXPECT_TRUE(delta.Empty());
}

TEST(DeltaTest, ApplyFailsOnMissingDelete) {
  Instance db;
  db.DeclareRelation("R", 1);
  Delta delta;
  delta.deletes.DeclareRelation("R", 1);
  delta.deletes.InsertUnchecked("R", {Value::Int64(9)});
  EXPECT_FALSE(ApplyDelta(delta, &db).ok());
}

class MaterializedViewTest : public ::testing::Test {
 protected:
  MaterializedViewTest() {
    catalog_.Add("Orders", {"Id", "Region", "Total"});
    base_.DeclareRelation("Orders", 3);
    Insert(1, "EU", 10);
    Insert(2, "US", 20);
    Insert(3, "EU", 30);
  }

  void Insert(int id, const char* region, int total) {
    ASSERT_TRUE(base_.Insert("Orders", {Value::Int64(id),
                                        Value::String(region),
                                        Value::Int64(total)})
                    .ok());
  }

  algebra::Catalog catalog_;
  Instance base_;
};

TEST_F(MaterializedViewTest, SelectViewMaintainsIncrementally) {
  algebra::ExprRef view = algebra::Expr::Select(
      algebra::Expr::Scan("Orders"),
      algebra::ColEqLit("Region", Value::String("EU")));
  MaterializedView mv("eu_orders", view, catalog_);
  ASSERT_TRUE(mv.IsIncrementallyMaintainable());
  ASSERT_TRUE(mv.Initialize(base_).ok());
  EXPECT_EQ(mv.current().rows.size(), 2u);

  // Insert an EU order and a US order; delete one EU order.
  Instance new_base = base_;
  ASSERT_TRUE(new_base.Insert("Orders", {Value::Int64(4), Value::String("EU"),
                                         Value::Int64(40)})
                  .ok());
  ASSERT_TRUE(new_base.Insert("Orders", {Value::Int64(5), Value::String("US"),
                                         Value::Int64(50)})
                  .ok());
  ASSERT_TRUE(new_base
                  .Erase("Orders", {Value::Int64(1), Value::String("EU"),
                                    Value::Int64(10)})
                  .ok());
  Delta base_delta = DiffInstances(base_, new_base);
  auto view_delta = mv.Update(new_base, base_delta);
  ASSERT_TRUE(view_delta.ok()) << view_delta.status();
  // View gains order 4, loses order 1; the US order is invisible.
  EXPECT_EQ(view_delta->inserts.TotalTuples(), 1u);
  EXPECT_EQ(view_delta->deletes.TotalTuples(), 1u);
  EXPECT_EQ(mv.current().rows.size(), 2u);
}

TEST_F(MaterializedViewTest, JoinViewFallsBackToRecompute) {
  catalog_.Add("Regions", {"Name", "Manager"});
  base_.DeclareRelation("Regions", 2);
  ASSERT_TRUE(base_.Insert("Regions", {Value::String("EU"),
                                       Value::String("Ada")})
                  .ok());
  algebra::ExprRef view = algebra::Expr::Join(
      algebra::Expr::Scan("Orders"), algebra::Expr::Scan("Regions"),
      algebra::Expr::JoinKind::kInner, {{"Region", "Name"}});
  MaterializedView mv("orders_with_mgr", view, catalog_);
  EXPECT_FALSE(mv.IsIncrementallyMaintainable());
  ASSERT_TRUE(mv.Initialize(base_).ok());
  EXPECT_EQ(mv.current().rows.size(), 2u);  // two EU orders join

  Instance new_base = base_;
  ASSERT_TRUE(new_base.Insert("Regions", {Value::String("US"),
                                          Value::String("Bob")})
                  .ok());
  Delta base_delta = DiffInstances(base_, new_base);
  auto view_delta = mv.Update(new_base, base_delta);
  ASSERT_TRUE(view_delta.ok());
  EXPECT_EQ(view_delta->inserts.TotalTuples(), 1u);  // the US order appears
  EXPECT_EQ(mv.current().rows.size(), 3u);
}

model::Schema PersonEr() {
  return SchemaBuilder("ER", Metamodel::kEntityRelationship)
      .EntityType("Person", "",
                  {{"Id", DataType::Int64()}, {"Name", DataType::String()}})
      .EntityType("Employee", "Person", {{"Dept", DataType::String()}})
      .EntityType("Customer", "Person",
                  {{"CreditScore", DataType::Int64()},
                   {"BillingAddr", DataType::String()}})
      .EntitySet("Persons", "Person")
      .Build();
}

class UpdatePropagatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    er_ = PersonEr();
    auto generated = modelgen::ErToRelational(
        er_, modelgen::InheritanceStrategy::kTablePerType);
    ASSERT_TRUE(generated.ok());
    relational_ = generated->relational;
    fragments_ = generated->fragments;
    auto views = transgen::CompileFragments(er_, "Persons", relational_,
                                            fragments_);
    ASSERT_TRUE(views.ok()) << views.status();
    propagator_ = std::make_unique<UpdatePropagator>(*views, fragments_,
                                                     er_, relational_);

    Instance entities = Instance::EmptyFor(er_);
    auto layout =
        instance::ComputeEntitySetLayout(er_, *er_.FindEntitySet("Persons"));
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
    auto ada = instance::MakeEntityTuple(
        layout_, er_, "Person", {Value::Int64(1), Value::String("Ada")});
    ASSERT_TRUE(ada.ok());
    ASSERT_TRUE(entities.Insert("Persons", *ada).ok());
    ASSERT_TRUE(propagator_->Initialize(entities).ok());
  }

  Tuple EmployeeTuple(int id, const char* name, const char* dept) {
    auto t = instance::MakeEntityTuple(
        layout_, er_, "Employee",
        {Value::Int64(id), Value::String(name), Value::String(dept)});
    EXPECT_TRUE(t.ok());
    return *t;
  }

  model::Schema er_;
  model::Schema relational_;
  std::vector<modelgen::MappingFragment> fragments_;
  instance::EntitySetLayout layout_;
  std::unique_ptr<UpdatePropagator> propagator_;
};

TEST_F(UpdatePropagatorTest, InsertEmployeeTouchesBothTables) {
  EntityOp op;
  op.kind = EntityOp::Kind::kInsert;
  op.entity = EmployeeTuple(2, "Bob", "R&D");
  auto deltas = propagator_->Apply(op);
  ASSERT_TRUE(deltas.ok()) << deltas.status();
  // TPT: the new employee writes Person (base row) and Employee (dept row).
  ASSERT_EQ(deltas->size(), 2u);
  EXPECT_TRUE(deltas->count("Person") > 0);
  EXPECT_TRUE(deltas->count("Employee") > 0);
  EXPECT_EQ(deltas->at("Person").inserts.TotalTuples(), 1u);
  EXPECT_EQ(deltas->at("Employee").inserts.TotalTuples(), 1u);
  // Table state reflects it.
  EXPECT_EQ(propagator_->tables().Find("Person")->size(), 2u);
  EXPECT_EQ(propagator_->tables().Find("Employee")->size(), 1u);
}

TEST_F(UpdatePropagatorTest, DeleteUndoesInsert) {
  EntityOp insert;
  insert.kind = EntityOp::Kind::kInsert;
  insert.entity = EmployeeTuple(2, "Bob", "R&D");
  ASSERT_TRUE(propagator_->Apply(insert).ok());
  EntityOp remove;
  remove.kind = EntityOp::Kind::kDelete;
  remove.entity = EmployeeTuple(2, "Bob", "R&D");
  auto deltas = propagator_->Apply(remove);
  ASSERT_TRUE(deltas.ok());
  EXPECT_EQ(deltas->at("Person").deletes.TotalTuples(), 1u);
  EXPECT_EQ(propagator_->tables().Find("Person")->size(), 1u);
  EXPECT_EQ(propagator_->tables().Find("Employee")->size(), 0u);
}

TEST_F(UpdatePropagatorTest, ListenersAreNotified) {
  std::vector<std::string> notified;
  propagator_->Subscribe(
      [&](const std::string& table, const Delta& delta) {
        notified.push_back(table + ":" + std::to_string(delta.Size()));
      });
  EntityOp op;
  op.kind = EntityOp::Kind::kInsert;
  op.entity = EmployeeTuple(2, "Bob", "R&D");
  ASSERT_TRUE(propagator_->Apply(op).ok());
  ASSERT_EQ(notified.size(), 2u);
}

TEST_F(UpdatePropagatorTest, DeleteOfUnknownEntityFails) {
  EntityOp remove;
  remove.kind = EntityOp::Kind::kDelete;
  remove.entity = EmployeeTuple(99, "Nobody", "X");
  EXPECT_FALSE(propagator_->Apply(remove).ok());
}

TEST(ErrorTranslatorTest, MapsTableErrorsToEntityContext) {
  model::Schema er = PersonEr();
  auto generated = modelgen::ErToRelational(
      er, modelgen::InheritanceStrategy::kTablePerType);
  ASSERT_TRUE(generated.ok());
  ErrorTranslator translator(generated->fragments);
  EXPECT_EQ(translator.EntityAttributeFor("Employee", "Dept"), "Dept");
  EXPECT_EQ(translator.EntityAttributeFor("Employee", "Nope"), "");
  std::string message =
      translator.Translate("Employee", "Dept", "value too long");
  EXPECT_NE(message.find("Employee.Dept"), std::string::npos);
  EXPECT_NE(message.find("value too long"), std::string::npos);
  std::string unmapped = translator.Translate("Employee", "Nope", "boom");
  EXPECT_NE(unmapped.find("no entity-level mapping"), std::string::npos);
}

TEST(ProvenanceTest, ExplainAndLineage) {
  model::Schema src = SchemaBuilder("S", Metamodel::kRelational)
                          .Relation("Emp", {{"eid", DataType::Int64()},
                                            {"dept", DataType::String()}})
                          .Build();
  model::Schema tgt = SchemaBuilder("T", Metamodel::kRelational)
                          .Relation("Worker", {{"eid", DataType::Int64()},
                                               {"dept", DataType::String()}})
                          .Build();
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("d")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {tgd});

  Instance db;
  db.DeclareRelation("Emp", 2);
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(1), Value::String("x")}).ok());

  ExchangeOptions options;
  options.track_provenance = true;
  auto result = Exchange(m, db, options);
  ASSERT_TRUE(result.ok());

  chase::ChaseResult as_chase;
  as_chase.provenance = result->provenance;
  chase::Fact fact{"Worker", {Value::Int64(1), Value::String("x")}};
  std::string explanation = ExplainFact(as_chase, fact);
  EXPECT_NE(explanation.find("Emp(1, \"x\")"), std::string::npos);

  std::vector<chase::Fact> lineage = Lineage(as_chase, fact);
  ASSERT_EQ(lineage.size(), 1u);
  EXPECT_EQ(lineage[0].relation, "Emp");

  chase::Fact unknown{"Worker", {Value::Int64(9), Value::String("z")}};
  EXPECT_NE(ExplainFact(as_chase, unknown).find("no recorded derivation"),
            std::string::npos);
  EXPECT_TRUE(Lineage(as_chase, unknown).empty());
}

TEST(ExchangeTest, CoreMinimizationShrinksRedundantSolution) {
  model::Schema src = SchemaBuilder("S", Metamodel::kRelational)
                          .Relation("Emp", {{"eid", DataType::Int64()}})
                          .Build();
  model::Schema tgt = SchemaBuilder("T", Metamodel::kRelational)
                          .Relation("Worker", {{"eid", DataType::Int64()},
                                               {"mgr", DataType::Int64()}})
                          .Build();
  // Two rules deriving overlapping facts with separate existentials.
  Tgd t1;
  t1.body = {Atom{"Emp", {V("e")}}};
  t1.head = {Atom{"Worker", {V("e"), V("m")}}};
  Tgd t2;
  t2.body = {Atom{"Emp", {V("e")}}};
  t2.head = {Atom{"Worker", {V("e"), V("m2")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {t1, t2});

  Instance db;
  db.DeclareRelation("Emp", 1);
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(1)}).ok());

  ExchangeOptions options;
  options.compute_core = true;
  auto result = Exchange(m, db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->target.Find("Worker")->size(), 1u);
  EXPECT_LE(result->target.TotalTuples(), result->pre_core_tuples);
}

TEST(ExchangeTest, CoreFoldsCyclicNullBlock) {
  // S(u) -> exists x,y E(x,y) & E(y,x), then S(u) -> E(u,u): the chase
  // leaves {E(N1,N2), E(N2,N1), E(7,7)} and the core is {E(7,7)}.
  model::Schema src = SchemaBuilder("S", Metamodel::kRelational)
                          .Relation("S", {{"u", DataType::Int64()}})
                          .Build();
  model::Schema tgt = SchemaBuilder("T", Metamodel::kRelational)
                          .Relation("E", {{"a", DataType::Int64()},
                                          {"b", DataType::Int64()}})
                          .Build();
  Tgd cycle;
  cycle.body = {Atom{"S", {V("u")}}};
  cycle.head = {Atom{"E", {V("x"), V("y")}}, Atom{"E", {V("y"), V("x")}}};
  Tgd loop;
  loop.body = {Atom{"S", {V("u")}}};
  loop.head = {Atom{"E", {V("u"), V("u")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {cycle, loop});
  Instance db;
  db.DeclareRelation("S", 1);
  ASSERT_TRUE(db.Insert("S", {Value::Int64(7)}).ok());

  ExchangeOptions options;
  options.compute_core = true;
  auto result = Exchange(m, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->pre_core_tuples, 3u);
  EXPECT_EQ(result->target.TotalTuples(), 1u);
  EXPECT_TRUE(
      result->target.Find("E")->Contains({Value::Int64(7), Value::Int64(7)}));
}

}  // namespace
}  // namespace mm2::runtime
