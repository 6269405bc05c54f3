// Experiment C2: Section 4 — chase-based data exchange. (a) Exchange time
// grows near-linearly in source size for the Fig. 6 mapping family. (b)
// Labeled nulls are created one per existential firing, and certain-answer
// evaluation excludes them. (c) Core computation shrinks redundant
// universal solutions.
#include <benchmark/benchmark.h>

#include "bench_report.h"

#include "chase/chase.h"
#include "logic/formula.h"
#include "model/schema.h"
#include "workload/generators.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Mapping;
using mm2::logic::Term;
using mm2::logic::Tgd;
using mm2::model::DataType;

Term V(const char* name) { return Term::Var(name); }

Mapping SplitMapping() {
  mm2::model::Schema src =
      mm2::model::SchemaBuilder("S", mm2::model::Metamodel::kRelational)
          .Relation("Data", {{"Id", DataType::Int64()},
                             {"A", DataType::String()},
                             {"B", DataType::String()}},
                    {"Id"})
          .Build();
  mm2::model::Schema tgt =
      mm2::model::SchemaBuilder("T", mm2::model::Metamodel::kRelational)
          .Relation("Left", {{"Id", DataType::Int64()},
                             {"A", DataType::String()}},
                    {"Id"})
          .Relation("Right", {{"Id", DataType::Int64()},
                              {"B", DataType::String()},
                              {"Tag", DataType::String()}},
                    {"Id"})
          .Build();
  Tgd split;
  split.body = {Atom{"Data", {V("i"), V("a"), V("b")}}};
  // Tag is existential: every row invents a labeled null.
  split.head = {Atom{"Left", {V("i"), V("a")}},
                Atom{"Right", {V("i"), V("b"), V("t")}}};
  return Mapping::FromTgds("split", src, tgt, {split});
}

Instance DataRows(std::size_t rows) {
  Instance db;
  db.DeclareRelation("Data", 3);
  for (std::size_t i = 0; i < rows; ++i) {
    db.InsertUnchecked("Data", {Value::Int64(static_cast<std::int64_t>(i)),
                                Value::String("a" + std::to_string(i)),
                                Value::String("b" + std::to_string(i))});
  }
  return db;
}

void BM_Chase_Exchange(benchmark::State& state) {
  std::size_t rows = static_cast<std::size_t>(state.range(0));
  Mapping mapping = SplitMapping();
  Instance db = DataRows(rows);
  std::size_t nulls = 0;
  for (auto _ : state) {
    mm2::chase::ChaseOptions chase_options;
    chase_options.obs = &mm2::bench::Obs();
    auto result = mm2::chase::RunChase(mapping, db, chase_options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    nulls = result->stats.nulls_created;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
  state.counters["nulls"] = static_cast<double>(nulls);
}
BENCHMARK(BM_Chase_Exchange)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_Chase_CertainAnswers(benchmark::State& state) {
  std::size_t rows = static_cast<std::size_t>(state.range(0));
  Mapping mapping = SplitMapping();
  mm2::chase::ChaseOptions chase_options;
  chase_options.obs = &mm2::bench::Obs();
  auto exchanged = mm2::chase::RunChase(mapping, DataRows(rows), chase_options);
  if (!exchanged.ok()) {
    state.SkipWithError(exchanged.status().ToString().c_str());
    return;
  }
  // Query projecting the null column: certain answers drop every row;
  // projecting it away keeps all.
  mm2::logic::ConjunctiveQuery with_tag;
  with_tag.head = Atom{"Q", {V("i"), V("t")}};
  with_tag.body = {Atom{"Right", {V("i"), V("b"), V("t")}}};
  mm2::logic::ConjunctiveQuery without_tag;
  without_tag.head = Atom{"Q", {V("i")}};
  without_tag.body = {Atom{"Right", {V("i"), V("b"), V("t")}}};

  std::size_t certain_with = 0;
  std::size_t certain_without = 0;
  for (auto _ : state) {
    auto a = mm2::chase::CertainAnswers(with_tag, exchanged->target);
    auto b = mm2::chase::CertainAnswers(without_tag, exchanged->target);
    if (!a.ok() || !b.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    certain_with = a->size();
    certain_without = b->size();
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
  state.counters["certain_with_null_col"] =
      static_cast<double>(certain_with);
  state.counters["certain_without_null_col"] =
      static_cast<double>(certain_without);
}
BENCHMARK(BM_Chase_CertainAnswers)->Arg(100)->Arg(1000);

void BM_Chase_Core(benchmark::State& state) {
  // A universal solution with one redundant null row per constant row:
  // {Right(i, b, 9) , Right(i, b, N_i)} — the core folds every N_i away.
  // (The restricted chase itself avoids creating such redundancy, so the
  // instance is built directly, as a non-restricted chase would leave it.)
  std::size_t rows = static_cast<std::size_t>(state.range(0));
  Instance redundant;
  redundant.DeclareRelation("Right", 3);
  for (std::size_t i = 0; i < rows; ++i) {
    std::int64_t id = static_cast<std::int64_t>(i);
    redundant.InsertUnchecked(
        "Right", {Value::Int64(id), Value::String("b"), Value::Int64(9)});
    redundant.InsertUnchecked(
        "Right", {Value::Int64(id), Value::String("b"),
                  Value::LabeledNull(id)});
  }
  std::size_t before = redundant.TotalTuples();
  std::size_t after = 0;
  for (auto _ : state) {
    Instance core = mm2::chase::ComputeCore(redundant);
    after = core.TotalTuples();
    benchmark::DoNotOptimize(core);
  }
  state.counters["tuples_before"] = static_cast<double>(before);
  state.counters["tuples_after_core"] = static_cast<double>(after);
}
BENCHMARK(BM_Chase_Core)->Arg(8)->Arg(16)->Arg(32)->Arg(256);

void BM_Chase_CoreCycleBlocks(benchmark::State& state) {
  // 16 directed k-cycles of nulls next to a ground loop E(7, 7). Each cycle
  // is one k-null block that folds onto the loop only as a whole — no null
  // can move on its own — so this prices the block search itself. The core
  // is {E(7, 7)}.
  constexpr std::int64_t kCycles = 16;
  std::int64_t k = state.range(0);
  Instance cycles;
  cycles.DeclareRelation("E", 2);
  cycles.InsertUnchecked("E", {Value::Int64(7), Value::Int64(7)});
  for (std::int64_t c = 0; c < kCycles; ++c) {
    for (std::int64_t i = 0; i < k; ++i) {
      cycles.InsertUnchecked("E", {Value::LabeledNull(c * k + i),
                                   Value::LabeledNull(c * k + (i + 1) % k)});
    }
  }
  std::size_t before = cycles.TotalTuples();
  std::size_t after = 0;
  for (auto _ : state) {
    Instance core = mm2::chase::ComputeCore(cycles);
    after = core.TotalTuples();
    benchmark::DoNotOptimize(core);
  }
  state.counters["tuples_before"] = static_cast<double>(before);
  state.counters["tuples_after_core"] = static_cast<double>(after);
}
BENCHMARK(BM_Chase_CoreCycleBlocks)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Chase_TransitiveClosure(benchmark::State& state) {
  // Intra-schema closure: a non-s-t workload exercising ChaseInstance.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Tgd trans;
  trans.body = {Atom{"E", {V("x"), V("y")}}, Atom{"E", {V("y"), V("z")}}};
  trans.head = {Atom{"E", {V("x"), V("z")}}};
  Instance db;
  db.DeclareRelation("E", 2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    db.InsertUnchecked("E", {Value::Int64(static_cast<std::int64_t>(i)),
                             Value::Int64(static_cast<std::int64_t>(i + 1))});
  }
  std::size_t closure = 0;
  for (auto _ : state) {
    mm2::chase::ChaseOptions chase_options;
    chase_options.obs = &mm2::bench::Obs();
    auto result =
        mm2::chase::ChaseInstance({trans}, {}, db, chase_options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    closure = result->target.Find("E")->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["closure_edges"] = static_cast<double>(closure);
}
BENCHMARK(BM_Chase_TransitiveClosure)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

MM2_BENCH_MAIN("bench_chase");
