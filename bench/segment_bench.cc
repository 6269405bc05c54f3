// Columnar-segment storage (EXPERIMENTS.md sections C17-C18). Three
// experiments:
//
//   1. BM_SegmentChase — the transitive-closure chase grid from
//      chase_scaling_bench. Bound-prefix probes are served by sealed-segment
//      binary searches and the restricted head-check runs through the
//      batched RetainExisting merge; the per-point `probes` counter
//      (segment probes plus declined fallbacks), the retain compare tally
//      and the tiered-list shape are recorded next to the wall clock.
//
//   2. BM_RetainMicro — the head-dedup primitive in isolation: membership
//      of a sorted candidate batch against n stored rows, answered by one
//      RetainExisting galloping merge over the sealed run.
//
//   3. BM_MergeMicro — sealing + two-way merging segments, the
//      round-boundary maintenance cost the segment list pays for its probe
//      wins.
//
// Each point records `segment.<exp>[.segmented].n<n>.wall_us` histograms
// plus `.probes` / `.compares` gauges into the shared bench registry for
// BENCH_<label>.json trajectories. The `.segmented` infix is kept from
// when an indexed arm ran next to it, so recorded baselines still line up.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_report.h"

#include "chase/chase.h"
#include "instance/instance.h"
#include "instance/segment.h"
#include "instance/value.h"
#include "logic/formula.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::RelationInstance;
using mm2::instance::SegmentInserter;
using mm2::instance::SegmentOpStats;
using mm2::instance::SegmentPtr;
using mm2::instance::Tuple;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Term;
using mm2::logic::Tgd;

Term V(const std::string& name) { return Term::Var(name); }

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The closure workload from chase_scaling_bench: chain R of n edges,
// copy + step rules closing T. Existential-free, so the restricted check
// on every derived head exercises the retain path.
std::vector<Tgd> ClosureRules() {
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"T", {V("x"), V("y")}}};
  Tgd step;
  step.body = {Atom{"T", {V("x"), V("y")}}, Atom{"R", {V("y"), V("z")}}};
  step.head = {Atom{"T", {V("x"), V("z")}}};
  return {copy, step};
}

Instance ChainInstance(std::int64_t n) {
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  for (std::int64_t i = 0; i < n; ++i) {
    db.InsertUnchecked("R", {Value::Int64(i), Value::Int64(i + 1)});
  }
  return db;
}

void BM_SegmentChase(benchmark::State& state) {
  std::int64_t n = state.range(0);
  std::vector<Tgd> tgds = ClosureRules();
  Instance db = ChainInstance(n);
  mm2::chase::ChaseOptions options;

  std::string point = "segment.chase.segmented.n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");

  mm2::chase::ChaseStats stats;
  std::size_t closure = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = mm2::chase::ChaseInstance(tgds, {}, db, options);
    double us = MicrosSince(start);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    wall.Record(us);
    stats = result->stats;
    closure = result->target.Find("T")->size();
    benchmark::DoNotOptimize(result);
  }

  // The probe traffic: segment-served probes plus declined fallbacks.
  std::uint64_t probes = stats.segment.probes + stats.segment.fallbacks;
  mm2::bench::Obs().metrics.GetGauge(point + ".probes").Set(
      static_cast<std::int64_t>(probes));
  mm2::bench::Obs().metrics.GetGauge(point + ".compares").Set(
      static_cast<std::int64_t>(stats.segment.compares));
  state.counters["closure_edges"] = static_cast<double>(closure);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["probes"] = static_cast<double>(probes);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["segment_probes"] =
      static_cast<double>(stats.segment.probes);
  state.counters["segment_compares"] =
      static_cast<double>(stats.segment.compares);
  state.counters["retain_batches"] =
      static_cast<double>(stats.segment.retain_batches);
  // Tiered-list maintenance: how much merge work the LSM ladder did, what
  // the run list looked like at the end, and the zero-copy delta volume.
  mm2::bench::Obs().metrics.GetGauge(point + ".compactions").Set(
      static_cast<std::int64_t>(stats.segment.compactions));
  mm2::bench::Obs().metrics.GetGauge(point + ".live_segments").Set(
      static_cast<std::int64_t>(stats.segment_shape.live_segments));
  mm2::bench::Obs().metrics.GetGauge(point + ".delta_slice_rows").Set(
      static_cast<std::int64_t>(stats.segment.delta_slice_rows));
  state.counters["compactions"] =
      static_cast<double>(stats.segment.compactions);
  state.counters["live_segments"] =
      static_cast<double>(stats.segment_shape.live_segments);
  state.counters["delta_slice_rows"] =
      static_cast<double>(stats.segment.delta_slice_rows);
  state.counters["merged_rows"] =
      static_cast<double>(stats.segment.merged_rows);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SegmentChase)
    ->ArgNames({"n"})
    ->ArgsProduct({{8, 16, 32, 64}})
    ->Unit(benchmark::kMillisecond);

void BM_RetainMicro(benchmark::State& state) {
  std::int64_t n = state.range(0);

  // n stored rows (even keys); candidates sweep evens and odds, so half
  // the batch hits — the mix a restricted head-check sees mid-closure.
  RelationInstance rel(2);
  for (std::int64_t i = 0; i < n; ++i) {
    rel.Insert({Value::Int64(2 * i), Value::Int64(2 * i + 1)});
  }
  rel.PrepareSegments();
  std::vector<Tuple> candidates;
  for (std::int64_t i = 0; i < n; ++i) {
    candidates.push_back({Value::Int64(i), Value::Int64(i + 1)});
  }
  mm2::instance::CountedSort(&candidates, nullptr);
  std::vector<const Tuple*> ptrs;
  for (const Tuple& t : candidates) ptrs.push_back(&t);

  std::string point = "segment.retain.segmented.n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");

  std::uint64_t hits = 0;
  SegmentOpStats before = rel.segment_stats();
  std::size_t iters = 0;
  for (auto _ : state) {
    ++iters;
    auto start = std::chrono::steady_clock::now();
    hits = 0;
    std::vector<char> present;
    rel.RetainExisting(ptrs, &present);
    for (char p : present) hits += static_cast<std::uint64_t>(p);
    benchmark::DoNotOptimize(hits);
    wall.Record(MicrosSince(start));
  }

  // Per-batch compare cost, averaged over the iterations.
  std::uint64_t compares = (rel.segment_stats() - before).compares;
  double per_batch =
      iters == 0 ? 0 : static_cast<double>(compares) / static_cast<double>(iters);
  mm2::bench::Obs().metrics.GetGauge(point + ".compares").Set(
      static_cast<std::int64_t>(std::llround(per_batch)));
  state.counters["compares_per_batch"] = per_batch;
  state.counters["hits"] = static_cast<double>(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RetainMicro)
    ->ArgNames({"n"})
    ->ArgsProduct({{256, 1024, 4096}})
    ->Unit(benchmark::kMicrosecond);

void BM_MergeMicro(benchmark::State& state) {
  std::int64_t n = state.range(0);
  // Two interleaved sorted runs of n rows each — the shape tiered
  // compaction merges at a round boundary.
  SegmentOpStats setup;
  SegmentInserter a(2);
  SegmentInserter b(2);
  for (std::int64_t i = 0; i < n; ++i) {
    a.Add({Value::Int64(2 * i), Value::Int64(i)});
    b.Add({Value::Int64(2 * i + 1), Value::Int64(i)});
  }
  SegmentPtr sa = a.Seal(&setup);
  SegmentPtr sb = b.Seal(&setup);

  std::string point = "segment.merge.n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");
  std::size_t rows = 0;
  for (auto _ : state) {
    SegmentOpStats stats;
    auto start = std::chrono::steady_clock::now();
    SegmentPtr merged = mm2::instance::MergeSegments({sa, sb}, &stats);
    wall.Record(MicrosSince(start));
    rows = merged->rows();
    benchmark::DoNotOptimize(merged);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n);
}
BENCHMARK(BM_MergeMicro)
    ->ArgNames({"n"})
    ->ArgsProduct({{1024, 8192, 65536}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

MM2_BENCH_MAIN("segment_bench");
