// closure / closure_t4: one op is chase::ChaseInstance followed by
// chase::ComputeCore on its result, over a pool of seeded random local
// forward-edge graphs (edges i -> i+1..i+20, fan-out 2). Rules: the
// transitive-closure pair over T, plus R(x,y) -> exists n E(x,y,n) with a
// key egd on E(x,.,n), so every node with two out-edges costs one null
// unification. Chase rounds, joins, retain, head creation, egd unification
// and segment seal/compaction do almost all the work. After each op a
// chase::CertainAnswers read joins the closure with the edges once more.
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "text/query.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using mm2::instance::Instance;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Egd;
using mm2::logic::Term;
using mm2::logic::Tgd;

// Graph size and pool: an op takes about 0.1 s in a Release build on a
// 4-core Xeon VM, so the p90 of a 20 s run has more than ten samples
// beyond it, and the pool averages out graph-to-graph variation.
constexpr std::size_t kNodes = 140;
constexpr std::size_t kFanOut = 2;
constexpr std::size_t kReach = 20;
constexpr std::size_t kPool = 8;
constexpr std::size_t kProbeThreads = 4;

Term V(const char* name) { return Term::Var(name); }

struct Graph {
  Instance db;
  std::vector<std::vector<std::size_t>> out;  // adjacency, for the BFS check
  std::size_t closure = 0;  // |T|, by BFS
  std::size_t two_hop = 0;  // pairs joined by a path of 2+ edges, by BFS
  std::size_t core_tuples = 0;                // first observed core size
};

class Closure : public Workload {
 public:
  Closure(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {
    Tgd copy;
    copy.body = {Atom{"R", {V("x"), V("y")}}};
    copy.head = {Atom{"T", {V("x"), V("y")}}};
    Tgd step;
    step.body = {Atom{"T", {V("x"), V("y")}}, Atom{"R", {V("y"), V("z")}}};
    step.head = {Atom{"T", {V("x"), V("z")}}};
    Tgd exist;
    exist.body = {Atom{"R", {V("x"), V("y")}}};
    exist.head = {Atom{"E", {V("x"), V("y"), V("n")}}};
    tgds_ = {copy, step, exist};
    Egd key;
    key.body = {Atom{"E", {V("x"), V("y"), V("n")}},
                Atom{"E", {V("x"), V("w"), V("m")}}};
    key.left = "n";
    key.right = "m";
    egds_ = {key};
    query_ = *mm2::text::ParseQuery("Q(x, z) :- T(x, y), R(y, z)");
  }

  void Setup(Tracer* tracer) override {
    graphs_.clear();
    counters_.clear();
    counted_ = 0;
    mm2::workload::Rng rng(seed_);
    Scope load(tracer, "instance.load");
    for (std::size_t g = 0; g < kPool; ++g) {
      Graph graph;
      graph.db.DeclareRelation("R", 2);
      graph.db.DeclareRelation("T", 2);
      graph.db.DeclareRelation("E", 3);
      graph.out.resize(kNodes);
      for (std::size_t i = 0; i + 1 < kNodes; ++i) {
        for (std::size_t f = 0; f < kFanOut; ++f) {
          std::size_t j = i + 1 + rng.Uniform(kReach);
          if (j >= kNodes) continue;
          graph.db.InsertUnchecked(
              "R", {Value::Int64(static_cast<std::int64_t>(i)),
                    Value::Int64(static_cast<std::int64_t>(j))});
          graph.out[i].push_back(j);
        }
      }
      graphs_.push_back(std::move(graph));
    }
  }

  OpOutcome RunOp(std::size_t index, Tracer* tracer) override {
    Graph& graph = graphs_[index % graphs_.size()];
    mm2::chase::ChaseOptions options;
    options.threads = threads_;
    OpOutcome out;
    Clock::time_point start = Clock::now();
    mm2::Result<mm2::chase::ChaseResult> chased;
    Instance core;
    {
      Scope op(tracer, "op");
      {
        Scope span(tracer, "chase.ChaseInstance");
        chased = mm2::chase::ChaseInstance(tgds_, egds_, graph.db, options);
      }
      if (chased.ok()) {
        Scope span(tracer, "chase.ComputeCore");
        core = mm2::chase::ComputeCore(chased->target, nullptr, threads_);
      }
    }
    out.op_ms = MsSince(start);
    if (!chased.ok()) {
      out.error = chased.status().ToString();
      return out;
    }
    out.error = Check(graph, *chased, core);
    if (out.error.empty()) out.error = Read(graph, *chased, tracer, &out);
    if (tracer != nullptr && counted_ < CountedOps()) {
      ++counted_;
      AddChaseStats(chased->stats, &counters_);
      counters_["chase.query_rows"] += static_cast<double>(graph.two_hop);
      if (threads_ == 1) ProbeParallel(graph);
    }
    return out;
  }

  std::size_t CountedOps() const override { return kPool; }

  Counters TakeCounters() override {
    return PerOp(std::exchange(counters_, {}), CountedOps());
  }

 private:
  // |T| must equal the BFS closure, and the core must be a homomorphic
  // image of the chase result no larger than it.
  std::string Check(Graph& graph, const mm2::chase::ChaseResult& chased,
                    const Instance& core) {
    if (graph.closure == 0) CountPaths(&graph);
    const auto* t = chased.target.Find("T");
    std::size_t closure = t == nullptr ? 0 : t->size();
    if (closure != graph.closure) {
      return "closure size " + std::to_string(closure) + " != BFS " +
             std::to_string(graph.closure);
    }
    std::size_t core_tuples = core.TotalTuples();
    if (graph.core_tuples == 0) {
      // An unchanged instance is its own image under the identity; only a
      // proper retraction needs the homomorphism search.
      bool image = core.Equals(chased.target) ||
                   (core_tuples < chased.target.TotalTuples() &&
                    mm2::chase::ExistsHomomorphism(chased.target, core));
      if (!image) {
        return "core is not a homomorphic image of the chase result";
      }
      graph.core_tuples = core_tuples;
    } else if (core_tuples != graph.core_tuples) {
      // Same input, same deterministic algorithm: the verified first core
      // must repeat exactly.
      return "core size " + std::to_string(core_tuples) + " != verified " +
             std::to_string(graph.core_tuples);
    }
    return "";
  }

  // Q(x, z) :- T(x, y), R(y, z): every pair joined by a path of two or
  // more edges.
  std::string Read(const Graph& graph, const mm2::chase::ChaseResult& chased,
                   Tracer* tracer, OpOutcome* out) {
    mm2::Result<std::vector<mm2::instance::Tuple>> answers;
    Clock::time_point start = Clock::now();
    {
      Scope read(tracer, "read");
      Scope span(tracer, "chase.CertainAnswers");
      answers = mm2::chase::CertainAnswers(query_, chased.target);
    }
    out->read_ms = MsSince(start);
    if (!answers.ok()) return answers.status().ToString();
    std::set<mm2::instance::Tuple> pairs(answers->begin(), answers->end());
    if (pairs.size() != graph.two_hop) {
      return "two-hop read returned " + std::to_string(pairs.size()) +
             " pairs, BFS says " + std::to_string(graph.two_hop);
    }
    return "";
  }

  // Counts reachable pairs, and pairs joined by 2+ edges, from every node.
  static void CountPaths(Graph* graph) {
    const auto& out = graph->out;
    for (std::size_t s = 0; s < out.size(); ++s) {
      std::vector<bool> seen(out.size(), false);
      std::vector<bool> two_hop(out.size(), false);
      std::deque<std::size_t> queue(out[s].begin(), out[s].end());
      while (!queue.empty()) {
        std::size_t v = queue.front();
        queue.pop_front();
        if (seen[v]) continue;
        seen[v] = true;
        ++graph->closure;
        for (std::size_t w : out[v]) {
          if (!two_hop[w]) ++graph->two_hop;
          two_hop[w] = true;
          queue.push_back(w);
        }
      }
    }
  }

  // The serial workload still measures the parallel layer: its traced run
  // chases each counted graph once more at kProbeThreads, untimed, and
  // takes the parallel counters from that run.
  void ProbeParallel(const Graph& graph) {
    mm2::chase::ChaseOptions options;
    options.threads = kProbeThreads;
    auto probed = mm2::chase::ChaseInstance(tgds_, egds_, graph.db, options);
    if (!probed.ok()) return;
    mm2::chase::ChaseStats parallel;  // only the parallel fields
    parallel.workers = probed->stats.workers;
    parallel.parallel_regions = probed->stats.parallel_regions;
    parallel.parallel_tasks = probed->stats.parallel_tasks;
    parallel.parallel_steals = probed->stats.parallel_steals;
    parallel.parallel_busy_us = probed->stats.parallel_busy_us;
    parallel.parallel_wall_us = probed->stats.parallel_wall_us;
    AddChaseStats(parallel, &counters_);
  }

  std::uint64_t seed_;
  std::size_t threads_;
  std::vector<Tgd> tgds_;
  std::vector<Egd> egds_;
  mm2::logic::ConjunctiveQuery query_;
  std::vector<Graph> graphs_;
  std::size_t counted_ = 0;  // traced ops counted since Setup
  Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeClosure(std::uint64_t seed,
                                      std::size_t threads) {
  return std::make_unique<Closure>(seed, threads);
}

}  // namespace perfbench
