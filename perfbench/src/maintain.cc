// maintain: runtime::BeginExchangeSession over a 32k-key source (the
// set-up), then a stream of rolling 1% source deltas — half inserts of
// fresh keys, half deletes of the oldest keys — each pushed through
// runtime::MaintainExchange (one op). After every kReadEvery maintains a
// selective chase::CertainAnswers read runs over the live target. The
// mapping has the three trigger shapes the maintain path re-matches: a
// copy, a key join and an existential head. Session bookkeeping,
// provenance, the support index, segment deletes and deferred rebuilds do
// the work; chase recursion does almost nothing.
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "runtime/runtime.h"
#include "text/query.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using mm2::instance::Instance;
using mm2::instance::Tuple;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Term;
using mm2::logic::Tgd;

constexpr std::int64_t kKeys = 32000;
constexpr std::int64_t kHalfDelta = kKeys / 100 / 2;  // 1% per maintain
constexpr std::int64_t kADomain = 97;
constexpr std::int64_t kBDomain = 89;
constexpr std::size_t kReadEvery = 4;
constexpr std::size_t kCountedOps = 32;

// R(k,a) -> T0(k,a);  R(k,a),S(k,b) -> T1(a,b);  S(k,b) -> exists n T2(b,n).
mm2::logic::Mapping SessionMapping() {
  auto attr = [](const char* n) {
    return mm2::model::Attribute{n, mm2::model::DataType::Int64(), false};
  };
  mm2::model::Schema src("Src", mm2::model::Metamodel::kRelational);
  src.AddRelation(mm2::model::Relation("R", {attr("k"), attr("a")}, {}));
  src.AddRelation(mm2::model::Relation("S", {attr("k"), attr("b")}, {}));
  mm2::model::Schema tgt("Tgt", mm2::model::Metamodel::kRelational);
  tgt.AddRelation(mm2::model::Relation("T0", {attr("k"), attr("a")}, {}));
  tgt.AddRelation(mm2::model::Relation("T1", {attr("a"), attr("b")}, {}));
  tgt.AddRelation(mm2::model::Relation("T2", {attr("b"), attr("n")}, {}));
  auto v = [](const char* n) { return Term::Var(n); };
  Tgd copy;
  copy.body = {Atom{"R", {v("k"), v("a")}}};
  copy.head = {Atom{"T0", {v("k"), v("a")}}};
  Tgd join;
  join.body = {Atom{"R", {v("k"), v("a")}}, Atom{"S", {v("k"), v("b")}}};
  join.head = {Atom{"T1", {v("a"), v("b")}}};
  Tgd exist;
  exist.body = {Atom{"S", {v("k"), v("b")}}};
  exist.head = {Atom{"T2", {v("b"), v("n")}}};
  return mm2::logic::Mapping::FromTgds("session", src, tgt,
                                       {copy, join, exist});
}

struct Row {
  std::int64_t k, a, b;
};

Tuple Pair(std::int64_t x, std::int64_t y) {
  return {Value::Int64(x), Value::Int64(y)};
}

class Maintain : public Workload {
 public:
  explicit Maintain(std::uint64_t seed)
      : seed_(seed), mapping_(SessionMapping()) {
    for (std::int64_t c = 0; c < kADomain; ++c) {
      std::string a = std::to_string(c);
      queries_.push_back(*mm2::text::ParseQuery(
          "Q(k, b) :- T0(k, " + a + "), T1(" + a + ", b)"));
    }
  }

  void Setup(Tracer* tracer) override {
    session_.reset();  // release the previous session before the next
    live_.clear();
    counters_.clear();
    counted_ = 0;
    rng_ = mm2::workload::Rng(seed_);
    next_key_ = kKeys;
    reads_ = 0;
    Instance source;
    {
      Scope load(tracer, "instance.load");
      source.DeclareRelation("R", 2);
      source.DeclareRelation("S", 2);
      for (std::int64_t k = 0; k < kKeys; ++k) {
        Row row = Fresh(k);
        source.InsertUnchecked("R", Pair(row.k, row.a));
        source.InsertUnchecked("S", Pair(row.k, row.b));
        live_.push_back(row);
      }
    }
    std::uint64_t rss_before = CurrentRssKb();
    mm2::Result<mm2::runtime::ExchangeSession> begun;
    {
      Scope span(tracer, "runtime.BeginExchangeSession");
      begun = mm2::runtime::BeginExchangeSession(mapping_, std::move(source),
                                                 Options());
    }
    if (!begun.ok()) {
      setup_error_ = begun.status().ToString();
      return;
    }
    setup_error_.clear();
    session_ = std::make_unique<mm2::runtime::ExchangeSession>(
        std::move(begun.value()));
    if (first_setup_) {
      // Only the first set-up of the process grows RSS from a cold heap;
      // later ones reuse the pages the previous session freed.
      first_setup_ = false;
      session_bytes_per_fact_ =
          static_cast<double>(CurrentRssKb() - rss_before) * 1024.0 /
          static_cast<double>(session_->target.TotalTuples());
    }
    if (tracer != nullptr) CountSession();
  }

  OpOutcome RunOp(std::size_t index, Tracer* tracer) override {
    OpOutcome out;
    if (session_ == nullptr) {
      out.error = "session set-up failed: " + setup_error_;
      return out;
    }
    mm2::runtime::Delta delta = NextDelta();
    mm2::Result<mm2::runtime::Delta> maintained;
    Clock::time_point start = Clock::now();
    {
      Scope op(tracer, "op");
      Scope span(tracer, "runtime.MaintainExchange");
      maintained = mm2::runtime::MaintainExchange(*session_, delta);
    }
    out.op_ms = MsSince(start);
    if (!maintained.ok()) {
      out.error = maintained.status().ToString();
      return out;
    }
    bool counted = tracer != nullptr && counted_ < kCountedOps;
    if (counted) {
      ++counted_;
      CountMaintain(*maintained);
    }
    if (index % kReadEvery == kReadEvery - 1) {
      out.error = Read(tracer, counted, &out.read_ms);
    }
    return out;
  }

  std::size_t CountedOps() const override { return kCountedOps; }

  // The maintained target must equal, up to null renaming, a fresh
  // exchange of the final source.
  std::string FinalCheck() override {
    if (session_ == nullptr) return "no session";
    auto fresh = mm2::runtime::Exchange(session_->mapping, session_->source,
                                        Options());
    if (!fresh.ok()) return fresh.status().ToString();
    if (!mm2::instance::InstanceEqualsUpToNulls(session_->target,
                                                fresh->target)) {
      return "maintained target differs from a fresh exchange";
    }
    return "";
  }

  Counters TakeCounters() override {
    // Values that are not sums over the counted maintains.
    double reads = counters_["chase.query_reads"];
    Counters out = {
        {"chase.query_rows",
         reads > 0 ? counters_["chase.query_rows"] / reads : 0},
        {"runtime.session_bytes_per_fact", session_bytes_per_fact_}};
    for (const char* key : {"runtime.witnesses_per_fact",
                            "runtime.support_entries", "runtime.fallbacks"}) {
      out[key] = counters_[key];
    }
    for (const auto& [key, value] : out) counters_.erase(key);
    counters_.erase("chase.query_reads");
    out.merge(PerOp(std::exchange(counters_, {}), kCountedOps));
    return out;
  }

 private:
  static mm2::runtime::ExchangeOptions Options() {
    mm2::runtime::ExchangeOptions options;
    options.threads = 1;
    return options;
  }

  Row Fresh(std::int64_t k) {
    return Row{k, static_cast<std::int64_t>(rng_.Uniform(kADomain)),
               static_cast<std::int64_t>(rng_.Uniform(kBDomain))};
  }

  // Inserts kHalfDelta fresh keys and deletes the kHalfDelta oldest, so the
  // source holds kKeys keys throughout.
  mm2::runtime::Delta NextDelta() {
    mm2::runtime::Delta delta;
    for (Instance* side : {&delta.inserts, &delta.deletes}) {
      side->DeclareRelation("R", 2);
      side->DeclareRelation("S", 2);
    }
    for (std::int64_t i = 0; i < kHalfDelta; ++i) {
      Row row = Fresh(next_key_++);
      delta.inserts.InsertUnchecked("R", Pair(row.k, row.a));
      delta.inserts.InsertUnchecked("S", Pair(row.k, row.b));
      live_.push_back(row);
      Row old = live_.front();
      live_.pop_front();
      delta.deletes.InsertUnchecked("R", Pair(old.k, old.a));
      delta.deletes.InsertUnchecked("S", Pair(old.k, old.b));
    }
    return delta;
  }

  // Q(k, b) :- T0(k, c), T1(c, b) for a rotating constant c. The certain
  // answers are every live key with a = c paired with every b that some
  // live key with a = c carries.
  std::string Read(Tracer* tracer, bool counted, double* read_ms) {
    std::int64_t c = static_cast<std::int64_t>(reads_++ % kADomain);
    mm2::Result<std::vector<Tuple>> answers;
    Clock::time_point start = Clock::now();
    {
      Scope read(tracer, "read");
      Scope span(tracer, "chase.CertainAnswers");
      answers = mm2::chase::CertainAnswers(queries_[c], session_->target);
    }
    *read_ms = MsSince(start);
    if (!answers.ok()) return answers.status().ToString();
    std::size_t keys = 0;
    std::set<std::int64_t> bs;
    for (const Row& row : live_) {
      if (row.a != c) continue;
      ++keys;
      bs.insert(row.b);
    }
    if (counted) {
      counters_["chase.query_rows"] += static_cast<double>(answers->size());
      counters_["chase.query_reads"] += 1;
    }
    if (answers->size() != keys * bs.size()) {
      return "read for a=" + std::to_string(c) + " returned " +
             std::to_string(answers->size()) + " rows, expected " +
             std::to_string(keys * bs.size());
    }
    return "";
  }

  void CountSession() {
    double witnesses = 0;
    for (const auto& [fact, list] : session_->provenance.entries()) {
      witnesses += static_cast<double>(list.size());
    }
    double support = 0;
    for (const auto& [fact, dependents] : session_->state.dependents) {
      support += static_cast<double>(dependents.size());
    }
    double facts = static_cast<double>(session_->target.TotalTuples());
    counters_["runtime.witnesses_per_fact"] = witnesses / facts;
    counters_["runtime.support_entries"] = support;
    fallbacks_at_setup_ = session_->fallbacks;
  }

  void CountMaintain(const mm2::runtime::Delta& target_delta) {
    const mm2::chase::ChaseStats& s = session_->last_stats;
    counters_["runtime.target_delta_facts"] +=
        static_cast<double>(target_delta.Size());
    counters_["runtime.resume_assignments"] += s.assignments_matched;
    counters_["runtime.fallbacks"] =
        static_cast<double>(session_->fallbacks - fallbacks_at_setup_);
    AddChaseStats(s, &counters_);
  }

  std::uint64_t seed_;
  mm2::logic::Mapping mapping_;
  std::vector<mm2::logic::ConjunctiveQuery> queries_;  // one per a value
  std::unique_ptr<mm2::runtime::ExchangeSession> session_;
  std::string setup_error_;
  mm2::workload::Rng rng_{1};
  std::deque<Row> live_;  // oldest first
  std::int64_t next_key_ = kKeys;
  std::size_t reads_ = 0;
  std::size_t counted_ = 0;  // traced maintains counted since Setup
  bool first_setup_ = true;
  double session_bytes_per_fact_ = 0;
  std::size_t fallbacks_at_setup_ = 0;
  Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeMaintain(std::uint64_t seed) {
  return std::make_unique<Maintain>(seed);
}

}  // namespace perfbench
