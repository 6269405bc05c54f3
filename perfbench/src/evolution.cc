// evolution: one op is an end-to-end scripted session. It parses the text
// inputs (text::ParseSchema / ParseMapping / ParseInstance), loads them
// into a fresh engine::Engine and runs one evolution script through
// Engine::RunScript: compose a 32-step evolution chain and exchange through
// it, exchange stepwise and `eqcheck` the two, compose the 4^5 blow-up
// pair, match / merge a 16-relation schema with its renamed copy, modelgen
// a depth-3 hierarchy (tph, tpt), inverse and diff, then a few
// apply / maintain / why lines. After each op a read joins the two halves
// of every stepwise migration version back into the source rows, one
// chase::CertainAnswers call per version.
//
// The untraced op runs the script in one RunScript call; the traced op
// makes one RunScript call per line so that every command is its own span.
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.h"
#include "chase/chase.h"
#include "engine/engine.h"
#include "instance/instance.h"
#include "text/query.h"
#include "text/sexpr.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

constexpr std::size_t kChainSteps = 32;
constexpr std::size_t kChainAttrs = 6;
constexpr std::size_t kChainRows = 200;
constexpr std::size_t kBlowupProducers = 4;
constexpr std::size_t kBlowupAtoms = 5;
constexpr std::size_t kMatchRelations = 16;
constexpr std::size_t kMatchMaxAttrs = 5;
constexpr std::size_t kHierarchyDepth = 3;
constexpr std::size_t kCountedOps = 4;

// 4^5: one composed clause per choice of producer for each of the five
// atoms the consumer reads.
constexpr std::size_t kBlowupClauses = 1024;

struct Line {
  std::string text;
  const char* span;  // "<layer>.<what>" span name in traced runs
};

std::string Step(std::size_t i) { return "step" + std::to_string(i); }

class Evolution : public Workload {
 public:
  explicit Evolution(std::uint64_t seed) : seed_(seed) {}

  void Setup(Tracer* tracer) override {
    mm2::workload::Rng rng(seed_);
    mm2::workload::EvolutionChain chain;
    std::pair<mm2::logic::Mapping, mm2::logic::Mapping> blowup;
    mm2::model::Schema orig;
    mm2::workload::PerturbedSchema pert;
    mm2::model::Schema hier;
    mm2::instance::Instance d0;
    {
      Scope span(tracer, "workload.generate");
      chain = mm2::workload::MakeEvolutionChain(kChainSteps, kChainAttrs);
      blowup =
          mm2::workload::MakeComposeBlowup(kBlowupProducers, kBlowupAtoms);
      orig = mm2::workload::RandomRelationalSchema(
          "Orig", kMatchRelations, kMatchMaxAttrs, &rng);
      pert = mm2::workload::PerturbNames(orig, &rng);
      hier = mm2::workload::MakeHierarchy(kHierarchyDepth, 2, 3);
      d0 = mm2::workload::MakeChainInstance(chain, kChainRows, &rng);
    }
    {
      Scope span(tracer, "text.render");
      schema_texts_ = {mm2::text::SchemaToText(orig),
                       mm2::text::SchemaToText(pert.schema),
                       mm2::text::SchemaToText(hier)};
      mapping_texts_.clear();
      for (const mm2::logic::Mapping& step : chain.steps) {
        mapping_texts_.push_back(mm2::text::MappingToText(step));
      }
      mapping_texts_.push_back(mm2::text::MappingToText(blowup.first));
      mapping_texts_.push_back(mm2::text::MappingToText(blowup.second));
      instance_text_ = mm2::text::InstanceToText(d0);
    }
    text_bytes_ = instance_text_.size();
    for (const auto& t : schema_texts_) text_bytes_ += t.size();
    for (const auto& t : mapping_texts_) text_bytes_ += t.size();

    // Joining the two halves of every stepwise migration version on the
    // key must give back exactly the source rows.
    versions_.clear();
    for (std::size_t i = 1; i < chain.schemas.size(); ++i) {
      const mm2::model::Schema& schema = chain.schemas[i];
      std::string head, halves;
      std::size_t column = 1;
      for (const mm2::model::Relation& r : schema.relations()) {
        halves += (halves.empty() ? "" : ", ") + r.name() + "(v0";
        for (std::size_t a = 1; a < r.arity(); ++a) {
          halves += ", v" + std::to_string(column++);
        }
        halves += ")";
      }
      for (std::size_t a = 0; a < column; ++a) {
        head += (a > 0 ? ", v" : "v") + std::to_string(a);
      }
      versions_.push_back(
          {std::string("D").append(std::to_string(i)),
           *mm2::text::ParseQuery("Q(" + head + ") :- " + halves)});
    }
    source_rows_ = d0.relations().begin()->second.tuples();

    lines_ = ScriptLines(chain, d0, orig.name(), pert, hier.name(),
                         blowup.first.name(), blowup.second.name());
    script_.clear();
    for (const Line& line : lines_) script_ += line.text + "\n";
    correspondences_ = 0;
    counted_ = 0;
    counters_.clear();
  }

  OpOutcome RunOp(std::size_t /*index*/, Tracer* tracer) override {
    OpOutcome out;
    mm2::engine::Engine engine;
    std::vector<std::string> log;
    Clock::time_point start = Clock::now();
    {
      Scope op(tracer, "op");
      out.error = Run(engine, tracer, &log);
    }
    out.op_ms = MsSince(start);
    if (out.error.empty()) out.error = Check(engine, log);
    if (out.error.empty()) out.error = Read(engine, tracer, &out);
    if (tracer != nullptr && counted_ < kCountedOps) {
      ++counted_;
      counters_["text.parse_bytes"] = static_cast<double>(text_bytes_);
      counters_["match.correspondences"] =
          static_cast<double>(correspondences_);
      counters_["compose.clauses"] = static_cast<double>(blowup_clauses_);
      counters_["chase.query_rows"] =
          static_cast<double>(versions_.size() * source_rows_.size());
    }
    return out;
  }

  std::size_t CountedOps() const override { return kCountedOps; }

  Counters TakeCounters() override { return std::exchange(counters_, {}); }

 private:
  std::vector<Line> ScriptLines(const mm2::workload::EvolutionChain& chain,
                                const mm2::instance::Instance& d0,
                                const std::string& orig,
                                const mm2::workload::PerturbedSchema& pert,
                                const std::string& hier,
                                const std::string& m12,
                                const std::string& m23) const {
    std::vector<Line> lines;
    // Compose the chain left to right, then migrate through the result.
    std::string composed = Step(0);
    for (std::size_t i = 1; i < chain.steps.size(); ++i) {
      std::string out = std::string("chain").append(std::to_string(i));
      lines.push_back({"compose " + out + " " + composed + " " + Step(i),
                       "compose.chain"});
      composed = out;
    }
    lines.push_back({"exchange Dc " + composed + " D0", "runtime.exchange"});
    // Migrate step by step and compare with the composed migration.
    std::string current = "D0";
    for (std::size_t i = 0; i < chain.steps.size(); ++i) {
      std::string out = std::string("D").append(std::to_string(i + 1));
      lines.push_back({"exchange " + out + " " + Step(i) + " " + current,
                       "runtime.exchange"});
      current = out;
    }
    lines.push_back({"eqcheck Dc " + current, "instance.eqcheck"});
    lines.push_back({"compose blow " + m12 + " " + m23, "compose.blowup"});
    lines.push_back({"match " + orig + " " + pert.schema.name(),
                     "match.match"});
    std::string merge = "merge M M_left M_right " + orig + " " +
                        pert.schema.name();
    for (const mm2::match::Correspondence& c : pert.reference) {
      merge.append(" ").append(c.source.ToString()).append("=").append(
          c.target.ToString());
    }
    lines.push_back({merge, "merge.merge"});
    lines.push_back({"modelgen H_tph H_tph_map " + hier + " tph",
                     "modelgen.modelgen"});
    lines.push_back({"modelgen H_tpt H_tpt_map " + hier + " tpt",
                     "modelgen.modelgen"});
    lines.push_back({"inverse step0_inv " + Step(0), "inverse.inverse"});
    lines.push_back({"diff step0_diff step0_diff_map " + Step(0),
                     "diff.diff"});
    // Incremental upkeep of the composed migration: insert a fresh key,
    // delete the first row, maintain; then ask why a migrated row exists.
    const mm2::instance::RelationInstance& data =
        d0.relations().begin()->second;
    const mm2::instance::Tuple& first = *data.tuples().begin();
    mm2::instance::Tuple fresh = first;
    fresh[0] = mm2::instance::Value::Int64(static_cast<std::int64_t>(
        kChainRows));
    const std::string& rel = d0.relations().begin()->first;
    lines.push_back({"apply +" + rel + mm2::instance::TupleToString(fresh),
                     "runtime.apply"});
    lines.push_back({"apply -" + rel + mm2::instance::TupleToString(first),
                     "runtime.apply"});
    lines.push_back({"maintain " + composed, "runtime.maintain"});
    const mm2::model::Relation& left = chain.schemas.back().relations()[0];
    mm2::instance::Tuple why(first.begin(),
                             first.begin() + static_cast<std::ptrdiff_t>(
                                                 left.arity()));
    lines.push_back({"why " + left.name() + mm2::instance::TupleToString(why),
                     "runtime.why"});
    return lines;
  }

  // For every stepwise version Di, fetched from the engine's repository:
  // Q(v0, ..., v5) :- Left_vi(v0, v1, v2, v3), Right_vi(v0, v4, v5).
  std::string Read(mm2::engine::Engine& engine, Tracer* tracer,
                   OpOutcome* out) {
    std::vector<mm2::Result<std::vector<mm2::instance::Tuple>>> answers;
    std::vector<mm2::Result<mm2::instance::Instance>> fetched;  // freed later
    answers.reserve(versions_.size());
    fetched.reserve(versions_.size());
    Clock::time_point start = Clock::now();
    {
      Scope read(tracer, "read");
      for (const Version& version : versions_) {
        {
          Scope span(tracer, "engine.GetInstance");
          fetched.push_back(engine.repo().GetInstance(version.instance));
        }
        if (!fetched.back().ok()) return fetched.back().status().ToString();
        Scope span(tracer, "chase.CertainAnswers");
        answers.push_back(
            mm2::chase::CertainAnswers(version.query, *fetched.back()));
      }
    }
    out->read_ms = MsSince(start);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!answers[i].ok()) return answers[i].status().ToString();
      std::set<mm2::instance::Tuple> rows(answers[i]->begin(),
                                          answers[i]->end());
      if (rows != source_rows_) {
        return "joining the halves of " + versions_[i].instance + " gave " +
               std::to_string(rows.size()) + " rows, not the " +
               std::to_string(source_rows_.size()) + " source rows";
      }
    }
    return "";
  }

  // Parses every input, loads the engine and runs the script.
  std::string Run(mm2::engine::Engine& engine, Tracer* tracer,
                  std::vector<std::string>* log) {
    std::vector<mm2::model::Schema> schemas;
    for (const std::string& text : schema_texts_) {
      Scope span(tracer, "text.ParseSchema");
      auto parsed = mm2::text::ParseSchema(text);
      if (!parsed.ok()) return parsed.status().ToString();
      schemas.push_back(std::move(parsed.value()));
    }
    std::vector<mm2::logic::Mapping> mappings;
    for (const std::string& text : mapping_texts_) {
      Scope span(tracer, "text.ParseMapping");
      auto parsed = mm2::text::ParseMapping(text);
      if (!parsed.ok()) return parsed.status().ToString();
      mappings.push_back(std::move(parsed.value()));
    }
    mm2::Result<mm2::instance::Instance> d0;
    {
      Scope span(tracer, "text.ParseInstance");
      d0 = mm2::text::ParseInstance(instance_text_);
    }
    if (!d0.ok()) return d0.status().ToString();

    // Repository loads and command dispatch both count as engine time.
    Scope script(tracer, "engine.script");
    mm2::engine::Repository& repo = engine.repo();
    for (mm2::model::Schema& s : schemas) {
      mm2::Status put = repo.PutSchema(std::move(s));
      if (!put.ok()) return put.ToString();
    }
    for (mm2::logic::Mapping& m : mappings) {
      mm2::Status put = repo.PutMapping(std::move(m));
      if (!put.ok()) return put.ToString();
    }
    mm2::Status put = repo.PutInstance("D0", std::move(d0.value()));
    if (!put.ok()) return put.ToString();
    engine.SetThreads(1);
    if (tracer == nullptr) {
      auto ran = engine.RunScript(script_);
      if (!ran.ok()) return ran.status().ToString();
      *log = std::move(ran.value());
      return "";
    }
    for (const Line& line : lines_) {
      Scope span(tracer, line.span);
      auto ran = engine.RunScript(line.text);
      if (!ran.ok()) return ran.status().ToString();
      log->insert(log->end(), ran->begin(), ran->end());
    }
    return "";
  }

  // eqcheck must print `equal`, the maintain must move two rows in and two
  // out, the blow-up must compose to 4^5 clauses, and match must find the
  // same number of correspondences on every op.
  std::string Check(mm2::engine::Engine& engine,
                    const std::vector<std::string>& log) {
    auto ends_with = [](const std::string& line, std::string_view tail) {
      return line.size() >= tail.size() &&
             line.compare(line.size() - tail.size(), tail.size(), tail) == 0;
    };
    bool equal = false;
    bool maintained = false;
    std::size_t matched = 0;
    for (const std::string& line : log) {
      if (line.rfind("eqcheck ", 0) == 0) equal = ends_with(line, ": equal");
      if (line.rfind("maintained ", 0) == 0) {
        maintained = ends_with(line, ": +2 -2 tuples");
      }
      std::size_t at = line.find(" correspondences");
      if (line.rfind("matched ", 0) == 0 && at != std::string::npos) {
        std::size_t colon = line.rfind(": ", at);
        matched = std::stoul(line.substr(colon + 2, at - colon - 2));
      }
    }
    if (!equal) return "eqcheck did not print equal";
    if (!maintained) return "maintain did not report +2 -2 tuples";
    auto blow = engine.repo().GetMapping("blow");
    if (!blow.ok()) return blow.status().ToString();
    blowup_clauses_ = blow->ClauseCount();
    if (blowup_clauses_ != kBlowupClauses) {
      return "blow-up composed to " + std::to_string(blowup_clauses_) +
             " clauses, expected " + std::to_string(kBlowupClauses);
    }
    if (correspondences_ == 0) correspondences_ = matched;
    if (matched == 0 || matched != correspondences_) {
      return "match found " + std::to_string(matched) +
             " correspondences, first op found " +
             std::to_string(correspondences_);
    }
    return "";
  }

  std::uint64_t seed_;
  std::vector<std::string> schema_texts_;
  std::vector<std::string> mapping_texts_;
  std::string instance_text_;
  std::size_t text_bytes_ = 0;
  std::vector<Line> lines_;
  std::string script_;
  struct Version {
    std::string instance;  // repository name of a stepwise migration result
    mm2::logic::ConjunctiveQuery query;
  };
  std::vector<Version> versions_;
  std::set<mm2::instance::Tuple> source_rows_;  // expected read answer
  std::size_t counted_ = 0;  // traced ops counted since Setup
  std::size_t correspondences_ = 0;  // first op's count; later ops must match
  std::size_t blowup_clauses_ = 0;
  Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeEvolution(std::uint64_t seed) {
  return std::make_unique<Evolution>(seed);
}

}  // namespace perfbench
