// mm2_perfbench: runs one workload of the end-to-end benchmark and prints
// its raw measurements as one JSON object on stdout. run.py builds this
// binary, turns the raw samples into exact quantiles and checks them.
//
//   mm2_perfbench --workload closure|closure_t4|maintain|evolution
//                 --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Untraced (--trace 0): set up several times (each set-up timed), then run
// ops until S seconds have passed. Op 0 is warm-up and reported apart.
// Traced (--trace 1): one traced set-up, then S seconds of ops of which
// half, interleaved, record a span around every call into an mm2 module.
// Per-layer self times come from those spans, per-layer counts from the
// first CountedOps() traced ops, and the op-p50 gap between traced and
// untraced ops is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// ---- minimal JSON writer ---------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

std::string Object(const Counters& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ",";
    first = false;
    out += Quote(key) + ":" + Num(value);
  }
  return out + "}";
}

// ---- run loop --------------------------------------------------------------

struct Phase {
  double warmup_ms = 0;
  std::vector<double> op_ms;         // untraced ops, warm-up excluded
  std::vector<double> read_ms;       // reads of those ops, first excluded
  std::vector<double> traced_op_ms;  // traced ops (traced runs only)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

void NoteError(Phase* phase, const std::string& error) {
  ++phase->failed;
  if (phase->errors.size() < 5) phase->errors.push_back(error);
}

// Whether op `index` of a traced run is traced: the Thue-Morse sequence
// (odd bit count). It interleaves traced and untraced ops half and half
// with no period, so both halves see the same drift of the machine and the
// same mix of a workload's cyclic inputs.
bool TracedOp(std::size_t index) { return __builtin_popcountll(index) % 2; }

// Runs ops until `seconds` have passed. Op 0 is warm-up. With a tracer,
// ops are traced per TracedOp and the run lasts at least until the
// workload has counted all its CountedOps().
Phase RunPhase(Workload& workload, Tracer* tracer, double seconds) {
  Phase phase;
  std::size_t min_ops = 2;
  if (tracer != nullptr) {
    std::size_t traced = 0;
    while (traced < workload.CountedOps()) traced += TracedOp(min_ops++);
  }
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  bool first_read = true;
  for (std::size_t i = 0; i < min_ops || Clock::now() < deadline; ++i) {
    bool traced = tracer != nullptr && TracedOp(i);
    OpOutcome out = workload.RunOp(i, traced ? tracer : nullptr);
    ++phase.attempted;
    if (!out.error.empty()) NoteError(&phase, out.error);
    if (i == 0) {
      phase.warmup_ms = out.op_ms;
    } else if (traced) {
      phase.traced_op_ms.push_back(out.op_ms);
    } else {
      phase.op_ms.push_back(out.op_ms);
    }
    if (out.read_ms >= 0 && !traced) {
      if (!first_read) phase.read_ms.push_back(out.read_ms);
      first_read = false;
    }
  }
  std::string final_error = workload.FinalCheck();
  if (!final_error.empty()) NoteError(&phase, "final check: " + final_error);
  return phase;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::size_t SetupRepetitions(const std::string& workload) {
  // Session set-up is the heavy one (a full chase over 32k keys); the
  // others take about a millisecond, so more repetitions steady the median.
  return workload == "maintain" ? 3 : 9;
}

// Per-layer times from the traced ops. Each entry names a metric, the
// spans whose self time it sums, and what it is averaged over.
struct SpanMetric {
  const char* metric;
  std::vector<std::string> spans;
  enum Per { kOp, kRead, kSetup } per;
};

const std::vector<SpanMetric>& SpanMetrics() {
  static const std::vector<SpanMetric> table = {
      {"chase.self_ms", {"chase.ChaseInstance"}, SpanMetric::kOp},
      {"chase.core_self_ms", {"chase.ComputeCore"}, SpanMetric::kOp},
      {"chase.query_self_ms", {"chase.CertainAnswers"}, SpanMetric::kRead},
      {"instance.load_ms", {"instance.load"}, SpanMetric::kSetup},
      {"runtime.begin_session_ms",
       {"runtime.BeginExchangeSession"},
       SpanMetric::kSetup},
      {"runtime.maintain_self_ms",
       {"runtime.MaintainExchange"},
       SpanMetric::kOp},
      {"text.parse_ms",
       {"text.ParseSchema", "text.ParseMapping", "text.ParseInstance"},
       SpanMetric::kOp},
      {"engine.dispatch_ms", {"engine.script"}, SpanMetric::kOp},
      {"compose.chain_ms", {"compose.chain"}, SpanMetric::kOp},
      {"compose.blowup_ms", {"compose.blowup"}, SpanMetric::kOp},
      {"match.ms", {"match.match"}, SpanMetric::kOp},
      {"merge.ms", {"merge.merge"}, SpanMetric::kOp},
      {"modelgen.ms", {"modelgen.modelgen"}, SpanMetric::kOp},
      {"inverse.ms", {"inverse.inverse"}, SpanMetric::kOp},
      {"diff.ms", {"diff.diff"}, SpanMetric::kOp},
      {"runtime.exchange_ms", {"runtime.exchange"}, SpanMetric::kOp},
  };
  return table;
}

struct TraceSummary {
  Counters metrics;        // SpanMetrics() values
  // Self time of op and read spans per op, by layer (span name prefix).
  Counters layer_self_ms;
  double min_coverage = 1;
  std::size_t ops = 0;
  std::size_t reads = 0;
  std::size_t setups = 0;
};

std::string LayerOf(const std::string& span) {
  return span.substr(0, span.find('.'));
}

TraceSummary Summarize(const Tracer& tracer) {
  TraceSummary out;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<double> self = tracer.SelfMs();
  std::vector<double> child_ms(spans.size(), 0);
  std::vector<std::size_t> root(spans.size());
  std::map<std::string, double> self_by_name;
  std::map<std::string, double> op_self_by_name;  // under op/read roots
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    double ms = (s.end_ns - s.start_ns) / 1e6;
    if (s.parent >= 0) child_ms[s.parent] += ms;
    root[i] = s.parent < 0 ? i : root[s.parent];  // parents come first
    self_by_name[s.name] += self[i];
    if (std::string_view(spans[root[i]].name) != "setup") {
      op_self_by_name[s.name] += self[i];
    }
    if (s.parent < 0) {
      std::string_view name = s.name;
      if (name == "op") ++out.ops;
      if (name == "read") ++out.reads;
      if (name == "setup") ++out.setups;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::string_view name = s.name;
    if (s.parent >= 0 || (name != "op" && name != "read")) continue;
    double ms = (s.end_ns - s.start_ns) / 1e6;
    if (ms > 0) out.min_coverage = std::min(out.min_coverage, child_ms[i] / ms);
  }
  for (const SpanMetric& m : SpanMetrics()) {
    double total = 0;
    for (const std::string& name : m.spans) total += self_by_name[name];
    std::size_t per = m.per == SpanMetric::kOp     ? out.ops
                      : m.per == SpanMetric::kRead ? out.reads
                                                   : out.setups;
    out.metrics[m.metric] = per == 0 ? 0 : total / static_cast<double>(per);
  }
  for (const auto& [name, ms] : op_self_by_name) {
    std::string layer = LayerOf(name);
    if (layer == "op" || layer == "read") {
      layer = "bench";  // the benchmark's own glue between calls
    }
    out.layer_self_ms[layer] +=
        out.ops == 0 ? 0 : ms / static_cast<double>(out.ops);
  }
  return out;
}

// Only closure_t4 runs the chase with more than one thread.
std::size_t Threads(const std::string& workload) {
  return workload == "closure_t4" ? 4 : 1;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "closure" || args.workload == "closure_t4") {
    return MakeClosure(args.seed, Threads(args.workload));
  }
  if (args.workload == "maintain") return MakeMaintain(args.seed);
  if (args.workload == "evolution") return MakeEvolution(args.seed);
  return nullptr;
}

std::string Stamp(const Args& args) {
  std::ostringstream out;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimize = true;
#else
  const bool optimize = false;
#endif
  out << "{\"ndebug\":" << (ndebug ? "true" : "false")
      << ",\"optimize\":" << (optimize ? "true" : "false")
      << ",\"compiler\":" << Quote(std::string("g++ ") + __VERSION__)
      << ",\"threads\":" << Threads(args.workload)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"seed\":" << args.seed
      << ",\"workload\":" << Quote(args.workload) << "}";
  return out.str();
}

std::string PhaseJson(const Phase& phase) {
  std::string errors = "[";
  for (std::size_t i = 0; i < phase.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += Quote(phase.errors[i]);
  }
  errors += "]";
  return "{\"warmup_ms\":" + Num(phase.warmup_ms) +
         ",\"op_ms\":" + Array(phase.op_ms) +
         ",\"read_ms\":" + Array(phase.read_ms) +
         ",\"traced_op_ms\":" + Array(phase.traced_op_ms) +
         ",\"attempted\":" + std::to_string(phase.attempted) +
         ",\"failed\":" + std::to_string(phase.failed) +
         ",\"errors\":" + errors + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: mm2_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  std::string json = "{\"stamp\":" + Stamp(args);
  if (!args.trace) {
    std::vector<double> setup_s;
    for (std::size_t r = 0; r < SetupRepetitions(args.workload); ++r) {
      Clock::time_point start = Clock::now();
      workload->Setup(nullptr);
      setup_s.push_back(MsSince(start) / 1000);
    }
    Phase phase = RunPhase(*workload, nullptr, args.seconds);
    json += ",\"setup_s\":" + Array(setup_s) +
            ",\"phase\":" + PhaseJson(phase);
  } else {
    Tracer tracer;
    {
      Scope setup(&tracer, "setup");
      workload->Setup(&tracer);
    }
    Phase phase = RunPhase(*workload, &tracer, args.seconds);
    Counters counters = workload->TakeCounters();
    TraceSummary summary = Summarize(tracer);
    for (const auto& [key, value] : summary.metrics) counters[key] = value;
    double plain_p50 = Median(phase.op_ms);
    counters["obs.trace_overhead_pct"] =
        plain_p50 > 0
            ? (Median(phase.traced_op_ms) - plain_p50) / plain_p50 * 100
            : 0;
    counters[args.workload + ".warmup_ms"] = phase.warmup_ms;
    if (!args.spans_path.empty() && !tracer.WriteJson(args.spans_path)) {
      std::cerr << "cannot write spans to " << args.spans_path << "\n";
      return 1;
    }
    json += ",\"phase\":" + PhaseJson(phase) +
            ",\"per_layer\":" + Object(counters) +
            ",\"layer_self_ms\":" + Object(summary.layer_self_ms) +
            ",\"span_coverage_min\":" + Num(summary.min_coverage) +
            ",\"spans\":" + std::to_string(tracer.spans().size());
  }
  json += ",\"peak_rss_mb\":" + Num(PeakRssKb() / 1024.0) + "}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace

// ---- shared helpers declared in bench.h ------------------------------------

namespace {
std::uint64_t StatusField(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtoull(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}
}  // namespace

std::uint64_t PeakRssKb() { return StatusField("VmHWM:"); }

void AddChaseStats(const mm2::chase::ChaseStats& s, Counters* sums) {
  Counters& c = *sums;
  c["chase.rounds"] += s.rounds;
  c["chase.assignments"] += s.assignments_matched;
  c["chase.firings"] += s.tgd_firings;
  c["chase.nulls"] += s.nulls_created;
  c["chase.unifications"] += s.egd_unifications;
  c["chase.delta_tuples"] += s.delta_tuples;
  c["chase.delta_skips"] += s.delta_skips;
  c["chase.index_probes"] += s.index_probes;
  c["chase.parallel_regions"] += s.parallel_regions;
  c["chase.parallel_tasks"] += s.parallel_tasks;
  c["chase.parallel_steals"] += s.parallel_steals;
  c["chase.parallel_busy_us"] += s.parallel_busy_us;
  c["chase.parallel_capacity_us"] +=
      s.parallel_wall_us * static_cast<double>(s.workers);
  c["instance.seals"] += s.segment.seals;
  c["instance.sealed_rows"] += s.segment.sealed_rows;
  c["instance.compactions"] += s.segment.compactions;
  c["instance.merged_rows"] += s.segment.merged_rows;
  c["instance.compares"] += s.segment.compares;
  c["instance.probes"] += s.segment.probes;
  c["instance.probe_fallbacks"] += s.segment.fallbacks;
  c["instance.retain_candidates"] += s.segment.retain_candidates;
  c["instance.retain_hits"] += s.segment.retain_hits;
  c["instance.deferred_rebuilds"] += s.segment.deferred_rebuilds;
  c["instance.live_runs"] += s.segment_shape.live_segments;
}

Counters PerOp(Counters sums, std::size_t ops) {
  auto ratio = [&sums](const char* num, const char* den) {
    double d = sums[den];
    return d > 0 ? sums[num] / d : 0;
  };
  double useful = ratio("chase.firings", "chase.assignments");
  double retain = ratio("instance.retain_hits", "instance.retain_candidates");
  double efficiency =
      ratio("chase.parallel_busy_us", "chase.parallel_capacity_us");
  for (const char* helper :
       {"instance.retain_hits", "instance.retain_candidates",
        "chase.parallel_busy_us", "chase.parallel_capacity_us"}) {
    sums.erase(helper);
  }
  for (auto& [key, value] : sums) value /= static_cast<double>(ops);
  sums["chase.useful_ratio"] = useful;
  sums["instance.retain_hit_ratio"] = retain;
  sums["chase.parallel_efficiency"] = efficiency;
  return sums;
}
std::uint64_t CurrentRssKb() { return StatusField("VmRSS:"); }

int Tracer::Begin(const char* name) {
  int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, Now(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = Now();
  open_.pop_back();
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    double ms = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    self[i] += ms;
    if (spans_[i].parent >= 0) self[spans_[i].parent] -= ms;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i
        << ",\"name\":" << Quote(s.name) << ",\"start_us\":"
        << Num(s.start_ns / 1e3) << ",\"end_us\":" << Num(s.end_ns / 1e3)
        << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
