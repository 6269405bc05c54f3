// Shared pieces of the mm2 end-to-end benchmark: the span recorder used by
// traced runs, the workload interface the run loop uses, and small
// clock/memory helpers.
#ifndef MM2_PERFBENCH_BENCH_H_
#define MM2_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// VmHWM / VmRSS of this process in KiB, read from /proc/self/status.
std::uint64_t PeakRssKb();
std::uint64_t CurrentRssKb();

// In-memory span recorder. A span is one call the benchmark makes into a
// public function of an mm2 module (or a benchmark-level grouping such as
// one op); spans nest by call order and are written out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;           // a string literal
    std::int64_t start_ns = 0;  // since the tracer was created
    std::int64_t end_ns = 0;
    int parent = -1;            // index into spans(), -1 for roots
  };

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  int Begin(const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, in ms: its duration minus the union of its
  // direct children (children never overlap: calls are sequential).
  std::vector<double> SelfMs() const;

  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer (untraced runs) makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// What one op reports back to the run loop. `read_ms` < 0 means the op
// made no read. `error` non-empty marks the op failed (a non-OK status
// or a failed correctness check).
struct OpOutcome {
  double op_ms = 0;
  double read_ms = -1;
  std::string error;
};

// Deterministic per-layer counts and gauges, keyed by metric name.
using Counters = std::map<std::string, double>;

// Adds the chase and storage counts of one chase run to `sums`.
void AddChaseStats(const mm2::chase::ChaseStats& stats, Counters* sums);

// Turns counts summed by AddChaseStats (and any other per-op sums) over
// `ops` ops into per-op means, plus the derived ratios
// chase.useful_ratio, instance.retain_hit_ratio and
// chase.parallel_efficiency.
Counters PerOp(Counters sums, std::size_t ops);

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input and piece of state the ops need, replacing any
  // previous state. Timed by the run loop as setup_s.
  virtual void Setup(Tracer* tracer) = 0;

  // Runs op number `index` (0 = warm-up) against the current state; a
  // non-null tracer asks for spans around every call into mm2.
  virtual OpOutcome RunOp(std::size_t index, Tracer* tracer) = 0;

  // Number of traced ops, from the first after Setup, whose counts are
  // summed into the per-layer counters; fixed so that counts repeat for a
  // seed.
  virtual std::size_t CountedOps() const = 0;

  // End-of-phase correctness check over the final state; returns an error
  // message, or empty when the state is correct.
  virtual std::string FinalCheck() { return ""; }

  // Per-layer counters gathered since the last Setup (traced ops only).
  virtual Counters TakeCounters() = 0;
};

std::unique_ptr<Workload> MakeClosure(std::uint64_t seed, std::size_t threads);
std::unique_ptr<Workload> MakeMaintain(std::uint64_t seed);
std::unique_ptr<Workload> MakeEvolution(std::uint64_t seed);

}  // namespace perfbench

#endif  // MM2_PERFBENCH_BENCH_H_
