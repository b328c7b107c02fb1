// Helpers of the QbS benchmark that carry its measurement rules: seeded
// input synthesis, the percentile and sample-count rule, open-loop schedule
// and lateness accounting, span tracing with per-layer self time, and the
// result line.
//
// Everything here is deterministic given its inputs, so selftest.cc checks
// each rule on hand-built data.

#ifndef QBS_PERFBENCH_HARNESS_H_
#define QBS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace perfbench {

using qbs::Graph;
using qbs::GraphDelta;
using qbs::VertexId;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Seeded inputs ---------------------------------------------------------

struct Pair {
  VertexId u = 0;
  VertexId v = 0;
  friend bool operator==(const Pair& a, const Pair& b) {
    return a.u == b.u && a.v == b.v;
  }
};

/// `count` uniform random pairs with u != v (paper §6.1).
std::vector<Pair> UniformPairs(VertexId num_vertices, size_t count,
                               uint64_t seed);

/// One request of the served workload: a pair from the Zipf-ranked
/// universe and its answer mode (true = SPG, false = distance only).
struct ServeRequest {
  Pair pair;
  bool spg = false;
  friend bool operator==(const ServeRequest& a, const ServeRequest& b) {
    return a.pair == b.pair && a.spg == b.spg;
  }
};

/// `count` requests: pairs drawn Zipf(s) from a universe of `universe`
/// uniform pairs, modes 50/50 distance / SPG.
std::vector<ServeRequest> ZipfRequests(VertexId num_vertices, size_t universe,
                                       double s, size_t count, uint64_t seed);

/// A mixed insert/delete edit batch local to `g`: inserts close a seeded
/// 2- or 3-hop path (a new tie between friends of friends), deletes remove
/// seeded existing edges. Every edit changes the graph (no no-ops) unless
/// the graph offers no candidate. Endpoints of the batch go to *touched.
GraphDelta LocalEditBatch(const Graph& g, size_t edits, uint64_t seed,
                          std::vector<VertexId>* touched);

/// Pairs (x, y) with x drawn from `anchors` and y reached by a seeded
/// 1–3 step walk from x in `g`; pairs with x == y are redrawn.
std::vector<Pair> LocalPairs(const Graph& g,
                             const std::vector<VertexId>& anchors,
                             size_t count, uint64_t seed);

/// FNV-1a over a byte range: the fingerprint the self-test compares.
uint64_t Fingerprint(const void* data, size_t bytes, uint64_t h = 0);

// ---- Percentiles and sample counts ----------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]).
double QuantileSorted(const std::vector<double>& sorted, double q);

/// The highest of {0.999, 0.99, 0.9, 0.5} that leaves at least ten samples
/// beyond it in a sample of size n (0.5 when n < 20).
double SteadyTailQuantile(size_t n);

/// A timing reported as median and tail, with its sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;    // value at tail_q
  double tail_q = 0.0;  // the quantile `tail` stands for
  double mean = 0.0;
};

/// Summarizes `samples` (sorted in place). `want_tail` is the tail
/// quantile asked for; it is lowered to SteadyTailQuantile(n) when the
/// sample is too small to have ten values beyond it.
Summary Summarize(std::vector<double>* samples, double want_tail = 0.99);

double Median(std::vector<double> values);

/// Combines per-round summaries of one timing: p50 and tail are the medians
/// of the rounds' p50s and tails, tail_q the lowest round tail quantile, n
/// the total sample count. Load on a shared host drifts over seconds; a
/// median over rounds spread through the run is steadier than one pooled
/// percentile, which a few disturbed seconds can shift.
Summary CombineRounds(const std::vector<Summary>& rounds);

// ---- Open-loop schedule ----------------------------------------------------

/// Poisson arrival offsets (ns from the segment start) at `rate_per_s`
/// for `seconds`, from `seed`.
std::vector<int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                     uint64_t seed);

/// Per-request record of an open-loop segment (all ns on one clock).
struct OpenLoopRecord {
  int64_t scheduled = 0;  // when the request was due
  int64_t sent = 0;       // when the sender actually sent it
  int64_t done = 0;       // when its reply arrived
  bool ok = false;
};

/// What an open-loop segment measured.
struct OpenLoopResult {
  double rate = 0.0;            // offered rate (1/s)
  double achieved_rate = 0.0;   // completed / (last done - first due)
  Summary latency_us;           // done - scheduled, ok requests only
  double late_p99_us = 0.0;     // p99 of (sent - scheduled)
  size_t attempted = 0;
  size_t failed = 0;
};

/// `tail_q` is the latency tail asked for (see Summarize).
OpenLoopResult AnalyzeOpenLoop(double rate,
                               const std::vector<OpenLoopRecord>& records,
                               double tail_q);

// ---- Spans -----------------------------------------------------------------

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint64_t request = 0;
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call. Not thread-safe: one tracer per thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);
  /// Adds an already-measured span.
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start, int64_t end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Appends every span to `path` as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint32_t parent,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

/// Self time of one span: its duration minus the part of its interval that
/// the union of its direct children covers.
struct SelfTime {
  uint64_t count = 0;
  int64_t total_ns = 0;
  std::vector<double> per_span_ns;
};

/// Self times aggregated by span name.
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

// ---- Result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts, the
  /// meaning of each number on this workload).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// The one-line JSON result object.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // QBS_PERFBENCH_HARNESS_H_
