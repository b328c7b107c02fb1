// Self-test of the benchmark's own helpers (harness.h): seeded inputs are
// byte-identical for one seed and differ across seeds; the percentile and
// sample-count rule; the open-loop schedule, lateness and completed-rate
// accounting; span self time on a hand-built tree; and the shape of the
// result line. Exits 1 on any failed check.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "harness.h"

namespace perfbench {
namespace {

int g_checks = 0;
int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    ++g_checks;                                                        \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
    }                                                                  \
  } while (0)

template <typename T>
uint64_t Fp(const std::vector<T>& v) {
  return Fingerprint(v.data(), v.size() * sizeof(T));
}

uint64_t RequestsFp(const std::vector<ServeRequest>& requests) {
  uint64_t h = 0;
  for (const ServeRequest& r : requests) {
    const uint32_t words[3] = {r.pair.u, r.pair.v, r.spg ? 1u : 0u};
    h = Fingerprint(words, sizeof(words), h);
  }
  return h;
}

uint64_t DeltaFp(const GraphDelta& d) {
  uint64_t h = 0;
  for (const auto& e : d.updates()) {
    const uint32_t words[3] = {static_cast<uint32_t>(e.op), e.u, e.v};
    h = Fingerprint(words, sizeof(words), h);
  }
  return h;
}

void SeededInputs() {
  EXPECT(Fp(UniformPairs(5000, 1000, 7)) == Fp(UniformPairs(5000, 1000, 7)));
  EXPECT(Fp(UniformPairs(5000, 1000, 7)) != Fp(UniformPairs(5000, 1000, 8)));
  for (const Pair& p : UniformPairs(50, 500, 3)) EXPECT(p.u != p.v);

  const auto zipf_a = ZipfRequests(5000, 800, 0.99, 3000, 11);
  EXPECT(RequestsFp(zipf_a) ==
         RequestsFp(ZipfRequests(5000, 800, 0.99, 3000, 11)));
  EXPECT(RequestsFp(zipf_a) !=
         RequestsFp(ZipfRequests(5000, 800, 0.99, 3000, 12)));
  // Zipf skew: the hottest pair is far more frequent than 1/universe.
  size_t hottest = 0;
  for (const ServeRequest& r : zipf_a) {
    if (r.pair == zipf_a.front().pair) ++hottest;
  }
  EXPECT(hottest >= 3);
  size_t spg = 0;
  for (const ServeRequest& r : zipf_a) spg += r.spg ? 1 : 0;
  EXPECT(spg > 1300 && spg < 1700);  // 50/50 modes

  EXPECT(Fp(PoissonSchedule(1000, 1, 5)) == Fp(PoissonSchedule(1000, 1, 5)));
  EXPECT(Fp(PoissonSchedule(1000, 1, 5)) != Fp(PoissonSchedule(1000, 1, 6)));

  const Graph g = qbs::BarabasiAlbert(2000, 3, 7);
  std::vector<VertexId> touched_a;
  std::vector<VertexId> touched_b;
  const GraphDelta a = LocalEditBatch(g, 16, 21, &touched_a);
  const GraphDelta b = LocalEditBatch(g, 16, 21, &touched_b);
  EXPECT(a.size() == 16);
  EXPECT(DeltaFp(a) == DeltaFp(b));
  EXPECT(Fp(touched_a) == Fp(touched_b));
  EXPECT(DeltaFp(a) != DeltaFp(LocalEditBatch(g, 16, 22, nullptr)));
  for (const auto& e : a.updates()) {
    // Every edit changes the graph: inserts of absent, deletes of present.
    EXPECT(g.HasEdge(e.u, e.v) == (e.op == qbs::EdgeOp::kDelete));
  }
  const auto local = LocalPairs(g, touched_a, 200, 5);
  EXPECT(local.size() == 200);
  EXPECT(Fp(local) == Fp(LocalPairs(g, touched_a, 200, 5)));
  EXPECT(Fp(local) != Fp(LocalPairs(g, touched_a, 200, 6)));
}

void Percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(QuantileSorted(v, 0.5) == 50);
  EXPECT(QuantileSorted(v, 0.99) == 99);
  EXPECT(QuantileSorted(v, 1.0) == 100);
  EXPECT(QuantileSorted(v, 0.0) == 1);
  // Ten samples must lie beyond the reported tail.
  EXPECT(SteadyTailQuantile(10000) == 0.999);
  EXPECT(SteadyTailQuantile(9999) == 0.99);
  EXPECT(SteadyTailQuantile(1000) == 0.99);
  EXPECT(SteadyTailQuantile(999) == 0.9);
  EXPECT(SteadyTailQuantile(100) == 0.9);
  EXPECT(SteadyTailQuantile(99) == 0.5);
  std::vector<double> small(500);
  for (size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<double>(small.size() - i);
  }
  const Summary s = Summarize(&small, 0.99);
  EXPECT(s.n == 500);
  EXPECT(s.tail_q == 0.9);  // p99 would have only five samples beyond it
  EXPECT(s.tail == 450);
  EXPECT(s.p50 == 250);
  std::vector<double> big(2000, 1.0);
  EXPECT(Summarize(&big, 0.99).tail_q == 0.99);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);

  // Rounds combine by median, so one disturbed round does not move them.
  std::vector<Summary> rounds(5);
  for (size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].n = 1000 + i;
    rounds[i].p50 = 10.0 + static_cast<double>(i);
    rounds[i].tail = 100.0 + static_cast<double>(i);
    rounds[i].tail_q = 0.99;
  }
  rounds[4].p50 = 1000.0;  // a stalled round
  rounds[1].tail_q = 0.9;
  const Summary combined = CombineRounds(rounds);
  EXPECT(combined.p50 == 12.0);
  EXPECT(combined.tail == 102.0);
  EXPECT(combined.tail_q == 0.9);
  EXPECT(combined.n == 5010);
}

void OpenLoop() {
  const auto sched = PoissonSchedule(2000, 2.0, 9);
  EXPECT(sched.size() > 3800 && sched.size() < 4200);
  for (size_t i = 1; i < sched.size(); ++i) EXPECT(sched[i] >= sched[i - 1]);
  EXPECT(sched.back() < 2000000000);

  // 1000 requests due every 1 ms; the sender is on time for the first
  // 750 and 5 ms late for the last quarter; each takes 100 us once sent;
  // request 10 fails.
  std::vector<OpenLoopRecord> recs;
  for (int i = 0; i < 1000; ++i) {
    OpenLoopRecord r;
    r.scheduled = i * 1000000LL;
    r.sent = r.scheduled + (i >= 750 ? 5000000 : 0);
    r.done = r.sent + 100000;
    r.ok = i != 10;
    recs.push_back(r);
  }
  const OpenLoopResult res = AnalyzeOpenLoop(1000.0, recs, 0.99);
  EXPECT(res.attempted == 1000);
  EXPECT(res.failed == 1);
  EXPECT(res.latency_us.n == 999);
  EXPECT(res.latency_us.p50 == 100.0);  // timed from the schedule
  EXPECT(res.latency_us.tail_q == 0.9);  // 999 samples: < 10 beyond p99
  EXPECT(res.latency_us.tail == 5100.0);
  EXPECT(res.late_p99_us == 5000.0);
  EXPECT(AnalyzeOpenLoop(1000.0, recs, 0.5).latency_us.tail == 100.0);
  // 999 completions between the first due time (0) and the last reply
  // (999 ms + 5 ms late + 0.1 ms).
  EXPECT(std::fabs(res.achieved_rate - 999 / 1.0041) < 1e-6);
}

void SpanSelfTime() {
  //  root [0, 100]
  //    a [10, 40]      a1 [15, 20]
  //    b [30, 60]      b1 [50, 70]  (runs past b's end: clipped)
  std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100}, {2, 1, 7, "a", 10, 40},
      {3, 1, 7, "b", 30, 60},    {4, 2, 7, "a1", 15, 20},
      {5, 3, 7, "b1", 50, 70},
  };
  const auto self = SelfTimes(spans);
  EXPECT(self.at("root").total_ns == 50);  // children cover [10, 60]
  EXPECT(self.at("a").total_ns == 25);
  EXPECT(self.at("b").total_ns == 20);
  EXPECT(self.at("a1").total_ns == 5);
  EXPECT(self.at("b1").total_ns == 20);
  EXPECT(self.at("root").count == 1);

  Tracer off(false);
  { ScopedSpan s(off, "x", 0, 0); }
  EXPECT(off.spans().empty());
  Tracer on(true);
  {
    ScopedSpan outer(on, "outer", 0, 3);
    ScopedSpan inner(on, "inner", outer.id(), 3);
  }
  EXPECT(on.spans().size() == 2);
  EXPECT(on.spans()[1].parent == on.spans()[0].id);
  EXPECT(on.spans()[0].end >= on.spans()[1].end);
}

void ResultLine() {
  RunResult r;
  r.attempted = 12;
  r.failed = 1;
  r.Add("p50_us", 1.25, "us");
  r.Add("setup_s", 0.5, "s");
  EXPECT(ResultJson(r) ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": "
         "{\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"setup_s\": "
         "{\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::SeededInputs();
  perfbench::Percentiles();
  perfbench::OpenLoop();
  perfbench::SpanSelfTime();
  perfbench::ResultLine();
  std::printf("perfbench selftest: %d checks, %d failed\n",
              perfbench::g_checks, perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
