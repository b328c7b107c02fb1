#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

namespace perfbench {
namespace {

// SplitMix64: the benchmark's own generator, so its inputs depend on the
// seed alone and not on any library RNG.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0 (modulo bias is < 2^-32 here).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t x_;
};

VertexId RandomNeighbor(const Graph& g, VertexId x, SeededRng& rng) {
  const auto nbrs = g.Neighbors(x);
  return nbrs.empty() ? x : nbrs[rng.Below(nbrs.size())];
}

VertexId Walk(const Graph& g, VertexId x, int steps, SeededRng& rng) {
  for (int i = 0; i < steps; ++i) x = RandomNeighbor(g, x, rng);
  return x;
}

/// Zipf(s) sampler over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  /// Maps a uniform draw in [0, 1) to a rank.
  size_t Rank(double uniform01) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform01);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

uint64_t EdgeKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<Pair> UniformPairs(VertexId num_vertices, size_t count,
                               uint64_t seed) {
  SeededRng rng(seed);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count && num_vertices > 1) {
    const auto u = static_cast<VertexId>(rng.Below(num_vertices));
    const auto v = static_cast<VertexId>(rng.Below(num_vertices));
    if (u != v) pairs.push_back({u, v});
  }
  return pairs;
}

std::vector<ServeRequest> ZipfRequests(VertexId num_vertices, size_t universe,
                                       double s, size_t count, uint64_t seed) {
  const std::vector<Pair> pairs =
      UniformPairs(num_vertices, universe, seed ^ 0x756e6976ULL);
  const ZipfSampler zipf(pairs.size(), s);
  SeededRng rng(seed);
  std::vector<ServeRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ServeRequest r;
    r.pair = pairs[zipf.Rank(rng.Unit())];
    r.spg = (rng.Next() & 1) != 0;
    out.push_back(r);
  }
  return out;
}

GraphDelta LocalEditBatch(const Graph& g, size_t edits, uint64_t seed,
                          std::vector<VertexId>* touched) {
  SeededRng rng(seed);
  GraphDelta delta;
  std::set<uint64_t> used;
  const VertexId n = g.NumVertices();
  // Bounded attempts: a graph with no candidate yields a short batch.
  for (size_t tries = 0; delta.size() < edits && tries < edits * 64;
       ++tries) {
    const auto x = static_cast<VertexId>(rng.Below(n));
    const bool insert = delta.size() % 2 == 0;
    VertexId y = x;
    if (insert) {
      y = Walk(g, x, 2 + static_cast<int>(rng.Below(2)), rng);
      if (y == x || g.HasEdge(x, y)) continue;
    } else {
      // Keep both endpoints attached so deletes do not strand vertices.
      if (g.Degree(x) < 2) continue;
      y = RandomNeighbor(g, x, rng);
      if (g.Degree(y) < 2) continue;
    }
    if (!used.insert(EdgeKey(x, y)).second) continue;
    if (insert) {
      delta.Insert(x, y);
    } else {
      delta.Delete(x, y);
    }
    if (touched != nullptr) {
      touched->push_back(x);
      touched->push_back(y);
    }
  }
  return delta;
}

std::vector<Pair> LocalPairs(const Graph& g,
                             const std::vector<VertexId>& anchors,
                             size_t count, uint64_t seed) {
  SeededRng rng(seed);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (size_t tries = 0; !anchors.empty() && pairs.size() < count &&
                         tries < count * 64;
       ++tries) {
    const VertexId x = anchors[rng.Below(anchors.size())];
    const VertexId y = Walk(g, x, 1 + static_cast<int>(rng.Below(3)), rng);
    if (y != x) pairs.push_back({x, y});
  }
  return pairs;
}

uint64_t Fingerprint(const void* data, size_t bytes, uint64_t h) {
  if (h == 0) h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<size_t>(std::ceil(q * n));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

namespace {

bool HasTenBeyond(size_t n, double q) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

}  // namespace

double SteadyTailQuantile(size_t n) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (HasTenBeyond(n, q)) return q;
  }
  return 0.5;
}

Summary Summarize(std::vector<double>* samples, double want_tail) {
  Summary s;
  s.n = samples->size();
  if (samples->empty()) return s;
  std::sort(samples->begin(), samples->end());
  s.p50 = QuantileSorted(*samples, 0.5);
  s.tail_q =
      HasTenBeyond(s.n, want_tail) ? want_tail : SteadyTailQuantile(s.n);
  s.tail = QuantileSorted(*samples, s.tail_q);
  double total = 0.0;
  for (const double x : *samples) total += x;
  s.mean = total / static_cast<double>(s.n);
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

Summary CombineRounds(const std::vector<Summary>& rounds) {
  Summary s;
  if (rounds.empty()) return s;
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> mean;
  s.tail_q = 1.0;
  for (const Summary& r : rounds) {
    p50.push_back(r.p50);
    tail.push_back(r.tail);
    mean.push_back(r.mean);
    s.n += r.n;
    s.tail_q = std::min(s.tail_q, r.tail_q);
  }
  s.p50 = Median(p50);
  s.tail = Median(tail);
  s.mean = Median(mean);
  return s;
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                     uint64_t seed) {
  SeededRng rng(seed);
  std::vector<int64_t> offsets;
  const double end_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (;;) {
    // 1 - Unit() is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Unit()) * mean_gap_ns;
    if (t >= end_ns) break;
    offsets.push_back(static_cast<int64_t>(t));
  }
  return offsets;
}

OpenLoopResult AnalyzeOpenLoop(double rate,
                               const std::vector<OpenLoopRecord>& records,
                               double tail_q) {
  OpenLoopResult r;
  r.rate = rate;
  r.attempted = records.size();
  if (records.empty()) return r;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  int64_t first_due = records.front().scheduled;
  int64_t last_done = records.front().done;
  for (const OpenLoopRecord& rec : records) {
    first_due = std::min(first_due, rec.scheduled);
    last_done = std::max(last_done, rec.done);
    late_us.push_back(
        static_cast<double>(std::max<int64_t>(0, rec.sent - rec.scheduled)) /
        1e3);
    if (rec.ok) {
      latency_us.push_back(static_cast<double>(rec.done - rec.scheduled) /
                           1e3);
    } else {
      ++r.failed;
    }
  }
  r.latency_us = Summarize(&latency_us, tail_q);
  std::sort(late_us.begin(), late_us.end());
  r.late_p99_us = QuantileSorted(late_us, 0.99);
  const double span_s = static_cast<double>(last_done - first_due) / 1e9;
  r.achieved_rate = span_s > 0.0
                        ? static_cast<double>(r.attempted - r.failed) / span_s
                        : 0.0;
  return r;
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  return Add(name, parent, request, NowNs(), 0);
}

void Tracer::End(uint32_t id) { spans_[id - 1].end = NowNs(); }

uint32_t Tracer::Add(const char* name, uint32_t parent, uint64_t request,
                     int64_t start, int64_t end) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
  return s.id;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = 0;
      int64_t cur_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
          continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
      if (open) covered += cur_end - cur_start;
    }
    const int64_t self = (s.end - s.start) - covered;
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ns += self;
    t.per_span_ns.push_back(static_cast<double>(self));
  }
  return out;
}

std::string ResultJson(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
