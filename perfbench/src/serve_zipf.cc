// serve-zipf: the daemon path. The DB stand-in (Barabási–Albert, moderate
// hubs) at scale 30 is indexed, saved and loaded back with
// QbsIndex::LoadFromFile, as `qbs serve` does, and served by an in-process
// QueryServer on loopback. QueryClient connections, one per CPU, replay an
// open-loop Poisson schedule at a fixed absolute rate, interleaved with
// closed-loop rounds that measure the rate the server sustains: Zipf(0.99)
// hot pairs, half distance-only and half SPG requests, from a pair universe
// sized against the result cache. Every open-loop request is timed from
// its scheduled send time.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/dataset_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qbs::server::QueryClient;
using qbs::server::QueryServer;

constexpr double kScale = 30.0;
constexpr int kSetupReps = 3;
constexpr double kZipfS = 0.99;
// Pair universe and result-cache budget: together they set the steady
// cache hit rate near 0.72, so the median request takes the cache path and
// the p90 request the execute path (see METRICS.md).
constexpr size_t kUniverse = 400000;
constexpr size_t kCacheBytes = size_t{8} << 20;
constexpr size_t kRequests = 1200000;
// Generous per-request deadline: only a pathological stall misses it, and
// a miss counts as a failed request.
constexpr uint32_t kDeadlineMs = 1000;
// The named rate behind p50_us / tail_us. The tail here is p90: a host
// stall of a few milliseconds, common on a shared virtual machine, moves a
// p99 of 20k requests but not a p90.
constexpr double kTailQ = 0.9;
constexpr double kNamedRate = 20000.0;
// The window runs in kNamedPieces blocks. Each block is a named-rate piece
// (kNamedShare of its time) followed by closed-loop rounds of
// kClosedRoundRequests back-to-back requests over every connection.
// p50_us and tail_us are medians over pieces (CombineRounds), and
// throughput_per_s the median completed rate over rounds. Not a ladder of
// fixed rates with a latency limit: the highest passing rung followed host
// load and spread by 0.3 of its median between runs.
constexpr size_t kNamedPieces = 8;
constexpr double kNamedShare = 0.4;
constexpr size_t kClosedRoundRequests = 20000;
constexpr double kWarmupMaxSeconds = 10.0;
constexpr uint64_t kCheckEvery = 1500;

/// Waits until `due` (steady-clock ns) by yielding in a loop. A sleeping
/// sender wakes late by the timer slack and the idle-state exit of its
/// CPU, often by a millisecond on a virtual machine, which would shift
/// every send off its schedule; a yielding one sends on time and still
/// gives way to the server's threads.
void WaitUntil(int64_t due) {
  while (NowNs() < due) std::this_thread::yield();
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling sender thread to `cpu`. Unpinned, the senders and the
/// server's connection threads switched between two placements at random
/// moments, and the closed-loop rate switched with them between about
/// 65k/s and 100k/s, within a run and between runs. With each sender on
/// its own CPU the rate held within about a tenth.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

struct Sender {
  QueryClient client;
  std::vector<PendingCheck> pending;
  std::vector<QueryResponse> sampled;
  std::vector<Span> spans;
};

struct Traffic {
  const std::vector<ServeRequest>* requests = nullptr;
  size_t cursor = 0;  // next request of the stream
  uint64_t seed = 0;
  bool trace = false;
};

QueryRequest ToRequest(const ServeRequest& r) {
  return QueryRequest(r.pair.u, r.pair.v,
                      r.spg ? QueryMode::kSpg : QueryMode::kDistance, 0, 0,
                      kDeadlineMs);
}

/// Replays `schedule` (ns offsets; all zero = closed loop) over the
/// senders, each request claimed by whichever connection is free, and
/// returns one record per request in schedule order.
std::vector<OpenLoopRecord> RunSegment(std::vector<Sender>& senders,
                                       Traffic& traffic,
                                       const std::vector<int64_t>& schedule) {
  std::vector<OpenLoopRecord> records(schedule.size());
  std::atomic<size_t> next{0};
  const size_t base = traffic.cursor;
  const int64_t start = NowNs() + 2000000;  // 2 ms for the threads to start
  static const std::vector<int> cpus = AllowedCpus();
  std::vector<std::thread> threads;
  for (Sender& sender : senders) {
    const size_t k = threads.size();
    threads.emplace_back([&, base, start, k] {
      if (!cpus.empty()) PinTo(cpus[k % cpus.size()]);
      for (size_t i = next.fetch_add(1); i < schedule.size();
           i = next.fetch_add(1)) {
        const uint64_t op = base + i;
        const ServeRequest& r =
            (*traffic.requests)[op % traffic.requests->size()];
        OpenLoopRecord& rec = records[i];
        rec.scheduled = start + schedule[i];
        WaitUntil(rec.scheduled);
        rec.sent = NowNs();
        QueryResponse response;
        QueryClient::RpcStatus status =
            sender.client.connected() ? sender.client.Query(ToRequest(r),
                                                            &response)
                                      : QueryClient::RpcStatus::kTransportError;
        rec.done = NowNs();
        rec.ok = status == QueryClient::RpcStatus::kOk;
        if (status == QueryClient::RpcStatus::kTransportError) {
          sender.client.Reconnect();
        }
        if (traffic.trace) {
          sender.spans.push_back(
              {0, 0, op, "server.request", rec.sent, rec.done});
        }
        if (rec.ok && Sampled(traffic.seed, op, kCheckEvery)) {
          sender.sampled.push_back(response);
          sender.pending.push_back(
              {r.pair.u, r.pair.v, r.spg, std::move(response.spg)});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  traffic.cursor += schedule.size();
  return records;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Mean ns per call of `fn` over `items`, median of five passes.
template <typename T, typename Fn>
double NsPerItem(const std::vector<T>& items, Fn fn) {
  std::vector<double> passes;
  for (int pass = 0; pass < 5 && !items.empty(); ++pass) {
    const int64_t t0 = NowNs();
    for (const T& item : items) fn(item);
    passes.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(items.size()));
  }
  return Median(passes);
}

}  // namespace

RunResult RunServeZipf(const Config& config) {
  RunResult result;
  Tracer tracer(config.trace);
  LayerValues layers;
  const qbs::Graph g = qbs::MakeDataset(qbs::DatasetByAbbrev("DB"), kScale);
  result.Note("graph: DB stand-in x" + std::to_string(kScale) + ", " +
              std::to_string(g.NumVertices()) + " V, " +
              std::to_string(g.NumEdges()) + " E");

  std::vector<double> setup_s;
  std::unique_ptr<QbsIndex> built;
  for (int i = 0; i < (config.trace ? 1 : kSetupReps); ++i) {
    built.reset();
    ScopedSpan s(tracer, "qbs_index.Build", 0, 0);
    const int64_t t0 = NowNs();
    built = std::make_unique<QbsIndex>(
        QbsIndex::Build(g, IndexOptions(config.threads)));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const double index_mib = IndexMiB(*built);
  const std::string index_path = config.work_dir + "/serve-zipf.qbs";
  if (config.trace) {
    DecomposeBuild(g, config.threads, tracer);
    DecomposeSerialization(*built, index_path, tracer, &layers);
    SizeRows(*built, &layers);
  }
  // The served index is the loaded one, as in `qbs serve`. One more load
  // runs in each block of the window, after its named-rate piece and
  // before its closed-loop rounds, while no request is in flight: single
  // loads in one run ranged from 0.49 s to 0.69 s, so load_s is the median
  // of nine spread over the run.
  std::vector<double> load_s;
  std::unique_ptr<QbsIndex> index;
  if (built->Save(index_path)) {
    load_s.push_back(TimeLoad(g, index_path, config.threads, &index));
  }
  built.reset();
  if (index == nullptr) {
    result.correct = false;
    result.Note("save/load failed");
    return result;
  }

  const std::vector<ServeRequest> requests = ZipfRequests(
      g.NumVertices(), kUniverse, kZipfS, kRequests, config.seed);
  qbs::server::ServerOptions options;
  options.port = 0;
  options.max_inflight = config.threads;
  options.cache_bytes = kCacheBytes;
  options.allow_remote_shutdown = false;
  QueryServer server(*index, options);
  std::string error;
  if (!server.Start(&error)) {
    result.correct = false;
    result.Note("server failed to start: " + error);
    return result;
  }
  std::vector<Sender> senders(config.threads);
  for (Sender& s : senders) {
    if (!s.client.Connect("127.0.0.1", server.port())) {
      result.Note("connect failed: " + s.client.last_error());
    }
  }
  Traffic traffic;
  traffic.requests = &requests;
  traffic.seed = config.seed;
  traffic.trace = config.trace;

  // Warm-up out of the window: closed-loop traffic until the result cache
  // has turned over once (evicted as many entries as it holds), so that
  // its hit rate is at steady state, and the server's searcher leases
  // exist. A fixed 1.5 s warm-up left the cache still filling on a slow
  // host.
  {
    const int64_t start = NowNs();
    for (;;) {
      RunSegment(senders, traffic,
                 std::vector<int64_t>(kClosedRoundRequests, 0));
      const auto cache = server.GetStats().cache;
      const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
      if (cache.evictions >= cache.entries ||
          elapsed_s >= kWarmupMaxSeconds) {
        break;
      }
    }
    for (Sender& s : senders) {
      s.pending.clear();
      s.sampled.clear();
      s.spans.clear();
    }
  }

  const QueryServer::StatsSnapshot before = server.GetStats();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Summary> named_pieces;
  std::vector<double> named_late_us;
  std::vector<double> closed_rates;
  for (size_t block = 0; block < kNamedPieces; ++block) {
    const OpenLoopResult piece = AnalyzeOpenLoop(
        kNamedRate,
        RunSegment(senders, traffic,
                   PoissonSchedule(kNamedRate,
                                   config.seconds * kNamedShare / kNamedPieces,
                                   config.seed * 31 + 7 + 1000 * block)),
        kTailQ);
    named_pieces.push_back(piece.latency_us);
    named_late_us.push_back(piece.late_p99_us);
    attempted += piece.attempted;
    failed += piece.failed;
    if (!config.trace) {
      load_s.push_back(TimeLoad(g, index_path, config.threads, nullptr));
    }
    const int64_t end =
        NowNs() + static_cast<int64_t>(config.seconds * (1.0 - kNamedShare) /
                                       kNamedPieces * 1e9);
    do {
      const OpenLoopResult round = AnalyzeOpenLoop(
          0.0,
          RunSegment(senders, traffic,
                     std::vector<int64_t>(kClosedRoundRequests, 0)),
          kTailQ);
      closed_rates.push_back(round.achieved_rate);
      attempted += round.attempted;
      failed += round.failed;
    } while (NowNs() < end);
  }
  const QueryServer::StatsSnapshot after = server.GetStats();
  std::filesystem::remove(index_path);
  if (std::any_of(load_s.begin(), load_s.end(),
                  [](double s) { return s < 0; })) {
    result.correct = false;
    result.Note("load failed");
  }
  const Summary named = CombineRounds(named_pieces);
  const double named_late_p99_us = Median(named_late_us);

  char line[256];
  std::snprintf(line, sizeof(line),
                "named rate %.0f/s in %zu pieces (medians over pieces): n=%zu "
                "p50=%.1fus p%g=%.1fus (from schedule), sender late "
                "p99=%.1fus",
                kNamedRate, named_pieces.size(), named.n, named.p50,
                named.tail_q * 100, named.tail, named_late_p99_us);
  result.Note(line);
  std::string loads = "LoadFromFile s, in run order:";
  for (const double s : load_s) {
    std::snprintf(line, sizeof(line), " %.3f", s);
    loads += line;
  }
  result.Note(loads);
  std::snprintf(line, sizeof(line),
                "closed loop over %zu connections: median %.0f/s over %zu "
                "rounds of %zu requests",
                senders.size(), Median(closed_rates), closed_rates.size(),
                kClosedRoundRequests);
  result.Note(line);
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  const uint64_t served = after.queries - before.queries;
  result.Note("result cache hit rate " +
              std::to_string(Ratio(hits, hits + misses)) + " over " +
              std::to_string(hits + misses) + " lookups");

  // Probe after the window (traced run only): client round trip against
  // the same requests executed on a leased searcher, both uncached.
  if (config.trace) {
    std::vector<double> rtt_us;
    std::vector<double> exec_us;
    QueryClient& client = senders.front().client;
    qbs::QbsIndex::SearcherLease lease(*index, 1);
    for (size_t i = 0; i < 3000; ++i) {
      QueryRequest request =
          ToRequest(requests[(traffic.cursor + i) % requests.size()]);
      request.flags |= qbs::kQueryFlagNoCache;
      QueryResponse response;
      int64_t t0 = NowNs();
      const auto status = client.Query(request, &response);
      rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      tracer.Add("server.rtt_uncached", 0, traffic.cursor + i, t0, NowNs());
      if (status != QueryClient::RpcStatus::kOk) ++failed;
      ++attempted;
      t0 = NowNs();
      index->Execute(lease[0], request);
      exec_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      tracer.Add("qbs_index.Execute", 0, traffic.cursor + i, t0, NowNs());
    }
    layers["server.client_rtt_minus_execute_us"] =
        Median(rtt_us) - Median(exec_us);
  }
  for (Sender& s : senders) s.client.Close();
  server.Stop();
  const QueryServer::StatsSnapshot final_stats = server.GetStats();

  // Correctness gate, after the window.
  std::vector<PendingCheck> pending;
  std::vector<QueryResponse> sampled;
  for (Sender& s : senders) {
    for (auto& p : s.pending) pending.push_back(std::move(p));
    for (auto& r : s.sampled) sampled.push_back(std::move(r));
    for (const Span& span : s.spans) {
      tracer.Add(span.name, 0, span.request, span.start, span.end);
    }
  }
  const size_t wrong = CountWrongAnswers(g, pending, config.threads);
  result.attempted = attempted;
  result.failed = failed + wrong;
  result.correct = wrong == 0;
  result.Note("oracle check: " + std::to_string(pending.size()) +
              " sampled answers, " + std::to_string(wrong) + " wrong; " +
              std::to_string(failed) + " requests failed");

  if (!config.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("index_mib", index_mib, "MiB");
    result.Add("load_s", Median(load_s), "s");
    result.Add("p50_us", named.p50, "us");
    result.Add("tail_us", named.tail, "us");
    result.Add("throughput_per_s", Median(closed_rates), "1/s");
    return result;
  }

  layers["result_cache.hit_frac"] = Ratio(hits, hits + misses);
  layers["result_cache.evictions"] =
      static_cast<double>(after.cache.evictions - before.cache.evictions);
  layers["server.busy_frac"] =
      Ratio(after.busy_rejections - before.busy_rejections, served);
  layers["server.degraded_frac"] =
      Ratio(after.degraded - before.degraded, served);
  layers["server.deadline_frac"] =
      Ratio(after.deadline_exceeded - before.deadline_exceeded, served);
  layers["server.hist_cached_p99_us"] =
      static_cast<double>(final_stats.lat_cached.QuantileNanos(0.99)) / 1e3;
  layers["server.hist_long_p99_us"] =
      static_cast<double>(final_stats.lat_long.QuantileNanos(0.99)) / 1e3;
  layers["generator.late_p99_us"] = named_late_p99_us;

  std::vector<std::vector<uint8_t>> encoded;
  double bytes = 0.0;
  for (const QueryResponse& r : sampled) {
    encoded.push_back(qbs::server::EncodeQueryResponse(r));
    bytes += static_cast<double>(encoded.back().size());
  }
  layers["protocol.encode_ns"] =
      NsPerItem(sampled, [](const QueryResponse& r) {
        return qbs::server::EncodeQueryResponse(r);
      });
  layers["protocol.decode_ns"] =
      NsPerItem(encoded, [](const std::vector<uint8_t>& payload) {
        QueryResponse out;
        return qbs::server::DecodeQueryResponse(payload, &out);
      });
  layers["protocol.response_bytes"] =
      sampled.empty() ? 0.0 : bytes / static_cast<double>(sampled.size());

  std::vector<Pair> probe;
  for (size_t i = 0; i < 3000; ++i) probe.push_back(requests[i].pair);
  const size_t mismatches = DecomposeQueries(*index, probe, tracer,
                                             traffic.cursor + 3000, &layers);
  result.failed += mismatches;
  result.attempted += probe.size();
  result.correct = result.correct && mismatches == 0;
  layers["trace.overhead_frac"] = TracingOverhead(*index, probe);
  SpanRows(tracer, &layers);
  WriteSpans(config, tracer, &result);
  EmitPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
