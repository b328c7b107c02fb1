// spg-uniform: the paper's headline regime. Uniform random pairs (§6.1) on
// the YT stand-in (R-MAT, extreme hubs) at scale 30, SPG mode: a
// single-thread closed loop over QbsIndex::Query, then QueryBatch on every
// CPU at batch 256 and 16. Sketch and guided search do nearly all the
// work; the result cache, server and update layers are idle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/label_scan.h"
#include "core/sketch.h"
#include "workload/dataset_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 30.0;
constexpr size_t kPairs = size_t{1} << 17;
constexpr int kSetupReps = 3;
constexpr int kLoadReps = 5;
// The window runs in rounds of about a second; each metric is the median
// over rounds (CombineRounds), so drifting host load hits it least.
constexpr double kRoundSeconds = 1.0;
// Shares of each round: single-searcher loop, batch 256, batch 16.
constexpr double kSingleShare = 0.45;
constexpr double kBatch256Share = 0.35;
constexpr uint64_t kCheckEvery = 3000;

std::vector<QueryRequest> BatchOf(const std::vector<Pair>& pairs,
                                  size_t* cursor, size_t size) {
  std::vector<QueryRequest> batch;
  batch.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const Pair& p = pairs[(*cursor)++ % pairs.size()];
    batch.emplace_back(p.u, p.v, QueryMode::kSpg);
  }
  return batch;
}

}  // namespace

RunResult RunSpgUniform(const Config& config) {
  RunResult result;
  Tracer tracer(config.trace);
  LayerValues layers;
  const qbs::Graph g =
      qbs::MakeDataset(qbs::DatasetByAbbrev("YT"), kScale);
  result.Note("graph: YT stand-in x" + std::to_string(kScale) + ", " +
              std::to_string(g.NumVertices()) + " V, " +
              std::to_string(g.NumEdges()) + " E");

  // Set-up, timed several times; the last index is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<QbsIndex> index;
  for (int i = 0; i < (config.trace ? 1 : kSetupReps); ++i) {
    index.reset();
    ScopedSpan s(tracer, "qbs_index.Build", 0, 0);
    const int64_t t0 = NowNs();
    index = std::make_unique<QbsIndex>(
        QbsIndex::Build(g, IndexOptions(config.threads)));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::string index_path = config.work_dir + "/spg-uniform.qbs";
  if (config.trace) {
    DecomposeBuild(g, config.threads, tracer);
    DecomposeSerialization(*index, index_path, tracer, &layers);
    SizeRows(*index, &layers);
  } else if (!index->Save(index_path)) {
    result.correct = false;
    result.Note("save failed");
  }

  const std::vector<Pair> pairs =
      UniformPairs(g.NumVertices(), kPairs, config.seed);

  qbs::QbsIndex::BatchOptions batch_options;
  batch_options.num_threads = config.threads;
  // Lazy set-up out of the window: a first-touch pass over the label rows,
  // a closed-loop warm-up, and one QueryBatch of each size, which grows the
  // searcher pool.
  {
    const qbs::PathLabeling& labeling = index->labeling();
    uint64_t touch = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) touch += labeling.Row(v)[0];
    result.Note("first-touch checksum " + std::to_string(touch));
    size_t warm = kPairs / 2;
    for (int i = 0; i < 2000; ++i) {
      const Pair& p = pairs[warm++ % pairs.size()];
      index->Query(QueryRequest(p.u, p.v, QueryMode::kSpg));
    }
    index->QueryBatch(BatchOf(pairs, &warm, 256), batch_options);
    index->QueryBatch(BatchOf(pairs, &warm, 16), batch_options);
  }

  std::vector<Summary> single_rounds;
  std::vector<double> batch256_call_ns;
  std::vector<double> batch16_call_ns;
  std::vector<double> load_s;
  std::vector<PendingCheck> pending;
  size_t cursor = 0;
  uint64_t op = 0;
  const int rounds =
      std::max(1, static_cast<int>(std::lround(config.seconds / kRoundSeconds)));
  const auto round_ns = static_cast<int64_t>(config.seconds * 1e9 / rounds);
  for (int r = 0; r < rounds; ++r) {
    // Load probes between rounds, spread over the run like the rounds.
    if (!config.trace && r % std::max(1, rounds / kLoadReps) == 0 &&
        static_cast<int>(load_s.size()) < kLoadReps) {
      load_s.push_back(TimeLoad(g, index_path, config.threads, nullptr));
    }
    const int64_t round_start = NowNs();
    const int64_t single_end =
        round_start + static_cast<int64_t>(kSingleShare * round_ns);
    const int64_t b256_end =
        single_end + static_cast<int64_t>(kBatch256Share * round_ns);
    const int64_t round_end = round_start + round_ns;
    std::vector<double> single_us;
    while (NowNs() < single_end) {
      const Pair& p = pairs[cursor++ % pairs.size()];
      const QueryRequest request(p.u, p.v, QueryMode::kSpg);
      QueryResponse response;
      const int64_t t0 = NowNs();
      {
        ScopedSpan s(tracer, "qbs_index.Query", 0, op);
        response = index->Query(request);
      }
      single_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (Sampled(config.seed, op, kCheckEvery)) {
        pending.push_back({p.u, p.v, true, std::move(response.spg)});
      }
      ++op;
    }
    single_rounds.push_back(Summarize(&single_us));
    for (const size_t size : {size_t{256}, size_t{16}}) {
      const int64_t end = size == 256 ? b256_end : round_end;
      std::vector<double>& call_ns =
          size == 256 ? batch256_call_ns : batch16_call_ns;
      while (NowNs() < end) {
        const std::vector<QueryRequest> batch = BatchOf(pairs, &cursor, size);
        std::vector<QueryResponse> responses;
        const int64_t t0 = NowNs();
        {
          ScopedSpan s(tracer,
                       size == 256 ? "qbs_index.QueryBatch256"
                                   : "qbs_index.QueryBatch16",
                       0, op);
          responses = index->QueryBatch(batch, batch_options);
        }
        call_ns.push_back(static_cast<double>(NowNs() - t0));
        for (size_t i = 0; i < size; ++i, ++op) {
          if (Sampled(config.seed, op, kCheckEvery)) {
            pending.push_back({batch[i].u, batch[i].v, true,
                               std::move(responses[i].spg)});
          }
        }
      }
    }
  }
  std::filesystem::remove(index_path);
  const bool load_failed =
      std::any_of(load_s.begin(), load_s.end(), [](double s) { return s < 0; });
  if (load_failed) {
    result.correct = false;
    result.Note("load failed");
  }

  // Correctness gate, after the window.
  const size_t wrong = CountWrongAnswers(g, pending, config.threads);
  result.attempted = op;
  result.failed = wrong;
  result.correct = result.correct && wrong == 0;
  result.Note("oracle check: " + std::to_string(pending.size()) +
              " sampled answers, " + std::to_string(wrong) + " wrong");

  const Summary single = CombineRounds(single_rounds);
  // Throughput of the median call: a call that a host stall caught is an
  // outlier, not a shift.
  const double b256 = 256e9 / Median(batch256_call_ns);
  const double b16 = 16e9 / Median(batch16_call_ns);
  char line[320];
  std::snprintf(line, sizeof(line),
                "%d rounds (medians over rounds): single-searcher Query n=%zu "
                "p50=%.2fus p%g=%.2fus; QueryBatch(256) %zu calls %.0f/s; "
                "QueryBatch(16) %zu calls %.0f/s (median call); %zu threads; "
                "LoadFromFile x%zu",
                rounds, single.n, single.p50, single.tail_q * 100,
                single.tail, batch256_call_ns.size(), b256,
                batch16_call_ns.size(), b16, config.threads, load_s.size());
  result.Note(line);

  if (!config.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("index_mib", IndexMiB(*index), "MiB");
    result.Add("load_s", Median(load_s), "s");
    result.Add("p50_us", single.p50, "us");
    result.Add("tail_us", single.tail, "us");
    result.Add("throughput_per_s", b256, "1/s");
    return result;
  }

  // Traced run: the batch certify pre-pass, the outside decomposition of
  // a query, and the tracing overhead, on pairs the window did not use.
  const std::vector<Pair> probe =
      UniformPairs(g.NumVertices(), 4000, config.seed ^ 0x70726f6265ULL);
  for (size_t b = 0; b + 256 <= probe.size(); b += 256) {
    std::vector<VertexId> us;
    std::vector<VertexId> vs;
    for (size_t i = b; i < b + 256; ++i) {
      us.push_back(probe[i].u);
      vs.push_back(probe[i].v);
    }
    std::vector<qbs::LabelBound> bounds(256);
    ScopedSpan s(tracer, "label_scan.ComputeLabelBoundsBatch", 0, op);
    for (size_t i = 0; i < 256; i += qbs::kScanBatch) {
      qbs::ComputeLabelBoundsBatch(index->labeling(), index->meta_graph(),
                                   us.data() + i, vs.data() + i,
                                   qbs::kScanBatch, 2, bounds.data() + i);
    }
  }
  const size_t mismatches = DecomposeQueries(*index, probe, tracer, op, &layers);
  result.failed += mismatches;
  result.correct = result.correct && mismatches == 0;
  result.attempted += probe.size();
  layers["trace.overhead_frac"] = TracingOverhead(*index, probe);
  layers["qbs_index.batch16_qps"] = b16;
  if (single.mean > 0.0) {
    layers["qbs_index.batch_efficiency"] =
        b256 / (static_cast<double>(config.threads) * 1e6 / single.mean);
  }
  SpanRows(tracer, &layers);
  WriteSpans(config, tracer, &result);
  EmitPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
