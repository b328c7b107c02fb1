// churn-local: the labelling takes writes beside reads. A small DB
// stand-in (scale 10, where one edit batch applies in well under a second)
// runs in updatable mode; the loop alternates a seeded mixed insert/delete
// batch (QbsIndex::ApplyUpdates, eager consolidation) with a block of
// single-searcher queries on pairs 1–3 hops from the edited endpoints —
// "did this edit change the tie?". Answers after each batch are checked
// against the edited graph.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/delta_cache.h"
#include "core/guided_search.h"
#include "workload/dataset_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 10.0;
constexpr int kSetupReps = 3;
constexpr int kLoadReps = 5;
// Query latency is summarized per round of this many batches (at least
// 1000 queries, so each round has a p99), then as medians over rounds.
constexpr size_t kBatchesPerRound = 8;
constexpr size_t kEditsPerBatch = 16;
constexpr size_t kQueriesPerBatch = 150;
constexpr uint64_t kCheckEvery = 25;

struct Updatable {
  std::unique_ptr<qbs::Graph> graph;  // the index points at it
  std::unique_ptr<QbsIndex> index;
};

}  // namespace

RunResult RunChurnLocal(const Config& config) {
  RunResult result;
  Tracer tracer(config.trace);
  LayerValues layers;
  const qbs::Graph g0 = qbs::MakeDataset(qbs::DatasetByAbbrev("DB"), kScale);
  result.Note("graph: DB stand-in x" + std::to_string(kScale) + ", " +
              std::to_string(g0.NumVertices()) + " V, " +
              std::to_string(g0.NumEdges()) + " E");

  // Set-up = Build + EnableUpdates, timed several times.
  std::vector<double> setup_s;
  Updatable live;
  for (int i = 0; i < (config.trace ? 1 : kSetupReps); ++i) {
    live.index.reset();  // before the graph it points at
    live.graph = std::make_unique<qbs::Graph>(g0);
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "qbs_index.Build", 0, 0);
      live.index = std::make_unique<QbsIndex>(
          QbsIndex::Build(*live.graph, IndexOptions(config.threads)));
    }
    {
      ScopedSpan s(tracer, "updatable_index.EnableUpdates", 0, 0);
      live.index->EnableUpdates(live.graph.get(), config.threads);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  QbsIndex& index = *live.index;
  qbs::Graph& g = *live.graph;
  const double index_mib = IndexMiB(index);
  const std::string index_path = config.work_dir + "/churn-local.qbs";
  if (config.trace) {
    DecomposeBuild(g0, config.threads, tracer);
    DecomposeSerialization(index, index_path, tracer, &layers);
    SizeRows(index, &layers);
  } else if (!index.Save(index_path)) {
    result.correct = false;
    result.Note("save failed");
  }

  qbs::UpdateOptions update_options;
  update_options.consolidate = true;
  update_options.num_threads = config.threads;
  uint64_t batch_no = 0;
  uint64_t op = 0;
  std::vector<double> query_us;  // the current round's
  std::vector<Summary> query_rounds;
  std::vector<double> load_s;
  std::vector<double> update_ms;
  std::vector<double> edits_per_s;
  std::vector<Pair> recent_pairs;
  uint64_t edits = 0;
  uint64_t noops = 0;
  uint64_t repaired = 0;
  uint64_t rebuilt = 0;
  size_t checked = 0;
  size_t wrong = 0;
  // One batch plus its query block; `timed` = inside the window.
  auto step = [&](bool timed) {
    std::vector<VertexId> touched;
    const GraphDelta delta = LocalEditBatch(
        g, kEditsPerBatch, config.seed * 1000003 + batch_no, &touched);
    int64_t t0 = NowNs();
    qbs::UpdateStats stats;
    {
      ScopedSpan s(tracer, "qbs_index.ApplyUpdates", 0, batch_no);
      stats = index.ApplyUpdates(delta, update_options);
    }
    const int64_t apply_ns = NowNs() - t0;
    const std::vector<Pair> pairs = LocalPairs(
        g, touched, kQueriesPerBatch, config.seed * 7919 + batch_no);
    std::vector<PendingCheck> pending;
    for (const Pair& p : pairs) {
      QueryResponse response;
      t0 = NowNs();
      {
        ScopedSpan s(tracer, "qbs_index.Query", 0, op);
        response = index.Query(QueryRequest(p.u, p.v, QueryMode::kSpg));
      }
      const int64_t dt = NowNs() - t0;
      if (timed) query_us.push_back(static_cast<double>(dt) / 1e3);
      if (Sampled(config.seed, op, kCheckEvery)) {
        pending.push_back({p.u, p.v, true, std::move(response.spg)});
      }
      ++op;
    }
    // Checked against the graph as edited by this batch.
    wrong += CountWrongAnswers(g, pending, config.threads);
    checked += pending.size();
    ++batch_no;
    if (!timed) return;
    update_ms.push_back(static_cast<double>(apply_ns) / 1e6);
    edits_per_s.push_back(static_cast<double>(stats.AppliedTotal()) * 1e9 /
                          static_cast<double>(apply_ns));
    edits += delta.size();
    noops += stats.noop_updates;
    repaired += stats.repaired_columns;
    rebuilt += stats.rebuilt_columns;
    recent_pairs.insert(recent_pairs.end(), pairs.begin(), pairs.end());
  };

  // Lazy set-up out of the window: one batch and its queries.
  step(false);
  // Load probes (of the index as first built, against the unedited graph)
  // run between rounds, spread over the window; their time is not counted
  // in it.
  const int64_t window_ns = static_cast<int64_t>(config.seconds * 1e9);
  int64_t used_ns = 0;
  while (used_ns < window_ns) {
    const int64_t t0 = NowNs();
    step(true);
    used_ns += NowNs() - t0;
    if (update_ms.size() % kBatchesPerRound == 0) {
      query_rounds.push_back(Summarize(&query_us));
      query_us.clear();
      if (!config.trace && load_s.size() < kLoadReps &&
          query_rounds.size() % 2 == 1) {
        load_s.push_back(TimeLoad(g0, index_path, config.threads, nullptr));
      }
    }
  }
  if (query_us.size() >= 1000) query_rounds.push_back(Summarize(&query_us));
  std::filesystem::remove(index_path);
  if (std::any_of(load_s.begin(), load_s.end(),
                  [](double s) { return s < 0; })) {
    result.correct = false;
    result.Note("load failed");
  }

  result.attempted = op + batch_no;
  result.failed = wrong;
  result.correct = result.correct && wrong == 0;
  const Summary queries = CombineRounds(query_rounds);
  std::vector<double> update_sorted = update_ms;
  const Summary updates = Summarize(&update_sorted);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu timed batches of %zu edits: ApplyUpdates p50=%.1fms; "
                "local queries in %zu rounds (medians over rounds) n=%zu "
                "p50=%.2fus p%g=%.2fus; LoadFromFile x%zu",
                update_ms.size(), kEditsPerBatch, updates.p50,
                query_rounds.size(), queries.n, queries.p50,
                queries.tail_q * 100, queries.tail, load_s.size());
  result.Note(line);
  result.Note("oracle check against the edited graph: " +
              std::to_string(checked) + " sampled answers, " +
              std::to_string(wrong) + " wrong");

  if (!config.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("index_mib", index_mib, "MiB");
    result.Add("load_s", Median(load_s), "s");
    result.Add("p50_us", queries.p50, "us");
    result.Add("tail_us", queries.tail, "us");
    result.Add("throughput_per_s", Median(edits_per_s), "1/s");
    return result;
  }

  const double batches = static_cast<double>(update_ms.size());
  if (batches > 0) {
    layers["updatable_index.repaired_columns"] =
        static_cast<double>(repaired) / batches;
    layers["updatable_index.rebuilt_columns"] =
        static_cast<double>(rebuilt) / batches;
  }
  if (edits > 0) {
    layers["updatable_index.noop_frac"] =
        static_cast<double>(noops) / static_cast<double>(edits);
  }
  // What RefreshDerived recomputes after each batch, timed from outside.
  for (int i = 0; i < 3; ++i) {
    ScopedSpan s(tracer, "qbs_index.RefreshDerived", 0, 0);
    const qbs::DeltaCache delta = qbs::DeltaCache::Build(
        g, index.labeling(), index.meta_graph(), config.threads);
    const qbs::Graph gminus = qbs::MakeSparsifiedGraph(g, index.labeling());
  }
  if (recent_pairs.size() > 3000) {
    recent_pairs.erase(recent_pairs.begin(),
                       recent_pairs.end() - 3000);
  }
  const size_t mismatches =
      DecomposeQueries(index, recent_pairs, tracer, op, &layers);
  result.failed += mismatches;
  result.attempted += recent_pairs.size();
  result.correct = result.correct && mismatches == 0;
  layers["trace.overhead_frac"] = TracingOverhead(index, recent_pairs);
  SpanRows(tracer, &layers);
  WriteSpans(config, tracer, &result);
  EmitPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
