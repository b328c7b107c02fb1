#include "common.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "core/delta_cache.h"
#include "core/guided_search.h"
#include "core/label_scan.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/serialization.h"
#include "core/sketch.h"

namespace perfbench {

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max(1, CPU_COUNT(&set));
}

qbs::QbsOptions IndexOptions(size_t threads) {
  qbs::QbsOptions options;
  options.num_threads = threads;
  return options;
}

double IndexMiB(const QbsIndex& index) {
  const uint64_t bytes = index.LabelingSizeBytes() + index.BpMaskSizeBytes() +
                         index.MetaGraphSizeBytes() + index.DeltaSizeBytes();
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double TimeLoad(const qbs::Graph& g, const std::string& path, size_t threads,
                std::unique_ptr<QbsIndex>* keep) {
  const int64_t t0 = NowNs();
  std::optional<QbsIndex> loaded =
      QbsIndex::LoadFromFile(g, path, IndexOptions(threads));
  const int64_t t1 = NowNs();
  if (!loaded.has_value()) return -1.0;
  if (keep != nullptr) *keep = std::make_unique<QbsIndex>(std::move(*loaded));
  return static_cast<double>(t1 - t0) / 1e9;
}

namespace {

bool AnswerIsExact(const qbs::Graph& g, qbs::BiBfs& bibfs, VertexId u,
                   VertexId v, bool spg, const qbs::ShortestPathGraph& answer) {
  if (answer.u != u || answer.v != v) return false;
  if (spg) return answer == qbs::SpgByDoubleBfs(g, u, v);
  return answer.edges.empty() &&
         answer.distance == bibfs.Query(u, v).distance;
}

}  // namespace

size_t CountWrongAnswers(const qbs::Graph& g,
                         const std::vector<PendingCheck>& pending,
                         size_t threads) {
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> workers;
  const size_t n = std::max<size_t>(1, std::min(threads, pending.size()));
  for (size_t t = 0; t < n; ++t) {
    workers.emplace_back([&] {
      qbs::BiBfs bibfs(g);
      for (size_t i = cursor.fetch_add(1); i < pending.size();
           i = cursor.fetch_add(1)) {
        const PendingCheck& c = pending[i];
        if (!AnswerIsExact(g, bibfs, c.u, c.v, c.spg, c.answer)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return wrong.load();
}

bool Sampled(uint64_t seed, uint64_t index, uint64_t every) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % every == 0;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"landmark_selection.s", "s"},
      {"labeling.build_s", "s"},
      {"delta_cache.build_s", "s"},
      {"qbs_index.sparsify_s", "s"},
      {"qbs_index.build_s", "s"},
      {"labeling.label_mib", "MiB"},
      {"labeling.bp_mib", "MiB"},
      {"meta_graph.mib", "MiB"},
      {"delta_cache.mib", "MiB"},
      {"serialization.save_s", "s"},
      {"serialization.load_scheme_s", "s"},
      {"serialization.file_mib", "MiB"},
      {"label_scan.bound_ns", "ns"},
      {"label_scan.kernel", "enum"},
      {"sketch.ns", "ns"},
      {"sketch.meta_sweep_ns", "ns"},
      {"guided_search.query_with_sketch_us", "us"},
      {"trace.decomposed_us", "us"},
      {"qbs_index.query_us", "us"},
      {"guided_search.edges_search", "count"},
      {"guided_search.edges_reverse", "count"},
      {"guided_search.edges_recover", "count"},
      {"guided_search.edges_direct", "count"},
      {"guided_search.landmark_edges_skipped", "count"},
      {"guided_search.lb_prunes", "count"},
      {"delta_cache.hits", "count"},
      {"guided_search.coverage_all", "ratio"},
      {"guided_search.coverage_some", "ratio"},
      {"guided_search.coverage_none", "ratio"},
      {"guided_search.short_circuit_frac", "ratio"},
      {"qbs_index.batch256_call_us", "us"},
      {"qbs_index.batch16_call_us", "us"},
      {"qbs_index.batch16_qps", "1/s"},
      {"qbs_index.certify_prepass_us", "us"},
      {"qbs_index.batch_efficiency", "ratio"},
      {"updatable_index.enable_s", "s"},
      {"updatable_index.apply_p50_ms", "ms"},
      {"updatable_index.repaired_columns", "count"},
      {"updatable_index.rebuilt_columns", "count"},
      {"updatable_index.noop_frac", "ratio"},
      {"qbs_index.refresh_derived_ms", "ms"},
      {"result_cache.hit_frac", "ratio"},
      {"result_cache.evictions", "count"},
      {"protocol.encode_ns", "ns"},
      {"protocol.decode_ns", "ns"},
      {"protocol.response_bytes", "bytes"},
      {"server.busy_frac", "ratio"},
      {"server.degraded_frac", "ratio"},
      {"server.deadline_frac", "ratio"},
      {"server.client_rtt_minus_execute_us", "us"},
      {"server.hist_cached_p99_us", "us"},
      {"server.hist_long_p99_us", "us"},
      {"generator.late_p99_us", "us"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return table;
}

void EmitPerLayer(const LayerValues& values, RunResult* result) {
  for (const auto& [name, value] : values) {
    const auto& table = PerLayerTable();
    const bool known =
        std::any_of(table.begin(), table.end(),
                    [&](const auto& row) { return row.first == name; });
    if (!known) {
      std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                   name.c_str());
      std::abort();
    }
  }
  for (const auto& [name, unit] : PerLayerTable()) {
    const auto it = values.find(name);
    result->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void DecomposeBuild(const qbs::Graph& g, size_t threads, Tracer& tracer) {
  const qbs::QbsOptions options = IndexOptions(threads);
  {
    ScopedSpan setup(tracer, "setup", 0, 0);
    std::vector<VertexId> landmarks;
    {
      ScopedSpan s(tracer, "landmark_selection.SelectLandmarks", setup.id(),
                   0);
      landmarks = qbs::SelectLandmarks(g, options.num_landmarks,
                                       options.landmark_strategy,
                                       options.seed);
    }
    qbs::LabelingBuildOptions build;
    build.num_threads = threads;
    build.bit_parallel = options.bit_parallel;
    build.bp_fused = options.bp_fused;
    qbs::LabelingScheme scheme;
    {
      ScopedSpan s(tracer, "labeling.BuildLabelingScheme", setup.id(), 0);
      scheme = qbs::BuildLabelingScheme(g, landmarks, build);
    }
    {
      ScopedSpan s(tracer, "delta_cache.Build", setup.id(), 0);
      const qbs::DeltaCache delta = qbs::DeltaCache::Build(
          g, scheme.labeling, scheme.meta, threads);
    }
    {
      ScopedSpan s(tracer, "qbs_index.MakeSparsifiedGraph", setup.id(), 0);
      const qbs::Graph gminus = qbs::MakeSparsifiedGraph(g, scheme.labeling);
    }
  }
  ScopedSpan whole(tracer, "qbs_index.Build", 0, 0);
  const QbsIndex index = QbsIndex::Build(g, options);
}

void DecomposeSerialization(const QbsIndex& index, const std::string& path,
                            Tracer& tracer, LayerValues* out) {
  {
    ScopedSpan s(tracer, "serialization.Save", 0, 0);
    if (!index.Save(path)) return;
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  if (!ec) {
    (*out)["serialization.file_mib"] =
        static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
  {
    ScopedSpan s(tracer, "serialization.LoadLabelingScheme", 0, 0);
    const auto scheme = qbs::LoadLabelingScheme(path);
  }
  std::filesystem::remove(path);
}

void SizeRows(const QbsIndex& index, LayerValues* out) {
  constexpr double kMiB = 1024.0 * 1024.0;
  (*out)["labeling.label_mib"] =
      static_cast<double>(index.LabelingSizeBytes()) / kMiB;
  (*out)["labeling.bp_mib"] =
      static_cast<double>(index.BpMaskSizeBytes()) / kMiB;
  (*out)["meta_graph.mib"] =
      static_cast<double>(index.MetaGraphSizeBytes()) / kMiB;
  (*out)["delta_cache.mib"] =
      static_cast<double>(index.DeltaSizeBytes()) / kMiB;
  (*out)["label_scan.kernel"] =
      static_cast<double>(static_cast<int>(qbs::ActiveScanKernel()));
}

size_t DecomposeQueries(QbsIndex& index, const std::vector<Pair>& pairs,
                        Tracer& tracer, uint64_t first_request,
                        LayerValues* out) {
  const qbs::Graph& g = index.graph();
  const qbs::PathLabeling& labeling = index.labeling();
  const qbs::MetaGraph& meta = index.meta_graph();
  const qbs::Graph gminus = qbs::MakeSparsifiedGraph(g, labeling);
  qbs::GuidedSearcher searcher(g, gminus, labeling, meta,
                               index.delta_cache());
  qbs::Sketch sketch;
  qbs::SketchScratch scratch;
  std::vector<double> decomposed_us;
  qbs::SearchStats total;
  size_t coverage[3] = {0, 0, 0};
  size_t short_circuits = 0;
  size_t mismatches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const uint64_t rid = first_request + i;
    qbs::ShortestPathGraph decomposed;
    const int64_t t0 = NowNs();
    {
      ScopedSpan request(tracer, "request.decomposed", 0, rid);
      {
        ScopedSpan s(tracer, "label_scan.ComputeLabelBound", request.id(),
                     rid);
        const qbs::LabelBound bound =
            qbs::ComputeLabelBound(labeling, meta, u, v, 2);
        (void)bound;
      }
      {
        ScopedSpan s(tracer, "sketch.ComputeSketchInto", request.id(), rid);
        const bool reuse = labeling.has_bp_masks();
        if (reuse) {
          qbs::ComputeAnchorCandidatesInto(labeling, u, &scratch.cu);
          qbs::ComputeAnchorCandidatesInto(labeling, v, &scratch.cv);
        }
        qbs::ComputeSketchInto(labeling, meta, u, v, &sketch, &scratch,
                               /*with_meta_edges=*/false, reuse);
      }
      {
        ScopedSpan s(tracer, "sketch.ComputeSketchMetaEdges", request.id(),
                     rid);
        qbs::ComputeSketchMetaEdges(meta, &sketch, &scratch);
      }
      {
        ScopedSpan s(tracer, "guided_search.QueryWithSketch", request.id(),
                     rid);
        decomposed = searcher.QueryWithSketch(u, v, sketch);
      }
    }
    decomposed_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    QueryResponse whole;
    {
      ScopedSpan s(tracer, "qbs_index.Query", 0, rid);
      whole = index.Query(QueryRequest(u, v, QueryMode::kSpg));
    }
    if (!(decomposed == whole.spg)) ++mismatches;
    total.Accumulate(whole.stats);
    if (whole.stats.label_short_circuits > 0) ++short_circuits;
    switch (whole.stats.coverage) {
      case qbs::PairCoverage::kAllThroughLandmarks:
        ++coverage[0];
        break;
      case qbs::PairCoverage::kSomeThroughLandmarks:
        ++coverage[1];
        break;
      case qbs::PairCoverage::kNoneThroughLandmarks:
        ++coverage[2];
        break;
      default:
        break;
    }
  }
  if (pairs.empty()) return 0;
  const double n = static_cast<double>(pairs.size());
  (*out)["trace.decomposed_us"] = Median(decomposed_us);
  (*out)["guided_search.edges_search"] =
      static_cast<double>(total.edges_scanned_search) / n;
  (*out)["guided_search.edges_reverse"] =
      static_cast<double>(total.edges_scanned_reverse) / n;
  (*out)["guided_search.edges_recover"] =
      static_cast<double>(total.edges_scanned_recover) / n;
  (*out)["guided_search.edges_direct"] =
      static_cast<double>(total.edges_scanned_direct) / n;
  (*out)["guided_search.landmark_edges_skipped"] =
      static_cast<double>(total.landmark_edges_skipped) / n;
  (*out)["guided_search.lb_prunes"] = static_cast<double>(total.lb_prunes) / n;
  (*out)["delta_cache.hits"] = static_cast<double>(total.delta_cache_hits) / n;
  (*out)["guided_search.coverage_all"] = static_cast<double>(coverage[0]) / n;
  (*out)["guided_search.coverage_some"] = static_cast<double>(coverage[1]) / n;
  (*out)["guided_search.coverage_none"] = static_cast<double>(coverage[2]) / n;
  (*out)["guided_search.short_circuit_frac"] =
      static_cast<double>(short_circuits) / n;
  return mismatches;
}

double TracingOverhead(QbsIndex& index, const std::vector<Pair>& pairs) {
  std::vector<double> plain;
  std::vector<double> traced;
  Tracer tracer(true);
  // Alternating blocks, so drift in machine load hits both sides alike.
  constexpr size_t kBlocks = 4;
  const size_t block = pairs.size() / kBlocks;
  for (size_t b = 0; b < kBlocks; ++b) {
    for (int side = 0; side < 2; ++side) {
      for (size_t i = b * block; i < (b + 1) * block; ++i) {
        const QueryRequest request(pairs[i].u, pairs[i].v, QueryMode::kSpg);
        const int64_t t0 = NowNs();
        if (side == 0) {
          index.Query(request);
        } else {
          ScopedSpan s(tracer, "qbs_index.Query", 0, i);
          index.Query(request);
        }
        (side == 0 ? plain : traced)
            .push_back(static_cast<double>(NowNs() - t0));
      }
    }
  }
  const double base = Median(plain);
  return base > 0.0 ? (Median(traced) - base) / base : 0.0;
}

void SpanRows(const Tracer& tracer, LayerValues* out) {
  struct Row {
    const char* span;
    const char* metric;
    double scale;  // ns -> the metric's unit
  };
  static const Row kRows[] = {
      {"landmark_selection.SelectLandmarks", "landmark_selection.s", 1e-9},
      {"labeling.BuildLabelingScheme", "labeling.build_s", 1e-9},
      {"delta_cache.Build", "delta_cache.build_s", 1e-9},
      {"qbs_index.MakeSparsifiedGraph", "qbs_index.sparsify_s", 1e-9},
      {"qbs_index.Build", "qbs_index.build_s", 1e-9},
      {"serialization.Save", "serialization.save_s", 1e-9},
      {"serialization.LoadLabelingScheme", "serialization.load_scheme_s",
       1e-9},
      {"label_scan.ComputeLabelBound", "label_scan.bound_ns", 1.0},
      {"sketch.ComputeSketchInto", "sketch.ns", 1.0},
      {"sketch.ComputeSketchMetaEdges", "sketch.meta_sweep_ns", 1.0},
      {"guided_search.QueryWithSketch", "guided_search.query_with_sketch_us",
       1e-3},
      {"qbs_index.Query", "qbs_index.query_us", 1e-3},
      {"qbs_index.QueryBatch256", "qbs_index.batch256_call_us", 1e-3},
      {"qbs_index.QueryBatch16", "qbs_index.batch16_call_us", 1e-3},
      {"label_scan.ComputeLabelBoundsBatch", "qbs_index.certify_prepass_us",
       1e-3},
      {"updatable_index.EnableUpdates", "updatable_index.enable_s", 1e-9},
      {"qbs_index.ApplyUpdates", "updatable_index.apply_p50_ms", 1e-6},
      {"qbs_index.RefreshDerived", "qbs_index.refresh_derived_ms", 1e-6},
  };
  const std::map<std::string, SelfTime> self = SelfTimes(tracer.spans());
  for (const Row& row : kRows) {
    const auto it = self.find(row.span);
    if (it == self.end()) continue;
    (*out)[row.metric] = Median(it->second.per_span_ns) * row.scale;
  }
  (*out)["trace.spans"] = static_cast<double>(tracer.spans().size());
}

void WriteSpans(const Config& config, const Tracer& tracer,
                RunResult* result) {
  const std::string path = config.work_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".jsonl";
  if (tracer.WriteJsonl(path)) {
    result->Note("spans: " + std::to_string(tracer.spans().size()) + " in " +
                 path);
  } else {
    result->Note("spans: could not write " + path);
  }
}

}  // namespace perfbench
