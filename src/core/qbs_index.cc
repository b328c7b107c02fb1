#include "core/qbs_index.h"

#include <algorithm>
#include <iostream>
#include <utility>

#include "core/serialization.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qbs {

QbsIndex QbsIndex::Build(const Graph& g, const QbsOptions& options) {
  return BuildWithLandmarks(
      g,
      SelectLandmarks(g, options.num_landmarks, options.landmark_strategy,
                      options.seed),
      options);
}

QbsIndex QbsIndex::BuildWithLandmarks(const Graph& g,
                                      std::vector<VertexId> landmarks,
                                      const QbsOptions& options) {
  QbsIndex index;
  index.g_ = &g;

  WallTimer timer;
  LabelingBuildOptions build_options;
  build_options.num_threads = options.num_threads;
  index.scheme_ = std::make_unique<LabelingScheme>(
      BuildLabelingScheme(g, landmarks, build_options));
  index.timings_.labeling_seconds = timer.ElapsedSeconds();

  if (options.precompute_delta) {
    timer.Reset();
    index.delta_ = std::make_unique<DeltaCache>(
        DeltaCache::Build(g, index.scheme_->labeling, index.scheme_->meta,
                          options.num_threads));
    index.timings_.delta_seconds = timer.ElapsedSeconds();
  }

  index.sparsified_ = std::make_unique<Graph>(
      MakeSparsifiedGraph(g, index.scheme_->labeling));
  index.searcher_ = std::make_unique<GuidedSearcher>(
      g, *index.sparsified_, index.scheme_->labeling, index.scheme_->meta,
      index.delta_.get());
  return index;
}

std::optional<QbsIndex> QbsIndex::LoadFromFile(const Graph& g,
                                               const std::string& path,
                                               const QbsOptions& options) {
  auto scheme = LoadLabelingScheme(path);
  if (!scheme.has_value()) return std::nullopt;
  if (scheme->labeling.num_vertices() != g.NumVertices()) {
    std::cerr << "QbsIndex::LoadFromFile: index was built for "
              << scheme->labeling.num_vertices() << " vertices, graph has "
              << g.NumVertices() << std::endl;
    return std::nullopt;
  }
  QbsIndex index;
  index.g_ = &g;
  index.scheme_ = std::make_unique<LabelingScheme>(std::move(*scheme));
  if (options.precompute_delta) {
    WallTimer timer;
    index.delta_ = std::make_unique<DeltaCache>(
        DeltaCache::Build(g, index.scheme_->labeling, index.scheme_->meta,
                          options.num_threads));
    index.timings_.delta_seconds = timer.ElapsedSeconds();
  }
  index.sparsified_ = std::make_unique<Graph>(
      MakeSparsifiedGraph(g, index.scheme_->labeling));
  index.searcher_ = std::make_unique<GuidedSearcher>(
      g, *index.sparsified_, index.scheme_->labeling, index.scheme_->meta,
      index.delta_.get());
  return index;
}

bool QbsIndex::Save(const std::string& path) const {
  return SaveLabelingScheme(*scheme_, path);
}

ShortestPathGraph QbsIndex::Query(VertexId u, VertexId v,
                                  SearchStats* stats) {
  return searcher_->Query(u, v, stats);
}

QueryResponse QbsIndex::Query(const QueryRequest& request) {
  return Execute(*searcher_, request);
}

QueryResponse QbsIndex::Execute(GuidedSearcher& searcher,
                                const QueryRequest& request) const {
  QBS_CHECK_LT(request.u, g_->NumVertices());
  QBS_CHECK_LT(request.v, g_->NumVertices());
  QueryResponse response;
  if (request.budget > 0 && request.u != request.v) {
    // One O(|R|) label-row scan can certify d > budget before any search
    // runs; the response then reports "unknown, provably beyond budget".
    const LabelBound bound = ComputeLabelBound(
        scheme_->labeling, scheme_->meta, request.u, request.v);
    if (bound.lower > request.budget) {
      response.spg.u = request.u;
      response.spg.v = request.v;
      response.flags |= kResponseFlagBudgetPruned;
      return response;
    }
  }
  response.spg = searcher.Query(request.u, request.v, &response.stats);
  if (request.budget > 0 && response.spg.Connected() &&
      response.spg.distance > request.budget) {
    response.flags |= kResponseFlagBudgetExceeded;
    response.spg.edges.clear();
    response.spg.edges.shrink_to_fit();
  } else if (request.mode == QueryMode::kDistance) {
    response.spg.edges.clear();
    response.spg.edges.shrink_to_fit();
  }
  return response;
}

QbsIndex::SearcherLease::SearcherLease(QbsIndex& index, size_t count)
    : index_(index) {
  searchers_.reserve(count);
  {
    MutexLock lock(*index_.batch_searchers_mu_);
    while (!index_.batch_searchers_.empty() && searchers_.size() < count) {
      searchers_.push_back(std::move(index_.batch_searchers_.back()));
      index_.batch_searchers_.pop_back();
    }
  }
  try {
    while (searchers_.size() < count) {
      searchers_.push_back(std::make_unique<GuidedSearcher>(
          *index_.g_, *index_.sparsified_, index_.scheme_->labeling,
          index_.scheme_->meta, index_.delta_.get()));
    }
  } catch (...) {
    // A failed top-up (searcher construction is O(|V|) of allocation) must
    // not eat what was already checked out: the destructor will not run
    // for a throwing constructor, so check everything back in here.
    MutexLock lock(*index_.batch_searchers_mu_);
    for (auto& s : searchers_) {
      index_.batch_searchers_.push_back(std::move(s));
    }
    throw;
  }
}

QbsIndex::SearcherLease::~SearcherLease() {
  MutexLock lock(*index_.batch_searchers_mu_);
  for (auto& s : searchers_) {
    index_.batch_searchers_.push_back(std::move(s));
  }
}

size_t QbsIndex::BatchSearcherPoolSize() const {
  MutexLock lock(*batch_searchers_mu_);
  return batch_searchers_.size();
}

std::vector<QueryResponse> QbsIndex::QueryBatch(
    const std::vector<QueryRequest>& requests, const BatchOptions& options) {
  std::vector<QueryResponse> results(requests.size());
  const size_t workers = std::min(EffectiveThreads(options.num_threads),
                                  std::max<size_t>(requests.size(), 1));
  // One searcher per worker, checked out of the persistent pool (topped up
  // to `workers` if needed); all share the labelling, meta-graph, D cache,
  // and the materialized sparsified graph (read-only). The RAII lease
  // keeps concurrent QueryBatch calls from ever sharing a searcher AND
  // returns every searcher when a query throws mid-batch, so the pool
  // never shrinks across failed batches.
  SearcherLease lease(*this, workers);
  ParallelForOptions pf;
  pf.num_threads = workers;
  pf.grain = options.grain;
  ParallelFor(requests.size(), pf, [&](size_t i, size_t worker) {
    results[i] = Execute(lease[worker], requests[i]);
  });
  return results;
}

void QbsIndex::EnableUpdates(Graph* mutable_graph, size_t num_threads) {
  QBS_CHECK(mutable_graph == g_);  // the very graph the index was built on
  mutable_g_ = mutable_graph;
  updatable_ = std::make_unique<UpdatableState>();
  InitUpdatableState(*g_, scheme_->labeling, updatable_.get(), num_threads);
}

UpdateStats QbsIndex::ApplyUpdates(const GraphDelta& delta,
                                   const UpdateOptions& options) {
  QBS_CHECK(updatable_ != nullptr);  // EnableUpdates() first
  const NetChanges net = ComputeNetChanges(*g_, delta);
  UpdateStats stats;
  stats.noop_updates = net.noop_inserts + net.noop_deletes;
  stats.invalid_updates = net.invalid;
  if (net.EmptyNet()) {
    // Nothing changes in the graph; at most an overdue consolidation runs.
    if (options.consolidate && updatable_->HasDirty()) {
      stats.rebuilt_columns = Consolidate(options.num_threads);
    }
    return stats;
  }
  Graph new_graph = ApplyNetChanges(*g_, net);
  // The column repair reads the OLD depths/labels (still held in
  // updatable_ and the labelling), never the old adjacency — so the graph
  // swaps in first. Move-assignment keeps *g_'s address stable, which
  // every live searcher references.
  *mutable_g_ = std::move(new_graph);
  const UpdateStats col =
      ApplyNetToLabeling(*g_, net, &scheme_->labeling, &scheme_->meta,
                         updatable_.get(), options);
  stats.applied_inserts = col.applied_inserts;
  stats.applied_deletes = col.applied_deletes;
  stats.repaired_columns = col.repaired_columns;
  stats.rebuilt_columns = col.rebuilt_columns;
  stats.deferred_columns = col.deferred_columns;
  RefreshDerived(net, options.num_threads);
  return stats;
}

uint32_t QbsIndex::Consolidate(size_t num_threads) {
  QBS_CHECK(updatable_ != nullptr);
  const uint32_t rebuilt =
      ConsolidateDirtyColumns(*g_, &scheme_->labeling, &scheme_->meta,
                              updatable_.get(), num_threads);
  if (rebuilt > 0) RefreshDerived(NetChanges(), num_threads);
  return rebuilt;
}

void QbsIndex::RefreshDerived(const NetChanges& net, size_t num_threads) {
  if (delta_ != nullptr) {
    *delta_ = DeltaCache::Build(*g_, scheme_->labeling, scheme_->meta,
                                num_threads);
  }
  // G⁻ = G[V \ R] with fixed R: it takes exactly the edits between two
  // non-landmarks.
  const PathLabeling& labeling = scheme_->labeling;
  const auto sparse = [&](const std::vector<Edge>& edits) {
    std::vector<Edge> kept;
    for (const Edge& e : edits) {
      if (!labeling.IsLandmark(e.u) && !labeling.IsLandmark(e.v)) {
        kept.push_back(e);
      }
    }
    return kept;
  };
  *sparsified_ =
      SpliceEdges(*sparsified_, sparse(net.inserts), sparse(net.deletes));
}

uint32_t QbsIndex::DistanceUpperBound(VertexId u, VertexId v) const {
  QBS_CHECK_LT(u, g_->NumVertices());
  QBS_CHECK_LT(v, g_->NumVertices());
  if (u == v) return 0;
  Sketch sketch;
  SketchScratch scratch;
  ComputeSketchInto(scheme_->labeling, scheme_->meta, u, v, &sketch, &scratch,
                    /*with_meta_edges=*/false);
  return sketch.d_top;
}

}  // namespace qbs
