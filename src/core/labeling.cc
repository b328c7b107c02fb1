#include "core/labeling.h"

#include <algorithm>
#include <utility>

#include "graph/bfs.h"
#include "graph/frontier.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// Per-worker scratch reused across the BFSs this worker runs.
struct BfsScratch {
  std::vector<uint32_t> depth;  // kUnreachable = unvisited
  // Level queues: vertices to be labelled (QL) / not labelled (QN).
  std::vector<VertexId> cur_l, cur_n, next_l, next_n;
  // Frontier membership bitmaps, rebuilt only for bottom-up levels.
  Bitmap bits_l, bits_n;
  DirOptPolicy policy;
};

// Classifies and enqueues the vertex v, newly reached at `next_depth`.
// `via_l` says whether some shortest predecessor is in QL: vertices first
// reached from a QL vertex have a shortest path from the root avoiding
// other landmarks, so non-landmarks get a label (written into this BFS's
// own column `col`) and join QL while landmarks produce a meta-edge and
// join QN. Vertices reached only from QN join QN silently.
inline void Settle(VertexId v, bool via_l, uint32_t next_depth,
                   const PathLabeling& labeling, LandmarkIndex i, DistT* col,
                   std::vector<MetaEdge>* meta_edges, BfsScratch* s) {
  s->depth[v] = next_depth;
  if (!via_l) {
    s->next_n.push_back(v);
    return;
  }
  const int32_t rank = labeling.LandmarkRank(v);
  if (rank >= 0) {
    s->next_n.push_back(v);
    meta_edges->push_back(
        MetaEdge{i, static_cast<LandmarkIndex>(rank), next_depth});
  } else {
    s->next_l.push_back(v);
    col[v] = static_cast<DistT>(next_depth);
  }
}

// Top-down expansion of one frontier queue.
void ExpandTopDown(const Graph& g, const PathLabeling& labeling,
                   LandmarkIndex i, DistT* col,
                   std::vector<MetaEdge>* meta_edges, BfsScratch* s,
                   DirOptController* dir, const std::vector<VertexId>& frontier,
                   bool via_l, uint32_t next_depth) {
  for (const VertexId u : frontier) {
    for (VertexId v : g.Neighbors(u)) {
      if (s->depth[v] != kUnreachable) continue;
      Settle(v, via_l, next_depth, labeling, i, col, meta_edges, s);
      dir->Scout(g.Degree(v));
    }
  }
}

// Algorithm 2, one landmark: a level-synchronous BFS from landmarks[i] with
// two queues (QL / QN) on the shared frontier substrate. QL classification
// takes priority: a vertex reachable both ways at the same depth counts as
// QL. Dense middle levels run bottom-up (every unvisited vertex scans its
// neighbourhood for a QL parent first, then a QN parent), which preserves
// the priority rule and cuts the per-landmark full-graph sweep — the
// construction-time hot path (Fig. 10) — to a fraction of its edges.
void LabelFromLandmark(const Graph& g, const PathLabeling& labeling,
                       LandmarkIndex i, DistT* col,
                       std::vector<MetaEdge>* meta_edges, BfsScratch* s) {
  const VertexId root = labeling.LandmarkVertex(i);
  const VertexId n = g.NumVertices();
  s->depth.assign(n, kUnreachable);
  s->cur_l.clear();
  s->cur_n.clear();
  s->depth[root] = 0;
  s->cur_l.push_back(root);

  DirOptController dir(s->policy, n, g.NumEdges());
  dir.Scout(g.Degree(root));

  uint32_t level = 0;
  while (!s->cur_l.empty() || !s->cur_n.empty()) {
    s->next_l.clear();
    s->next_n.clear();
    const uint32_t next_depth = level + 1;
    QBS_CHECK_LT(next_depth, static_cast<uint32_t>(kInfDist));

    const bool bottom_up = dir.Step(s->cur_l.size() + s->cur_n.size());

    if (bottom_up) {
      s->bits_l.Resize(n);
      s->bits_n.Resize(n);
      for (VertexId x : s->cur_l) s->bits_l.Set(x);
      for (VertexId x : s->cur_n) s->bits_n.Set(x);
      for (VertexId v = 0; v < n; ++v) {
        if (s->depth[v] != kUnreachable) continue;
        // Scan for a QL parent (which wins) before accepting a QN parent.
        bool via_l = false;
        bool via_n = false;
        for (VertexId w : g.Neighbors(v)) {
          if (s->bits_l.Test(w)) {
            via_l = true;
            break;
          }
          via_n |= s->bits_n.Test(w);
        }
        if (!via_l && !via_n) continue;
        Settle(v, via_l, next_depth, labeling, i, col, meta_edges, s);
        dir.Scout(g.Degree(v));
      }
    } else {
      // QL is expanded before QN at each level, so a vertex reachable both
      // ways at the same depth is classified QL.
      ExpandTopDown(g, labeling, i, col, meta_edges, s, &dir, s->cur_l,
                    /*via_l=*/true, next_depth);
      ExpandTopDown(g, labeling, i, col, meta_edges, s, &dir, s->cur_n,
                    /*via_l=*/false, next_depth);
    }
    std::swap(s->cur_l, s->next_l);
    std::swap(s->cur_n, s->next_n);
    ++level;
  }
}

// The QL rule, as the edit-local repair (RepairLabelColumn) applies it to
// single vertices: v (depth >= 1) is first reached via QL iff some parent
// is QL. It reads only v's exact depth and its parents, which is what lets
// the repair match a full pass bit for bit.
template <class IsQl>
bool HasQlParent(const Graph& g, const std::vector<uint32_t>& depth,
                 VertexId v, IsQl is_ql) {
  const uint32_t d = depth[v];
  for (VertexId w : g.Neighbors(v)) {
    // depth[w] + 1 wraps to 0 for unreached w; d >= 1 here, so no match.
    if (depth[w] + 1 == d && is_ql(w)) return true;
  }
  return false;
}

}  // namespace

PathLabeling::PathLabeling(VertexId num_vertices,
                           std::vector<VertexId> landmarks)
    : num_vertices_(num_vertices), landmarks_(std::move(landmarks)) {
  landmark_rank_.assign(num_vertices_, -1);
  for (size_t i = 0; i < landmarks_.size(); ++i) {
    QBS_CHECK_LT(landmarks_[i], num_vertices_);
    QBS_CHECK_EQ(landmark_rank_[landmarks_[i]], -1);  // distinct
    landmark_rank_[landmarks_[i]] = static_cast<int32_t>(i);
  }
  dist_.assign(static_cast<size_t>(num_vertices_) * landmarks_.size(),
               kInfDist);
}

uint64_t PathLabeling::NumEntries() const {
  uint64_t count = 0;
  for (DistT d : dist_) {
    if (d != kInfDist) ++count;
  }
  return count;
}

void PathLabeling::AssignFromColumns(const std::vector<DistT>& cols) {
  const size_t n = num_vertices_;
  const size_t k = landmarks_.size();
  QBS_CHECK_EQ(cols.size(), n * k);
  // Blocked transpose: a 64x64 tile of DistT spans 8KB on each side, so
  // both the column-major source tile and the vertex-major target tile stay
  // cache-resident.
  constexpr size_t kTile = 64;
  for (size_t v0 = 0; v0 < n; v0 += kTile) {
    const size_t v1 = std::min(v0 + kTile, n);
    for (size_t i0 = 0; i0 < k; i0 += kTile) {
      const size_t i1 = std::min(i0 + kTile, k);
      for (size_t v = v0; v < v1; ++v) {
        for (size_t i = i0; i < i1; ++i) {
          dist_[v * k + i] = cols[i * n + v];
        }
      }
    }
  }
}

LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   const LabelingBuildOptions& options) {
  LabelingScheme scheme;
  scheme.labeling = PathLabeling(g.NumVertices(), landmarks);
  const auto k = static_cast<uint32_t>(landmarks.size());
  scheme.meta = MetaGraph(k);
  if (k == 0) {
    scheme.meta.Finalize();
    return scheme;
  }

  // One BFS per landmark. Each BFS streams labels into its own
  // landmark-major column and meta-edge lists are per-landmark, so workers
  // never contend; a single blocked transpose then fills the vertex-major
  // query matrix.
  const size_t workers =
      std::min<size_t>(EffectiveThreads(options.num_threads), k);
  std::vector<BfsScratch> scratch(workers);
  std::vector<std::vector<MetaEdge>> local_meta(k);
  std::vector<DistT> cols(static_cast<size_t>(g.NumVertices()) * k, kInfDist);
  ParallelFor(k, workers, [&](size_t i, size_t worker) {
    LabelFromLandmark(g, scheme.labeling, static_cast<LandmarkIndex>(i),
                      cols.data() + i * static_cast<size_t>(g.NumVertices()),
                      &local_meta[i], &scratch[worker]);
  });
  scheme.labeling.AssignFromColumns(cols);

  // Each meta-edge is discovered from both endpoints (the existence
  // condition is symmetric); keep one copy and let AddEdge cross-check the
  // duplicate's weight.
  for (const auto& edges : local_meta) {
    for (const MetaEdge& e : edges) {
      scheme.meta.AddEdge(e.a, e.b, e.weight);
    }
  }
  scheme.meta.Finalize();
  return scheme;
}

void RebuildLabelColumn(const Graph& g, PathLabeling& labeling,
                        LandmarkIndex i, LabelColumnState* state) {
  const VertexId n = g.NumVertices();
  std::vector<DistT> col(n, kInfDist);
  std::vector<MetaEdge> meta;
  BfsScratch s;
  LabelFromLandmark(g, labeling, i, col.data(), &meta, &s);
  for (VertexId v = 0; v < n; ++v) labeling.Set(v, i, col[v]);
  std::sort(meta.begin(), meta.end());
  state->depth = std::move(s.depth);
  state->meta = std::move(meta);
}

ColumnRepair RepairLabelColumn(const Graph& g, PathLabeling& labeling,
                               LandmarkIndex i, LabelColumnState* state,
                               const std::vector<MovedVertex>& moved,
                               const std::vector<VertexId>& touched) {
  const VertexId root = labeling.LandmarkVertex(i);
  const std::vector<uint32_t>& depth = state->depth;
  QBS_CHECK_EQ(depth.size(), static_cast<size_t>(g.NumVertices()));
  const auto is_ql = [&](VertexId w) {
    return w == root ||
           (!labeling.IsLandmark(w) && labeling.Get(w, i) != kInfDist);
  };
  bool changed = !moved.empty();

  // Worklist by (new) depth: each entry gets its QL flag, label and
  // meta-edge recomputed. Unreachable vertices carry nothing.
  std::vector<std::vector<VertexId>> work;
  std::vector<VertexId> gone;
  const auto push = [&](VertexId v) {
    const uint32_t d = depth[v];
    if (d == kUnreachable) {
      gone.push_back(v);
      return;
    }
    if (work.size() <= d) work.resize(static_cast<size_t>(d) + 1);
    work[d].push_back(v);
  };
  for (const VertexId v : touched) push(v);
  for (const MovedVertex& m : moved) {
    push(m.v);
    // A neighbour w reads v only while v sits one level above w, before or
    // after the move.
    const uint32_t now = depth[m.v];
    for (VertexId w : g.Neighbors(m.v)) {
      const uint32_t dw = depth[w];
      if (dw != kUnreachable && (dw == m.old_depth + 1 || dw == now + 1)) {
        push(w);
      }
    }
  }

  // Sets landmark `rank`'s meta-edge to weight d, or drops it (d = 0).
  const auto set_meta = [&](int32_t rank, uint32_t d) {
    auto it = std::find_if(
        state->meta.begin(), state->meta.end(), [rank](const MetaEdge& e) {
          return e.b == static_cast<LandmarkIndex>(rank);
        });
    if (d == 0) {
      if (it == state->meta.end()) return;
      state->meta.erase(it);
    } else if (it == state->meta.end()) {
      state->meta.push_back(MetaEdge{i, static_cast<LandmarkIndex>(rank), d});
    } else if (it->weight != d) {
      it->weight = d;
    } else {
      return;
    }
    changed = true;
  };

  for (const VertexId v : gone) {
    if (labeling.Get(v, i) != kInfDist) {
      labeling.Set(v, i, kInfDist);
      changed = true;
    }
    if (labeling.IsLandmark(v)) set_meta(labeling.LandmarkRank(v), 0);
  }

  // Level order, as in a full pass: a level's QL flags and labels read only
  // final parents. A vertex hands work on to its children only when its QL
  // flag (its label) changed. The root (level 0) never changes.
  for (uint32_t d = 1; d < work.size(); ++d) {
    std::vector<VertexId> level = std::move(work[d]);
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
    for (const VertexId v : level) {
      const bool via_l = HasQlParent(g, depth, v, is_ql);
      const int32_t rank = labeling.LandmarkRank(v);
      if (rank >= 0) {
        set_meta(rank, via_l ? d : 0);
        continue;
      }
      const DistT label = via_l ? static_cast<DistT>(d) : kInfDist;
      if (labeling.Get(v, i) == label) continue;
      labeling.Set(v, i, label);
      changed = true;
      for (VertexId w : g.Neighbors(v)) {
        if (depth[w] == d + 1) push(w);
      }
    }
  }
  std::sort(state->meta.begin(), state->meta.end());
  return changed ? ColumnRepair::kRepaired : ColumnRepair::kUnchanged;
}

}  // namespace qbs
