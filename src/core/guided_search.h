// Guided searching (Algorithm 4): answers SPG(u, v) by a sketch-guided
// bi-directional BFS on the sparsified graph G⁻ = G[V \ R], followed by a
// reverse search (paths avoiding landmarks, G⁻_uv) and/or a recover search
// (paths through landmarks, G^L_uv) according to Eq. 5:
//
//          ⎧ G^L_uv               if d_G⁻(u,v) > d⊤
//   G_uv = ⎨ G⁻_uv ∪ G^L_uv       if d_G⁻(u,v) = d⊤
//          ⎩ G⁻_uv                otherwise.
//
// The sparsified graph G⁻ is materialized once as its own CSR
// (MakeSparsifiedGraph, as the paper does) and shared by every searcher:
// searches never touch edges incident to landmarks.
// SearchStats::landmark_edges_skipped reports how many adjacency entries
// sparsification removed from the traversal, the §6.5(1) effect.

#ifndef QBS_CORE_GUIDED_SEARCH_H_
#define QBS_CORE_GUIDED_SEARCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/delta_cache.h"
#include "core/labeling.h"
#include "core/meta_graph.h"
#include "core/search_stats.h"
#include "core/sketch.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "graph/spg.h"
#include "util/epoch_array.h"

namespace qbs {

// Executes guided searches against a fixed labelling scheme. Holds scratch
// state sized to the graph, so construct once and reuse; NOT thread-safe —
// use one searcher per thread.
class GuidedSearcher {
 public:
  // `sparsified` is the materialized G[V \ R] (MakeSparsifiedGraph), shared
  // by every searcher on the same index. All referenced objects must
  // outlive the searcher. `delta` may be null (recover search then
  // re-derives landmark segments from labels online).
  GuidedSearcher(const Graph& g, const Graph& sparsified,
                 const PathLabeling& labeling, const MetaGraph& meta,
                 const DeltaCache* delta = nullptr);

  // Answers SPG(u, v): computes the sketch; when its bound d⊤ is <= 2 the
  // pair resolves on the label fast path (LabelFastPath) with zero search,
  // reverse, or recover edge scans, and otherwise the guided search runs.
  // `stats`, if non-null, receives the per-query counters.
  ShortestPathGraph Query(VertexId u, VertexId v, SearchStats* stats = nullptr);

  // As Query(), but with a caller-supplied sketch (exposed for tests and
  // phase microbenchmarks).
  ShortestPathGraph QueryWithSketch(VertexId u, VertexId v,
                                    const Sketch& sketch,
                                    SearchStats* stats = nullptr);

 private:
  // The d <= 2 fast path for a pair u != v whose sketch bound d_top is <= 2
  // (so d(u, v) is 1 or 2): one edge probe settles which, then the SPG is a
  // direct edge / common-neighbour emission — no search, reverse, or
  // recover work at all.
  ShortestPathGraph LabelFastPath(VertexId u, VertexId v, uint32_t d_top,
                                  SearchStats* stats);

  // Fills result->edges with the exact SPG of a pair KNOWN to be at
  // distance 1 or 2 (direct edge, or one (u,w) + (w,v) pair per common
  // neighbour w). Returns {landmark witnesses, total witnesses} of the
  // distance-2 intersection ({0, 0} for distance 1) so callers can
  // classify coverage.
  std::pair<size_t, size_t> EmitShortSpgEdges(VertexId u, VertexId v,
                                              uint32_t distance,
                                              SearchStats* stats,
                                              ShortestPathGraph* result);

  // Expands side `t` of the bi-directional search by one level; appends
  // newly met vertices (already settled by the other side) to meet_set_.
  void ExpandLevel(int t, SearchStats* stats);

  // §4.3: prefer the side whose sketch depth guide d* is not yet met,
  // breaking ties toward the smaller traversed set.
  int PickSide(const Sketch& sketch, const uint32_t d[2]) const;

  // Marks `w` as on-path: a start of the backward walk on side t.
  void AddBackwardStart(int t, VertexId w);

  // Serial identifying the current query's walk session for landmark r;
  // walk-mark slots holding it are "visited for r in this query".
  uint64_t WalkSerial(LandmarkIndex r);

  // Emits all edges of all shortest chains from the registered start
  // vertices back to the side-t endpoint, following depth_[t] levels
  // downward (reverse search; also used to splice Z vertices into paths).
  void RunBackwardWalk(int t, SearchStats* stats);

  // Emits all edges of all landmark-free shortest paths from w to landmark
  // `r`, walking label distances down to 1 (recover search).
  void LabelWalk(VertexId w, LandmarkIndex r, SearchStats* stats);

  const Graph& g_;       // original graph (landmark adjacency for recovery)
  const Graph* gminus_;  // the sparsified graph G⁻ the searches traverse
  const PathLabeling& labeling_;
  const MetaGraph& meta_;
  const DeltaCache* delta_;

  // Per-query scratch (epoch-reset). All traversal state lives in flat
  // reusable buffers from the shared substrate (graph/frontier.h): BFS
  // levels are contiguous spans of one buffer per side, the reverse search
  // walks (depth, vertex) start pairs through two flat buffers, and the
  // recover-search visited set is a serial-stamped array — no per-query
  // allocation and no hashing on the query hot path.
  EpochArray<uint32_t> depth_[2];
  EpochArray<uint8_t> back_mark_[2];
  LevelStack levels_[2];  // flat BFS levels per side
  // Level-crossing edges (x at level L, w at level L+1), recorded while the
  // forward expansion scans them anyway. The reverse search then replays
  // these lists downward instead of re-scanning walk-vertex adjacencies
  // with random depth lookups: every parent of an on-path vertex is here.
  LevelBuffer<std::pair<VertexId, VertexId>> crossing_[2];
  std::vector<VertexId> meet_set_;
  // (landmark, vertex) visited marks for label walks: walk_mark_[v] holds
  // the serial of the last walk session that visited v; sessions are
  // per-(query, landmark) via walk_session_, so clearing is O(1) per query
  // and marks persist across the u-side and v-side walks of one landmark.
  std::vector<uint64_t> walk_mark_;
  EpochArray<uint64_t> walk_session_;  // landmark -> session serial
  uint64_t walk_serial_ = 0;
  std::vector<VertexId> walk_stack_;  // LabelWalk DFS stack
  std::vector<VertexId> common_scratch_;  // fast-path common neighbours
  std::vector<Edge> edges_;  // accumulating answer
  Sketch sketch_scratch_;
  SketchScratch sketch_buffers_;
  // True while sketch_scratch_ holds a sketch whose meta-edge sweep was
  // deferred; QueryWithSketch then completes it only if the recover search
  // actually runs (most queries never read the meta-edges).
  bool lazy_sketch_ = false;
};

// Materializes the sparsified graph G[V \ R]: same vertex ids, only the
// edges with neither endpoint a landmark.
Graph MakeSparsifiedGraph(const Graph& g, const PathLabeling& labeling);

}  // namespace qbs

#endif  // QBS_CORE_GUIDED_SEARCH_H_
