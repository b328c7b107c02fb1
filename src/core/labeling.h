// The QbS labelling scheme L = (M, L) of Definition 4.2 and its
// construction (Algorithm 2).
//
// For each vertex u ∉ R, L(u) contains (r, d_G(u, r)) iff at least one
// shortest path between u and r passes through no other landmark. The
// companion meta-graph M records how landmarks interconnect.
//
// Storage: a dense |V| × |R| matrix of DistT (kInfDist = entry absent),
// one unpadded row of |R| lanes per vertex. With the paper's default
// |R| = 20 a label is 40 bytes — "not much larger than the original
// graph", usually far smaller. Queries read a row with a plain loop over
// its |R| lanes (core/sketch.cc).
//
// Lemma 5.2: the scheme is uniquely determined by (G, R), independent of
// landmark order, so construction parallelizes per landmark with no
// coordination (QbS-P).
//
// The labels are the whole index: no auxiliary per-vertex state rides
// along, so every query bound and every incremental repair reads the label
// matrix and the meta-graph only.

#ifndef QBS_CORE_LABELING_H_
#define QBS_CORE_LABELING_H_

#include <cstdint>
#include <vector>

#include "core/meta_graph.h"
#include "core/types.h"
#include "graph/graph.h"

namespace qbs {

class PathLabeling {
 public:
  /// Empty labelling (no vertices, no landmarks).
  PathLabeling() = default;
  /// Allocates the |V| x |R| matrix, all entries absent (kInfDist).
  PathLabeling(VertexId num_vertices, std::vector<VertexId> landmarks);

  /// |R|, the landmark count the matrix was built with.
  uint32_t num_landmarks() const {
    return static_cast<uint32_t>(landmarks_.size());
  }
  /// |V| of the graph the labelling describes.
  VertexId num_vertices() const { return num_vertices_; }

  /// The landmark vertex ids, in index order.
  const std::vector<VertexId>& landmarks() const { return landmarks_; }
  /// Vertex id of the i-th landmark.
  VertexId LandmarkVertex(LandmarkIndex i) const { return landmarks_[i]; }

  /// Landmark index of v, or -1 if v is not a landmark.
  int32_t LandmarkRank(VertexId v) const { return landmark_rank_[v]; }
  /// True iff v ∈ R.
  bool IsLandmark(VertexId v) const { return landmark_rank_[v] >= 0; }

  /// δ_{v, r_i}, or kInfDist if r_i ∉ L(v). Landmarks carry no stored labels
  /// (Definition 4.2 assigns labels to V \ R only).
  DistT Get(VertexId v, LandmarkIndex i) const {
    return dist_[static_cast<size_t>(v) * num_landmarks() + i];
  }

  void Set(VertexId v, LandmarkIndex i, DistT d) {
    dist_[static_cast<size_t>(v) * num_landmarks() + i] = d;
  }

  /// The label row of v: num_landmarks() DistT lanes, lane i = Get(v, i).
  const DistT* Row(VertexId v) const {
    return dist_.data() + static_cast<size_t>(v) * num_landmarks();
  }

  /// Number of finite labelling entries: size(L) = Σ_v |L(v)| (§2).
  uint64_t NumEntries() const;

  /// Bulk-fills the matrix from a landmark-major buffer (cols[i * |V| + v]).
  /// Construction writes labels column-wise — each landmark BFS streams its
  /// own |V|-sized column sequentially — and transposes once at the end,
  /// instead of scattering one cache line per labelled vertex across the
  /// whole vertex-major matrix on every BFS.
  void AssignFromColumns(const std::vector<DistT>& cols);

  /// Bytes of the dense label matrix, the quantity Table 3 reports as
  /// size(L) (the paper stores |R| fixed-width slots per vertex, as we do).
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(num_vertices_) * num_landmarks() *
           sizeof(DistT);
  }

  /// Always false. Kept for perfbench; delete at the next benchmark revision.
  bool has_bp_masks() const { return false; }

 private:
  VertexId num_vertices_ = 0;
  std::vector<VertexId> landmarks_;
  std::vector<int32_t> landmark_rank_;
  std::vector<DistT> dist_;  // |V| x |R|, vertex-major
};

struct LabelingScheme {
  PathLabeling labeling;
  MetaGraph meta;
};

struct LabelingBuildOptions {
  /// 1 = sequential (paper's QbS); 0 = hardware concurrency (QbS-P);
  /// otherwise the exact thread count.
  size_t num_threads = 1;
  /// Inert. Kept for perfbench; delete at the next benchmark revision.
  bool bit_parallel = true;
  /// Inert. Kept for perfbench; delete at the next benchmark revision.
  bool bp_fused = true;
};

/// Runs Algorithm 2: one two-queue level-synchronous BFS per landmark.
/// Landmark vertex ids must be distinct and valid. The result is
/// deterministic w.r.t. (g, landmarks) regardless of thread count or
/// landmark order (Lemma 5.2); only the landmark *indexing* follows the
/// given order.
LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   const LabelingBuildOptions& options = {});

/// --- Incremental maintenance entry points (core/updatable_index.h). ---

/// Exact BFS state of one landmark column, captured at (re)build time so
/// incremental maintenance can detect affected columns from stored depths
/// and rederive labels after partial repairs. depth[v] = d_G(r_i, v) for
/// every vertex (kUnreachable when disconnected — unlike the label matrix,
/// which only keeps pruned entries); meta holds the column's meta-edges
/// (a = this column's landmark index), sorted.
struct LabelColumnState {
  std::vector<uint32_t> depth;
  std::vector<MetaEdge> meta;
};

/// Rebuilds landmark column i from scratch against `g`: runs the
/// labelling BFS, writes the column into `labeling`, and captures the exact
/// depth array + meta-edges into `state`. Equivalent to the slice of
/// BuildLabelingScheme for this landmark — bit-identical labels.
void RebuildLabelColumn(const Graph& g, PathLabeling& labeling,
                        LandmarkIndex i, LabelColumnState* state);

/// A vertex whose exact depth in a column changed, with its depth before.
struct MovedVertex {
  VertexId v = 0;
  uint32_t old_depth = 0;
};

enum class ColumnRepair : uint8_t {
  kUnchanged = 0,  // no depth, label or meta-edge changed
  kRepaired = 1,   // the edit-local worklist brought the column up to date
};

/// Edit-local column maintenance. state->depth must already be exact on
/// `g` (the post-edit graph); `moved` lists every vertex whose depth
/// changed, `touched` every endpoint of an edited edge. Recomputes the QL
/// flag, label and meta-edge of exactly those vertices, of the neighbours
/// that read a moved vertex, and — in depth order — of every vertex a
/// changed QL flag flows to, with the same rule as the full pass, so the
/// column ends bit-identical to RebuildLabelColumn(g, ...). Cost: the
/// changed region times its degree.
ColumnRepair RepairLabelColumn(const Graph& g, PathLabeling& labeling,
                               LandmarkIndex i, LabelColumnState* state,
                               const std::vector<MovedVertex>& moved,
                               const std::vector<VertexId>& touched);

}  // namespace qbs

#endif  // QBS_CORE_LABELING_H_
