#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/serialization.h"
#include "core/sketch.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

using testing::Figure4Graph;
using testing::Figure4Landmarks;

class SketchFigure4Test : public ::testing::Test {
 protected:
  SketchFigure4Test()
      : graph_(Figure4Graph()),
        scheme_(BuildLabelingScheme(graph_, Figure4Landmarks())) {}
  Graph graph_;
  LabelingScheme scheme_;
};

// Example 4.7 / Figure 6(b): the sketch for SPG(6, 11).
TEST_F(SketchFigure4Test, GoldenSketchForSpg6_11) {
  const Sketch s = ComputeSketch(scheme_.labeling, scheme_.meta, 5, 10);
  EXPECT_EQ(s.d_top, 5u);
  // Anchors: (1, 6) with sigma 1; (2, 11) sigma 3; (3, 11) sigma 2.
  ASSERT_EQ(s.u_anchors.size(), 1u);
  EXPECT_EQ(s.u_anchors[0], (SketchAnchor{0, 1}));
  ASSERT_EQ(s.v_anchors.size(), 2u);
  EXPECT_EQ(s.v_anchors[0], (SketchAnchor{1, 3}));
  EXPECT_EQ(s.v_anchors[1], (SketchAnchor{2, 2}));
  // Meta-edges (1,2), (2,3), (1,3) all participate.
  EXPECT_EQ(s.meta_edges.size(), 3u);
  // Example 4.8: d*_6 = 0 and d*_11 = 2.
  EXPECT_EQ(s.d_star_u, 0u);
  EXPECT_EQ(s.d_star_v, 2u);
}

TEST_F(SketchFigure4Test, SketchIsSymmetricInBound) {
  const Sketch a = ComputeSketch(scheme_.labeling, scheme_.meta, 5, 10);
  const Sketch b = ComputeSketch(scheme_.labeling, scheme_.meta, 10, 5);
  EXPECT_EQ(a.d_top, b.d_top);
  EXPECT_EQ(a.meta_edges, b.meta_edges);
  EXPECT_EQ(a.u_anchors, b.v_anchors);
}

TEST_F(SketchFigure4Test, LandmarkEndpointUsesVirtualAnchor) {
  // Query from landmark 1 (vertex 0): single anchor (rank 0, delta 0).
  const Sketch s = ComputeSketch(scheme_.labeling, scheme_.meta, 0, 10);
  ASSERT_EQ(s.u_anchors.size(), 1u);
  EXPECT_EQ(s.u_anchors[0], (SketchAnchor{0, 0}));
  EXPECT_EQ(s.d_star_u, 0u);
  // d(1, 11) = 4 (1-2-9-10-11 via landmarks or 1-2-3-12-11): d_top tight.
  EXPECT_EQ(s.d_top, 4u);
}

TEST_F(SketchFigure4Test, BothEndpointsLandmarks) {
  const Sketch s = ComputeSketch(scheme_.labeling, scheme_.meta, 0, 2);
  EXPECT_EQ(s.d_top, 2u);  // d_M(1, 3) = 2
  EXPECT_EQ(s.u_anchors.size(), 1u);
  EXPECT_EQ(s.v_anchors.size(), 1u);
}

TEST_F(SketchFigure4Test, NoLandmarkRouteIsUnbounded) {
  // A 2-vertex component disconnected from all landmarks.
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto scheme = BuildLabelingScheme(g, {1});
  const Sketch s = ComputeSketch(scheme.labeling, scheme.meta, 3, 5);
  EXPECT_EQ(s.d_top, kUnreachable);
  EXPECT_TRUE(s.u_anchors.empty());
}

// Property (Corollary 4.6): d⊤ >= d_G(u, v); equality iff some shortest
// path passes through a landmark.
struct BoundParam {
  int family;
  uint64_t seed;
  uint32_t k;
};

class SketchBoundProperty : public ::testing::TestWithParam<BoundParam> {};

TEST_P(SketchBoundProperty, UpperBoundAndTightness) {
  const auto& p = GetParam();
  Graph g;
  switch (p.family) {
    case 0:
      g = BarabasiAlbert(250, 2, p.seed);
      break;
    case 1:
      g = WattsStrogatz(250, 4, 0.2, p.seed);
      break;
    default:
      g = LargestComponent(RMat(8, 4, 0.57, 0.19, 0.19, p.seed)).graph;
      break;
  }
  const auto landmarks =
      SelectLandmarks(g, p.k, LandmarkStrategy::kHighestDegree, p.seed);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  std::vector<bool> is_landmark(g.NumVertices(), false);
  for (VertexId r : landmarks) is_landmark[r] = true;

  const auto pairs = SampleQueryPairs(g, 60, p.seed + 1);
  for (const auto& [u, v] : pairs) {
    const auto dist_u = BfsDistances(g, u);
    const Sketch s = ComputeSketch(scheme.labeling, scheme.meta, u, v);
    ASSERT_GE(s.d_top, dist_u[v]);
    // Tight iff a shortest path crosses a landmark, which we brute-force:
    // exists r with d(u,r) + d(r,v) == d(u,v).
    const auto dist_v = BfsDistances(g, v);
    bool through_landmark = false;
    for (VertexId r : landmarks) {
      if (dist_u[r] != kUnreachable && dist_v[r] != kUnreachable &&
          dist_u[r] + dist_v[r] == dist_u[v]) {
        through_landmark = true;
        break;
      }
    }
    EXPECT_EQ(s.d_top == dist_u[v], through_landmark)
        << "u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SketchBoundProperty,
    ::testing::Values(BoundParam{0, 1, 5}, BoundParam{0, 2, 10},
                      BoundParam{1, 3, 5}, BoundParam{1, 4, 10},
                      BoundParam{2, 5, 5}, BoundParam{2, 6, 10}));

// The label bounds bracket the BFS distance: lower <= d <= upper for every
// pair sharing a landmark, and the batched entry point agrees with single
// calls. Disconnected pairs share no landmark and get {0, kUnreachable}.
// Sources include the landmarks, so the bounds are tight somewhere.
class LabelBoundProperty : public ::testing::TestWithParam<BoundParam> {};

TEST_P(LabelBoundProperty, BoundsBracketBfsDistance) {
  const auto& p = GetParam();
  const Graph g = testing::SmallFamilyGraph(p.family, p.seed);
  const auto landmarks =
      SelectLandmarks(g, p.k, LandmarkStrategy::kHighestDegree, p.seed);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  const PathLabeling& l = scheme.labeling;

  std::vector<VertexId> sources = landmarks;
  for (VertexId s = 0; s < g.NumVertices(); s += g.NumVertices() / 8 + 1) {
    sources.push_back(s);
  }
  std::vector<VertexId> us;
  std::vector<VertexId> vs;
  std::vector<uint32_t> dists;
  for (const VertexId s : sources) {
    const auto dist = BfsDistances(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      if (s == t) continue;
      us.push_back(s);
      vs.push_back(t);
      dists.push_back(dist[t]);
    }
  }

  std::vector<LabelBound> batched(us.size());
  ComputeLabelBoundsBatch(l, scheme.meta, us.data(), vs.data(), us.size(),
                          kUnreachable, batched.data());
  size_t tight = 0;
  for (size_t i = 0; i < us.size(); ++i) {
    const LabelBound bound = ComputeLabelBound(l, scheme.meta, us[i], vs[i]);
    const uint32_t d = dists[i];
    if (d == kUnreachable) {
      ASSERT_EQ(bound.lower, 0u);
      ASSERT_EQ(bound.upper, kUnreachable);
    } else {
      ASSERT_LE(bound.lower, d) << "u=" << us[i] << " v=" << vs[i];
      if (bound.upper != kUnreachable) {
        ASSERT_GE(bound.upper, d) << "u=" << us[i] << " v=" << vs[i];
      }
      if (bound.lower == d && bound.upper == d) ++tight;
    }
    ASSERT_EQ(batched[i].lower, bound.lower) << "pair " << i;
    ASSERT_EQ(batched[i].upper, bound.upper) << "pair " << i;
  }
  EXPECT_GT(tight, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Families, LabelBoundProperty,
    ::testing::Values(BoundParam{0, 21, 8}, BoundParam{1, 22, 10},
                      BoundParam{2, 23, 6}, BoundParam{3, 24, 5},
                      BoundParam{0, 25, 20}));

// A labelling whose first k vertices are the landmarks and whose remaining
// `extra` vertices start with all-absent rows (filled by the test).
PathLabeling SyntheticLabeling(uint32_t k, VertexId extra) {
  std::vector<VertexId> landmarks(k);
  for (uint32_t i = 0; i < k; ++i) landmarks[i] = i;
  return PathLabeling(k + extra, std::move(landmarks));
}

// The row scan of ComputeLabelBound on hand-built rows of non-landmark
// vertices, at row lengths around and across typical vector widths.
class LabelRowScan : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LabelRowScan, BoundOnHandBuiltRows) {
  const uint32_t k = GetParam();
  const MetaGraph meta(k);  // unused by non-landmark pairs
  const VertexId u = k;
  const VertexId v = k + 1;

  // No shared landmark: the labels say nothing.
  PathLabeling absent = SyntheticLabeling(k, 2);
  LabelBound bound = ComputeLabelBound(absent, meta, u, v);
  EXPECT_EQ(bound.lower, 0u);
  EXPECT_EQ(bound.upper, kUnreachable);

  // A single shared lane (the last one); every other lane is present on
  // at most one side and must not contribute.
  PathLabeling single = SyntheticLabeling(k, 2);
  const LandmarkIndex last = k - 1;
  single.Set(u, last, 3);
  single.Set(v, last, 8);
  for (LandmarkIndex i = 0; i < last; ++i) {
    single.Set(i % 2 == 0 ? u : v, i, 1);
  }
  bound = ComputeLabelBound(single, meta, u, v);
  EXPECT_EQ(bound.lower, 5u);
  EXPECT_EQ(bound.upper, 11u);

  // Near-sentinel distances: du + dv exceeds 0xFFFF on every shared lane,
  // and the upper bound is the exact 32-bit sum, not a saturated one.
  PathLabeling high = SyntheticLabeling(k, 2);
  uint32_t want_lower = 0;
  uint32_t want_upper = kUnreachable;
  for (LandmarkIndex i = 0; i < k; ++i) {
    const auto du = static_cast<DistT>(0xFFFE - i % 13);
    const auto dv = static_cast<DistT>(0xFFF0 + i % 7);
    high.Set(u, i, du);
    high.Set(v, i, dv);
    want_lower = std::max<uint32_t>(want_lower, du > dv ? du - dv : dv - du);
    want_upper = std::min(want_upper, static_cast<uint32_t>(du) + dv);
  }
  bound = ComputeLabelBound(high, meta, u, v);
  EXPECT_GT(bound.upper, 0xFFFFu);
  EXPECT_EQ(bound.lower, want_lower);
  EXPECT_EQ(bound.upper, want_upper);
}

TEST_P(LabelRowScan, AnchorCandidatesInLandmarkOrder) {
  const uint32_t k = GetParam();
  PathLabeling labeling = SyntheticLabeling(k, 1);
  const VertexId t = k;
  std::mt19937_64 rng(k);
  std::vector<SketchAnchor> want;
  for (LandmarkIndex i = 0; i < k; ++i) {
    if (rng() % 3 == 0 && i + 1 != k) continue;  // the last lane stays set
    const auto d = static_cast<DistT>(1 + rng() % 0xFFFE);
    labeling.Set(t, i, d);
    want.push_back(SketchAnchor{i, d});
  }
  std::vector<SketchAnchor> got = {SketchAnchor{99, 99}};  // cleared first
  ComputeAnchorCandidatesInto(labeling, t, &got);
  EXPECT_EQ(got, want);

  // A landmark endpoint is its single virtual entry (rank, 0).
  ComputeAnchorCandidatesInto(labeling, k - 1, &got);
  EXPECT_EQ(got, (std::vector<SketchAnchor>{SketchAnchor{k - 1, 0}}));
}

INSTANTIATE_TEST_SUITE_P(RowLengths, LabelRowScan,
                         ::testing::Values(1u, 7u, 33u));

// Rows are stored unpadded (|R| lanes each), so a Save/Load round trip at
// an |R| that is no multiple of any vector width restores every entry and
// every bound.
TEST(LabelRowStorage, SaveLoadRoundTripAtSevenLandmarks) {
  const Graph g = BarabasiAlbert(200, 3, 5);
  const auto scheme = BuildLabelingScheme(
      g, SelectLandmarks(g, 7, LandmarkStrategy::kHighestDegree, 5));
  const std::string path =
      ::testing::TempDir() + "/sketch_test_roundtrip_r7.qbs";
  ASSERT_TRUE(SaveLabelingScheme(scheme, path));
  auto loaded = LoadLabelingScheme(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  const PathLabeling& a = scheme.labeling;
  const PathLabeling& b = loaded->labeling;
  ASSERT_EQ(b.num_landmarks(), 7u);
  ASSERT_EQ(b.num_vertices(), a.num_vertices());
  EXPECT_EQ(b.SizeBytes(), uint64_t{200} * 7 * sizeof(DistT));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    for (LandmarkIndex i = 0; i < 7; ++i) {
      ASSERT_EQ(b.Row(v)[i], a.Get(v, i)) << "v=" << v << " i=" << i;
    }
  }
  for (VertexId u = 0; u < 200; u += 7) {
    for (VertexId v = 1; v < 200; v += 11) {
      if (u == v) continue;
      const LabelBound want = ComputeLabelBound(a, scheme.meta, u, v);
      const LabelBound got = ComputeLabelBound(b, loaded->meta, u, v);
      ASSERT_EQ(got.lower, want.lower) << "u=" << u << " v=" << v;
      ASSERT_EQ(got.upper, want.upper) << "u=" << u << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace qbs
