#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/guided_search.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "tests/test_util.h"

namespace qbs {
namespace {

using testing::Figure4Graph;
using testing::Figure4Landmarks;
using testing::PaperEdgeSet;

class GuidedSearchFigure4Test : public ::testing::Test {
 protected:
  GuidedSearchFigure4Test()
      : graph_(Figure4Graph()),
        scheme_(BuildLabelingScheme(graph_, Figure4Landmarks())),
        gminus_(MakeSparsifiedGraph(graph_, scheme_.labeling)),
        searcher_(graph_, gminus_, scheme_.labeling, scheme_.meta) {}

  Graph graph_;
  LabelingScheme scheme_;
  Graph gminus_;
  GuidedSearcher searcher_;
};

// Example 4.8 / Figure 6(f): the full answer of SPG(6, 11).
TEST_F(GuidedSearchFigure4Test, GoldenAnswerSpg6_11) {
  SearchStats stats;
  const auto spg = searcher_.Query(5, 10, &stats);  // paper 6 and 11
  EXPECT_EQ(spg.distance, 5u);
  EXPECT_EQ(spg.edges, PaperEdgeSet({// G⁻ path 6-7-8-9-10-11
                                     {6, 7},
                                     {7, 8},
                                     {8, 9},
                                     {9, 10},
                                     {10, 11},
                                     // landmark paths
                                     {6, 1},
                                     {1, 2},
                                     {2, 9},
                                     {2, 3},
                                     {3, 12},
                                     {12, 11},
                                     {1, 4},
                                     {4, 3}}));
  // d_G⁻ = d⊤ = 5: the "some through landmarks" case of Eq. 5.
  EXPECT_EQ(stats.d_top, 5u);
  EXPECT_EQ(stats.d_sparsified, 5u);
  EXPECT_EQ(stats.coverage, PairCoverage::kSomeThroughLandmarks);
  EXPECT_EQ(spg, SpgByDoubleBfs(graph_, 5, 10));
}

TEST_F(GuidedSearchFigure4Test, AllPairsMatchOracle) {
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      ASSERT_EQ(searcher_.Query(u, v), SpgByDoubleBfs(graph_, u, v))
          << "u=" << u + 1 << " v=" << v + 1 << " (paper ids)";
    }
  }
}

TEST_F(GuidedSearchFigure4Test, LandmarkEndpointQueries) {
  // Landmark to non-landmark, non-landmark to landmark, landmark pair.
  EXPECT_EQ(searcher_.Query(0, 10), SpgByDoubleBfs(graph_, 0, 10));
  EXPECT_EQ(searcher_.Query(7, 2), SpgByDoubleBfs(graph_, 7, 2));
  EXPECT_EQ(searcher_.Query(0, 2), SpgByDoubleBfs(graph_, 0, 2));
  EXPECT_EQ(searcher_.Query(0, 1), SpgByDoubleBfs(graph_, 0, 1));
}

TEST_F(GuidedSearchFigure4Test, SelfQuery) {
  const auto spg = searcher_.Query(4, 4);
  EXPECT_EQ(spg.distance, 0u);
  EXPECT_TRUE(spg.edges.empty());
}

TEST_F(GuidedSearchFigure4Test, AdjacentNonLandmarks) {
  const auto spg = searcher_.Query(4, 13);  // paper 5 - 14
  EXPECT_EQ(spg.distance, 1u);
  EXPECT_EQ(spg.edges, PaperEdgeSet({{5, 14}}));
}

TEST_F(GuidedSearchFigure4Test, StatsTrackSparsification) {
  SearchStats stats;
  searcher_.Query(5, 10, &stats);
  EXPECT_GT(stats.edges_scanned_search, 0u);
  EXPECT_GT(stats.landmark_edges_skipped, 0u);
  EXPECT_GT(stats.edges_scanned_recover, 0u);
}

TEST(GuidedSearchTest, DisconnectedPair) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto scheme = BuildLabelingScheme(g, {1});
  const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
  GuidedSearcher searcher(g, gminus, scheme.labeling, scheme.meta);
  SearchStats stats;
  const auto spg = searcher.Query(0, 5, &stats);
  EXPECT_FALSE(spg.Connected());
  EXPECT_TRUE(spg.edges.empty());
  EXPECT_EQ(stats.coverage, PairCoverage::kDisconnected);
}

TEST(GuidedSearchTest, ComponentWithoutLandmarks) {
  // The pair lives in a component no landmark touches: pure G⁻ search.
  Graph g = Graph::FromEdges(7, {{0, 1}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                                 {2, 6}});
  const auto scheme = BuildLabelingScheme(g, {0});
  const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
  GuidedSearcher searcher(g, gminus, scheme.labeling, scheme.meta);
  SearchStats stats;
  const auto spg = searcher.Query(2, 4, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(g, 2, 4));
  EXPECT_EQ(stats.coverage, PairCoverage::kNoneThroughLandmarks);
}

TEST(GuidedSearchTest, AllPathsThroughLandmarkHub) {
  Graph g = StarGraph(12);
  const auto scheme = BuildLabelingScheme(g, {0});
  const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
  GuidedSearcher searcher(g, gminus, scheme.labeling, scheme.meta);
  SearchStats stats;
  const auto spg = searcher.Query(3, 9, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(g, 3, 9));
  EXPECT_EQ(stats.coverage, PairCoverage::kAllThroughLandmarks);
  // The sparsified star is edgeless: nothing to scan.
  EXPECT_EQ(stats.d_sparsified, kUnreachable);
}

TEST(GuidedSearchTest, DeltaCacheGivesSameAnswers) {
  Graph g = BarabasiAlbert(300, 3, 77);
  const auto scheme = BuildLabelingScheme(
      g, SelectLandmarks(g, 8, LandmarkStrategy::kHighestDegree, 0));
  const DeltaCache delta =
      DeltaCache::Build(g, scheme.labeling, scheme.meta, 1);
  const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
  GuidedSearcher plain(g, gminus, scheme.labeling, scheme.meta);
  GuidedSearcher cached(g, gminus, scheme.labeling, scheme.meta, &delta);
  uint64_t hits = 0;
  for (VertexId u = 0; u < 60; u += 3) {
    for (VertexId v = 100; v < 160; v += 7) {
      SearchStats stats;
      ASSERT_EQ(cached.Query(u, v, &stats), plain.Query(u, v));
      hits += stats.delta_cache_hits;
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(GuidedSearchTest, QueryWithPrecomputedSketch) {
  Graph g = testing::Figure4Graph();
  const auto scheme = BuildLabelingScheme(g, testing::Figure4Landmarks());
  const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
  GuidedSearcher searcher(g, gminus, scheme.labeling, scheme.meta);
  const Sketch sketch = ComputeSketch(scheme.labeling, scheme.meta, 5, 10);
  EXPECT_EQ(searcher.QueryWithSketch(5, 10, sketch),
            SpgByDoubleBfs(g, 5, 10));
}

TEST(GuidedSearchTest, PathGraphLongDistances) {
  // High-diameter regime: every label distance large, search bounded.
  Graph g = PathGraph(200);
  const auto scheme = BuildLabelingScheme(g, {100});
  const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
  GuidedSearcher searcher(g, gminus, scheme.labeling, scheme.meta);
  EXPECT_EQ(searcher.Query(0, 199), SpgByDoubleBfs(g, 0, 199));
  EXPECT_EQ(searcher.Query(50, 150), SpgByDoubleBfs(g, 50, 150));
  EXPECT_EQ(searcher.Query(0, 99), SpgByDoubleBfs(g, 0, 99));
}

// d <= 2 pairs never scan a reverse or recover edge. Pairs whose sketch
// bound d⊤ is <= 2 resolve on the label fast path with zero search scans;
// d >= 3 pairs never do. Sources include the landmarks, whose
// neighbourhoods always take the fast path; landmark endpoints resolve via
// the other side's label row.
TEST(GuidedSearchTest, ShortDistancesSkipReverseAndRecover) {
  for (int family = 0; family < 4; ++family) {
    const uint64_t seed = 21 + family;
    const Graph g = testing::SmallFamilyGraph(family, seed);
    const auto landmarks =
        SelectLandmarks(g, 8, LandmarkStrategy::kHighestDegree, seed);
    const auto scheme = BuildLabelingScheme(g, landmarks);
    const Graph gminus = MakeSparsifiedGraph(g, scheme.labeling);
    GuidedSearcher searcher(g, gminus, scheme.labeling, scheme.meta);

    std::vector<VertexId> sources = landmarks;
    for (VertexId s = 0; s < g.NumVertices(); s += g.NumVertices() / 6 + 1) {
      sources.push_back(s);
    }
    size_t close = 0;
    size_t fast = 0;
    size_t far = 0;
    for (const VertexId s : sources) {
      const auto dist = BfsDistances(g, s);
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        if (s == t || dist[t] == kUnreachable) continue;
        SearchStats stats;
        ASSERT_EQ(searcher.Query(s, t, &stats), SpgByDoubleBfs(g, s, t))
            << "family=" << family << " s=" << s << " t=" << t;
        if (dist[t] > 2) {
          ++far;
          EXPECT_EQ(stats.label_short_circuits, 0u) << "s=" << s << " t=" << t;
          continue;
        }
        ++close;
        EXPECT_EQ(stats.edges_scanned_reverse, 0u) << "s=" << s << " t=" << t;
        EXPECT_EQ(stats.edges_scanned_recover, 0u) << "s=" << s << " t=" << t;
        const bool short_sketch = stats.d_top <= 2;
        EXPECT_EQ(stats.label_short_circuits, short_sketch ? 1u : 0u)
            << "s=" << s << " t=" << t << " d_top=" << stats.d_top;
        if (short_sketch) {
          ++fast;
          EXPECT_EQ(stats.edges_scanned_search, 0u) << "s=" << s << " t=" << t;
        }
      }
    }
    EXPECT_GT(close, 0u) << "family=" << family;
    EXPECT_GT(fast, 0u) << "family=" << family;
    EXPECT_GT(far, 0u) << "family=" << family;
  }
}

}  // namespace
}  // namespace qbs
