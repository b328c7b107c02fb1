// GraphDelta / ComputeNetChanges / ApplyNetChanges semantics: script-order
// evaluation, no-op and invalid accounting, insert/delete cancellation,
// normalization, and CSR materialization — the edit splice must give the
// exact arrays Graph::FromEdges builds from the edited edge list.

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace qbs {
namespace {

TEST(GraphDeltaTest, NetInsertAndDelete) {
  const Graph g = PathGraph(5);  // 0-1-2-3-4
  GraphDelta delta;
  delta.Insert(0, 4);
  delta.Delete(1, 2);
  const NetChanges net = ComputeNetChanges(g, delta);
  ASSERT_EQ(net.inserts.size(), 1u);
  EXPECT_EQ(net.inserts[0], Edge(0, 4));
  ASSERT_EQ(net.deletes.size(), 1u);
  EXPECT_EQ(net.deletes[0], Edge(1, 2));
  EXPECT_EQ(net.noop_inserts, 0u);
  EXPECT_EQ(net.noop_deletes, 0u);
  EXPECT_EQ(net.invalid, 0u);

  const Graph updated = ApplyNetChanges(g, net);
  EXPECT_EQ(updated.NumVertices(), g.NumVertices());
  EXPECT_EQ(updated.NumEdges(), g.NumEdges());  // one in, one out
  EXPECT_TRUE(updated.HasEdge(0, 4));
  EXPECT_FALSE(updated.HasEdge(1, 2));
  EXPECT_TRUE(updated.HasEdge(2, 3));
}

TEST(GraphDeltaTest, NoopsAreCountedNotApplied) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(0, 1);  // already present
  delta.Delete(0, 3);  // absent
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());
  EXPECT_EQ(net.noop_inserts, 1u);
  EXPECT_EQ(net.noop_deletes, 1u);
}

TEST(GraphDeltaTest, InvalidEntriesAreSkipped) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(2, 2);    // self-loop
  delta.Insert(0, 99);   // out of range
  delta.Delete(99, 0);   // out of range
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());
  EXPECT_EQ(net.invalid, 3u);
}

TEST(GraphDeltaTest, InsertThenDeleteCancels) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(0, 2);
  delta.Delete(0, 2);
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());

  // The reverse direction on a present edge cancels too.
  GraphDelta delta2;
  delta2.Delete(0, 1);
  delta2.Insert(0, 1);
  const NetChanges net2 = ComputeNetChanges(g, delta2);
  EXPECT_TRUE(net2.EmptyNet());
}

TEST(GraphDeltaTest, ScriptOrderGovernsNoopAccounting) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(0, 2);  // new
  delta.Insert(0, 2);  // now a no-op against the evolving set
  delta.Delete(0, 2);  // cancels the first insert
  delta.Delete(0, 2);  // no-op again
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());
  EXPECT_EQ(net.noop_inserts, 1u);
  EXPECT_EQ(net.noop_deletes, 1u);
}

TEST(GraphDeltaTest, EndpointOrderIsNormalized) {
  const Graph g = PathGraph(5);
  GraphDelta delta;
  delta.Insert(4, 0);  // given reversed
  const NetChanges net = ComputeNetChanges(g, delta);
  ASSERT_EQ(net.inserts.size(), 1u);
  EXPECT_EQ(net.inserts[0], Edge(0, 4));
  // Deleting it in the other order within the same script cancels.
  GraphDelta both;
  both.Insert(4, 0);
  both.Delete(0, 4);
  EXPECT_TRUE(ComputeNetChanges(g, both).EmptyNet());
}

TEST(GraphDeltaTest, MaterializationMatchesManualEdgeSet) {
  const Graph g = BarabasiAlbert(60, 2, 7);
  GraphDelta delta;
  delta.Insert(0, 59);
  delta.Insert(1, 58);
  delta.Delete(0, 1);
  const NetChanges net = ComputeNetChanges(g, delta);
  const Graph updated = ApplyNetChanges(g, net);

  std::vector<Edge> expected = g.EdgeList();
  expected.erase(std::remove(expected.begin(), expected.end(), Edge(0, 1)),
                 expected.end());
  expected.push_back(Edge(0, 59));
  expected.push_back(Edge(1, 58));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(updated.EdgeList(), expected);
}

TEST(GraphDeltaTest, EmptyDeltaIsEmptyNet) {
  const Graph g = PathGraph(3);
  const NetChanges net = ComputeNetChanges(g, GraphDelta());
  EXPECT_TRUE(net.EmptyNet());
  const Graph updated = ApplyNetChanges(g, net);
  EXPECT_EQ(updated.EdgeList(), g.EdgeList());
}

// The canonical CSR of `base`'s edges minus `deletes` plus `inserts`.
Graph RebuiltFromEdges(const Graph& base, const std::vector<Edge>& inserts,
                       const std::vector<Edge>& deletes) {
  std::vector<Edge> edges;
  for (const Edge& e : base.EdgeList()) {
    if (!std::binary_search(deletes.begin(), deletes.end(), e)) {
      edges.push_back(e);
    }
  }
  edges.insert(edges.end(), inserts.begin(), inserts.end());
  return Graph::FromEdges(base.NumVertices(), std::move(edges));
}

void ExpectSameCsr(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  EXPECT_TRUE(std::equal(got.RawOffsets().begin(), got.RawOffsets().end(),
                         want.RawOffsets().begin(), want.RawOffsets().end()));
  EXPECT_TRUE(std::equal(got.RawAdjacency().begin(),
                         got.RawAdjacency().end(),
                         want.RawAdjacency().begin(),
                         want.RawAdjacency().end()));
}

TEST(GraphDeltaTest, SpliceMatchesFromEdgesAtListBoundaries) {
  // Vertex 9 (= |V| - 1) starts isolated; vertex 1 has the single
  // neighbour 2.
  const Graph g = Graph::FromEdges(
      10, {{0, 3}, {0, 5}, {1, 2}, {2, 5}, {2, 7}, {3, 4}, {4, 8}, {5, 6},
           {6, 8}});
  GraphDelta delta;
  delta.Insert(0, 9);  // edits at vertex 0 and at |V| - 1; 9 was isolated
  delta.Delete(1, 2);  // empties 1's list
  delta.Insert(8, 3);  // front of 8's list {4, 6}
  delta.Insert(4, 9);  // back of 4's list {3, 8}
  delta.Insert(0, 1);  // front of 0's list; 1's list refills
  delta.Delete(5, 6);  // middle of 5's list
  const NetChanges net = ComputeNetChanges(g, delta);
  ASSERT_EQ(net.inserts.size(), 4u);
  ASSERT_EQ(net.deletes.size(), 2u);
  ExpectSameCsr(ApplyNetChanges(g, net),
                RebuiltFromEdges(g, net.inserts, net.deletes));

  // Emptying the first and last lists entirely.
  const Graph star = Graph::FromEdges(4, {{0, 3}});
  const std::vector<Edge> cut = {{0, 3}};
  const Graph empty = SpliceEdges(star, {}, cut);
  ExpectSameCsr(empty, RebuiltFromEdges(star, {}, cut));
  EXPECT_EQ(empty.NumEdges(), 0u);
  // Refilling them from nothing.
  ExpectSameCsr(SpliceEdges(empty, cut, {}), star);
}

TEST(GraphDeltaTest, SpliceMatchesFromEdgesOnRandomBatches) {
  Graph g = BarabasiAlbert(300, 3, 17);
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<VertexId> vtx(0, g.NumVertices() - 1);
  for (int round = 0; round < 40; ++round) {
    GraphDelta delta;
    const std::vector<Edge> edges = g.EdgeList();
    for (int op = 0; op < 24; ++op) {
      if (rng() % 2 == 0) {
        delta.Insert(vtx(rng), vtx(rng));
      } else {
        const Edge& e = edges[rng() % edges.size()];
        delta.Delete(e.u, e.v);
      }
    }
    const NetChanges net = ComputeNetChanges(g, delta);
    Graph spliced = ApplyNetChanges(g, net);
    ExpectSameCsr(spliced, RebuiltFromEdges(g, net.inserts, net.deletes));
    g = std::move(spliced);
  }
}

}  // namespace
}  // namespace qbs
