// The dynamic-index gauntlet: edit scripts against QbsIndex::ApplyUpdates
// must leave the index bit-identical to a from-scratch build on the
// updated graph — labels, meta-graph, the sparsified graph G⁻, and answers
// (SameAnswer on sampled pairs, including d <= 2 pairs that exercise the
// label fast path). Each seed runs a 25-batch sequence on one index, so
// every batch starts from repaired state, and rotates through script kinds
// aimed at the repair's hard cases: random mixes, edits at landmark roots,
// and deletes that cut a subtree off followed by inserts that reconnect
// it.
// A second gauntlet drives ApplyNetToLabeling on a standalone
// UpdatableState and checks every stored column depth against a BFS.
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2), which is
// what makes bit-identity a legitimate oracle: same updated graph, same
// landmarks, same bits.
//
// Seeds come from QBS_DYNAMIC_SEEDS (comma-separated) when set — the CI
// dynamic-gauntlet job passes 16 fresh seeds per run and logs them — and
// default to 1..16 locally. Every seed is printed, so any failure line is
// directly replayable with QBS_DYNAMIC_SEEDS=<seed>.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/guided_search.h"
#include "core/qbs_index.h"
#include "core/updatable_index.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/graph_delta.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

std::vector<uint64_t> GauntletSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("QBS_DYNAMIC_SEEDS")) {
    const std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t end = s.find(',', pos);
      if (end == std::string::npos) end = s.size();
      const std::string tok = s.substr(pos, end - pos);
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      pos = end + 1;
    }
  }
  if (seeds.empty()) {
    for (uint64_t i = 1; i <= 16; ++i) seeds.push_back(i);
  }
  return seeds;
}

Graph MakeFamilyGraph(uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return BarabasiAlbert(220, 3, seed);
    case 1:
      return WattsStrogatz(180, 4, 0.1, seed);
    case 2:
      // Raw G(n, m), possibly disconnected — exercises the unreachable
      // paths of the repair.
      return ErdosRenyi(200, 380, seed);
    default: {
      // G(n, m) plus a hub with 120 neighbours: the hub is a landmark whose
      // root edits move many depth-1 vertices at once.
      std::vector<Edge> edges = ErdosRenyi(200, 380, seed).EdgeList();
      for (VertexId v = 1; v <= 120; ++v) edges.emplace_back(0, v);
      return Graph::FromEdges(200, std::move(edges));
    }
  }
}

// A script mixing fresh inserts, deletions of existing edges, likely
// no-ops, and the occasional invalid entry.
GraphDelta RandomScript(const Graph& g, std::mt19937_64& rng, size_t ops) {
  const std::vector<Edge> edges = g.EdgeList();
  std::uniform_int_distribution<VertexId> vtx(0, g.NumVertices() - 1);
  GraphDelta delta;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t roll = rng() % 100;
    if (roll < 45) {
      delta.Insert(vtx(rng), vtx(rng));  // may be a self-loop / duplicate
    } else if (roll < 85 && !edges.empty()) {
      const Edge& e = edges[rng() % edges.size()];
      delta.Delete(e.u, e.v);
    } else if (roll < 95) {
      delta.Delete(vtx(rng), vtx(rng));  // probably absent: a no-op
    } else {
      delta.Insert(vtx(rng), static_cast<VertexId>(g.NumVertices() + 7));
    }
  }
  return delta;
}

// Edits at landmark roots: deletes of root edges into the root's first 64
// non-landmark neighbours, inserts of root edges, and same-level edits
// between two of those neighbours (edges that move no depth).
GraphDelta RootScript(const Graph& g, const std::vector<VertexId>& landmarks,
                      std::mt19937_64& rng, size_t ops) {
  std::uniform_int_distribution<VertexId> vtx(0, g.NumVertices() - 1);
  GraphDelta delta;
  for (size_t i = 0; i < ops; ++i) {
    const VertexId r = landmarks[rng() % landmarks.size()];
    std::vector<VertexId> first;  // the root's first 64 non-landmarks
    for (VertexId w : g.Neighbors(r)) {
      if (std::find(landmarks.begin(), landmarks.end(), w) !=
          landmarks.end()) {
        continue;
      }
      first.push_back(w);
      if (first.size() == 64) break;
    }
    const uint64_t roll = rng() % 3;
    if (roll == 0 && !first.empty()) {
      delta.Delete(r, first[rng() % first.size()]);
    } else if (roll == 1 && first.size() >= 2) {
      const VertexId a = first[rng() % first.size()];
      const VertexId b = first[rng() % first.size()];
      if (g.HasEdge(a, b)) {
        delta.Delete(a, b);
      } else {
        delta.Insert(a, b);
      }
    } else {
      delta.Insert(r, vtx(rng));
    }
  }
  return delta;
}

// The closed neighbourhood of a random low-degree vertex, or nothing.
std::vector<VertexId> PickBall(const Graph& g, std::mt19937_64& rng) {
  for (int tries = 0; tries < 100; ++tries) {
    const auto x = static_cast<VertexId>(rng() % g.NumVertices());
    if (g.Degree(x) == 0 || g.Degree(x) > 4) continue;
    std::vector<VertexId> ball(g.Neighbors(x).begin(), g.Neighbors(x).end());
    ball.push_back(x);
    std::sort(ball.begin(), ball.end());
    return ball;
  }
  return {};
}

// Deletes every edge leaving `ball`: the ball's vertices are orphaned and,
// unless a landmark is inside, become unreachable from every root.
GraphDelta CutScript(const Graph& g, const std::vector<VertexId>& ball) {
  GraphDelta delta;
  for (const VertexId x : ball) {
    for (VertexId w : g.Neighbors(x)) {
      if (!std::binary_search(ball.begin(), ball.end(), w)) delta.Delete(x, w);
    }
  }
  return delta;
}

// Reconnects a cut-off ball with a few edges to random outside vertices.
GraphDelta ReconnectScript(const Graph& g, const std::vector<VertexId>& ball,
                           std::mt19937_64& rng) {
  GraphDelta delta;
  for (int i = 0; i < 2; ++i) {
    delta.Insert(ball[rng() % ball.size()],
                 static_cast<VertexId>(rng() % g.NumVertices()));
  }
  return delta;
}

// The script for batch `batch` of a sequence, rotating through the kinds.
// A cut batch remembers its ball so the next batch reconnects it; half the
// cut batches also reconnect inside the same batch.
GraphDelta SequenceScript(const Graph& g,
                          const std::vector<VertexId>& landmarks, int batch,
                          std::mt19937_64& rng, std::vector<VertexId>* ball) {
  switch (batch % 4) {
    case 0:
      return RandomScript(g, rng, 10);
    case 1:
      return RootScript(g, landmarks, rng, 6);
    case 2: {
      *ball = PickBall(g, rng);
      if (ball->empty()) return RandomScript(g, rng, 10);
      GraphDelta delta = CutScript(g, *ball);
      if (rng() % 2 == 0) {
        const GraphDelta reconnect = ReconnectScript(g, *ball, rng);
        for (const EdgeUpdate& u : reconnect.updates()) delta.Add(u);
      }
      return delta;
    }
    default:
      if (ball->empty()) return RandomScript(g, rng, 10);
      return ReconnectScript(g, *ball, rng);
  }
}

void AssertSameCsr(const Graph& got, const Graph& want) {
  ASSERT_TRUE(std::equal(got.RawOffsets().begin(), got.RawOffsets().end(),
                         want.RawOffsets().begin(), want.RawOffsets().end()));
  ASSERT_TRUE(std::equal(got.RawAdjacency().begin(),
                         got.RawAdjacency().end(),
                         want.RawAdjacency().begin(),
                         want.RawAdjacency().end()));
}

void AssertSameScheme(const Graph& g, const QbsIndex& updated,
                      const QbsIndex& fresh) {
  const PathLabeling& a = updated.labeling();
  const PathLabeling& b = fresh.labeling();
  ASSERT_EQ(a.landmarks(), b.landmarks());
  const uint32_t k = a.num_landmarks();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ(a.Get(v, i), b.Get(v, i))
          << "label mismatch at v=" << v << " landmark=" << i;
    }
  }
  ASSERT_EQ(updated.meta_graph().Edges(), fresh.meta_graph().Edges());
}

// Sampled pairs + adjacent and two-hop pairs (the d <= 2 label fast path
// must stay bit-identical too).
std::vector<QueryPair> ProbePairs(const Graph& g, std::mt19937_64& rng) {
  std::vector<QueryPair> pairs = SampleQueryPairs(g, 25, rng());
  for (int i = 0; i < 10; ++i) {
    const auto u = static_cast<VertexId>(rng() % g.NumVertices());
    const auto nu = g.Neighbors(u);
    if (nu.empty()) continue;
    const VertexId w = nu[rng() % nu.size()];
    pairs.push_back({u, w});  // d == 1
    const auto nw = g.Neighbors(w);
    if (!nw.empty()) pairs.push_back({u, nw[rng() % nw.size()]});  // d <= 2
  }
  return pairs;
}

void AssertSameAnswers(const Graph& g, QbsIndex& updated, QbsIndex& fresh,
                       std::mt19937_64& rng) {
  for (const auto& [u, v] : ProbePairs(g, rng)) {
    QueryRequest request;
    request.u = u;
    request.v = v;
    const QueryResponse got = updated.Query(request);
    const QueryResponse want = fresh.Query(request);
    ASSERT_TRUE(SameAnswer(got, want)) << "answer diverged for (" << u << ", "
                                       << v << ")";
  }
}

constexpr int kSequenceBatches = 25;

TEST(DynamicUpdateTest, GauntletMatchesFreshBuild) {
  for (const uint64_t seed : GauntletSeeds()) {
    std::mt19937_64 rng(seed);
    Graph g = MakeFamilyGraph(seed);
    QbsOptions options;
    options.num_landmarks = 8;
    options.num_threads = 2;
    std::printf("[gauntlet] seed=%" PRIu64 " family=%" PRIu64 "\n", seed,
                seed % 4);
    QbsIndex index = QbsIndex::Build(g, options);
    index.EnableUpdates(&g, 2);
    const std::vector<VertexId> landmarks = index.landmarks();

    std::vector<VertexId> ball;
    for (int batch = 0; batch < kSequenceBatches; ++batch) {
      const GraphDelta delta = SequenceScript(g, landmarks, batch, rng, &ball);
      index.ApplyUpdates(delta);
      ASSERT_FALSE(index.HasDirtyColumns());  // eager by default
      QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, landmarks, options);
      AssertSameScheme(g, index, fresh);
      AssertSameCsr(index.sparsified_graph(),
                    MakeSparsifiedGraph(g, index.labeling()));
      AssertSameAnswers(g, index, fresh, rng);
      if (::testing::Test::HasFatalFailure()) {
        // The printed seed line identifies the failing sequence.
        std::printf("[gauntlet] failed at batch %d\n", batch);
        return;
      }
    }
  }
}

// The same sequences one layer down: ApplyNetToLabeling on a standalone
// UpdatableState, whose stored depths must equal a BFS on the edited graph
// after every batch — and whose labelling must equal a fresh build.
TEST(DynamicUpdateTest, ColumnDepthsStayExact) {
  for (const uint64_t seed : GauntletSeeds()) {
    std::mt19937_64 rng(seed + 1000);
    Graph g = MakeFamilyGraph(seed);
    LabelingBuildOptions build;
    build.num_threads = 2;
    std::printf("[depths] seed=%" PRIu64 " family=%" PRIu64 "\n", seed,
                seed % 4);
    const std::vector<VertexId> landmarks =
        SelectLandmarks(g, 8, LandmarkStrategy::kHighestDegree, seed);
    LabelingScheme scheme = BuildLabelingScheme(g, landmarks, build);
    UpdatableState state;
    InitUpdatableState(g, scheme.labeling, &state, 2);
    UpdateOptions update;
    update.num_threads = 2;

    std::vector<VertexId> ball;
    for (int batch = 0; batch < kSequenceBatches; ++batch) {
      const GraphDelta delta = SequenceScript(g, landmarks, batch, rng, &ball);
      const NetChanges net = ComputeNetChanges(g, delta);
      if (net.EmptyNet()) continue;
      g = ApplyNetChanges(g, net);
      ApplyNetToLabeling(g, net, &scheme.labeling, &scheme.meta, &state,
                         update);
      for (size_t i = 0; i < landmarks.size(); ++i) {
        ASSERT_EQ(state.columns[i].depth, BfsDistances(g, landmarks[i]))
            << "depths of column " << i << " at batch " << batch;
      }
      const LabelingScheme fresh = BuildLabelingScheme(g, landmarks, build);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        for (uint32_t i = 0; i < landmarks.size(); ++i) {
          ASSERT_EQ(scheme.labeling.Get(v, i), fresh.labeling.Get(v, i))
              << "label at v=" << v << " column " << i << " batch " << batch;
        }
      }
      ASSERT_EQ(scheme.meta.Edges(), fresh.meta.Edges()) << "batch " << batch;
    }
  }
}

TEST(DynamicUpdateTest, DeferredConsolidationConvergesToEager) {
  for (const uint64_t seed : {3u, 8u, 11u}) {
    std::mt19937_64 rng(seed);
    Graph g_eager = MakeFamilyGraph(seed);
    Graph g_deferred = MakeFamilyGraph(seed);  // identical twin
    QbsOptions options;
    options.num_landmarks = 6;
    options.num_threads = 2;
    QbsIndex eager = QbsIndex::Build(g_eager, options);
    eager.EnableUpdates(&g_eager, 2);
    QbsIndex deferred =
        QbsIndex::BuildWithLandmarks(g_deferred, eager.landmarks(), options);
    deferred.EnableUpdates(&g_deferred, 2);

    // Same two-batch script on both; the deferred index leaves its
    // delete-dirty columns stale between batches.
    UpdateOptions defer;
    defer.consolidate = false;
    defer.num_threads = 2;
    uint32_t deferred_total = 0;
    for (int batch = 0; batch < 2; ++batch) {
      const GraphDelta delta = RandomScript(g_eager, rng, 12);
      eager.ApplyUpdates(delta);
      const UpdateStats stats = deferred.ApplyUpdates(delta, defer);
      deferred_total += stats.deferred_columns;
    }
    EXPECT_EQ(deferred.HasDirtyColumns(), deferred_total > 0);

    // Consolidation brings the stale columns back to exact — bit-identical
    // to the eagerly-maintained twin.
    deferred.Consolidate(2);
    EXPECT_FALSE(deferred.HasDirtyColumns());
    ASSERT_EQ(g_eager.EdgeList(), g_deferred.EdgeList());
    AssertSameScheme(g_eager, deferred, eager);
    AssertSameAnswers(g_eager, deferred, eager, rng);
  }
}

TEST(DynamicUpdateTest, UpdatableAfterLoadFromFile) {
  Graph g = BarabasiAlbert(150, 3, 21);
  QbsOptions options;
  options.num_landmarks = 6;
  const std::string path = ::testing::TempDir() + "/dynamic_update_idx.qbs";
  {
    const QbsIndex built = QbsIndex::Build(g, options);
    ASSERT_TRUE(built.Save(path));
  }
  auto loaded = QbsIndex::LoadFromFile(g, path, options);
  ASSERT_TRUE(loaded.has_value());
  // EnableUpdates recaptures per-column depths with fresh BFS sweeps, so a
  // deserialized index is just as updatable as a built one.
  loaded->EnableUpdates(&g);
  GraphDelta delta;
  delta.Insert(0, 149);
  delta.Delete(g.EdgeList().front().u, g.EdgeList().front().v);
  loaded->ApplyUpdates(delta);
  QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, loaded->landmarks(), options);
  AssertSameScheme(g, *loaded, fresh);
  std::remove(path.c_str());
}

TEST(DynamicUpdateTest, InsertShortensDistanceImmediately) {
  Graph g = PathGraph(8);  // 0-1-...-7
  QbsOptions options;
  options.num_landmarks = 2;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  GraphDelta delta;
  delta.Insert(0, 7);
  const UpdateStats stats = index.ApplyUpdates(delta);
  EXPECT_EQ(stats.applied_inserts, 1u);
  EXPECT_EQ(index.Query(0, 7), SpgByDoubleBfs(g, 0, 7));
  EXPECT_EQ(index.Query(1, 6), SpgByDoubleBfs(g, 1, 6));
}

TEST(DynamicUpdateTest, DeleteDisconnectsImmediately) {
  Graph g = PathGraph(8);
  QbsOptions options;
  options.num_landmarks = 2;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  GraphDelta delta;
  delta.Delete(3, 4);  // the bridge
  const UpdateStats stats = index.ApplyUpdates(delta);
  EXPECT_EQ(stats.applied_deletes, 1u);
  EXPECT_FALSE(index.Query(0, 7).Connected());
  EXPECT_EQ(index.Query(0, 3), SpgByDoubleBfs(g, 0, 3));
  EXPECT_EQ(index.Query(4, 7), SpgByDoubleBfs(g, 4, 7));
}

TEST(DynamicUpdateTest, NoopScriptChangesNothing) {
  Graph g = BarabasiAlbert(120, 2, 5);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  QbsIndex baseline = QbsIndex::BuildWithLandmarks(g, index.landmarks(),
                                                   options);
  GraphDelta delta;
  const Edge existing = g.EdgeList().front();
  delta.Insert(existing.u, existing.v);  // already present
  delta.Delete(0, 0);                    // self-loop: invalid
  delta.Insert(5, 5);                    // self-loop: invalid
  delta.Delete(1, 119);                  // absent (in BA order): no-op
  const bool absent = !g.HasEdge(1, 119);
  const UpdateStats stats = index.ApplyUpdates(delta);
  EXPECT_EQ(stats.AppliedTotal(), absent ? 0u : 1u);
  EXPECT_EQ(stats.invalid_updates, 2u);
  EXPECT_GE(stats.noop_updates, 1u);
  if (stats.AppliedTotal() == 0) {
    EXPECT_EQ(stats.repaired_columns, 0u);
    EXPECT_EQ(stats.rebuilt_columns, 0u);
    AssertSameScheme(g, index, baseline);
  }
}

}  // namespace
}  // namespace qbs
