#include "core/updatable_index.h"

#include <algorithm>

#include "graph/bfs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// Decrease-only relaxation of a depth array in depth order: a bucket queue
// over unit edge weights. Each lowered vertex is logged with the depth it
// had before.
class DepthLowering {
 public:
  DepthLowering(std::vector<uint32_t>* depth, std::vector<MovedVertex>* log)
      : depth_(*depth), log_(*log) {}

  void Relax(VertexId v, uint32_t d) {
    if (d >= depth_[v]) return;
    log_.push_back({v, depth_[v]});
    depth_[v] = d;
    if (buckets_.size() <= d) buckets_.resize(static_cast<size_t>(d) + 1);
    buckets_[d].push_back(v);
  }

  // Settles the queue, relaxing every edge (x, w) of `g` with keep(x, w).
  template <class Keep>
  void Propagate(const Graph& g, Keep keep) {
    for (size_t d = 0; d < buckets_.size(); ++d) {
      for (size_t idx = 0; idx < buckets_[d].size(); ++idx) {
        const VertexId x = buckets_[d][idx];
        if (depth_[x] != d) continue;  // superseded by a later improvement
        for (VertexId w : g.Neighbors(x)) {
          if (keep(x, w)) Relax(w, static_cast<uint32_t>(d) + 1);
        }
      }
    }
    buckets_.clear();
  }

 private:
  std::vector<uint32_t>& depth_;
  std::vector<MovedVertex>& log_;
  std::vector<std::vector<VertexId>> buckets_;
};

// Increase pass (Ramalingam–Reps for unit weights) on the new graph with
// the batch's inserts ignored. A deleted parent edge orphans its deeper end
// unless that vertex keeps another parent; orphans orphan the children
// they leave without a parent, level by level. Exactly the orphans' depths
// grow. They are then settled from their surviving neighbours by a bucket
// queue through the orphaned region (unreached ones become kUnreachable).
void RaiseOrphanedDepths(const Graph& g, const NetChanges& net,
                         std::vector<uint32_t>* depth_io,
                         std::vector<MovedVertex>* log) {
  auto& depth = *depth_io;
  const auto kept = [&](VertexId x, VertexId w) {
    return !std::binary_search(net.inserts.begin(), net.inserts.end(),
                               Edge(x, w).Normalized());
  };
  std::vector<std::vector<VertexId>> suspects;  // by old depth
  const auto suspect = [&](VertexId v) {
    const uint32_t d = depth[v];
    if (suspects.size() <= d) suspects.resize(static_cast<size_t>(d) + 1);
    suspects[d].push_back(v);
  };
  for (const Edge& e : net.deletes) {
    const uint32_t du = depth[e.u];
    const uint32_t dv = depth[e.v];
    if (du == kUnreachable || dv == kUnreachable) continue;
    if (du + 1 == dv) suspect(e.v);
    if (dv + 1 == du) suspect(e.u);
  }
  // Orphaning writes kUnreachable at once, so later parent checks skip
  // orphans; parents one level up are final by the level order.
  std::vector<VertexId> orphans;
  for (size_t d = 1; d < suspects.size(); ++d) {
    for (size_t idx = 0; idx < suspects[d].size(); ++idx) {
      const VertexId v = suspects[d][idx];
      if (depth[v] != d) continue;  // already orphaned
      bool parent = false;
      for (VertexId w : g.Neighbors(v)) {
        if (depth[w] + 1 == d && kept(v, w)) {
          parent = true;
          break;
        }
      }
      if (parent) continue;
      log->push_back({v, depth[v]});
      depth[v] = kUnreachable;
      orphans.push_back(v);
      for (VertexId w : g.Neighbors(v)) {
        if (depth[w] == d + 1 && kept(v, w)) suspect(w);
      }
    }
  }
  if (orphans.empty()) return;
  // Every surviving vertex kept its exact depth, so each orphan starts
  // from its best surviving neighbour.
  DepthLowering lowering(&depth, log);
  for (const VertexId v : orphans) {
    uint32_t best = kUnreachable;
    for (VertexId w : g.Neighbors(v)) {
      if (depth[w] != kUnreachable && kept(v, w)) {
        best = std::min(best, depth[w] + 1);
      }
    }
    if (best != kUnreachable) lowering.Relax(v, best);
  }
  lowering.Propagate(g, kept);
}

// Decrease pass on the full new graph: seeds every inserted edge's deeper
// endpoint from the shallower one and propagates improvements in depth
// order. Exact because the depths it starts from are exact on the new
// graph minus the inserts (a vertex whose distance shrinks lies past an
// inserted edge; induction on the new distance).
void LowerDepthsAcrossInserts(const Graph& g, const std::vector<Edge>& inserts,
                              std::vector<uint32_t>* depth_io,
                              std::vector<MovedVertex>* log) {
  auto& depth = *depth_io;
  DepthLowering lowering(&depth, log);
  for (const Edge& e : inserts) {
    if (depth[e.u] != kUnreachable) lowering.Relax(e.v, depth[e.u] + 1);
    if (depth[e.v] != kUnreachable) lowering.Relax(e.u, depth[e.v] + 1);
  }
  lowering.Propagate(g, [](VertexId, VertexId) { return true; });
}

// True iff a delete in the batch removes a parent edge of the column — the
// columns deferred when UpdateOptions::consolidate is false.
bool CutsParentEdge(const std::vector<uint32_t>& depth,
                    const std::vector<Edge>& deletes) {
  for (const Edge& e : deletes) {
    if (depth[e.u] != depth[e.v]) return true;
  }
  return false;
}

// Brings one clean column to the new graph: exact depths by the increase
// and decrease passes, then the edit-local rederivation of what the moved
// depths and the edited adjacency reach.
ColumnRepair RepairColumn(const Graph& g, const NetChanges& net,
                          const std::vector<VertexId>& touched,
                          PathLabeling& labeling, LandmarkIndex i,
                          LabelColumnState* state) {
  std::vector<MovedVertex> log;
  RaiseOrphanedDepths(g, net, &state->depth, &log);
  LowerDepthsAcrossInserts(g, net.inserts, &state->depth, &log);
  // A vertex can be logged more than once (raised, then lowered); its first
  // entry holds the pre-batch depth. Keep the vertices that really moved.
  std::stable_sort(log.begin(), log.end(),
                   [](const MovedVertex& a, const MovedVertex& b) {
                     return a.v < b.v;
                   });
  std::vector<MovedVertex> moved;
  for (size_t idx = 0; idx < log.size(); ++idx) {
    if (idx > 0 && log[idx].v == log[idx - 1].v) continue;
    if (state->depth[log[idx].v] != log[idx].old_depth) {
      moved.push_back(log[idx]);
    }
  }
  return RepairLabelColumn(g, labeling, i, state, moved, touched);
}

// Rebuilds the meta-graph from the per-column meta lists. Each meta-edge
// is discovered from both endpoint columns; duplicates collapse, and when
// a deferred (stale) column disagrees with a fresh one the minimum weight
// wins until Consolidate() restores exactness. With no dirty columns every
// duplicate agrees, so the result is canonical.
MetaGraph RebuildMeta(uint32_t k, const UpdatableState& state) {
  std::vector<MetaEdge> all;
  for (const auto& col : state.columns) {
    for (const MetaEdge& e : col.meta) {
      all.push_back(e.a <= e.b ? e : MetaEdge{e.b, e.a, e.weight});
    }
  }
  std::sort(all.begin(), all.end());
  MetaGraph meta(k);
  for (size_t idx = 0; idx < all.size(); ++idx) {
    if (idx > 0 && all[idx].a == all[idx - 1].a &&
        all[idx].b == all[idx - 1].b) {
      continue;  // operator< orders by weight last: first entry is the min
    }
    meta.AddEdge(all[idx].a, all[idx].b, all[idx].weight);
  }
  meta.Finalize();
  return meta;
}

}  // namespace

void InitUpdatableState(const Graph& g, PathLabeling& labeling,
                        UpdatableState* state, size_t num_threads) {
  const uint32_t k = labeling.num_landmarks();
  state->columns.assign(k, {});
  state->dirty.assign(k, 0);
  if (k == 0) return;
  const size_t workers = std::min<size_t>(EffectiveThreads(num_threads), k);
  ParallelFor(k, workers, [&](size_t i, size_t) {
    RebuildLabelColumn(g, labeling, static_cast<LandmarkIndex>(i),
                       &state->columns[i]);
  });
}

UpdateStats ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                               PathLabeling* labeling, MetaGraph* meta,
                               UpdatableState* state,
                               const UpdateOptions& options) {
  UpdateStats stats;
  stats.applied_inserts = net.inserts.size();
  stats.applied_deletes = net.deletes.size();
  const uint32_t k = labeling->num_landmarks();
  QBS_CHECK_EQ(state->columns.size(), static_cast<size_t>(k));
  if (k == 0) {
    *meta = RebuildMeta(0, *state);
    return stats;
  }
  const size_t workers =
      std::min<size_t>(EffectiveThreads(options.num_threads), k);
  std::vector<VertexId> touched;
  for (const std::vector<Edge>* edges : {&net.inserts, &net.deletes}) {
    for (const Edge& e : *edges) {
      touched.push_back(e.u);
      touched.push_back(e.v);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Columns are independent (Lemma 5.2), and every write — label column,
  // mask column, S_r slot, LabelColumnState — is column-private.
  // CutsParentEdge reads the column's pre-batch depths.
  enum class Outcome : uint8_t { kUnchanged, kRepaired, kRebuilt, kDeferred };
  std::vector<Outcome> outcome(k, Outcome::kUnchanged);
  ParallelFor(k, workers, [&](size_t i, size_t) {
    const auto li = static_cast<LandmarkIndex>(i);
    LabelColumnState& col = state->columns[i];
    if (!options.consolidate &&
        (state->dirty[i] != 0 || CutsParentEdge(col.depth, net.deletes))) {
      state->dirty[i] = 1;
      outcome[i] = Outcome::kDeferred;
    } else if (state->dirty[i] != 0) {
      RebuildLabelColumn(new_graph, *labeling, li, &col);
      state->dirty[i] = 0;
      outcome[i] = Outcome::kRebuilt;
    } else {
      switch (RepairColumn(new_graph, net, touched, *labeling, li, &col)) {
        case ColumnRepair::kUnchanged:
          break;
        case ColumnRepair::kRepaired:
          outcome[i] = Outcome::kRepaired;
          break;
        case ColumnRepair::kRederived:
          outcome[i] = Outcome::kRebuilt;
          break;
      }
    }
  });
  for (const Outcome o : outcome) {
    stats.repaired_columns += o == Outcome::kRepaired ? 1 : 0;
    stats.rebuilt_columns += o == Outcome::kRebuilt ? 1 : 0;
    stats.deferred_columns += o == Outcome::kDeferred ? 1 : 0;
  }

  *meta = RebuildMeta(k, *state);
  return stats;
}

uint32_t ConsolidateDirtyColumns(const Graph& g, PathLabeling* labeling,
                                 MetaGraph* meta, UpdatableState* state,
                                 size_t num_threads) {
  const uint32_t k = labeling->num_landmarks();
  QBS_CHECK_EQ(state->columns.size(), static_cast<size_t>(k));
  std::vector<LandmarkIndex> dirty_cols;
  for (uint32_t i = 0; i < k; ++i) {
    if (state->dirty[i] != 0) dirty_cols.push_back(i);
  }
  if (dirty_cols.empty()) return 0;
  const size_t workers =
      std::min<size_t>(EffectiveThreads(num_threads), dirty_cols.size());
  ParallelFor(dirty_cols.size(), workers, [&](size_t idx, size_t) {
    const LandmarkIndex i = dirty_cols[idx];
    RebuildLabelColumn(g, *labeling, i, &state->columns[i]);
    state->dirty[i] = 0;
  });
  *meta = RebuildMeta(k, *state);
  return static_cast<uint32_t>(dirty_cols.size());
}

}  // namespace qbs
