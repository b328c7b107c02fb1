// Incremental maintenance of the QbS labelling scheme under edge edits.
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2): every label,
// bit-parallel mask and meta-edge of a landmark column is a function of
// that landmark's exact BFS depths. Each column keeps those depths
// (LabelColumnState, captured at EnableUpdates / rebuild time), so a batch
// of net edge changes is repaired column by column, touching only what the
// batch changes:
//
//   1. Depths, increase pass (Ramalingam–Reps), on the new graph with the
//      batch's inserts ignored. A deleted parent edge (depths differing by
//      one) orphans its deeper end unless that vertex keeps another parent
//      one level up; orphans orphan the children they leave parentless,
//      level by level. Only orphans' depths grow. A bucket queue then
//      settles them from their surviving neighbours (or leaves them
//      unreachable).
//   2. Depths, decrease pass, over the inserts: a multi-source bucket
//      queue seeded at each inserted edge's deeper end. Exact because pass
//      1 left depths exact on the graph without the inserts.
//   3. Derived values (RepairLabelColumn), in depth order: every moved
//      vertex, every neighbour that reads one, and every edit endpoint get
//      their QL flag, label, meta-edge, S^{-1} and S^0 recomputed with the
//      full pass's recurrences (a level's S^{-1} before its S^0); a vertex
//      hands work to its children only when one of its values changed, and
//      to its same-level neighbours only when its S^{-1} changed.
//
// A column still runs a full pass only where that is the definition:
//   - InitUpdatableState (no depths exist yet);
//   - a dirty (deferred) column, rebuilt by RebuildLabelColumn;
//   - an edit at the root that changes S_r, the root's first 64
//     non-landmark neighbours: that renumbers the mask bits, so the column
//     falls back to RederiveLabelColumn over the repaired depths.
// With UpdateOptions::consolidate = false, a column is deferred SVS-style
// when it is already dirty or when a delete in the batch cuts one of its
// parent edges (pre-batch depths differ); it serves stale answers until
// Consolidate() rebuilds it. QbsIndex::ApplyUpdates defaults to eager
// consolidation (the index is exact when it returns).
//
// Cost per batch: O(changed region × degree) per column, where the changed
// region is the moved vertices plus the vertices their changed values
// reach, and an O(|V| + |E|) splice for each of G and G⁻ (SpliceEdges;
// no sort). The meta-graph is rebuilt from the per-column meta lists each
// batch (|R|^2 edges — negligible); with deferred columns in play,
// conflicting stale weights resolve to the minimum, restored exactly on
// consolidation.
//
// Concurrency: nothing here takes a lock, by design. ApplyUpdates mutates
// the labelling in place and is serialized by the caller — the server
// holds its index_mu_ WriterLock (rank kIndex) across the whole batch,
// and the parallel per-column repair it schedules on the thread pool is
// legal under that lock precisely because the pool ranks sit above
// kIndex. See docs/ARCHITECTURE.md §12 (Concurrency contracts).

#ifndef QBS_CORE_UPDATABLE_INDEX_H_
#define QBS_CORE_UPDATABLE_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/meta_graph.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace qbs {

struct UpdateOptions {
  /// Repair every column in this batch, rebuilding any left dirty by an
  /// earlier deferred batch (true, the default: the index is exact when
  /// ApplyUpdates returns), or defer the dirty columns and those whose
  /// parent edges a delete cuts SVS-style until Consolidate() (false:
  /// dirty columns serve stale answers).
  bool consolidate = true;
  /// Column repair/rebuild threads: 0 = all hardware threads.
  size_t num_threads = 0;
};

struct UpdateStats {
  /// Net edge changes actually applied to the graph.
  uint64_t applied_inserts = 0;
  uint64_t applied_deletes = 0;
  /// Script entries that changed nothing (insert of an existing edge,
  /// delete of an absent one) and malformed entries (self-loop,
  /// out-of-range endpoint), skipped.
  uint64_t noop_updates = 0;
  uint64_t invalid_updates = 0;
  /// Columns the edit-local repair changed (depths, labels, masks or
  /// meta-edges).
  uint32_t repaired_columns = 0;
  /// Columns that ran a full pass: dirty columns rebuilt by eager
  /// consolidation, and columns rederived after their S_r changed.
  uint32_t rebuilt_columns = 0;
  /// Columns left dirty for a later Consolidate() (consolidate = false).
  uint32_t deferred_columns = 0;

  uint64_t AppliedTotal() const { return applied_inserts + applied_deletes; }
};

/// Per-column maintenance state: the exact BFS depths + meta-edges of every
/// landmark column (LabelColumnState) and the dirty flags of columns whose
/// rebuild was deferred. Owned by QbsIndex once EnableUpdates() has run.
struct UpdatableState {
  std::vector<LabelColumnState> columns;
  /// dirty[i] != 0: column i's labels/masks/meta/depths are stale (a
  /// deferred delete); the column is rebuilt, never repaired.
  std::vector<uint8_t> dirty;

  bool HasDirty() const {
    for (uint8_t d : dirty) {
      if (d != 0) return true;
    }
    return false;
  }
};

/// Initializes `state` for (g, labeling): runs one labelling BFS per column
/// to capture exact depths and meta-edges, rewriting the labels/masks
/// bit-identically in passing (so it is safe after LoadFromFile too).
/// Costs about one labelling build.
void InitUpdatableState(const Graph& g, PathLabeling& labeling,
                        UpdatableState* state, size_t num_threads);

/// Applies an already-computed net change set to the labelling. `new_graph`
/// must be the post-edit graph (ApplyNetChanges); the repair starts from
/// the OLD depths/labels/masks still held in `state`/`labeling`. Repairs
/// (or rebuilds / defers, see above) every column in parallel, rewrites
/// the meta-graph, and updates `state` in place. Returns the column-level
/// stats (the applied/noop script counters are the caller's, from
/// ComputeNetChanges).
UpdateStats ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                               PathLabeling* labeling, MetaGraph* meta,
                               UpdatableState* state,
                               const UpdateOptions& options);

/// Rebuilds every dirty column against the current graph and rewrites the
/// meta-graph. Returns the number of columns rebuilt (0 = nothing dirty).
uint32_t ConsolidateDirtyColumns(const Graph& g, PathLabeling* labeling,
                                 MetaGraph* meta, UpdatableState* state,
                                 size_t num_threads);

}  // namespace qbs

#endif  // QBS_CORE_UPDATABLE_INDEX_H_
