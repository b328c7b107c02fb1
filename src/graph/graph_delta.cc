#include "graph/graph_delta.h"

#include <algorithm>
#include <map>

#include "util/check.h"

namespace qbs {

NetChanges ComputeNetChanges(const Graph& base, const GraphDelta& delta) {
  NetChanges net;
  const VertexId n = base.NumVertices();
  // Presence of every touched (normalized) edge relative to the evolving
  // edge set; untouched edges keep their base presence. A map keeps the
  // evaluation O(k log k) in the script length k, independent of |E|.
  std::map<Edge, bool> touched;
  for (const EdgeUpdate& upd : delta.updates()) {
    if (upd.u == upd.v || upd.u >= n || upd.v >= n) {
      ++net.invalid;
      continue;
    }
    const Edge e = Edge(upd.u, upd.v).Normalized();
    auto it = touched.find(e);
    const bool present =
        it != touched.end() ? it->second : base.HasEdge(e.u, e.v);
    if (upd.op == EdgeOp::kInsert) {
      if (present) {
        ++net.noop_inserts;
      } else {
        touched[e] = true;
      }
    } else {
      if (!present) {
        ++net.noop_deletes;
      } else {
        touched[e] = false;
      }
    }
  }
  for (const auto& [e, present] : touched) {
    const bool in_base = base.HasEdge(e.u, e.v);
    if (present && !in_base) net.inserts.push_back(e);
    if (!present && in_base) net.deletes.push_back(e);
  }
  // std::map iteration is already sorted; keep the contract explicit.
  std::sort(net.inserts.begin(), net.inserts.end());
  std::sort(net.deletes.begin(), net.deletes.end());
  return net;
}

Graph SpliceEdges(const Graph& base, std::span<const Edge> inserts,
                  std::span<const Edge> deletes) {
  // Each edit as two half-edges (x gains or loses w), sorted by (x, w).
  struct HalfEdit {
    VertexId x;
    VertexId w;
    bool insert;
  };
  if (inserts.empty() && deletes.empty()) return base;
  const VertexId n = base.NumVertices();
  std::vector<HalfEdit> edits;
  edits.reserve(2 * (inserts.size() + deletes.size()));
  const auto add = [&](const Edge& e, bool insert) {
    QBS_CHECK_LT(e.u, e.v);  // normalized, no self-loop
    QBS_CHECK_LT(e.v, n);
    edits.push_back({e.u, e.v, insert});
    edits.push_back({e.v, e.u, insert});
  };
  for (const Edge& e : inserts) add(e, true);
  for (const Edge& e : deletes) add(e, false);
  std::sort(edits.begin(), edits.end(),
            [](const HalfEdit& a, const HalfEdit& b) {
              return a.x != b.x ? a.x < b.x : a.w < b.w;
            });
  for (size_t e = 1; e < edits.size(); ++e) {
    QBS_CHECK(edits[e].x != edits[e - 1].x || edits[e].w != edits[e - 1].w);
  }

  const std::span<const uint64_t> offsets = base.RawOffsets();
  const std::span<const VertexId> adjacency = base.RawAdjacency();
  QBS_CHECK_LE(2 * deletes.size(), adjacency.size());
  std::vector<uint64_t> new_offsets(offsets.size());
  std::vector<VertexId> new_adjacency(adjacency.size() + 2 * inserts.size() -
                                      2 * deletes.size());
  uint64_t out = 0;
  // Copies the unedited vertices [from, to): one block of adjacency, and
  // offsets shifted by a constant.
  const auto copy_run = [&](VertexId from, VertexId to) {
    const uint64_t begin = offsets[from];
    for (VertexId v = from; v < to; ++v) {
      new_offsets[v] = out + (offsets[v] - begin);
    }
    std::copy(adjacency.begin() + static_cast<ptrdiff_t>(begin),
              adjacency.begin() + static_cast<ptrdiff_t>(offsets[to]),
              new_adjacency.begin() + static_cast<ptrdiff_t>(out));
    out += offsets[to] - begin;
  };
  VertexId next = 0;
  for (size_t e = 0; e < edits.size();) {
    const VertexId x = edits[e].x;
    copy_run(next, x);
    new_offsets[x] = out;
    // Merge x's sorted list with its sorted edits.
    for (const VertexId w : base.Neighbors(x)) {
      for (; e < edits.size() && edits[e].x == x && edits[e].w < w; ++e) {
        QBS_CHECK(edits[e].insert);  // deletes must hit an existing edge
        new_adjacency[out++] = edits[e].w;
      }
      if (e < edits.size() && edits[e].x == x && edits[e].w == w) {
        QBS_CHECK(!edits[e].insert);  // inserts must be new edges
        ++e;
        continue;
      }
      new_adjacency[out++] = w;
    }
    for (; e < edits.size() && edits[e].x == x; ++e) {
      QBS_CHECK(edits[e].insert);
      new_adjacency[out++] = edits[e].w;
    }
    next = x + 1;
  }
  copy_run(next, n);
  new_offsets[n] = out;
  QBS_CHECK_EQ(out, new_adjacency.size());
  return Graph::AdoptCsr(std::move(new_offsets), std::move(new_adjacency));
}

Graph ApplyNetChanges(const Graph& base, const NetChanges& net) {
  return SpliceEdges(base, net.inserts, net.deletes);
}

}  // namespace qbs
