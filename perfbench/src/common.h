// Plumbing shared by the three workloads: run configuration, timed index
// set-up, the load probe, the outside decomposition of a query and of a
// build into the library's public calls, the BFS-oracle answer check, and
// the fixed table of per-layer metrics every traced run prints.

#ifndef QBS_PERFBENCH_COMMON_H_
#define QBS_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/qbs_index.h"
#include "harness.h"

namespace perfbench {

using qbs::QbsIndex;
using qbs::QueryMode;
using qbs::QueryRequest;
using qbs::QueryResponse;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the saved index and the span file (inside the checkout).
  std::string work_dir = ".bench_build/work";
  /// Threads and connections: the CPUs this process may run on.
  size_t threads = 1;
};

/// CPUs in this process's affinity mask (what `nproc` prints).
size_t UsableCpus();

/// |R| and landmark strategy of every index the benchmark builds (the
/// paper's defaults, §6.1).
qbs::QbsOptions IndexOptions(size_t threads);

/// labels + masks + meta-graph + Δ, in MiB, from the public size accessors.
double IndexMiB(const QbsIndex& index);

/// Wall time (s) of one QbsIndex::LoadFromFile of `path` against `g`, or a
/// negative value when the load fails. With `keep` non-null the loaded
/// index is moved there (the served index of serve-zipf).
double TimeLoad(const qbs::Graph& g, const std::string& path, size_t threads,
                std::unique_ptr<QbsIndex>* keep);

/// A stored answer awaiting the oracle check.
struct PendingCheck {
  VertexId u = 0;
  VertexId v = 0;
  bool spg = true;
  qbs::ShortestPathGraph answer;
};

/// Checks every pending answer against `g` on `threads` threads and returns
/// the number that are wrong. An SPG answer must equal the double-BFS
/// oracle's; a distance-only answer must carry the Bi-BFS distance and no
/// edges.
size_t CountWrongAnswers(const qbs::Graph& g,
                         const std::vector<PendingCheck>& pending,
                         size_t threads);

/// True for the seeded sample of operation indices whose answers are kept
/// for the oracle check (about one in `every`).
bool Sampled(uint64_t seed, uint64_t index, uint64_t every);

// ---- Per-layer metrics -----------------------------------------------------

/// Name and unit of every per-layer metric, in print order. A traced run
/// prints all of them; a layer a workload leaves idle reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerTable();

/// Per-layer values collected by a traced run.
using LayerValues = std::map<std::string, double>;

/// Appends every PerLayerTable() metric to `result`, 0 where absent.
/// Aborts on a name missing from the table (a typo would drop a row).
void EmitPerLayer(const LayerValues& values, RunResult* result);

/// Times the build's public calls one by one — SelectLandmarks,
/// BuildLabelingScheme, DeltaCache::Build, MakeSparsifiedGraph — under
/// one "setup" span, then QbsIndex::Build whole as a sibling span.
void DecomposeBuild(const qbs::Graph& g, size_t threads, Tracer& tracer);

/// Save, LoadLabelingScheme and the file size, under spans.
void DecomposeSerialization(const QbsIndex& index, const std::string& path,
                            Tracer& tracer, LayerValues* out);

/// Index sizes by component.
void SizeRows(const QbsIndex& index, LayerValues* out);

/// Decomposes queries from outside: for each pair, the benchmark's own
/// ComputeLabelBound → candidates + ComputeSketchInto → the deferred
/// meta-edge sweep → GuidedSearcher::QueryWithSketch, on a searcher built
/// from the index's public accessors, then the whole fused
/// QbsIndex::Query on the same pair. Records spans for both, the
/// real path's SearchStats counters, and the per-layer self times. Returns
/// the number of pairs whose two answers differ.
size_t DecomposeQueries(QbsIndex& index, const std::vector<Pair>& pairs,
                        Tracer& tracer, uint64_t first_request,
                        LayerValues* out);

/// Tracing overhead: p50 of index.Query over `pairs` with spans on,
/// relative to the same loop with spans off.
double TracingOverhead(QbsIndex& index, const std::vector<Pair>& pairs);

/// The per-layer timing rows: for each span name the benchmark records
/// around a library call, the median self time of those spans, plus the
/// span count.
void SpanRows(const Tracer& tracer, LayerValues* out);

/// Writes the tracer's spans to <work_dir>/<workload>-seed<seed>.jsonl.
void WriteSpans(const Config& config, const Tracer& tracer,
                RunResult* result);

}  // namespace perfbench

#endif  // QBS_PERFBENCH_COMMON_H_
