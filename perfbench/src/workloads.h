// The benchmark's workloads. Each generates its inputs from the seed, sets
// the index up (timed), finishes lazy set-up, measures for the configured
// window, checks a seeded sample of answers against the BFS oracle, and
// returns either the end-to-end metrics (untraced) or the per-layer
// metrics (traced). See perfbench/METRICS.md for what each number means.

#ifndef QBS_PERFBENCH_WORKLOADS_H_
#define QBS_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// YT stand-in, uniform pairs, single-searcher Query then QueryBatch.
RunResult RunSpgUniform(const Config& config);

/// DB stand-in served from a loaded index over loopback, open-loop Zipf
/// traffic at fixed rates.
RunResult RunServeZipf(const Config& config);

/// Small DB stand-in under edit batches interleaved with local queries.
RunResult RunChurnLocal(const Config& config);

}  // namespace perfbench

#endif  // QBS_PERFBENCH_WORKLOADS_H_
