// A fork-join ParallelFor over a process-wide set of helper threads.
//
// Each call is one job: a shared cursor hands out index chunks of `grain`
// iterations (dynamic load balancing at chunk granularity), the calling
// thread runs worker slot 0, and idle helper threads join the job in the
// remaining slots. The caller returns as soon as the last helper that
// joined has left the job, so no call pays a polling interval. Helpers are
// created once, on first use, so repeated calls (QueryBatch, edit-batch
// repair) pay no thread-spawn cost. A helper only ever runs chunks of an
// open job and every caller drains its own cursor, so nested and
// concurrent calls cannot deadlock.

#ifndef QBS_UTIL_THREAD_POOL_H_
#define QBS_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace qbs {

struct ParallelForOptions {
  // 0 = hardware concurrency, 1 = inline on the calling thread, otherwise
  // the exact worker count (worker indices are [0, count)).
  size_t num_threads = 0;
  // Iterations handed out per grab from the shared cursor; 0 picks
  // count / (workers * 8), clamped to >= 1. Smaller grains rebalance skew
  // better, larger grains amortize the cursor more.
  size_t grain = 0;
};

// Runs fn(i, worker_index) for every i in [0, count), distributed over the
// calling thread and the shared helpers in dynamically-balanced chunks.
// `worker_index` is in [0, effective_threads) and lets callers keep
// per-worker scratch state (e.g. a reusable BFS depth array); each worker
// index is used by exactly one thread at a time.
//
// Blocks until all iterations complete. If fn throws, the chunks not yet
// started are skipped and the first exception is rethrown on the calling
// thread once every participant has stopped.
void ParallelFor(size_t count, const ParallelForOptions& options,
                 const std::function<void(size_t index, size_t worker)>& fn);

// Back-compat convenience: ParallelFor with the default grain.
void ParallelFor(size_t count, size_t num_threads,
                 const std::function<void(size_t index, size_t worker)>& fn);

// Effective number of threads ParallelFor would use for the given request.
size_t EffectiveThreads(size_t num_threads);

}  // namespace qbs

#endif  // QBS_UTIL_THREAD_POOL_H_
