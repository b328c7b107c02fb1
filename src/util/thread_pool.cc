#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace qbs {
namespace {

using Body = std::function<void(size_t index, size_t worker)>;

// One ParallelFor call. It lives on the caller's stack; helpers reach it
// only through the pool's open-job list, and the caller does not return
// before every helper that joined it has left.
struct Job {
  Job(const Body& body, size_t n, size_t chunk, size_t num_workers)
      : fn(body), count(n), grain(chunk), workers(num_workers) {}

  // True once no chunk is left to hand out.
  bool Drained() const {
    return failed.load() || cursor.load(std::memory_order_relaxed) >= count;
  }

  // Runs chunks as worker `slot` until the cursor passes the end or some
  // participant has thrown. The first participant to throw keeps its
  // exception in `error`; the others stop at their next chunk boundary.
  void RunChunks(size_t slot) {
    try {
      while (!failed.load()) {
        const size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) return;
        const size_t end = std::min(begin + grain, count);
        for (size_t i = begin; i < end; ++i) fn(i, slot);
      }
    } catch (...) {
      bool first = false;
      if (failed.compare_exchange_strong(first, true)) {
        error = std::current_exception();
      }
    }
  }

  const Body& fn;
  const size_t count;
  const size_t grain;
  const size_t workers;
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  // Written only by the participant that set `failed`, before it leaves.
  std::exception_ptr error;
  // Guarded by the pool mutex.
  size_t next_slot = 1;  // next helper slot, in [1, workers)
  size_t inside = 0;     // helpers currently running chunks
  bool open = true;      // still listed as open to helpers
  CondVar left;          // notified when a helper leaves
};

// Helper threads, created once on first use. Locks: `mu_` is a leaf of
// the lock order (chunks run with no pool lock held, and ApplyUpdates
// reaches ParallelFor under the index writer lock), so code running
// inside a chunk must only acquire ranks above kIndex.
class HelperPool {
 public:
  static HelperPool& Shared() {
    static HelperPool pool(EffectiveThreads(0));
    return pool;
  }

  explicit HelperPool(size_t num_threads) {
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { HelperLoop(); });
    }
  }

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  ~HelperPool() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    work_.NotifyAll();
    for (auto& t : threads_) t.join();
  }

  // Opens `job` to helpers, runs slot 0 on the calling thread, then closes
  // the job and waits — on the job's own condition, with no timeout — for
  // every helper that joined to leave. Rethrows the job's exception.
  void Run(Job& job) {
    size_t wake;
    {
      MutexLock lock(mu_);
      open_.push_back(&job);
      wake = std::min(idle_, job.workers - 1);
    }
    for (size_t i = 0; i < wake; ++i) work_.NotifyOne();
    job.RunChunks(0);
    {
      MutexLock lock(mu_);
      if (job.open) Close(&job);
      while (job.inside > 0) job.left.Wait(mu_);
    }
    if (job.error != nullptr) std::rethrow_exception(job.error);
  }

 private:
  void HelperLoop() {
    for (;;) {
      Job* job = nullptr;
      size_t slot = 0;
      {
        MutexLock lock(mu_);
        while (!shutdown_ && (job = Claim(&slot)) == nullptr) {
          ++idle_;
          work_.Wait(mu_);
          --idle_;
        }
        if (job == nullptr) return;
      }
      job->RunChunks(slot);
      // Notify under the lock: once `inside` reads 0 the caller may
      // return and destroy the job, condition variable included.
      MutexLock lock(mu_);
      if (--job->inside == 0) job->left.NotifyOne();
    }
  }

  // Claims a helper slot in the oldest open job that still has chunks,
  // closing the drained ones on the way. Returns nullptr if none is left.
  Job* Claim(size_t* slot) QBS_REQUIRES(mu_) {
    while (!open_.empty()) {
      Job* job = open_.front();
      if (job->Drained()) {
        Close(job);
        continue;
      }
      *slot = job->next_slot++;
      ++job->inside;
      if (job->next_slot == job->workers) Close(job);
      return job;
    }
    return nullptr;
  }

  void Close(Job* job) QBS_REQUIRES(mu_) {
    open_.erase(std::find(open_.begin(), open_.end(), job));
    job->open = false;
  }

  Mutex mu_{LockRank::kThreadPool};
  CondVar work_;  // idle helpers: a job opened, or shutdown
  std::vector<Job*> open_ QBS_GUARDED_BY(mu_);
  size_t idle_ QBS_GUARDED_BY(mu_) = 0;
  bool shutdown_ QBS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace

size_t EffectiveThreads(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  return num_threads;
}

void ParallelFor(size_t count, const ParallelForOptions& options,
                 const Body& fn) {
  if (count == 0) return;
  const size_t workers =
      std::min(EffectiveThreads(options.num_threads), count);
  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  const size_t grain = options.grain != 0
                           ? options.grain
                           : std::max<size_t>(1, count / (workers * 8));
  Job job(fn, count, grain, workers);
  HelperPool::Shared().Run(job);
}

void ParallelFor(size_t count, size_t num_threads, const Body& fn) {
  ParallelForOptions options;
  options.num_threads = num_threads;
  ParallelFor(count, options, fn);
}

}  // namespace qbs
