// Shared thread-pool parallelism layer.
//
// Every hot path in mgardp (decomposition line solves, bit-plane slicing,
// lossless chunk coding, DNN matmuls, per-level refactor/retrieve fan-out)
// parallelizes through the single lazily-created global pool defined here,
// so the process never oversubscribes the machine no matter how many
// subsystems are active at once.
//
// Determinism contract: every helper in this header produces bit-identical
// results for any thread count, including 1.
//   * ParallelFor splits [begin, end) into disjoint chunks; as long as the
//     body writes only to locations indexed by its own range (true for all
//     call sites), the output cannot depend on scheduling.
//   * ParallelReduce chunks by `grain` alone -- never by thread count --
//     and folds the per-chunk results in ascending chunk order, so
//     floating-point sums are reproducible across MGARDP_THREADS settings.
//
// Thread count: MGARDP_THREADS environment variable if set to a positive
// integer, else std::thread::hardware_concurrency(). Nested parallel calls
// (a ParallelFor issued from inside a pool worker) run inline on the
// calling worker; the pool never deadlocks on recursion.

#ifndef MGARDP_UTIL_PARALLEL_H_
#define MGARDP_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mgardp {

class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers; the caller of Run() acts as the last
  // participant, so `num_threads == 1` means a fully inline, lock-free pool.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(c) for every chunk index c in [0, num_chunks), statically
  // striped across the participants (worker w takes c = w, w + P, ...).
  // Blocks until all chunks finish. The first exception thrown by any
  // chunk is rethrown here after the batch drains; remaining chunks still
  // run. Reentrant calls (from inside a chunk) execute inline.
  void Run(std::size_t num_chunks, const std::function<void(std::size_t)>& fn);

  // True while the current thread is executing inside a Run() chunk.
  static bool InParallelRegion();

  // Cross-thread ambient-context propagation. Run() calls capture() on the
  // submitting thread and workers bracket each stripe with
  // exchange(captured) / exchange(previous), so thread-local request
  // context (obs/request_trace.h) follows the work onto pool threads. The
  // captured pointer stays valid because Run() blocks until every stripe
  // finishes — the submitting scope cannot unwind underneath a worker.
  // Registration is process-wide, idempotent, and must happen before the
  // contexts being propagated exist; plain function pointers keep the
  // no-propagator path at two raw loads per Run.
  struct ContextPropagator {
    void* (*capture)() = nullptr;         // on the submitting thread
    void* (*exchange)(void*) = nullptr;   // on a worker; returns previous
  };
  static void SetContextPropagator(const ContextPropagator& propagator);

 private:
  void WorkerLoop(int worker_id);
  void RunStripe(int stripe, std::size_t num_chunks,
                 const std::function<void(std::size_t)>& fn, void* context);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  std::size_t num_chunks_ = 0;
  const std::function<void(std::size_t)>* job_ = nullptr;
  void* job_context_ = nullptr;  // captured ambient context for this job
  int workers_done_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;

  // Serializes concurrent Run() calls from distinct non-pool threads.
  std::mutex run_mu_;
};

// The process-wide pool, created on first use. Size comes from the
// MGARDP_THREADS environment variable (read once), falling back to
// hardware_concurrency().
ThreadPool& GlobalThreadPool();

// Replaces the global pool with one of `num_threads` threads. Intended for
// tests and benchmarks that sweep thread counts inside one process; not
// safe to call while parallel work is in flight.
void SetGlobalThreadCount(int num_threads);

// Thread count the global pool currently uses (without forcing creation of
// worker threads beyond the pool itself).
int GlobalThreadCount();

// Chunks ParallelFor makes per pool thread at most. More chunks than
// threads let the static stripes of ThreadPool::Run balance ranges whose
// per-index cost is skewed; the cap keeps dispatch overhead bounded.
inline constexpr std::size_t kChunksPerThread = 8;

// Runs body(chunk_begin, chunk_end) over a partition of [begin, end).
// `grain` is the minimum iterations per chunk: the range is split into
// min(kChunksPerThread * num_threads, n / grain) balanced chunks, each at
// least `grain` long (a range shorter than 2 * grain runs as one inline
// call). Chunk c goes to stripe c % num_threads, so neighbouring chunks
// land on different threads. Safe for any body that writes only through
// its own index range.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

// Deterministic ordered reduction. The range is cut into fixed chunks of
// exactly `grain` iterations (the last may be short) regardless of thread
// count; `map(chunk_begin, chunk_end)` produces each chunk's value and
// `combine(acc, value)` folds them in ascending chunk order starting from
// `init`. Bit-identical for 1 vs N threads by construction.
template <typename T, typename Map, typename Combine>
T ParallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
                 T init, Map&& map, Combine&& combine) {
  if (begin >= end) {
    return init;
  }
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const std::size_t num_chunks = (n + g - 1) / g;
  std::vector<T> partial(num_chunks, init);
  GlobalThreadPool().Run(num_chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = std::min(lo + g, end);
    partial[c] = map(lo, hi);
  });
  T acc = std::move(init);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace mgardp

#endif  // MGARDP_UTIL_PARALLEL_H_
