#include "util/parallel.h"

#include <cstdlib>
#include <memory>

#include "util/logging.h"

namespace mgardp {

namespace {

thread_local bool tls_in_parallel_region = false;

// Function pointers (not std::function) so the unregistered path costs
// two raw loads. Written once during static initialization of the obs
// layer, read on every Run; relaxed is fine because registration happens
// before any propagated context can exist.
std::atomic<void* (*)()> g_ctx_capture{nullptr};
std::atomic<void* (*)(void*)> g_ctx_exchange{nullptr};

// Installs `context` on the current thread for the guard's lifetime via
// the registered exchange hook; no-op when no propagator is registered.
class AmbientContextGuard {
 public:
  explicit AmbientContextGuard(void* context)
      : exchange_(g_ctx_exchange.load(std::memory_order_relaxed)) {
    if (exchange_ != nullptr) {
      prev_ = exchange_(context);
    }
  }
  ~AmbientContextGuard() {
    if (exchange_ != nullptr) {
      exchange_(prev_);
    }
  }

 private:
  void* (*exchange_)(void*);
  void* prev_ = nullptr;
};

// Marks the current thread as inside a chunk for the guard's lifetime.
class ParallelRegionGuard {
 public:
  ParallelRegionGuard() : prev_(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~ParallelRegionGuard() { tls_in_parallel_region = prev_; }

 private:
  bool prev_;
};

int DefaultThreadCount() {
  if (const char* env = std::getenv("MGARDP_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex& GlobalPoolMutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  MGARDP_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads - 1);
  for (int w = 0; w + 1 < num_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::SetContextPropagator(const ContextPropagator& propagator) {
  g_ctx_capture.store(propagator.capture, std::memory_order_relaxed);
  g_ctx_exchange.store(propagator.exchange, std::memory_order_relaxed);
}

void ThreadPool::RunStripe(int stripe, std::size_t num_chunks,
                           const std::function<void(std::size_t)>& fn,
                           void* context) {
  ParallelRegionGuard guard;
  AmbientContextGuard context_guard(context);
  try {
    for (std::size_t c = static_cast<std::size_t>(stripe); c < num_chunks;
         c += static_cast<std::size_t>(num_threads_)) {
      fn(c);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_) {
      first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t num_chunks = 0;
    void* context = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) {
        return;
      }
      seen_epoch = epoch_;
      fn = job_;
      num_chunks = num_chunks_;
      context = job_context_;
    }
    RunStripe(worker_id, num_chunks, *fn, context);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (++workers_done_ == static_cast<int>(workers_.size())) {
        cv_done_.notify_one();
      }
    }
  }
}

void ThreadPool::Run(std::size_t num_chunks,
                     const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) {
    return;
  }
  // Single-threaded pools and nested calls execute inline; reentrancy from
  // inside a chunk must not wait on the pool it is already occupying.
  if (workers_.empty() || InParallelRegion()) {
    ParallelRegionGuard guard;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      fn(c);
    }
    return;
  }
  // Capture the submitting thread's ambient context (request context)
  // before fanning out, so worker stripes attribute their spans to the
  // same request. The caller's own stripe keeps its TLS naturally.
  void* context = nullptr;
  if (void* (*capture)() = g_ctx_capture.load(std::memory_order_relaxed)) {
    context = capture();
  }
  std::lock_guard<std::mutex> run_lk(run_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    num_chunks_ = num_chunks;
    job_context_ = context;
    workers_done_ = 0;
    ++epoch_;
  }
  cv_start_.notify_all();
  // The caller works the last stripe while the workers take the others.
  RunStripe(num_threads_ - 1, num_chunks, fn, context);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(
        lk, [&] { return workers_done_ == static_cast<int>(workers_.size()); });
    job_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lk(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (pool == nullptr) {
    pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  }
  return *pool;
}

void SetGlobalThreadCount(int num_threads) {
  MGARDP_CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> lk(GlobalPoolMutex());
  GlobalPoolSlot() = std::make_unique<ThreadPool>(num_threads);
}

int GlobalThreadCount() { return GlobalThreadPool().num_threads(); }

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) {
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  ThreadPool& pool = GlobalThreadPool();
  // Up to kChunksPerThread chunks per participant, so Run's round-robin
  // stripes interleave the range: a call site whose expensive indices
  // cluster at one end spreads them over every thread instead of handing
  // them all to the last stripe. Each chunk keeps at least `grain`
  // iterations (n / num_chunks >= g).
  const std::size_t num_chunks = std::min<std::size_t>(
      kChunksPerThread * static_cast<std::size_t>(pool.num_threads()), n / g);
  if (num_chunks <= 1) {
    body(begin, end);
    return;
  }
  // Balanced partition: the first `rem` chunks get one extra iteration.
  const std::size_t base = n / num_chunks;
  const std::size_t rem = n % num_chunks;
  pool.Run(num_chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * base + std::min(c, rem);
    const std::size_t hi = lo + base + (c < rem ? 1 : 0);
    body(lo, hi);
  });
}

}  // namespace mgardp
