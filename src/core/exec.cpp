#include "core/exec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "core/thread_pool.hpp"

namespace mdd {

namespace {

/// Set while the current thread is executing inside a pool worker; nested
/// parallel regions detect it and run inline.
thread_local bool t_in_worker = false;

/// Process-wide pool, grown (recreated) when a larger thread count is
/// requested. `pool_mutex` also serializes concurrent top-level parallel
/// regions — only one runs at a time, which keeps worker ids meaningful
/// for per-worker scratch state.
std::mutex pool_mutex;
std::unique_ptr<ThreadPool> shared_pool;

}  // namespace

ExecPolicy ExecPolicy::parallel(std::size_t n) {
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  return ExecPolicy{n};
}

ExecPolicy ExecPolicy::from_env() {
  const char* env = std::getenv("MDD_THREADS");
  if (env == nullptr || *env == '\0') return serial();
  const long v = std::atol(env);
  if (v < 0) return serial();
  return parallel(static_cast<std::size_t>(v));
}

std::size_t worker_slots(const ExecPolicy& policy, std::size_t n) {
  return std::max<std::size_t>(1, std::min(policy.n_threads, n));
}

void parallel_for_ranges(
    const ExecPolicy& policy, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t n_workers = worker_slots(policy, n);
  if (n_workers <= 1 || t_in_worker) {
    body(0, n, 0);
    return;
  }

  // About eight chunks per worker: small enough that a worker stuck with
  // the expensive end of the index space is not the last one running by
  // much, large enough that drawing a chunk (one fetch_add) and the
  // body's per-call set-up stay negligible.
  const std::size_t chunk = std::max<std::size_t>(1, n / (8 * n_workers));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  std::lock_guard<std::mutex> lock(pool_mutex);
  if (!shared_pool || shared_pool->n_threads() < n_workers)
    shared_pool = std::make_unique<ThreadPool>(n_workers);

  shared_pool->run_on_all([&](std::size_t worker) {
    if (worker >= n_workers) return;  // pool may be larger than needed
    t_in_worker = true;
    try {
      while (!failed.load()) {
        const std::size_t begin = next.fetch_add(chunk);
        if (begin >= n) break;
        body(begin, std::min(n, begin + chunk), worker);
      }
    } catch (...) {
      failed.store(true);
      t_in_worker = false;
      throw;
    }
    t_in_worker = false;
  });
}

void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_ranges(policy, n,
                      [&](std::size_t begin, std::size_t end,
                          std::size_t worker) {
                        for (std::size_t i = begin; i < end; ++i)
                          body(i, worker);
                      });
}

void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const CancelToken* cancel,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (cancel == nullptr) {
    parallel_for(policy, n, body);
    return;
  }
  parallel_for_ranges(policy, n,
                      [&](std::size_t begin, std::size_t end,
                          std::size_t worker) {
                        CancelCheckpoint cp(cancel, 8);
                        for (std::size_t i = begin; i < end; ++i) {
                          if (cp()) break;
                          body(i, worker);
                        }
                      });
}

}  // namespace mdd
