// openmdd — deterministic fixed-size thread pool.
//
// A deliberately simple pool: N persistent workers, no work stealing, no
// task queue. One job runs at a time; `run_on_all` hands every worker its
// id and blocks until all of them finish. Higher-level loops (exec.hpp)
// hand out index chunks dynamically on top, so which worker computes
// which index varies from run to run; determinism comes from the loops'
// contract instead — per-index results do not depend on the schedule.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mdd {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (at least 1). Workers idle until a job is
  /// submitted and persist for the pool's lifetime.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t n_threads() const { return workers_.size(); }

  /// Runs job(worker_id) once on every worker and blocks until all have
  /// returned. If any worker throws, the first exception (by worker id) is
  /// rethrown here after the barrier. Not reentrant: calling from inside a
  /// job deadlocks — exec.hpp runs nested regions serially instead.
  void run_on_all(const std::function<void(std::size_t)>& job);

 private:
  void worker_main(std::size_t id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::vector<std::exception_ptr> errors_;
  std::uint64_t generation_ = 0;
  std::size_t n_done_ = 0;
  bool stop_ = false;
};

}  // namespace mdd
