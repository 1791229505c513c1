// openmdd — execution policy and deterministic parallel loops.
//
// `ExecPolicy` is the knob threaded through the stack: serial (the
// default, always available) or parallel with a fixed thread count. Every
// parallel loop in the repo goes through `parallel_for` /
// `parallel_for_ranges`, which hand out contiguous chunks of [0, n)
// dynamically to the workers of a shared fixed-size `ThreadPool`: a
// worker that drew cheap indices simply takes the next chunk, so uneven
// per-index cost (fault cones differ by orders of magnitude) no longer
// leaves workers idle behind a straggler. Which worker computes which
// index is therefore NOT fixed. The invariant callers rely on instead:
// per-index results do not depend on the schedule — each index writes
// only its own slot, per-worker scratch must answer every query exactly
// like a fresh instance, and aggregation runs in index order — so output
// is byte-identical to the serial loop for any thread count, the property
// the differential tests (tests/test_parallel_equiv.cpp) pin down.
//
// Nested parallel regions (a parallel_for issued from inside a worker)
// degrade to serial execution in the calling worker: determinism and
// deadlock-freedom over cleverness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/cancel.hpp"

namespace mdd {

struct ExecPolicy {
  /// Number of worker threads; <= 1 means serial.
  std::size_t n_threads = 1;

  static ExecPolicy serial() { return ExecPolicy{1}; }

  /// `n == 0` picks std::thread::hardware_concurrency().
  static ExecPolicy parallel(std::size_t n = 0);

  /// Reads the MDD_THREADS environment variable ("0" = hardware
  /// concurrency, unset/empty/"1" = serial).
  static ExecPolicy from_env();

  bool is_serial() const { return n_threads <= 1; }

  bool operator==(const ExecPolicy&) const = default;
};

/// Runs body(begin, end, worker) over contiguous chunks covering [0, n)
/// exactly once, handed out dynamically to worker_slots(policy, n)
/// workers (ids dense from 0). One worker usually receives several
/// chunks, so scratch should be kept per worker id (built on the worker's
/// first chunk), not per call. The chunk size is derived from n and the
/// worker count (about eight chunks per worker). Serial policies, n <= 1,
/// and nested calls run inline as body(0, n, 0). Blocks until every chunk
/// is done; the first exception (by worker id) propagates after the
/// barrier, and workers stop drawing chunks once one has thrown.
void parallel_for_ranges(
    const ExecPolicy& policy, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Number of distinct worker ids parallel_for_ranges(policy, n, ...) may
/// pass to its body: size per-worker scratch arrays with it (always >= 1).
std::size_t worker_slots(const ExecPolicy& policy, std::size_t n);

/// Per-index convenience over parallel_for_ranges: body(i, worker).
void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Cancellable per-index loop: identical to parallel_for, except every
/// worker polls `cancel` (throttled, every few indices) and stops at the
/// next index boundary once the token is cancelled or its deadline has
/// passed. Cooperative: indices already started still finish, and which
/// indices ran is NOT deterministic after cancellation — callers must
/// treat a cancelled loop as partial and check `cancel->cancelled()`
/// afterwards. A null token degrades to plain parallel_for.
void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const CancelToken* cancel,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace mdd
