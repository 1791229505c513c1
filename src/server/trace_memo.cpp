#include "server/trace_memo.hpp"

#include "obs/metrics.hpp"

namespace mdd::server {

namespace {

struct TraceMemoMetrics {
  obs::Counter& hits = obs::registry().counter("memo.trace.hits");
  obs::Counter& misses = obs::registry().counter("memo.trace.misses");
};

TraceMemoMetrics& trace_memo_metrics() {
  static TraceMemoMetrics m;
  return m;
}

}  // namespace

std::shared_ptr<const std::vector<Fault>> TraceMemo::lookup(
    std::uint32_t pattern, std::uint32_t po) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto faults = cache_.find(key(pattern, po));
  if (faults == nullptr) {
    ++misses_;
    trace_memo_metrics().misses.inc();
    return nullptr;
  }
  ++hits_;
  trace_memo_metrics().hits.inc();
  return faults;
}

void TraceMemo::store(std::uint32_t pattern, std::uint32_t po,
                      std::shared_ptr<const std::vector<Fault>> faults) {
  const std::size_t cost =
      sizeof(std::vector<Fault>) + faults->size() * sizeof(Fault) + 64;
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.admit(key(pattern, po), std::move(faults), cost);
}

MemoStats TraceMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats(hits_, misses_);
}

}  // namespace mdd::server
