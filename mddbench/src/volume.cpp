// mddbench — volume_g1k: the yield-analysis shape.
//
// Each lot's few defects recur on many dies; the lot arrives as one
// streamed `op=diagnose_batch` (4 datalog threads) at a fresh in-process
// DiagnosisService, so the session memos and the amortization ledger do
// the work. The set-up is the service plus its pinned session load.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>

#include "common.hpp"
#include "netlist/bench_parser.hpp"
#include "server/service.hpp"
#include "sim/sim2.hpp"
#include "workload/textio.hpp"

namespace mddbench {

using mdd::server::Json;
using mdd::server::JsonArray;

namespace {

constexpr std::size_t kBatchThreads = 4;
/// Set-ups timed per lot (the last one serves the lot), so the set-up
/// samples span the run.
constexpr int kSetupsPerLot = 3;

/// Layer figures summed over the traced batches.
struct Layers {
  double items = 0, candidates = 0, solo = 0;
  double propagate = 0, evals = 0, evals_hits = 0, fallbacks = 0;
  double composite_ms = 0;
  double sig_h = 0, sig_m = 0, comp_h = 0, comp_m = 0, tr_h = 0, tr_m = 0;
  std::vector<double> parse_ms, serialize_ms;
};

}  // namespace

Result run_volume(const Options& o) {
  const Generated g = read_generated(o.data_dir);
  // The checks' own copy of the circuit (also times parse and good sim
  // for the per-layer figures; the service loads its session itself).
  const auto p0 = Clock::now();
  const mdd::Netlist netlist = mdd::parse_bench_file(g.netlist_path).netlist;
  const mdd::PatternSet patterns = mdd::read_patterns_file(g.patterns_path);
  const auto p1 = Clock::now();
  const mdd::PatternSet good = mdd::simulate(netlist, patterns);
  const auto p2 = Clock::now();
  AnswerBook book(netlist, patterns, good, g.cases);

  mdd::server::ServiceOptions options;
  options.n_workers = 1;
  options.batch_threads = kBatchThreads;
  const auto base_request = [&](const char* op) {
    Json r;
    r.set("op", op);
    r.set("netlist", g.netlist_path);
    r.set("patterns", g.patterns_path);
    r.set("method", "multiplet");
    return r;
  };

  Result r;
  SpanLog spans;
  Layers L;
  std::vector<double> setup_s, session_ms, latency, plain_ms, traced_ms;
  std::vector<double> lot_peak_mb;
  bool peak_reset = true;
  double items = 0, busy_s = 0;

  // Every set-up starts from a trimmed heap, as a fresh process would:
  // left to chance, the previous lot's freed memory made some set-ups
  // skip their page faults, and the median jumped between two modes.
  // The reset before the lot's last set-up also opens the lot's memory
  // peak window, so that peak covers its set-up and batch.
  const auto timed_setup = [&] {
    peak_reset = reset_peak_rss() && peak_reset;
    const auto s0 = Clock::now();
    auto service = std::make_unique<mdd::server::DiagnosisService>(options);
    const auto s1 = Clock::now();
    mdd::server::SessionCache::Pin pin =
        service->cache().pin(g.netlist_path, g.patterns_path);
    service->cache().get(g.netlist_path, g.patterns_path);
    const auto s2 = Clock::now();
    setup_s.push_back(ms_between(s0, s2) / 1000.0);
    session_ms.push_back(ms_between(s1, s2));
    return std::make_pair(std::move(service), std::move(pin));
  };

  // One lot on a fresh service; returns the batch wall time.
  const auto run_lot = [&](std::size_t lot, bool traced) {
    const std::size_t begin = lot * g.batch;
    const std::size_t n = std::min(g.batch, g.order.size() - begin);
    for (int rep = 1; rep < kSetupsPerLot; ++rep) timed_setup();
    auto [service, pin] = timed_setup();
    Json request = base_request("diagnose_batch");
    JsonArray datalogs;
    for (std::size_t i = 0; i < n; ++i)
      datalogs.emplace_back(g.cases[g.order[begin + i]].datalog);
    request.set("datalogs", Json(std::move(datalogs)));
    request.set("threads", kBatchThreads);
    request.set("stream", true);
    request.set("id", lot);
    if (traced) request.set("trace", true);

    // Items stream out in index order; each one's latency is the time
    // from batch submission to its result.
    std::mutex emit_mutex;
    std::vector<Json> results(n);
    std::vector<Clock::time_point> emitted(n);
    const auto emit = [&](const Json& item) {
      const auto now = Clock::now();
      const std::lock_guard<std::mutex> lock(emit_mutex);
      const auto i = static_cast<std::size_t>(item.get_number("index"));
      if (i < n) {
        results[i] = item;
        emitted[i] = now;
      }
    };
    const mdd::obs::Snapshot before =
        traced ? mdd::obs::registry().snapshot() : mdd::obs::Snapshot{};
    const auto b0 = Clock::now();
    const Json response = service->handle(request, nullptr, emit);
    const auto b1 = Clock::now();
    const std::string bytes = response.dump();
    const auto b2 = Clock::now();
    const double batch_ms = ms_between(b0, b1);

    r.attempted += n;
    if (response.get_string("status") != "ok") {
      r.failed += n;
      r.detail.set("first_failure", "batch: " + bytes.substr(0, 300));
      return batch_ms;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Json* reports = results[i].find("reports");
      if (results[i].get_string("status") != "ok" || reports == nullptr ||
          !book.record(g.order[begin + i], *reports))
        ++r.failed;
    }
    // Items must equal op=diagnose of their datalog on the same service:
    // one distinct datalog per lot is re-asked, a different one each lot.
    std::vector<std::size_t> distinct(g.order.begin() + begin,
                                      g.order.begin() + begin + n);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    {
      const std::size_t c = distinct[lot % distinct.size()];
      Json single = base_request("diagnose");
      single.set("datalog", g.cases[c].datalog);
      const Json answer = service->handle(single);
      const Json* reports = answer.find("reports");
      ++r.attempted;
      if (answer.get_string("status") != "ok" || reports == nullptr ||
          !book.record(c, *reports))
        ++r.failed;
    }

    if (!traced) {
      for (const Clock::time_point t : emitted)
        latency.push_back(ms_between(b0, t));
      lot_peak_mb.push_back(pid_peak_rss_mb(static_cast<int>(getpid())));
      return batch_ms;
    }
    const CounterDelta d(before, mdd::obs::registry().snapshot());
    const Json* amortization = response.find("amortization");
    L.items += static_cast<double>(n);
    L.candidates += amortization->get_number("candidates");
    L.solo += amortization->get_number("solo_computes");
    L.propagate += d.counter("propagate.patterns_simulated");
    L.evals += d.counter("diag.composite_evals");
    L.evals_hits += d.counter("diag.composite_memo_hits");
    L.fallbacks += d.counter("propagate.composite_fallbacks");
    L.composite_ms += d.histogram_sum("diag.composite_ms");
    L.sig_h += d.counter("memo.signature.hits");
    L.sig_m += d.counter("memo.signature.misses");
    L.comp_h += d.counter("memo.composite.hits");
    L.comp_m += d.counter("memo.composite.misses");
    L.tr_h += d.counter("memo.trace.hits");
    L.tr_m += d.counter("memo.trace.misses");
    L.serialize_ms.push_back(ms_between(b1, b2));

    // The service's own stage list (depth-0 spans run back to back).
    const long id = static_cast<long>(lot);
    const long root =
        spans.add("batch", spans.offset_ms(b0), spans.offset_ms(b1), -1, id);
    double at = spans.offset_ms(b0);
    for (const Json& stage : response.find("trace")->as_array()) {
      if (stage.find("depth") != nullptr) continue;
      const double ms = stage.get_number("ms");
      const std::string name = stage.get_string("stage");
      if (name == "parse") L.parse_ms.push_back(ms);
      spans.add("server." + name, at, at + ms, root, id);
      at += ms;
    }
    spans.add("server.serialize", spans.offset_ms(b1), spans.offset_ms(b2),
              -1, id);
    return batch_ms;
  };

  // Warm-up: the first lot once, checked but not timed.
  run_lot(0, false);
  setup_s.clear();
  session_ms.clear();
  latency.clear();
  lot_peak_mb.clear();

  const std::size_t n_lots = (g.order.size() + g.batch - 1) / g.batch;
  for (std::size_t lot = 0; lot < n_lots; ++lot) {
    if (!o.trace) {
      busy_s += run_lot(lot, false) / 1000.0;
      items += static_cast<double>(
          std::min(g.batch, g.order.size() - lot * g.batch));
      continue;
    }
    // The first half of the lots, each untraced and traced, alternating
    // which goes first (same inputs, same amount of work as a run).
    if (2 * lot >= n_lots) break;
    if (lot % 2 == 0) plain_ms.push_back(run_lot(lot, false));
    traced_ms.push_back(run_lot(lot, true));
    if (lot % 2 == 1) plain_ms.push_back(run_lot(lot, false));
  }

  if (!o.trace) {
    const double rate = items / busy_s;
    r.add("setup_s", median(setup_s), "s");
    r.add("datalogs_per_s", rate, "1/s");
    r.add("latency_p50_ms", quantile(latency, 0.5), "ms");
    r.add("latency_p90_ms", quantile(latency, 0.9), "ms");
    r.add("peak_rss_mb", median(lot_peak_mb), "MiB");
    r.detail.set("batches", n_lots);
    r.detail.set("peak_rss_per_lot", peak_reset);
  } else {
    const double per = L.items > 0 ? 1.0 / L.items : 0.0;
    r.add("netlist.parse_ms", ms_between(p0, p1), "ms");
    r.add("sim.good_ms", ms_between(p1, p2), "ms");
    r.add("diag.candidates", L.candidates * per, "count");
    r.add("fsim.propagate_patterns", L.propagate * per, "count");
    r.add("diag.composite_evals", L.evals * per, "count");
    r.add("diag.composite_memo_hit_ratio", ratio(L.evals_hits, L.evals),
          "ratio");
    r.add("fsim.composite_ms", L.composite_ms * per, "ms");
    r.add("fsim.composite_fallbacks", L.fallbacks * per, "count");
    r.add("fsim.solo_computes_per_candidate",
          L.candidates > 0 ? L.solo / L.candidates : 0.0, "ratio");
    r.add("server.memo.signature_hit_ratio", ratio(L.sig_h, L.sig_m), "ratio");
    r.add("server.memo.composite_hit_ratio", ratio(L.comp_h, L.comp_m),
          "ratio");
    r.add("server.memo.trace_hit_ratio", ratio(L.tr_h, L.tr_m), "ratio");
    r.add("server.session_load_ms", median(session_ms), "ms");
    r.add("server.request_p50_ms", median(traced_ms), "ms");
    r.add("server.parse_ms", median(L.parse_ms), "ms");
    r.add("server.serialize_ms", median(L.serialize_ms), "ms");
    r.add("obs.trace_overhead_pct",
          100.0 * (mean(traced_ms) / mean(plain_ms) - 1.0), "%");
    spans.write_jsonl(o.work_dir + "/spans.jsonl");
    r.detail.set("spans", spans.spans().size());
  }
  r.take_answers(book);
  return r;
}

}  // namespace mddbench
