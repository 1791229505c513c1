// mddbench — cold_g1k: the CLI shape.
//
// Every datalog of a stream of distinct defects gets a fresh
// DiagnosisContext, a 4-thread solo warm and diagnose_multiplet; nothing
// is shared between datalogs except the parsed circuit and its good
// response (the set-up).
#include <optional>
#include <sstream>
#include <tuple>

#include "common.hpp"
#include "diag/multiplet.hpp"
#include "netlist/bench_parser.hpp"
#include "server/result_json.hpp"
#include "sim/sim2.hpp"
#include "workload/textio.hpp"

namespace mddbench {

namespace {

constexpr std::size_t kWarmThreads = 4;

/// Per-datalog layer figures of one traced diagnosis.
struct Layers {
  double extract_ms = 0, baseline_ms = 0, warm_ms = 0, warm_cpu_s = 0;
  double search_ms = 0, composite_ms = 0;
  double candidates = 0, warm_solo = 0, solo = 0;
  double propagate_patterns = 0, composite_evals = 0, composite_hits = 0;
  double composite_fallbacks = 0;
};

}  // namespace

Result run_cold(const Options& o) {
  const Generated g = read_generated(o.data_dir);

  // Set-up: what the CLI pays before its first datalog. It is repeated
  // before every datalog (untimed there) so its samples span the run.
  std::vector<double> setup_s, parse_ms, good_ms;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    mdd::Netlist nl = mdd::parse_bench_file(g.netlist_path).netlist;
    mdd::PatternSet pats = mdd::read_patterns_file(g.patterns_path);
    const auto t1 = Clock::now();
    mdd::PatternSet gd = mdd::simulate(nl, pats);
    const auto t2 = Clock::now();
    setup_s.push_back(ms_between(t0, t2) / 1000.0);
    parse_ms.push_back(ms_between(t0, t1));
    good_ms.push_back(ms_between(t1, t2));
    return std::make_tuple(std::move(nl), std::move(pats), std::move(gd));
  };
  const auto [netlist, patterns, good] = setup();

  AnswerBook book(netlist, patterns, good, g.cases);
  const mdd::ExecPolicy warm = mdd::ExecPolicy::parallel(kWarmThreads);
  SpanLog spans;
  Result r;

  // One diagnosis of case `c`; `layers` non-null records the traced run.
  const auto diagnose = [&](std::size_t c, long request, Layers* layers) {
    std::optional<mdd::obs::Trace> trace;
    mdd::obs::Snapshot before;
    Clock::time_point trace_t0;
    if (layers != nullptr) {
      before = mdd::obs::registry().snapshot();
      trace.emplace();
      trace_t0 = Clock::now();
    }
    setup();
    const auto t0 = Clock::now();
    std::istringstream in(g.cases[c].datalog);
    const mdd::Datalog log = mdd::read_datalog(in, netlist);
    const auto t1 = Clock::now();
    mdd::DiagnosisContext ctx(netlist, patterns, log, {}, &good, nullptr,
                              trace ? &*trace : nullptr);
    const auto t2 = Clock::now();
    const double cpu0 = layers != nullptr ? process_cpu_seconds() : 0.0;
    ctx.warm_solo_signatures(warm);
    const double cpu1 = layers != nullptr ? process_cpu_seconds() : 0.0;
    const auto t3 = Clock::now();
    const std::size_t warm_solo = ctx.solo_compute_count();
    const mdd::DiagnosisReport report = mdd::diagnose_multiplet(ctx);
    const auto t4 = Clock::now();
    const mdd::obs::Snapshot after =
        layers != nullptr ? mdd::obs::registry().snapshot() : before;

    ++r.attempted;
    if (!book.record(c, mdd::server::reports_to_json({&report, 1}, netlist)))
      ++r.failed;
    if (layers == nullptr) return ms_between(t0, t4);

    const CounterDelta d(before, after);
    const auto at = [&](Clock::time_point t) { return spans.offset_ms(t); };
    const long root = spans.add("datalog", at(t0), at(t4), -1, request);
    spans.add("textio.datalog", at(t0), at(t1), root, request);
    const long context = spans.add("diag.context", at(t1), at(t2), root, request);
    for (const auto& s : trace->spans()) {
      const double start = at(trace_t0) + s.start_ms;
      spans.add("diag." + s.stage, start, start + s.ms, context, request);
    }
    spans.add("fsim.solo_warm", at(t2), at(t3), root, request);
    // The search is an envelope: only its composite propagations (the
    // program's own diag.composite_ms histogram) belong to a layer.
    const long search = spans.add("diag.search", at(t3), at(t4), root, request);
    const double composite = d.histogram_sum("diag.composite_ms");
    spans.add("fsim.composite", at(t3), at(t3) + composite, search, request);

    for (const auto& s : trace->spans()) {
      if (s.stage == "extract") layers->extract_ms += s.ms;
      if (s.stage == "baseline") layers->baseline_ms += s.ms;
    }
    layers->warm_ms += ms_between(t2, t3);
    layers->warm_cpu_s += cpu1 - cpu0;
    layers->search_ms += ms_between(t3, t4);
    layers->composite_ms += composite;
    layers->candidates += static_cast<double>(ctx.n_candidates());
    layers->warm_solo += static_cast<double>(warm_solo);
    layers->solo += static_cast<double>(ctx.solo_compute_count());
    layers->propagate_patterns += d.counter("propagate.patterns_simulated");
    layers->composite_evals += d.counter("diag.composite_evals");
    layers->composite_hits += d.counter("diag.composite_memo_hits");
    layers->composite_fallbacks += d.counter("propagate.composite_fallbacks");
    return ms_between(t0, t4);
  };

  // Warm-up: the first datalog once, checked but not timed.
  diagnose(g.order[0], -1, nullptr);

  if (!o.trace) {
    std::vector<double> latency;
    for (std::size_t k = 0; k < g.order.size(); ++k)
      latency.push_back(diagnose(g.order[k], static_cast<long>(k), nullptr));
    double busy_s = 0;
    for (double ms : latency) busy_s += ms / 1000.0;
    const double rate = static_cast<double>(latency.size()) / busy_s;
    r.add("setup_s", median(setup_s), "s");
    r.add("datalogs_per_s", rate, "1/s");
    r.add("latency_p50_ms", quantile(latency, 0.5), "ms");
    r.add("latency_p90_ms", quantile(latency, 0.9), "ms");
    r.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
  } else {
    // Traced and untraced diagnoses of each datalog of the first half,
    // alternating which goes first, so the overhead estimate sees the
    // same inputs and the run does the same amount of work.
    Layers L;
    std::vector<double> plain, traced;
    const std::size_t k = (g.order.size() + 1) / 2;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t c = g.order[i];
      if (i % 2 == 0) plain.push_back(diagnose(c, -1, nullptr));
      traced.push_back(diagnose(c, static_cast<long>(i), &L));
      if (i % 2 == 1) plain.push_back(diagnose(c, -1, nullptr));
    }
    const double per = 1.0 / static_cast<double>(k);
    r.add("netlist.parse_ms", median(parse_ms), "ms");
    r.add("sim.good_ms", median(good_ms), "ms");
    r.add("diag.extract_ms", L.extract_ms * per, "ms");
    r.add("diag.baseline_ms", L.baseline_ms * per, "ms");
    r.add("diag.candidates", L.candidates * per, "count");
    r.add("fsim.solo_warm_ms", L.warm_ms * per, "ms");
    r.add("fsim.solo_us_per_candidate",
          L.warm_solo > 0 ? 1e6 * L.warm_cpu_s / L.warm_solo : 0.0, "us");
    r.add("fsim.propagate_patterns", L.propagate_patterns * per, "count");
    r.add("core.warm_efficiency",
          L.warm_ms > 0 ? 1000.0 * L.warm_cpu_s /
                              (static_cast<double>(kWarmThreads) * L.warm_ms)
                        : 0.0,
          "ratio");
    r.add("diag.search_ms", L.search_ms * per, "ms");
    r.add("diag.composite_evals", L.composite_evals * per, "count");
    r.add("diag.composite_memo_hit_ratio",
          ratio(L.composite_hits, L.composite_evals), "ratio");
    r.add("fsim.composite_ms", L.composite_ms * per, "ms");
    r.add("fsim.composite_fallbacks", L.composite_fallbacks * per, "count");
    // Wall minus layer self time: the glue between layer calls plus the
    // search envelope's own time.
    const std::map<std::string, double> self = spans.self_ms_by_name();
    r.add("diag.unattributed_ms",
          (self.at("datalog") + self.at("diag.search")) * per, "ms");
    r.add("fsim.solo_computes_per_candidate",
          L.candidates > 0 ? L.solo / L.candidates : 0.0, "ratio");
    r.add("obs.trace_overhead_pct", 100.0 * (mean(traced) / mean(plain) - 1.0),
          "%");
    spans.write_jsonl(o.work_dir + "/spans.jsonl");
    r.detail.set("spans", spans.spans().size());
  }
  r.take_answers(book);
  return r;
}

}  // namespace mddbench
