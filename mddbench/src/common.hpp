// mddbench — shared pieces of the openmdd benchmark.
//
// Timing helpers, quantiles, the in-memory span log the traced runs
// record around each layer call, the generated-case files, the output
// checks every workload shares, and the result line a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "diag/datalog.hpp"
#include "fault/collapse.hpp"
#include "fsim/fsim.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "server/json.hpp"
#include "sim/patterns.hpp"

namespace mddbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

/// CPU seconds consumed by every thread of this process so far.
double process_cpu_seconds();
/// Peak resident set of this process (VmHWM), MiB.
double self_peak_rss_mb();
/// VmHWM of another process from /proc/<pid>/status, MiB (0 if gone).
double pid_peak_rss_mb(int pid);
/// Starts a new peak window for this process: returns freed heap to the
/// kernel and resets VmHWM to the current resident set. False if the
/// kernel refused the reset (VmHWM then keeps the whole run's peak).
bool reset_peak_rss();

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// Spans recorded around layer calls, held in memory and written out
/// once at the end of a traced run (JSON lines, one span each).
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;  ///< offset from the log's creation
    double end_ms = 0;
    long parent = -1;     ///< index of the enclosing span, -1 for a root
    long request = -1;    ///< request / datalog id shared by its spans
  };

  SpanLog() : t0_(Clock::now()) {}

  double offset_ms(Clock::time_point t) const { return ms_between(t0_, t); }

  long add(std::string name, double start_ms, double end_ms, long parent,
           long request);
  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part its direct children cover.
  std::vector<double> self_ms() const;
  /// Summed self time per span name.
  std::map<std::string, double> self_ms_by_name() const;

  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Counter/histogram deltas between two registry snapshots (in-process)
/// or two `op=metrics` responses (daemon).
class CounterDelta {
 public:
  CounterDelta(const mdd::obs::Snapshot& before,
               const mdd::obs::Snapshot& after);
  CounterDelta(const mdd::server::Json& before_metrics,
               const mdd::server::Json& after_metrics);

  double counter(const std::string& name) const;
  /// Sum of observations added to a histogram.
  double histogram_sum(const std::string& name) const;
  /// Quantile of the observations added between the snapshots,
  /// interpolated linearly inside the bucket that holds it.
  double histogram_quantile(const std::string& name, double q) const;

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<double> bins;
    double count = 0;
    double sum = 0;
  };
  std::map<std::string, double> counters_;
  std::map<std::string, Hist> hists_;
};

/// hits / (hits + misses), 0 when the layer saw no traffic.
inline double ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// The textio fault spec of a fault as mdd::to_string displays it (and
/// reports carry it): "SA0 g.pin1(a)" -> "sa0 g.1", "BR-DOM a->v" ->
/// "dom a v", "BR-WAND a~b" -> "wand a b".
std::string display_to_spec(const std::string& shown);

/// One generated case: the injected multiplet and its tester datalog.
struct Case {
  std::vector<std::string> defect;  ///< fault specs (textio syntax)
  std::string datalog;              ///< textio datalog text
};

/// The files the generator writes for one (workload, seed).
struct Generated {
  std::string netlist_path;
  std::string patterns_path;
  std::vector<Case> cases;
  /// Case index of each datalog in workload order (a stream, a batch,
  /// or a request schedule); `warmup` is the case sent before timing.
  std::vector<std::size_t> order;
  std::size_t warmup = 0;
  /// Datalogs per batch when `order` is a run of batches (0: not batched).
  std::size_t batch = 0;
};

/// volume_g1k lots: distinct defects per lot, and dies per defect.
constexpr std::size_t kVolumeDistinct = 6;
constexpr std::size_t kVolumeRecurrences = 6;

void write_generated(const std::string& dir, const Generated& g);
Generated read_generated(const std::string& dir);

/// Output checks shared by every workload: each report must repeat byte
/// for byte wherever its datalog recurs, every `explains_all` multiplet
/// must re-simulate (reference FaultSimulator) to exactly the observed
/// window, and the answers are scored against the injected truth.
class AnswerBook {
 public:
  AnswerBook(const mdd::Netlist& netlist, const mdd::PatternSet& patterns,
             const mdd::PatternSet& good, const std::vector<Case>& cases);

  /// Records the `reports` JSON array a diagnosis of case `c` returned.
  /// The first answer for a case is checked against the datalog and the
  /// truth; every later one must equal it byte for byte. Returns false
  /// (and remembers why) on any check failure.
  bool record(std::size_t c, const mdd::server::Json& reports);

  std::size_t n_failures() const { return failures_; }
  const std::string& first_failure() const { return first_failure_; }
  /// Quality over the distinct cases answered: injected defects named,
  /// and reports that reproduce their datalog exactly.
  double hit_rate() const;
  double exact_rate() const;
  /// FNV-1a digest of every distinct case's report bytes, case order.
  std::uint64_t digest() const;
  std::size_t n_answered() const { return answers_.size(); }

 private:
  void fail(std::string why);

  const mdd::Netlist& netlist_;
  mdd::FaultSimulator reference_;
  mdd::CollapsedFaults collapsed_;
  const std::vector<Case>& cases_;
  std::map<std::size_t, std::string> answers_;  ///< case -> reports bytes
  std::map<std::size_t, double> hit_;           ///< case -> hit rate
  std::map<std::size_t, bool> exact_;
  std::size_t failures_ = 0;
  std::string first_failure_;
};

/// What one invocation prints: the metrics of its mode, the attempt and
/// failure counts, and a verdict.
struct Result {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  /// Extra facts for the detail line (quality, provenance, ledgers).
  mdd::server::Json detail;

  /// Answer quality (repeats exactly for a seed; see AnswerBook).
  double hit_rate = 0;
  double exact_rate = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Copies quality, the report digest and any check failure from `book`.
  void take_answers(const AnswerBook& book);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;  ///< served ladder length (gen sizes the others)
  bool trace = false;
  std::string data_dir;   ///< generated files of this (workload, seed)
  std::string work_dir;   ///< files of this run (stores, logs, spans)
  std::string serve_bin;  ///< openmdd_serve (served workload)
};

Result run_cold(const Options& o);
Result run_volume(const Options& o);
Result run_served(const Options& o);

/// Writes the generated files for (workload, seed) into `dir`, sized for
/// a run of `seconds`, using the circuit files cached in `circuit_dir`.
void generate(const std::string& workload, std::uint64_t seed,
              double seconds, const std::string& circuit_dir,
              const std::string& dir);

}  // namespace mddbench
