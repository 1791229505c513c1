// mddbench — served_g200: the daemon shape.
//
// An open loop walks a fixed rate ladder against `openmdd_serve
// --workers 2 --store-dir` over 4 TCP connections. Half the datalogs
// recur, half rotate through fresh defects, and the per-session memos
// are held deliberately small, so transport, job queue, session cache,
// memo evictions, store decodes and journal appends make up a large
// share of each request. Every request is timed from when it was due.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "netlist/bench_parser.hpp"
#include "server/serve.hpp"
#include "server/service.hpp"
#include "sim/sim2.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "workload/textio.hpp"

namespace mddbench {

using mdd::server::Json;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kConnections = 4;
/// Extra set-ups timed after each ladder step (see run_served).
constexpr int kSetupsPerStep = 2;
/// The rate ladder (requests/s) and each step's share of --seconds. The
/// first step is the reference rate latency is quoted at, low enough
/// that queueing adds little to the service time; the rest close in on
/// the daemon's capacity (50-60 requests/s on 4 cores).
struct Step {
  double rate;
  double share;
};
constexpr Step kLadder[] = {{15, 0.34}, {30, 0.1},  {40, 0.1},  {50, 0.1},
                            {55, 0.09}, {60, 0.09}, {70, 0.09}, {80, 0.09}};
constexpr std::size_t kReferenceStep = 0;
/// p90 latency a ladder step must meet (ms, from due time).
constexpr double kP90LimitMs = 250.0;
/// A generator later than this at p90 invalidates the step (ms).
constexpr double kLagLimitMs = 5.0;

/// One openmdd_serve process on an ephemeral loopback port. The
/// destructor shuts it down (op=shutdown, then SIGKILL if it lingers)
/// and reaps it.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& store_dir,
         const std::string& log_path) {
    const std::vector<std::string> args = {
        bin,          "--port",     "0",         "--workers", "2",
        "--store-dir", store_dir,   "--memo-mb", "1",         "--composite-mb",
        "1",          "--queue",    "65536"};
    ::unlink(log_path.c_str());  // the port is read back from this log
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::dup2(fd, 1);
      }
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    // Ready once the log names the bound port.
    const std::string marker = "listening on 127.0.0.1:";
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (port_ == 0) {
      if (Clock::now() > deadline || ::waitpid(pid_, nullptr, WNOHANG) != 0)
        throw std::runtime_error("openmdd_serve did not start (see " +
                                 log_path + ")");
      std::ifstream log(log_path);
      const std::string text{std::istreambuf_iterator<char>(log),
                             std::istreambuf_iterator<char>()};
      const std::size_t at = text.find(marker);
      // Only a complete line: the port may still be half written.
      if (at != std::string::npos &&
          text.find('\n', at) != std::string::npos)
        port_ = static_cast<std::uint16_t>(
            std::stoi(text.substr(at + marker.size())));
      if (port_ == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    try {
      mdd::server::TcpLineClient client("127.0.0.1", port_, 1000);
      client.roundtrip(R"({"op":"shutdown"})");
    } catch (const std::exception&) {
    }
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }

  std::uint16_t port() const { return port_; }
  int pid() const { return static_cast<int>(pid_); }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One request of the ladder, filled by the sender and a receiver.
struct Slot {
  std::size_t case_index = 0;
  bool traced = false;
  Clock::time_point due{}, sent{}, done{};
  Json response;
};

struct StepResult {
  double rate = 0;
  std::size_t n = 0;
  double p50_ms = 0, p90_ms = 0, lag_p90_ms = 0;
  double throughput = 0;     ///< completions/s over the step and its drain
  std::size_t backlog = 0;   ///< outstanding requests when sending ended
  std::size_t failed = 0;
  bool passed = false;
  std::vector<double> plain_ms, traced_ms;
};

Json diagnose_request(const Generated& g, std::size_t c) {
  Json r;
  r.set("op", "diagnose");
  r.set("netlist", g.netlist_path);
  r.set("patterns", g.patterns_path);
  r.set("datalog", g.cases[c].datalog);
  r.set("method", "multiplet");
  return r;
}

Json query(mdd::server::LineClient& client, const char* op) {
  return Json::parse(client.roundtrip(std::string(R"({"op":")") + op + "\"}"));
}

double memo_field(const Json& stats, const char* memo, const char* field) {
  const Json* m = stats.find("stats")->find("memos")->find(memo);
  return m != nullptr ? m->get_number(field) : 0.0;
}

}  // namespace

Result run_served(const Options& o) {
  const Generated g = read_generated(o.data_dir);
  const auto p0 = Clock::now();
  const mdd::Netlist netlist = mdd::parse_bench_file(g.netlist_path).netlist;
  const mdd::PatternSet patterns = mdd::read_patterns_file(g.patterns_path);
  const auto p1 = Clock::now();
  const mdd::PatternSet good = mdd::simulate(netlist, patterns);
  const auto p2 = Clock::now();
  AnswerBook book(netlist, patterns, good, g.cases);
  SpanLog spans;
  Result r;

  // Set-up: dictionary build + daemon spawn until ready + session load
  // (the first request), on a fresh store. The daemon of the first one is
  // measured; more set-ups run between ladder steps (while that daemon is
  // idle), so the set-up samples span the run.
  struct Setup {
    std::unique_ptr<Daemon> daemon;
    double seconds = 0, build_ms = 0, open_ms = 0, session_ms = 0;
  };
  std::vector<double> setup_s;
  const auto setup = [&](const std::string& dir) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string store_path =
        mdd::store::store_path_for(dir, netlist, patterns);
    Setup s;
    const auto t0 = Clock::now();
    mdd::store::DictWriter(netlist, patterns)
        .write(store_path, mdd::store::default_store_universe(netlist));
    const auto t1 = Clock::now();
    mdd::store::DictReader::open(store_path)->validate_for(netlist, patterns);
    const auto t2 = Clock::now();
    s.daemon = std::make_unique<Daemon>(o.serve_bin, dir, dir + "/daemon.log");
    const auto t3 = Clock::now();
    mdd::server::TcpLineClient client("127.0.0.1", s.daemon->port());
    const Json warm =
        Json::parse(client.roundtrip(diagnose_request(g, g.warmup).dump()));
    const auto t4 = Clock::now();
    s.build_ms = ms_between(t0, t1);
    s.open_ms = ms_between(t1, t2);
    s.session_ms = ms_between(t3, t4);
    s.seconds = (ms_between(t0, t1) + ms_between(t2, t4)) / 1000.0;
    setup_s.push_back(s.seconds);
    ++r.attempted;
    const Json* reports = warm.find("reports");
    if (warm.get_string("status") != "ok" || reports == nullptr ||
        !book.record(g.warmup, *reports))
      ++r.failed;
    return s;
  };
  const Setup measured = setup(o.work_dir + "/store");
  Daemon* daemon = measured.daemon.get();

  // The request schedule: every ladder step sends rate x step seconds.
  const std::size_t n_steps = std::size(kLadder);
  std::vector<Slot> slots;
  std::vector<std::size_t> step_begin;
  for (std::size_t s = 0; s < n_steps; ++s) {
    step_begin.push_back(slots.size());
    const auto n = static_cast<std::size_t>(kLadder[s].rate *
                                            kLadder[s].share * o.seconds);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = slots.size();
      Slot& slot = slots.emplace_back();
      slot.case_index = g.order[i % g.order.size()];
      slot.traced = o.trace && i % 2 == 1;
    }
  }
  step_begin.push_back(slots.size());
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Json req = diagnose_request(g, slots[i].case_index);
    req.set("id", i);
    if (slots[i].traced) req.set("trace", true);
    lines.push_back(req.dump());
  }

  mdd::server::TcpLineClient control("127.0.0.1", daemon->port());
  const Json metrics0 = query(control, "metrics");
  const Json stats0 = query(control, "stats");

  std::vector<std::unique_ptr<mdd::server::TcpLineClient>> conns;
  for (std::size_t c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<mdd::server::TcpLineClient>(
        "127.0.0.1", daemon->port()));
  std::atomic<std::size_t> n_done{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> receive_errors{0};
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      try {
        while (!stop.load()) {
          const auto line = conns[c]->recv_line_for(50);
          if (!line) continue;
          const auto now = Clock::now();
          Json response = Json::parse(*line);
          const auto id = static_cast<std::size_t>(response.get_number("id"));
          if (id >= slots.size()) {
            ++receive_errors;
            continue;
          }
          slots[id].done = now;
          slots[id].response = std::move(response);
          n_done.fetch_add(1, std::memory_order_release);
        }
      } catch (const std::exception&) {
        ++receive_errors;
      }
    });
  }

  // Open loop: send each request at its due time, whatever the backlog;
  // between steps, let the previous step drain.
  std::vector<StepResult> steps(n_steps);
  bool sender_ok = true;
  for (std::size_t s = 0; s < n_steps && sender_ok; ++s) {
    const auto t_step = Clock::now() + std::chrono::milliseconds(5);
    const double period_ms = 1000.0 / kLadder[s].rate;
    std::size_t i = step_begin[s];
    for (; i < step_begin[s + 1]; ++i) {
      Slot& slot = slots[i];
      slot.due = t_step + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  period_ms * static_cast<double>(i - step_begin[s])));
      std::this_thread::sleep_until(slot.due);
      slot.sent = Clock::now();
      try {
        conns[i % kConnections]->send_line(lines[i]);
      } catch (const std::exception&) {
        sender_ok = false;
        break;
      }
    }
    steps[s].backlog = i - n_done.load(std::memory_order_acquire);
    const auto drain_deadline = Clock::now() + std::chrono::seconds(30);
    while (n_done.load(std::memory_order_acquire) < i &&
           Clock::now() < drain_deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    try {
      for (int rep = 0; rep < kSetupsPerStep; ++rep)
        setup(o.work_dir + "/setup");
    } catch (const std::exception& e) {
      sender_ok = false;
      r.detail.set("first_failure", std::string("set-up: ") + e.what());
    }
  }
  stop.store(true);
  for (std::thread& t : receivers) t.join();

  const Json metrics1 = query(control, "metrics");
  const Json stats1 = query(control, "stats");
  const double daemon_rss = pid_peak_rss_mb(daemon->pid());

  // Per-step figures and the ladder verdicts.
  std::vector<double> all_lag;
  double parse_sum = 0, serialize_sum = 0, n_traced = 0;
  double candidates = 0, solo = 0;
  std::size_t lost = 0;
  for (std::size_t s = 0; s < n_steps; ++s) {
    StepResult& st = steps[s];
    st.rate = kLadder[s].rate;
    std::vector<double> latency, lag;
    Clock::time_point first_due{}, last_done{};
    for (std::size_t i = step_begin[s]; i < step_begin[s + 1]; ++i) {
      const Slot& slot = slots[i];
      ++st.n;
      if (i == step_begin[s]) first_due = slot.due;
      if (slot.response.is_null()) {
        ++st.failed;
        ++lost;
        continue;
      }
      const double ms = ms_between(slot.due, slot.done);
      latency.push_back(ms);
      lag.push_back(ms_between(slot.due, slot.sent));
      all_lag.push_back(lag.back());
      last_done = std::max(last_done, slot.done);
      (slot.traced ? st.traced_ms : st.plain_ms).push_back(ms);
      if (slot.response.get_string("status") != "ok") ++st.failed;
      candidates += slot.response.get_number("n_candidates");
      solo += slot.response.get_number("solo_computes");
      if (slot.traced) {
        n_traced += 1;
        for (const Json& stage : slot.response.find("trace")->as_array()) {
          if (stage.get_string("stage") == "parse")
            parse_sum += stage.get_number("ms");
          if (stage.get_string("stage") == "serialize")
            serialize_sum += stage.get_number("ms");
        }
      }
    }
    st.p50_ms = quantile(latency, 0.5);
    st.p90_ms = quantile(latency, 0.9);
    st.lag_p90_ms = quantile(lag, 0.9);
    st.throughput = latency.empty()
                        ? 0.0
                        : static_cast<double>(latency.size()) /
                              (ms_between(first_due, last_done) / 1000.0);
    const double backlog_limit = st.rate * kP90LimitMs / 1000.0 + 4.0;
    st.passed = st.failed == 0 && st.p90_ms <= kP90LimitMs &&
                st.lag_p90_ms <= kLagLimitMs &&
                static_cast<double>(st.backlog) <= backlog_limit;
  }

  // Output checks: every response equals, byte for byte, handle() of the
  // same request on a fresh in-process service (no memo state from other
  // requests, so the reference is what a cold daemon answers), and
  // passes the shared answer checks.
  {
    std::vector<Json> answers(g.cases.size());
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kConnections; ++t)
      workers.emplace_back([&, t] {
        for (std::size_t c = t; c < answers.size(); c += kConnections)
          answers[c] = mdd::server::DiagnosisService().handle(
              diagnose_request(g, c));
      });
    for (std::thread& w : workers) w.join();
    for (std::size_t c = 0; c < g.cases.size(); ++c) {
      const Json& answer = answers[c];
      const Json* reports = answer.find("reports");
      if (answer.get_string("status") != "ok" || reports == nullptr ||
          !book.record(c, *reports)) {
        ++r.failed;
        r.detail.set("first_failure", "reference diagnosis of case " +
                                          std::to_string(c) + " failed");
      }
    }
  }
  for (const Slot& slot : slots) {
    ++r.attempted;
    const Json* reports = slot.response.find("reports");
    if (slot.response.get_string("status") != "ok" || reports == nullptr ||
        !book.record(slot.case_index, *reports))
      ++r.failed;
  }
  if (!sender_ok || receive_errors.load() > 0 || lost > 0) {
    r.correct = false;
    r.detail.set("transport_errors",
                 receive_errors.load() + lost + (sender_ok ? 0 : 1));
  }

  // max_rate_rps: highest passing step, interpolated on p90 toward the
  // next step when that one failed on latency.
  double max_rate = 0;
  const StepResult* best = nullptr;
  for (std::size_t s = 0; s < n_steps; ++s) {
    if (!steps[s].passed) continue;
    best = &steps[s];
    max_rate = steps[s].rate;
    if (s + 1 < n_steps && !steps[s + 1].passed &&
        steps[s + 1].p90_ms > kP90LimitMs && steps[s + 1].p90_ms > steps[s].p90_ms)
      max_rate += (steps[s + 1].rate - steps[s].rate) *
                  (kP90LimitMs - steps[s].p90_ms) /
                  (steps[s + 1].p90_ms - steps[s].p90_ms);
  }
  mdd::server::JsonArray ladder;
  for (const StepResult& st : steps) {
    Json j;
    j.set("rate", st.rate);
    j.set("n", st.n);
    j.set("p50_ms", st.p50_ms);
    j.set("p90_ms", st.p90_ms);
    j.set("lag_p90_ms", st.lag_p90_ms);
    j.set("throughput", st.throughput);
    j.set("backlog", st.backlog);
    j.set("failed", st.failed);
    j.set("passed", st.passed);
    ladder.push_back(std::move(j));
  }
  r.detail.set("ladder", Json(std::move(ladder)));
  r.detail.set("p90_limit_ms", kP90LimitMs);

  const StepResult& ref = steps[kReferenceStep];
  if (!o.trace) {
    std::vector<double> ref_latency = ref.plain_ms;
    r.add("setup_s", median(setup_s), "s");
    r.add("datalogs_per_s", steps.back().throughput, "1/s");
    r.add("latency_p50_ms", quantile(ref_latency, 0.5), "ms");
    r.add("latency_p90_ms", quantile(ref_latency, 0.9), "ms");
    r.add("max_rate_rps", best != nullptr ? max_rate : 0.0, "1/s");
    r.add("peak_rss_mb", daemon_rss, "MiB");
  } else {
    const CounterDelta d(metrics0.find("metrics") ? *metrics0.find("metrics")
                                                  : Json{},
                         metrics1.find("metrics") ? *metrics1.find("metrics")
                                                  : Json{});
    const double n = static_cast<double>(slots.size());
    const auto memo_delta = [&](const char* memo, const char* field) {
      return memo_field(stats1, memo, field) - memo_field(stats0, memo, field);
    };
    r.add("netlist.parse_ms", ms_between(p0, p1), "ms");
    r.add("sim.good_ms", ms_between(p1, p2), "ms");
    r.add("diag.candidates", candidates / n, "count");
    r.add("fsim.propagate_patterns",
          d.counter("propagate.patterns_simulated") / n, "count");
    r.add("diag.composite_evals", d.counter("diag.composite_evals") / n,
          "count");
    r.add("diag.composite_memo_hit_ratio",
          ratio(d.counter("diag.composite_memo_hits"),
                d.counter("diag.composite_evals")),
          "ratio");
    r.add("fsim.composite_ms", d.histogram_sum("diag.composite_ms") / n, "ms");
    r.add("fsim.composite_fallbacks",
          d.counter("propagate.composite_fallbacks") / n, "count");
    r.add("fsim.solo_computes_per_candidate",
          candidates > 0 ? solo / candidates : 0.0, "ratio");
    r.add("server.memo.signature_hit_ratio",
          ratio(memo_delta("signature", "hits"),
                memo_delta("signature", "misses")),
          "ratio");
    r.add("server.memo.composite_hit_ratio",
          ratio(memo_delta("composite", "hits"),
                memo_delta("composite", "misses")),
          "ratio");
    r.add("server.memo.trace_hit_ratio",
          ratio(memo_delta("trace", "hits"), memo_delta("trace", "misses")),
          "ratio");
    r.add("server.memo.signature_evictions",
          memo_delta("signature", "evictions") / n, "count");
    r.add("server.memo.composite_evictions",
          memo_delta("composite", "evictions") / n, "count");
    r.add("server.session_load_ms", measured.session_ms, "ms");
    r.add("server.queue_wait_p50_ms",
          d.histogram_quantile("server.queue_wait_ms", 0.5), "ms");
    r.add("server.queue_wait_p90_ms",
          d.histogram_quantile("server.queue_wait_ms", 0.9), "ms");
    r.add("server.request_p50_ms",
          d.histogram_quantile("server.request_ms", 0.5), "ms");
    r.add("server.parse_ms", n_traced > 0 ? parse_sum / n_traced : 0.0, "ms");
    r.add("server.serialize_ms",
          n_traced > 0 ? serialize_sum / n_traced : 0.0, "ms");
    r.add("store.build_ms", measured.build_ms, "ms");
    r.add("store.open_ms", measured.open_ms, "ms");
    r.add("store.hit_ratio",
          ratio(d.counter("store.hits"), d.counter("store.misses")), "ratio");
    r.add("store.decodes", d.counter("store.decodes") / n, "count");
    r.add("store.journal_appends", d.counter("store.journal_appends") / n,
          "count");
    r.add("store.spill_hits", d.counter("store.spill_hits") / n, "count");
    r.add("store.spill_writes", d.counter("store.spill_writes") / n, "count");
    r.add("loadgen.lag_p90_ms", quantile(all_lag, 0.9), "ms");
    r.add("obs.trace_overhead_pct",
          100.0 * (mean(ref.traced_ms) / mean(ref.plain_ms) - 1.0), "%");

    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      if (!slot.traced || slot.response.is_null()) continue;
      const long id = static_cast<long>(i);
      const long root = spans.add("request", spans.offset_ms(slot.due),
                                  spans.offset_ms(slot.done), -1, id);
      spans.add("loadgen.lag", spans.offset_ms(slot.due),
                spans.offset_ms(slot.sent), root, id);
      double at = spans.offset_ms(slot.sent);
      for (const Json& stage : slot.response.find("trace")->as_array()) {
        if (stage.find("depth") != nullptr) continue;
        const double ms = stage.get_number("ms");
        spans.add("server." + stage.get_string("stage"), at, at + ms, root, id);
        at += ms;
      }
    }
    spans.write_jsonl(o.work_dir + "/spans.jsonl");
    r.detail.set("spans", spans.spans().size());
  }
  r.take_answers(book);
  return r;
}

}  // namespace mddbench
