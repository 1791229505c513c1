// Shard-router tests. Unit: rendezvous placement is deterministic,
// stable, and spreads keys. Integration: the real openmdd_serve binary
// in --shards mode must route diagnoses to a stable shard, turn a
// SIGKILLed worker mid-batch into a typed shard_failed error (never a
// hung connection), respawn the worker, and serve byte-identical reports
// from the replacement — the crash-recovery contract of DESIGN.md §15.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "diag/datalog.hpp"
#include "fsim/fsim.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "server/json.hpp"
#include "server/router.hpp"
#include "server/serve.hpp"
#include "workload/textio.hpp"

namespace mdd::server {
namespace {

TEST(PickShard, DeterministicAndStableAcrossCalls) {
  const std::string key = "netlist.bench\npatterns.pat";
  const std::size_t first = pick_shard(key, 4);
  EXPECT_LT(first, 4u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pick_shard(key, 4), first);
}

TEST(PickShard, SingleShardTakesEverything) {
  EXPECT_EQ(pick_shard("anything", 1), 0u);
  EXPECT_EQ(pick_shard("", 1), 0u);
}

TEST(PickShard, SpreadsDistinctKeysAcrossShards) {
  // 64 distinct keys over 4 shards: rendezvous hashing must not collapse
  // onto one shard (that would serialize the whole fleet).
  std::set<std::size_t> used;
  std::size_t counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 64; ++i) {
    const std::size_t s =
        pick_shard("circuit_" + std::to_string(i) + ".bench\np.pat", 4);
    ASSERT_LT(s, 4u);
    used.insert(s);
    ++counts[s];
  }
  EXPECT_EQ(used.size(), 4u) << "64 keys should touch all 4 shards";
  for (std::size_t c : counts)
    EXPECT_LT(c, 40u) << "placement is badly skewed";
}

TEST(PickShard, PlacementIgnoresShardCountOnlyViaWeights) {
  // Rendezvous property: removing a shard only moves the keys that lived
  // on it — keys placed elsewhere keep their shard (cache affinity
  // across fleet resize). With highest-random-weight placement over
  // n=4 vs n=3, any key whose n=4 winner is < 3 must keep it at n=3.
  for (int i = 0; i < 32; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::size_t at4 = pick_shard(key, 4);
    if (at4 < 3) {
      EXPECT_EQ(pick_shard(key, 3), at4) << key;
    }
  }
}

/// The circuit/pattern/datalog triple the integration tests diagnose,
/// written under the test temp dir (worker processes read the paths).
struct RouterFixture {
  std::string netlist_path;
  std::string patterns_path;
  std::string datalog_text;

  static RouterFixture make(const std::string& tag) {
    const Netlist netlist = make_named_circuit("g200");
    const PatternSet patterns =
        PatternSet::random(128, netlist.n_inputs(), 0x5EED);
    FaultSimulator fsim(netlist, patterns);
    const std::vector<Fault> defect{
        Fault::stem_sa(netlist.n_nets() / 3, false),
        Fault::stem_sa(netlist.n_nets() / 2, true)};
    const Datalog log = datalog_from_defect(netlist, defect, patterns,
                                            fsim.good_response());
    EXPECT_TRUE(log.has_failures());

    RouterFixture f;
    f.netlist_path = ::testing::TempDir() + "router_" + tag + ".bench";
    f.patterns_path = ::testing::TempDir() + "router_" + tag + ".patterns";
    std::ofstream(f.netlist_path) << write_bench_string(netlist);
    write_patterns_file(f.patterns_path, patterns);
    std::ostringstream dl;
    write_datalog(dl, log, netlist);
    f.datalog_text = dl.str();
    return f;
  }
};

/// The sharded daemon under test: fork/exec the real serve binary with
/// --shards 2, wait until ping answers, kill the tree on teardown.
struct RouterProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;

  static std::uint16_t pick_port() {
    // Ephemeral-ish port keyed on our pid; retried probes below catch
    // the (rare) collision as a failed startup.
    return static_cast<std::uint16_t>(20000 + (::getpid() * 7) % 20000);
  }

  void start() {
    port = pick_port();
    const std::string port_str = std::to_string(port);
    const std::string socket_dir =
        ::testing::TempDir() + "router_sockets_" + std::to_string(::getpid());
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const char* argv[] = {OPENMDD_SERVE_BIN,
                            "--port", port_str.c_str(),
                            "--shards", "2",
                            "--shard-socket-dir", socket_dir.c_str(),
                            "--workers", "2",
                            nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv));
      _exit(127);
    }
    // Workers compile sessions lazily but must fork+ready fast; a minute
    // is far beyond any healthy startup.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < give_up) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, WNOHANG), 0)
          << "router exited during startup";
      try {
        TcpLineClient client("127.0.0.1", port);
        client.send_line("{\"op\":\"ping\"}");
        const std::optional<std::string> reply = client.recv_line_for(2000);
        if (reply &&
            reply->find("\"status\":\"ok\"") != std::string::npos)
          return;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    FAIL() << "router never became pingable on port " << port;
  }

  void shutdown() {
    if (pid < 0) return;
    try {
      TcpLineClient client("127.0.0.1", port);
      client.send_line("{\"op\":\"shutdown\"}");
      client.recv_line_for(15000);
    } catch (const std::exception&) {
    }
    for (int i = 0; i < 200; ++i) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid, SIGKILL);  // last resort: don't leak the process tree
    ::waitpid(pid, nullptr, 0);
    pid = -1;
    ADD_FAILURE() << "router needed SIGKILL after a graceful shutdown op";
  }

  ~RouterProcess() {
    if (pid >= 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

/// Receives one line within `timeout_ms` and parses it; a timeout or a
/// malformed line is a test failure that yields a null Json.
Json recv_json(LineClient& client, int timeout_ms) {
  const std::optional<std::string> line = client.recv_line_for(timeout_ms);
  EXPECT_TRUE(line.has_value()) << "no line within " << timeout_ms << "ms";
  if (!line.has_value()) return Json();
  Json parsed;
  EXPECT_NO_THROW(parsed = Json::parse(*line)) << *line;
  return parsed;
}

/// `op=shard_of` for the fixture's key: the router's placement oracle.
Json shard_of(std::uint16_t port, const RouterFixture& f) {
  TcpLineClient client("127.0.0.1", port);
  Json r;
  r.set("op", "shard_of");
  r.set("netlist", f.netlist_path);
  r.set("patterns", f.patterns_path);
  client.send_line(r.dump());
  return recv_json(client, 5000);
}

Json diagnose_via_router(std::uint16_t port, const RouterFixture& f) {
  TcpLineClient client("127.0.0.1", port);
  Json r;
  r.set("op", "diagnose");
  r.set("netlist", f.netlist_path);
  r.set("patterns", f.patterns_path);
  r.set("datalog", f.datalog_text);
  client.send_line(r.dump());
  return recv_json(client, 60000);
}

TEST(ShardRouterIntegration, CrashedWorkerFailsTypedThenRecoversIdentical) {
  const RouterFixture f = RouterFixture::make("crash");
  RouterProcess router;
  router.start();
  if (::testing::Test::HasFatalFailure()) return;

  // Placement is stable: the oracle names one live shard, repeatedly.
  const Json placed = shard_of(router.port, f);
  ASSERT_EQ(placed.get_string("status"), "ok") << placed.dump();
  const std::size_t shard =
      static_cast<std::size_t>(placed.get_number("shard", 99));
  ASSERT_LT(shard, 2u);
  EXPECT_EQ(placed.get_string("state"), "live");
  const pid_t worker_pid = static_cast<pid_t>(placed.get_number("pid", -1));
  ASSERT_GT(worker_pid, 0);
  const std::uint64_t generation =
      static_cast<std::uint64_t>(placed.get_number("generation", 0));
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(shard_of(router.port, f).get_number("shard", 99),
              static_cast<double>(shard))
        << "placement must not wander between calls";

  // Baseline reports through the healthy fleet.
  const Json baseline = diagnose_via_router(router.port, f);
  ASSERT_EQ(baseline.get_string("status"), "ok") << baseline.dump();
  const Json* baseline_reports = baseline.find("reports");
  ASSERT_NE(baseline_reports, nullptr);

  // Kill the owning worker while a streamed batch is in flight on it: the
  // request must come back as a typed shard_failed error, not a
  // connection that hangs until some client-side timeout. The worker is
  // stopped before the batch is sent, so the batch cannot finish before
  // the kill however fast it is; a ping on the same connection, which the
  // router answers only after it has handed the batch to the worker,
  // fences the kill behind the hand-off.
  {
    TcpLineClient client("127.0.0.1", router.port);
    ASSERT_EQ(::kill(worker_pid, SIGSTOP), 0);
    Json r;
    r.set("op", "diagnose_batch");
    r.set("id", "doomed");
    r.set("netlist", f.netlist_path);
    r.set("patterns", f.patterns_path);
    JsonArray datalogs;
    for (int i = 0; i < 8; ++i) datalogs.emplace_back(f.datalog_text);
    r.set("datalogs", Json(std::move(datalogs)));
    r.set("stream", true);
    client.send_line(r.dump());
    client.send_line("{\"op\":\"ping\",\"id\":\"fence\"}");
    // Nothing else can arrive first: the stopped worker answers nothing.
    const Json fence = recv_json(client, 15000);
    ASSERT_EQ(::kill(worker_pid, SIGKILL), 0);
    ASSERT_EQ(fence.get_string("op"), "ping")
        << "expected the fence before any batch line: " << fence.dump();

    bool saw_shard_failed = false;
    for (int i = 0; i < 32 && !saw_shard_failed; ++i) {
      const Json line = recv_json(client, 15000);
      if (line.get_string("error") == "shard_failed") {
        saw_shard_failed = true;
        EXPECT_EQ(line.get_string("id"), "doomed");
        EXPECT_EQ(line.get_number("shard", 99),
                  static_cast<double>(shard));
      } else if (line.get_string("op") == "diagnose_batch") {
        break;  // the batch outran the SIGKILL — nothing left to fail
      }
    }
    EXPECT_TRUE(saw_shard_failed)
        << "killing the worker mid-batch must surface shard_failed";
  }

  // The supervisor respawns the shard (backoff starts at 200ms); the
  // replacement must re-admit the same placement at a higher generation.
  Json respawned;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    respawned = shard_of(router.port, f);
    if (respawned.get_string("state") == "live" &&
        respawned.get_number("generation", 0) >
            static_cast<double>(generation))
      break;
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "shard never respawned: " << respawned.dump();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(respawned.get_number("shard", 99), static_cast<double>(shard))
      << "a respawned shard must get its placement back";
  EXPECT_NE(static_cast<pid_t>(respawned.get_number("pid", -1)), worker_pid);

  // Crash recovery is invisible to results: the replacement worker's
  // reports are byte-identical to the pre-crash baseline.
  const Json after = diagnose_via_router(router.port, f);
  ASSERT_EQ(after.get_string("status"), "ok") << after.dump();
  const Json* after_reports = after.find("reports");
  ASSERT_NE(after_reports, nullptr);
  EXPECT_EQ(after_reports->dump(), baseline_reports->dump());

  // Aggregated stats carry the incident ledger.
  {
    TcpLineClient client("127.0.0.1", router.port);
    client.send_line("{\"op\":\"stats\"}");
    const Json response = recv_json(client, 15000);
    const Json* stats_obj = response.find("stats");
    ASSERT_NE(stats_obj, nullptr) << response.dump();
    const Json& stats = *stats_obj;
    const Json* router_obj = stats.find("router");
    ASSERT_NE(router_obj, nullptr) << stats.dump();
    EXPECT_EQ(router_obj->get_number("shards", 0), 2.0);
    EXPECT_EQ(router_obj->get_number("live", 0), 2.0);
    EXPECT_GE(router_obj->get_number("respawns", 0), 1.0);
    EXPECT_GE(router_obj->get_number("shard_failures", 0), 1.0);
    const Json* shards = stats.find("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->as_array().size(), 2u);
  }

  router.shutdown();
}

}  // namespace
}  // namespace mdd::server
