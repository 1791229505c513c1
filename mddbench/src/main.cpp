// mddbench — the openmdd benchmark (see mddbench/README.md).
//
//   mddbench gen --workload W --seed N --seconds S --circuits DIR
//                --data DIR
//   mddbench run --workload W --seed N --seconds S --trace 0|1
//                --data DIR --work DIR --serve PATH [--source-id ID]
//
// `gen` writes the seeded inputs (untimed, cached by the caller). `run`
// measures one workload and prints two lines: a detail object (quality,
// ledgers, provenance) and, last, the result object
// {"correct","attempted","failed","metrics"} — end-to-end metrics when
// --trace 0, the per-layer metrics the workload's path enters when
// --trace 1 (run.py adds the others as 0).
#include <sys/utsname.h>

#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "sim/kernel.hpp"

#ifndef MDDBENCH_BUILD_TYPE
#define MDDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mddbench;
using mdd::server::Json;

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || defined(MDDBENCH_SANITIZED)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("bad argument '" + a + "'");
    flags[a.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

int run(const std::map<std::string, std::string>& flags) {
  Options o;
  o.workload = need(flags, "workload");
  o.seed = std::stoull(need(flags, "seed"));
  o.seconds = std::stod(need(flags, "seconds"));
  o.trace = need(flags, "trace") == "1";
  o.data_dir = need(flags, "data");
  o.work_dir = need(flags, "work");
  o.serve_bin = need(flags, "serve");
  if (!kMeasurableBuild) {
    std::cerr << "mddbench: refusing to measure an unoptimized or sanitizer "
                 "build\n";
    return 2;
  }

  Result r;
  if (o.workload == "cold_g1k") {
    r = run_cold(o);
  } else if (o.workload == "volume_g1k") {
    r = run_volume(o);
  } else if (o.workload == "served_g200") {
    r = run_served(o);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.trace) {
    r.add("quality.hit_rate", r.hit_rate, "ratio");
    r.add("quality.exact_rate", r.exact_rate, "ratio");
  }
  r.correct = r.correct && r.failed == 0 && r.attempted > 0;

  utsname u{};
  uname(&u);
  Json provenance;
  const auto source = flags.find("source-id");
  provenance.set("source", source != flags.end() ? source->second : "unknown");
  provenance.set("kernel", std::string(u.release));
  provenance.set("nproc", std::thread::hardware_concurrency());
  provenance.set("threads", "warm 4, batch 4, daemon workers 2, "
                            "connections 4");
  provenance.set("build_type", MDDBENCH_BUILD_TYPE);
  provenance.set("sim_kernel", std::string(mdd::current_kernel().name));
  provenance.set("workload", o.workload);
  provenance.set("seed", std::to_string(o.seed));
  provenance.set("seconds", o.seconds);
  provenance.set("trace", o.trace);
  r.detail.set("provenance", std::move(provenance));
  r.detail.set("error_rate", static_cast<double>(r.failed) /
                                 static_cast<double>(std::max<std::size_t>(
                                     r.attempted, 1)));
  Json detail;
  detail.set("mddbench", r.detail);
  std::cout << detail.dump() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    line << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: mddbench gen|run ...");
    const std::string cmd = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (cmd == "gen") {
      generate(need(flags, "workload"), std::stoull(need(flags, "seed")),
               std::stod(need(flags, "seconds")), need(flags, "circuits"),
               need(flags, "data"));
      return 0;
    }
    if (cmd == "run") return run(flags);
    throw std::invalid_argument("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "mddbench: " << e.what() << "\n";
    return 2;
  }
}
