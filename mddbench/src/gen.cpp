// mddbench — seeded input generation (never timed).
//
// The circuit and its ATPG test set depend only on the circuit name, so
// they are built once per checkout and cached; the seed draws the defect
// multiplets, their tester datalogs, and the workload's datalog order.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "netlist/bench_parser.hpp"
#include "sim/sim2.hpp"
#include "workload/campaign.hpp"
#include "workload/circuits.hpp"
#include "workload/textio.hpp"

namespace mddbench {

namespace {

namespace fs = std::filesystem;

/// Decorrelated per-case RNG seed (splitmix64 of seed and index).
std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Writes <dir>/<name>.bench and .patterns once (ATPG is the slow part).
void ensure_circuit(const std::string& name, const std::string& dir) {
  const std::string bench = dir + "/" + name + ".bench";
  const std::string pats = dir + "/" + name + ".patterns";
  if (fs::exists(bench) && fs::exists(pats)) return;
  fs::create_directories(dir);
  const mdd::BenchCircuit bc = mdd::load_bench_circuit(name);
  {
    std::ofstream os(bench + ".tmp");
    mdd::write_bench(os, bc.netlist);
    if (!os) throw std::runtime_error("cannot write " + bench);
  }
  mdd::write_patterns_file(pats + ".tmp", bc.patterns);
  fs::rename(pats + ".tmp", pats);
  fs::rename(bench + ".tmp", bench);
}

/// served_g200: recurring datalogs, and the fresh ones they alternate
/// with; together they overflow the daemon's 1 MiB memos.
constexpr std::size_t kServedHot = 64;
constexpr std::size_t kServedFresh = 256;

struct Shape {
  const char* circuit;
  std::size_t distinct;  ///< distinct defect cases drawn
};

/// Fixed work per run, scaled by --seconds: the same (seed, seconds)
/// always diagnoses the same datalogs, whatever the program's speed.
Shape shape_of(const std::string& workload, double seconds) {
  const auto per_second = [&](double n) {
    return static_cast<std::size_t>(std::max(1.0, std::round(n * seconds)));
  };
  if (workload == "cold_g1k") return {"g1k", per_second(2.7)};
  if (workload == "volume_g1k")
    return {"g1k", kVolumeDistinct * per_second(0.4)};
  if (workload == "served_g200")
    return {"g200", 1 + kServedHot + kServedFresh};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace

void generate(const std::string& workload, std::uint64_t seed,
              double seconds, const std::string& circuit_dir,
              const std::string& dir) {
  const Shape shape = shape_of(workload, seconds);
  ensure_circuit(shape.circuit, circuit_dir);
  Generated g;
  g.netlist_path =
      fs::absolute(circuit_dir + "/" + shape.circuit + ".bench").string();
  g.patterns_path =
      fs::absolute(circuit_dir + "/" + shape.circuit + ".patterns").string();
  // Sample on the circuit exactly as the program will see it: parsed back
  // from the written files (net order drives candidate order).
  const mdd::Netlist netlist = mdd::parse_bench_file(g.netlist_path).netlist;
  const mdd::PatternSet patterns = mdd::read_patterns_file(g.patterns_path);
  const mdd::PatternSet good = mdd::simulate(netlist, patterns);
  mdd::FaultSimulator fsim(netlist, patterns, good);

  // k = 2..4, stuck-at and bridge members, all three interaction levels.
  const mdd::InteractionLevel levels[] = {
      mdd::InteractionLevel::None, mdd::InteractionLevel::SharedOutputs,
      mdd::InteractionLevel::SameCone};
  for (std::uint64_t i = 0; g.cases.size() < shape.distinct; ++i) {
    if (i > 50 * shape.distinct)
      throw std::runtime_error("defect sampling keeps failing");
    mdd::DefectSampleConfig cfg;
    cfg.multiplicity = 2 + g.cases.size() % 3;
    cfg.interaction = levels[(g.cases.size() / 3) % 3];
    cfg.bridge_fraction = 0.25;
    std::mt19937_64 rng(case_seed(seed, i));
    const auto defect = mdd::sample_defect(netlist, fsim, cfg, rng);
    if (!defect) continue;
    const mdd::Datalog log =
        mdd::datalog_from_defect(netlist, *defect, patterns, good);
    if (!log.has_failures()) continue;
    Case c;
    for (const mdd::Fault& f : *defect)
      c.defect.push_back(display_to_spec(mdd::to_string(f, netlist)));
    std::ostringstream text;
    mdd::write_datalog(text, log, netlist);
    c.datalog = text.str();
    g.cases.push_back(std::move(c));
  }

  std::mt19937_64 rng(case_seed(seed, 0xD15EA5E));
  if (workload == "cold_g1k") {
    // A stream of distinct defects, each diagnosed from scratch.
    for (std::size_t c = 0; c < g.cases.size(); ++c) g.order.push_back(c);
  } else if (workload == "volume_g1k") {
    // One batch per lot: each lot's own few defects recur on many dies,
    // and the dies arrive interleaved.
    g.batch = kVolumeDistinct * kVolumeRecurrences;
    for (std::size_t lot = 0; lot < g.cases.size(); lot += kVolumeDistinct) {
      const std::size_t begin = g.order.size();
      for (std::size_t r = 0; r < kVolumeRecurrences; ++r)
        for (std::size_t c = lot; c < lot + kVolumeDistinct; ++c)
          g.order.push_back(c);
      std::shuffle(g.order.begin() + static_cast<std::ptrdiff_t>(begin),
                   g.order.end(), rng);
    }
  } else {
    // Case 0 loads the session; the next kServedHot are the recurring
    // (systematic) set, the rest a rotation of fresh datalogs. Half the
    // requests recur.
    constexpr std::size_t kRequests = 20000;
    g.warmup = 0;
    std::size_t next_fresh = 0;
    std::bernoulli_distribution recur(0.5);
    std::uniform_int_distribution<std::size_t> hot(1, kServedHot);
    for (std::size_t j = 0; j < kRequests; ++j)
      g.order.push_back(recur(rng)
                            ? hot(rng)
                            : 1 + kServedHot + (next_fresh++ % kServedFresh));
  }

  const std::string tmp = dir + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  write_generated(tmp, g);
  fs::remove_all(dir);
  fs::rename(tmp, dir);
}

}  // namespace mddbench
