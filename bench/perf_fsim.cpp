// Perf A — simulation-kernel micro-benchmarks (google-benchmark).
//
// Measures the bit-parallel good machine, the composite faulty machine,
// signature extraction and critical path tracing: the kernels whose
// throughput bounds every diagnosis experiment.
//
// The kernel-sweep benchmarks below are registered once per available
// simulation kernel (scalar / avx2 / avx512 as CPUID allows), so one run
// produces the words/s comparison table in EXPERIMENTS.md directly. All
// setup — circuit construction, pattern generation, simulator/baseline
// construction — happens before the timed loop; the loop body is pure
// kernel work. Each sweep reports two rate counters:
//   patterns/s  — full-circuit pattern evaluations per second
//   words/s     — gate-word evaluations per second (n_gates x pattern
//                 words per sweep), the kernel-throughput figure of merit
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "fsim/cpt.hpp"
#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "sim/event_sim.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace mdd;

const Netlist& circuit(const std::string& name) {
  static std::map<std::string, Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, make_named_circuit(name)).first;
  return it->second;
}

void set_sweep_counters(benchmark::State& state, const Netlist& nl,
                        std::size_t n_patterns, std::size_t n_blocks) {
  const double sweeps = static_cast<double>(state.iterations());
  state.counters["patterns/s"] = benchmark::Counter(
      sweeps * static_cast<double>(n_patterns), benchmark::Counter::kIsRate);
  state.counters["words/s"] = benchmark::Counter(
      sweeps * static_cast<double>(nl.n_gates()) *
          static_cast<double>(n_blocks),
      benchmark::Counter::kIsRate);
}

// ---- per-kernel sweeps (registered in main for each available kernel) ----

void BM_GoodMachineSweep(benchmark::State& state, const std::string& nl_name,
                         const SimKernel* kernel) {
  const Netlist& nl = circuit(nl_name);
  const PatternSet stimuli = PatternSet::random(512, nl.n_inputs(), 1);
  BlockSim sim(nl, *kernel);
  for (auto _ : state) {
    for (std::size_t b = 0; b < stimuli.n_blocks();)
      b += sim.run_wide(stimuli, b);
    benchmark::DoNotOptimize(sim.value(nl.outputs()[0]));
  }
  set_sweep_counters(state, nl, stimuli.n_patterns(), stimuli.n_blocks());
}

void BM_FaultyMachineSweep(benchmark::State& state, const SimKernel* kernel) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(512, nl.n_inputs(), 1);
  FaultyMachine fm(nl, *kernel);
  const std::vector<Fault> faults{
      Fault::stem_sa(nl.n_nets() / 2, true),
      Fault::bridge_dom(nl.n_nets() / 3, nl.n_nets() / 2 + 7)};
  fm.set_faults(faults);
  for (auto _ : state) {
    for (std::size_t b = 0; b < stimuli.n_blocks();)
      b += fm.run_wide(stimuli, b);
    benchmark::DoNotOptimize(fm.value(nl.outputs()[0]));
  }
  set_sweep_counters(state, nl, stimuli.n_patterns(), stimuli.n_blocks());
}

void BM_SignatureExtraction(benchmark::State& state, std::size_t n_patterns,
                            const SimKernel* kernel) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(n_patterns, nl.n_inputs(), 1);
  FaultSimulator fsim(nl, stimuli, *kernel);  // good response precomputed here
  const Fault f = Fault::stem_sa(nl.n_nets() / 2, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.signature(f));
  }
  set_sweep_counters(state, nl, stimuli.n_patterns(), stimuli.n_blocks());
}

void register_kernel_sweeps() {
  for (const SimKernel* k : available_kernels()) {
    const std::string suffix = std::string("/") + k->name;
    for (const std::string nl_name : {"g1k", "g5k"})
      benchmark::RegisterBenchmark(
          ("BM_GoodMachineSweep/" + nl_name + suffix).c_str(),
          BM_GoodMachineSweep, nl_name, k);
    benchmark::RegisterBenchmark(("BM_FaultyMachineSweep/g1k" + suffix).c_str(),
                                 BM_FaultyMachineSweep, k);
    for (const std::size_t n_patterns : {128, 512})
      benchmark::RegisterBenchmark(
          ("BM_SignatureExtraction/" + std::to_string(n_patterns) + suffix)
              .c_str(),
          BM_SignatureExtraction, n_patterns, k);
  }
}

// ---- thread-axis batches (process-default kernel; MDD_KERNEL overrides) ----

// Threads axis: the site-grouped solo-signature batch (solo_signatures, the
// routine behind the store build and the context warm) on the large
// generated circuit, baseline included. Arg = thread count; output is
// byte-identical across the axis (tests/test_parallel_equiv.cpp), so the
// trajectory records pure speedup.
void BM_SignatureBatchThreads(benchmark::State& state) {
  const Netlist& nl = circuit("g5k");
  const PatternSet stimuli = PatternSet::random(256, nl.n_inputs(), 3);
  const std::vector<Fault> universe = all_stuck_at_faults(nl);
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < universe.size() && faults.size() < 256;
       i += universe.size() / 256 + 1)
    faults.push_back(universe[i]);
  const ExecPolicy policy =
      ExecPolicy::parallel(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto sigs = solo_signatures(nl, stimuli, faults, policy);
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_SignatureBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Threads axis for the whole uncollapsed stuck-at universe of g1k — the
// store-build shape: every site carries several faults, so one flip serves
// each site group.
void BM_StuckAtUniverseBatchThreads(benchmark::State& state) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(256, nl.n_inputs(), 5);
  const std::vector<Fault> faults = all_stuck_at_faults(nl);
  const ExecPolicy policy =
      ExecPolicy::parallel(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto sigs = solo_signatures(nl, stimuli, faults, policy);
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_StuckAtUniverseBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- event-driven paths (kernel-independent) ----

/// One 64-pattern block: commit (good simulation, memo reset) plus a
/// trace of every (slot, PO), each stem flipped once for the block.
void BM_CriticalPathTrace(benchmark::State& state) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(64, nl.n_inputs(), 1);
  std::vector<std::uint32_t> block(64);
  for (std::uint32_t p = 0; p < 64; ++p) block[p] = p;
  CriticalPathTracer cpt(nl);
  for (auto _ : state) {
    cpt.commit(stimuli, block);
    for (std::size_t slot = 0; slot < 64; ++slot)
      for (std::uint32_t po = 0; po < nl.n_outputs(); ++po)
        benchmark::DoNotOptimize(cpt.critical_nets(slot, po));
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(nl.n_outputs()));
}
BENCHMARK(BM_CriticalPathTrace)->Unit(benchmark::kMillisecond);

void BM_EventFlip(benchmark::State& state) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(8, nl.n_inputs(), 1);
  EventSim sim(nl);
  sim.apply(stimuli, 0);
  NetId n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.flip_observed_outputs(n));
    n = (n + 37) % static_cast<NetId>(nl.n_nets());
  }
}
BENCHMARK(BM_EventFlip);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fsim.kernel",
                              std::string(mdd::current_kernel().name));
  benchmark::AddCustomContext("fsim.kernels_available", mdd::kernel_names());
  register_kernel_sweeps();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
