#include "workload/campaign.hpp"

#include <algorithm>
#include <optional>

namespace mdd {

namespace {

/// Picks a random non-feedback bridge partner for `victim`; kNoNet if none
/// found quickly.
NetId pick_bridge_partner(const Netlist& nl, NetId victim,
                          std::mt19937_64& rng) {
  std::uniform_int_distribution<NetId> pick(
      0, static_cast<NetId>(nl.n_nets() - 1));
  FeedbackChecker is_feedback(nl);
  for (int tries = 0; tries < 50; ++tries) {
    const NetId p = pick(rng);
    if (p == victim) continue;
    const std::uint32_t gap = nl.level(p) > nl.level(victim)
                                  ? nl.level(p) - nl.level(victim)
                                  : nl.level(victim) - nl.level(p);
    if (gap > 4) continue;
    if (is_feedback(victim, p)) continue;
    return p;
  }
  return kNoNet;
}

}  // namespace

std::optional<std::vector<Fault>> sample_defect(
    const Netlist& nl, FaultSimulator& fsim, const DefectSampleConfig& cfg,
    std::mt19937_64& rng, std::size_t max_tries) {
  std::uniform_int_distribution<NetId> pick_net(
      0, static_cast<NetId>(nl.n_nets() - 1));
  std::uniform_real_distribution<double> chance(0.0, 1.0);

  std::vector<Fault> multiplet;
  std::vector<bool> po_shared;   // POs reachable from member 1
  std::vector<bool> cone_nets;   // member 1's fan-in + fan-out cone

  auto interacts = [&](NetId site) {
    switch (cfg.interaction) {
      case InteractionLevel::None:
        return true;
      case InteractionLevel::SharedOutputs: {
        for (std::uint32_t po : nl.reachable_outputs(site))
          if (po_shared[po]) return true;
        return false;
      }
      case InteractionLevel::SameCone:
        return static_cast<bool>(cone_nets[site]);
    }
    return true;
  };

  for (std::size_t tries = 0; tries < max_tries; ++tries) {
    if (multiplet.size() == cfg.multiplicity) break;
    const bool first = multiplet.empty();

    Fault f;
    if (chance(rng) < cfg.bridge_fraction) {
      const NetId victim = pick_net(rng);
      const NetId aggressor = pick_bridge_partner(nl, victim, rng);
      if (aggressor == kNoNet) continue;
      f = Fault::bridge_dom(victim, aggressor);
    } else {
      const NetId net = pick_net(rng);
      const bool value = chance(rng) < 0.5;
      if (chance(rng) < cfg.branch_fraction && !nl.fanins(net).empty()) {
        const auto fi = nl.fanins(net);
        const std::uint32_t pin = static_cast<std::uint32_t>(
            std::uniform_int_distribution<std::size_t>(0, fi.size() - 1)(rng));
        if (nl.fanouts(fi[pin]).size() > 1) {
          f = Fault::branch_sa(net, pin, value);
        } else {
          f = Fault::stem_sa(net, value);
        }
      } else {
        f = Fault::stem_sa(net, value);
      }
    }

    // Distinct sites only.
    if (std::find(multiplet.begin(), multiplet.end(), f) != multiplet.end())
      continue;
    bool same_net = false;
    for (const Fault& m : multiplet)
      if (m.net == f.net) same_net = true;
    if (same_net) continue;

    if (!first && !interacts(f.net)) continue;
    if (cfg.require_member_detected && !fsim.detects(f)) continue;

    if (first) {
      if (cfg.interaction == InteractionLevel::SharedOutputs) {
        po_shared.assign(nl.n_outputs(), false);
        for (std::uint32_t po : nl.reachable_outputs(f.net))
          po_shared[po] = true;
      } else if (cfg.interaction == InteractionLevel::SameCone) {
        cone_nets.assign(nl.n_nets(), false);
        for (NetId n : nl.fanin_cone(f.net)) cone_nets[n] = true;
        for (NetId n : nl.fanout_cone(f.net)) cone_nets[n] = true;
        cone_nets[f.net] = false;  // distinct sites enforced separately
      }
    }
    multiplet.push_back(f);
  }
  if (multiplet.size() != cfg.multiplicity) return std::nullopt;
  return multiplet;
}

std::optional<std::vector<Fault>> sample_tdf_defect(
    const Netlist& nl, PairFaultSimulator& fsim,
    const DefectSampleConfig& cfg, std::mt19937_64& rng,
    std::size_t max_tries) {
  std::uniform_int_distribution<NetId> pick_net(
      0, static_cast<NetId>(nl.n_nets() - 1));
  std::uniform_real_distribution<double> chance(0.0, 1.0);

  std::vector<Fault> multiplet;
  for (std::size_t tries = 0; tries < max_tries; ++tries) {
    if (multiplet.size() == cfg.multiplicity) break;
    const NetId net = pick_net(rng);
    Fault f;
    if (chance(rng) < cfg.transition_fraction) {
      f = chance(rng) < 0.5 ? Fault::slow_to_rise(net)
                            : Fault::slow_to_fall(net);
    } else {
      f = Fault::stem_sa(net, chance(rng) < 0.5);
    }
    bool same_net = false;
    for (const Fault& m : multiplet)
      if (m.net == f.net) same_net = true;
    if (same_net) continue;
    if (cfg.require_member_detected && !fsim.detects(f)) continue;
    multiplet.push_back(f);
  }
  if (multiplet.size() != cfg.multiplicity) return std::nullopt;
  return multiplet;
}

void MethodAggregate::add(const TruthEvaluation& ev,
                          const DiagnosisReport& report) {
  ++n_cases;
  sum_hit_rate += ev.hit_rate;
  sum_precision += ev.precision;
  sum_resolution += ev.resolution;
  n_all_hit += ev.all_hit;
  n_first_hit += ev.first_hit;
  n_exact += report.explains_all;
  sum_cpu += report.cpu_seconds;
}

namespace {

/// Decorrelated per-case RNG seed (splitmix64 of seed + case index): each
/// case is an independent stream, which is what makes case-parallel
/// execution bit-identical to the serial loop.
std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Everything one campaign case produces; aggregated in case order.
struct CaseOutcome {
  bool valid = false;
  std::size_t fail_patterns = 0;
  std::size_t fail_bits = 0;
  std::optional<DiagnosisReport> single, slat, multiplet;
  TruthEvaluation single_ev, slat_ev, multiplet_ev;
};

/// Runs the diagnosers on one sampled case (mode-independent tail).
void diagnose_case(DiagnosisContext& ctx, std::span<const Fault> defect,
                   const CollapsedFaults& collapsed,
                   const CampaignConfig& config, CaseOutcome& out) {
  out.fail_patterns = ctx.observed().n_failing_patterns();
  out.fail_bits = ctx.observed().n_error_bits();
  out.valid = true;
  if (config.run_single) {
    out.single = diagnose_single_fault(ctx, config.single);
    out.single_ev = evaluate_against_truth(*out.single, defect, collapsed);
  }
  if (config.run_slat) {
    out.slat = diagnose_slat(ctx, config.slat);
    out.slat_ev = evaluate_against_truth(*out.slat, defect, collapsed);
  }
  if (config.run_multiplet) {
    out.multiplet = diagnose_multiplet(ctx, config.multiplet);
    out.multiplet_ev =
        evaluate_against_truth(*out.multiplet, defect, collapsed);
  }
}

/// Folds per-case outcomes into the aggregate result, in case order.
CampaignResult aggregate(std::span<const CaseOutcome> outcomes) {
  CampaignResult result;
  result.single.method = "single-fault";
  result.slat.method = "slat";
  result.multiplet.method = "multiplet";

  double sum_fail_patterns = 0, sum_fail_bits = 0, sum_slat_fraction = 0;
  std::size_t slat_fraction_cases = 0;

  for (const CaseOutcome& out : outcomes) {
    if (!out.valid) continue;
    sum_fail_patterns += static_cast<double>(out.fail_patterns);
    sum_fail_bits += static_cast<double>(out.fail_bits);
    ++result.n_cases;
    if (out.single) result.single.add(out.single_ev, *out.single);
    if (out.slat) {
      result.slat.add(out.slat_ev, *out.slat);
      const std::size_t total =
          out.slat->n_slat_patterns + out.slat->n_nonslat_patterns;
      if (total > 0) {
        sum_slat_fraction += static_cast<double>(out.slat->n_slat_patterns) /
                             static_cast<double>(total);
        ++slat_fraction_cases;
      }
    }
    if (out.multiplet) result.multiplet.add(out.multiplet_ev, *out.multiplet);
  }

  if (result.n_cases > 0) {
    result.avg_failing_patterns =
        sum_fail_patterns / static_cast<double>(result.n_cases);
    result.avg_failing_bits =
        sum_fail_bits / static_cast<double>(result.n_cases);
  }
  if (slat_fraction_cases > 0)
    result.avg_slat_fraction =
        sum_slat_fraction / static_cast<double>(slat_fraction_cases);
  return result;
}

}  // namespace

CampaignResult run_campaign(const Netlist& netlist, const PatternSet& patterns,
                            const CampaignConfig& config) {
  const CollapsedFaults collapsed(netlist);
  std::vector<CaseOutcome> outcomes(config.n_cases);

  // One simulator per worker, built on its first chunk: sampling
  // (detectability checks) and datalog production need mutable machine
  // scratch, whose history never changes an answer.
  std::vector<std::optional<FaultSimulator>> sims(
      worker_slots(config.exec, config.n_cases));
  parallel_for_ranges(
      config.exec, config.n_cases,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        if (!sims[worker]) sims[worker].emplace(netlist, patterns);
        FaultSimulator& fsim = *sims[worker];
        for (std::size_t c = begin; c < end; ++c) {
          std::mt19937_64 rng(case_seed(config.seed, c));
          const auto defect = sample_defect(netlist, fsim, config.defect, rng);
          if (!defect) continue;
          const Datalog log =
              datalog_from_defect(netlist, *defect, patterns,
                                  fsim.good_response(), config.datalog);
          if (!log.has_failures()) continue;
          DiagnosisContext ctx(netlist, patterns, log, config.candidates);
          diagnose_case(ctx, *defect, collapsed, config, outcomes[c]);
        }
      });

  return aggregate(outcomes);
}

CampaignResult run_tdf_campaign(const Netlist& netlist,
                                const PatternSet& launch,
                                const PatternSet& capture,
                                const CampaignConfig& config) {
  const CollapsedFaults collapsed(netlist);
  std::vector<CaseOutcome> outcomes(config.n_cases);

  std::vector<std::optional<PairFaultSimulator>> sims(
      worker_slots(config.exec, config.n_cases));
  parallel_for_ranges(
      config.exec, config.n_cases,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        if (!sims[worker]) sims[worker].emplace(netlist, launch, capture);
        PairFaultSimulator& fsim = *sims[worker];
        for (std::size_t c = begin; c < end; ++c) {
          std::mt19937_64 rng(case_seed(config.seed, c));
          const auto defect =
              sample_tdf_defect(netlist, fsim, config.defect, rng);
          if (!defect) continue;
          const Datalog log = datalog_from_defect_pair(
              netlist, *defect, launch, capture, fsim.good_response(),
              config.datalog);
          if (!log.has_failures()) continue;
          DiagnosisContext ctx(netlist, launch, capture, log,
                               config.candidates);
          diagnose_case(ctx, *defect, collapsed, config, outcomes[c]);
        }
      });

  return aggregate(outcomes);
}

}  // namespace mdd
