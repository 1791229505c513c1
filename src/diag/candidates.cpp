#include "diag/candidates.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "fsim/cpt.hpp"

namespace mdd {

namespace {

/// Indices (into the failing-pattern list) to trace: all of them when they
/// fit the budget, otherwise an even spread across the whole list — with
/// multiple defects, different regions of the failing list expose
/// different sites, so tracing only a prefix loses candidates.
std::vector<std::size_t> spread_indices(std::size_t n_failing,
                                        std::size_t budget) {
  std::vector<std::size_t> indices;
  if (n_failing <= budget) {
    for (std::size_t i = 0; i < n_failing; ++i) indices.push_back(i);
    return indices;
  }
  for (std::size_t k = 0; k < budget; ++k)
    indices.push_back(k * n_failing / budget);
  return indices;
}

}  // namespace

CandidatePool extract_candidates(const Netlist& netlist,
                                 const PatternSet& patterns,
                                 const Datalog& datalog,
                                 const CandidateOptions& options) {
  std::unordered_map<Fault, std::uint32_t, FaultHash> support;
  CriticalPathTracer cpt(netlist);

  // The traced failing patterns form one block: slot k is trace_at[k].
  // cpt.good(n) then holds net n's good value under every traced pattern
  // (bit k), which the bridge-partner scan below reads.
  const ErrorSignature& obs = datalog.observed;
  const std::vector<std::size_t> trace_at = spread_indices(
      obs.n_failing_patterns(),
      std::min(options.max_traced_patterns,
               CriticalPathTracer::kBlockPatterns));
  std::vector<std::uint32_t> block;
  for (std::size_t i : trace_at) block.push_back(obs.failing_patterns()[i]);
  cpt.commit(patterns, block);

  // Victim support per net: on which traced patterns was the stem critical
  // (its flip explains at least one failing output)?
  std::vector<Word> victim_on(netlist.n_nets(), kAllZero);

  for (std::size_t k = 0; k < trace_at.size(); ++k) {
    const std::size_t i = trace_at[k];
    const std::uint32_t p = block[k];
    for (std::uint32_t po : obs.failing_outputs(i)) {
      // The critical set of (pattern, output) is datalog-independent, so a
      // session-level store can replace the trace with a lookup (and the
      // tracer flips stems lazily, so a hit costs no flip).
      std::shared_ptr<const std::vector<Fault>> crit;
      if (options.trace_store != nullptr)
        crit = options.trace_store->lookup(p, po);
      if (crit == nullptr) {
        crit = std::make_shared<const std::vector<Fault>>(
            cpt.critical_faults(k, po));
        if (options.trace_store != nullptr)
          options.trace_store->store(p, po, crit);
      }
      for (const Fault& f : *crit) {
        ++support[f];
        if (f.is_stuck_at() && f.pin == kStemPin)
          victim_on[f.net] |= Word{1} << k;
      }
    }
  }

  // Thin support (e.g. CPT under-approximation or heavy truncation): fall
  // back to stem faults over the union fan-in cone of the failing outputs.
  if (support.size() < options.back_cone_threshold &&
      obs.n_failing_patterns() > 0) {
    std::vector<NetId> roots;
    for (std::size_t i = 0; i < obs.n_failing_patterns(); ++i)
      for (std::uint32_t po : obs.failing_outputs(i))
        roots.push_back(netlist.outputs()[po]);
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    for (NetId n : netlist.fanin_cone(roots)) {
      ++support[Fault::stem_sa(n, false)];
      ++support[Fault::stem_sa(n, true)];
    }
  }

  // Bridge candidates. A dominant bridge shows up in CPT as its *victim*
  // stem being critical with the faulty value equal to the aggressor's good
  // value; the aggressor is therefore any net whose good value is the
  // victim's complement on every traced pattern where the victim was
  // implicated. Those behaviour-consistent partners (nearest by net id as a
  // layout proxy) become candidates.
  if (options.include_bridges) {
    FeedbackChecker is_feedback(netlist);
    std::vector<std::pair<NetId, std::uint32_t>> stems;
    for (const auto& [f, s] : support)
      if (f.is_stuck_at() && f.pin == kStemPin) stems.emplace_back(f.net, s);
    for (const auto& [victim, s] : stems) {
      const Word active = victim_on[victim];
      if (active == kAllZero) continue;
      const Word victim_vals = cpt.good(victim);
      const int n_active = std::popcount(active);

      // Two consistency tiers, scanned in id-proximity order over the
      // whole netlist:
      //   tier 1 — opposite value on *every* traced pattern where the
      //            victim was implicated (what a real lone aggressor does);
      //   tier 2 — opposite on a majority (tolerates pollution of the
      //            victim's active set by other defects' failures).
      // Tier-1 partners get the cap to themselves first, so near-victim
      // majority-consistent noise cannot crowd out the true aggressor.
      // The majority count is only taken while tier 2 has room.
      std::vector<NetId> tier1, tier2;
      for (std::uint32_t delta = 1;
           delta < netlist.n_nets() && tier1.size() < options.bridge_partners;
           ++delta) {
        for (int sign : {-1, 1}) {
          const std::int64_t cand = static_cast<std::int64_t>(victim) +
                                    sign * static_cast<std::int64_t>(delta);
          if (cand < 0 || cand >= static_cast<std::int64_t>(netlist.n_nets()))
            continue;
          const NetId a = static_cast<NetId>(cand);
          const Word opposite = (cpt.good(a) ^ victim_vals) & active;
          if (opposite == active) {
            tier1.push_back(a);
          } else if (tier2.size() < options.bridge_partners &&
                     2 * std::popcount(opposite) >= n_active + 1) {
            tier2.push_back(a);
          }
        }
      }
      std::size_t added = 0;
      for (const std::vector<NetId>& tier : {tier1, tier2}) {
        for (NetId a : tier) {
          if (added >= options.bridge_partners) break;
          if (is_feedback(victim, a)) continue;
          const Fault br = Fault::bridge_dom(victim, a);
          if (support.emplace(br, s).second) ++added;
        }
        // Tier 2 only fills what tier 1 left open, and only half of it —
        // majority-consistent partners are speculative.
        if (added * 2 >= options.bridge_partners) break;
      }
    }
  }

  // Rank by support (desc); on ties stuck-at candidates come before
  // bridges (bridges inherit their victim's support, and must not crowd
  // independently-traced stuck-at sites out of a capped pool); then fault
  // order for determinism.
  std::vector<std::pair<Fault, std::uint32_t>> ranked(support.begin(),
                                                      support.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    if (a.first.is_bridge() != b.first.is_bridge())
      return !a.first.is_bridge();
    return a.first < b.first;
  });
  if (ranked.size() > options.max_candidates)
    ranked.resize(options.max_candidates);

  CandidatePool pool;
  pool.faults.reserve(ranked.size());
  pool.support.reserve(ranked.size());
  for (auto& [f, s] : ranked) {
    pool.faults.push_back(f);
    pool.support.push_back(s);
  }
  return pool;
}

CandidatePool extract_tdf_candidates(const Netlist& netlist,
                                     const PatternSet& launch,
                                     const PatternSet& capture,
                                     const Datalog& datalog,
                                     const CandidateOptions& options) {
  std::unordered_map<Fault, std::uint32_t, FaultHash> support;
  CriticalPathTracer cpt(netlist);  // capture frame
  BlockSim launch_sim(netlist, scalar_kernel());

  // Traced capture patterns go through the tracer in blocks of 64; the
  // launch frame of the same block is one more good simulation.
  const ErrorSignature& obs = datalog.observed;
  const std::vector<std::size_t> trace_at =
      spread_indices(obs.n_failing_patterns(), options.max_traced_patterns);
  std::vector<std::uint32_t> block;
  for (std::size_t b = 0; b < trace_at.size();
       b += CriticalPathTracer::kBlockPatterns) {
    const std::size_t e =
        std::min(trace_at.size(), b + CriticalPathTracer::kBlockPatterns);
    block.clear();
    for (std::size_t k = b; k < e; ++k)
      block.push_back(obs.failing_patterns()[trace_at[k]]);
    cpt.commit(capture, block);
    launch_sim.run(launch.gather(block));
    for (std::size_t k = 0; k < block.size(); ++k) {
      for (std::uint32_t po : obs.failing_outputs(trace_at[b + k])) {
        for (const Fault& f : cpt.critical_faults(k, po)) {
          ++support[f];
          if (f.pin != kStemPin) continue;
          // A critical stem held at its launch value explains the flip iff
          // the launch value is the complement of the good capture value —
          // i.e. the stem moved in the direction the transition fault
          // slows.
          const bool v2 = (cpt.good(f.net) >> k) & 1u;
          const bool v1 = (launch_sim.value(f.net) >> k) & 1u;
          if (v1 != v2) {
            ++support[v2 ? Fault::slow_to_rise(f.net)
                         : Fault::slow_to_fall(f.net)];
          }
        }
      }
    }
  }

  std::vector<std::pair<Fault, std::uint32_t>> ranked(support.begin(),
                                                      support.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > options.max_candidates)
    ranked.resize(options.max_candidates);

  CandidatePool pool;
  pool.faults.reserve(ranked.size());
  pool.support.reserve(ranked.size());
  for (auto& [f, s] : ranked) {
    pool.faults.push_back(f);
    pool.support.push_back(s);
  }
  return pool;
}

}  // namespace mdd
