// openmdd — initial candidate extraction.
//
// Builds the candidate fault pool the diagnosers score. The traced failing
// patterns are simulated 64 at a time (one block per tracer commit) and
// every failing output is back-traced with critical path tracing; the
// union over all failing (pattern, output) pairs is kept (union, not
// intersection — with multiple defects different patterns expose
// different sites, so intersecting would assume exactly the
// failing-pattern property this library avoids).
//
// Bridge candidates are instantiated on top: for each suspect stem, nearby
// non-feedback partner nets give dominant-bridge candidates with the
// suspect as victim. A structural back-cone fallback covers the corner
// where CPT's classical multi-controlling-input rule under-approximates.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "diag/datalog.hpp"
#include "fault/fault.hpp"
#include "sim/patterns.hpp"

namespace mdd {

/// Cross-case store for critical-path traces. The critical fault set of a
/// failing (pattern, output) pair depends only on (netlist, patterns) —
/// not on which datalog reported the failure — so a long-lived session can
/// cache traces and answer repeated failures by lookup instead of
/// re-tracing. Implementations must be thread-safe and must return exactly
/// what a fresh trace would produce.
class CptTraceStore {
 public:
  virtual ~CptTraceStore() = default;
  /// Cached critical faults for (pattern, output), or null on miss.
  virtual std::shared_ptr<const std::vector<Fault>> lookup(
      std::uint32_t pattern, std::uint32_t po) = 0;
  /// Offers a freshly traced set; the store may decline (full).
  virtual void store(std::uint32_t pattern, std::uint32_t po,
                     std::shared_ptr<const std::vector<Fault>> faults) = 0;
};

struct CandidateOptions {
  bool include_bridges = true;
  /// Bridge partners per suspect net: nearest-by-id nets whose good values
  /// are behaviour-consistent with the aggressor role.
  std::size_t bridge_partners = 16;
  /// Hard cap on the candidate pool (kept by descending CPT support;
  /// stuck-at candidates survive ties against bridges).
  std::size_t max_candidates = 6000;
  /// Failing patterns traced (all if larger; tracing is cheap but bounded
  /// for pathological logs). Static extraction traces one tracer block,
  /// so it clamps this to 64 patterns; pair mode honours larger values.
  std::size_t max_traced_patterns = 64;
  /// Add stem stuck-at candidates for the whole fan-in cone of the failing
  /// outputs when CPT support is thin (< this many candidates).
  std::size_t back_cone_threshold = 2;
  /// Optional cross-case trace cache (non-owning; see CptTraceStore).
  /// Static-test extraction only; the pair-mode variant ignores it.
  CptTraceStore* trace_store = nullptr;
};

struct CandidatePool {
  std::vector<Fault> faults;
  /// Per-fault support: in how many traced (pattern, output) failures the
  /// fault appeared as critical (bridges inherit their victim's support).
  std::vector<std::uint32_t> support;
};

CandidatePool extract_candidates(const Netlist& netlist,
                                 const PatternSet& patterns,
                                 const Datalog& datalog,
                                 const CandidateOptions& options = {});

/// Pair-testing (transition) variant: traces capture-frame failures; every
/// critical stem whose value moved between launch and capture additionally
/// yields a slow-to-rise/slow-to-fall candidate in the observed direction.
/// Bridge candidates are not generated in pair mode.
CandidatePool extract_tdf_candidates(const Netlist& netlist,
                                     const PatternSet& launch,
                                     const PatternSet& capture,
                                     const Datalog& datalog,
                                     const CandidateOptions& options = {});

}  // namespace mdd
