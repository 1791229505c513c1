// openmdd — persistent fault-dictionary store: builder.
//
// `DictWriter` computes the full-window error signature of every fault in
// a caller-chosen universe (site-parallel under an ExecPolicy, with the
// same event-driven propagator the diagnosers use: solo_signatures in
// fsim/propagate.hpp, held to the reference FaultSimulator bit for bit by
// the tests and `openmdd dict verify`) and writes one store file in
// the v1 format of store/format.hpp. The write is atomic: everything goes
// to "<path>.tmp" first and is renamed into place only after a successful
// flush, so a crashed or interrupted build can never leave a readable but
// half-written store behind.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "fault/fault.hpp"
#include "store/format.hpp"

namespace mdd::store {

struct BuildStats {
  std::size_t n_faults = 0;       ///< records written (after dedup)
  std::size_t n_error_bits = 0;   ///< total encoded positions
  std::size_t file_bytes = 0;
  std::size_t payload_bytes = 0;  ///< postings region only
  double simulate_seconds = 0.0;
  double encode_seconds = 0.0;
};

/// The default persisted fault universe: the full uncollapsed stuck-at
/// set (stems + multi-fanout branches — a superset of every collapsed
/// representative and of all stem candidates extraction produces) plus a
/// sampled bridge universe. With the default config the sampled dominant
/// bridges cover exactly the FaultDictionary build (its sampler runs with
/// the same seed); wired pairs ride along for injection replay.
struct StoreUniverseConfig {
  bool include_bridges = true;
  std::size_t bridge_pairs = 256;
  std::uint64_t bridge_seed = 1;
  bool include_wired = true;
};

std::vector<Fault> default_store_universe(
    const Netlist& netlist, const StoreUniverseConfig& config = {});

class DictWriter {
 public:
  /// `patterns` must match the netlist's input count (throws
  /// std::invalid_argument otherwise).
  DictWriter(const Netlist& netlist, const PatternSet& patterns);

  /// Computes `faults` (sorted + deduplicated internally) and writes the
  /// store to `path` atomically. Throws StoreError on I/O failure.
  BuildStats write(const std::string& path, std::span<const Fault> faults,
                   const ExecPolicy& exec = {}) const;

  std::uint64_t netlist_hash() const { return netlist_hash_; }
  std::uint64_t patterns_hash() const { return patterns_hash_; }

 private:
  const Netlist* netlist_;
  const PatternSet* patterns_;
  std::uint64_t netlist_hash_;
  std::uint64_t patterns_hash_;
};

}  // namespace mdd::store
