#include "store/writer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "fsim/propagate.hpp"
#include "obs/metrics.hpp"

namespace mdd::store {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::vector<Fault> default_store_universe(const Netlist& netlist,
                                          const StoreUniverseConfig& config) {
  std::vector<Fault> faults = all_stuck_at_faults(netlist);
  if (config.include_bridges) {
    BridgeUniverseConfig bc;
    bc.count = config.bridge_pairs;
    bc.seed = config.bridge_seed;
    bc.include_wired = config.include_wired;
    for (const Fault& f : sample_bridge_faults(netlist, bc))
      faults.push_back(f);
  }
  return faults;
}

DictWriter::DictWriter(const Netlist& netlist, const PatternSet& patterns)
    : netlist_(&netlist),
      patterns_(&patterns),
      netlist_hash_(netlist_content_hash(netlist)),
      patterns_hash_(patterns_content_hash(patterns)) {
  if (patterns.n_signals() != netlist.n_inputs())
    throw std::invalid_argument(
        "DictWriter: pattern width does not match netlist inputs");
}

BuildStats DictWriter::write(const std::string& path,
                             std::span<const Fault> faults,
                             const ExecPolicy& exec) const {
  BuildStats stats;

  std::vector<Fault> sorted(faults.begin(), faults.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  const auto t_sim = std::chrono::steady_clock::now();
  const std::vector<ErrorSignature> signatures =
      solo_signatures(*netlist_, *patterns_, sorted, exec);
  stats.simulate_seconds = seconds_since(t_sim);

  const auto t_enc = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> payload;
  std::vector<FaultRecord> records;
  records.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    FaultRecord rec;
    rec.fault = sorted[i];
    rec.offset = payload.size();
    rec.n_positions = static_cast<std::uint32_t>(
        encode_postings(signatures[i], netlist_->n_outputs(), payload));
    rec.n_bytes = static_cast<std::uint32_t>(payload.size() - rec.offset);
    rec.n_failing =
        static_cast<std::uint32_t>(signatures[i].n_failing_patterns());
    stats.n_error_bits += rec.n_positions;
    records.push_back(rec);
  }

  std::vector<std::uint8_t> body;  // index + postings (the hashed part)
  body.reserve(records.size() * kRecordBytes + payload.size());
  for (const FaultRecord& rec : records) append_record(body, rec);
  body.insert(body.end(), payload.begin(), payload.end());

  StoreHeader header;
  header.netlist_hash = netlist_hash_;
  header.patterns_hash = patterns_hash_;
  header.n_faults = records.size();
  header.n_patterns = patterns_->n_patterns();
  header.n_outputs = netlist_->n_outputs();
  header.payload_bytes = payload.size();
  header.content_hash = fnv1a(body.data(), body.size());

  std::vector<std::uint8_t> file;
  file.reserve(kHeaderBytes + body.size());
  append_header(file, header);
  file.insert(file.end(), body.begin(), body.end());
  stats.encode_seconds = seconds_since(t_enc);

  const std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) throw StoreError("store: cannot create " + tmp);
  const bool written =
      std::fwrite(file.data(), 1, file.size(), fp) == file.size() &&
      std::fflush(fp) == 0;
  const bool closed = std::fclose(fp) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    throw StoreError("store: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StoreError("store: cannot rename " + tmp + " into place");
  }

  stats.n_faults = records.size();
  stats.payload_bytes = payload.size();
  stats.file_bytes = file.size();
  obs::registry().counter("store.builds").inc();
  return stats;
}

}  // namespace mdd::store
