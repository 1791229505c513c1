#include "store/refresh.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "fsim/propagate.hpp"
#include "obs/metrics.hpp"
#include "store/journal.hpp"
#include "store/reader.hpp"

namespace mdd::store {

namespace {

struct RefreshMetrics {
  obs::Counter& refreshes = obs::registry().counter("store.refreshes");
  obs::Counter& faults_added =
      obs::registry().counter("store.refresh_faults_added");
};

RefreshMetrics& refresh_metrics() {
  static RefreshMetrics m;
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Same tmp+rename protocol as DictWriter::write.
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) throw StoreError("store: cannot create " + tmp);
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), fp) == bytes.size() &&
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
}

struct LockMetrics {
  /// try_acquire calls that found another fold in progress (the caller
  /// skipped its round — the holder will fold those faults instead).
  obs::Counter& busy = obs::registry().counter("store.refresh_lock_busy");
  /// Lock files that could not be created/locked at all — folds proceed
  /// unguarded (fail-open), but the condition is worth alerting on.
  obs::Counter& unavailable =
      obs::registry().counter("store.refresh_lock_unavailable");
};

LockMetrics& lock_metrics() {
  static LockMetrics m;
  return m;
}

}  // namespace

RefreshLock RefreshLock::acquire_impl(const std::string& lock_path,
                                      bool block) {
  const int fd =
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    lock_metrics().unavailable.inc();
    return {};
  }
  int rc;
  do {
    rc = ::flock(fd, LOCK_EX | (block ? 0 : LOCK_NB));
  } while (rc != 0 && errno == EINTR);
  if (rc == 0) return RefreshLock(fd, RefreshLock::State::held);
  ::close(fd);
  if (!block && errno == EWOULDBLOCK) {
    lock_metrics().busy.inc();
    return RefreshLock(-1, RefreshLock::State::busy);
  }
  lock_metrics().unavailable.inc();
  return {};
}

RefreshLock& RefreshLock::operator=(RefreshLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = std::exchange(other.fd_, -1);
    state_ = other.state_;
  }
  return *this;
}

RefreshLock::~RefreshLock() { release(); }

void RefreshLock::release() {
  if (fd_ >= 0) {
    ::close(fd_);  // closing the descriptor drops the flock
    fd_ = -1;
  }
  state_ = State::unavailable;
}

std::string refresh_lock_path_for(const std::string& dir,
                                  const Netlist& netlist,
                                  const PatternSet& patterns) {
  return store_path_for(dir, netlist, patterns) + ".lock";
}

RefreshLock RefreshLock::try_acquire(const std::string& dir,
                                     const Netlist& netlist,
                                     const PatternSet& patterns) {
  return acquire_impl(refresh_lock_path_for(dir, netlist, patterns), false);
}

RefreshLock RefreshLock::acquire(const std::string& dir,
                                 const Netlist& netlist,
                                 const PatternSet& patterns) {
  return acquire_impl(refresh_lock_path_for(dir, netlist, patterns), true);
}

RefreshLock RefreshLock::try_acquire_path(const std::string& lock_path) {
  return acquire_impl(lock_path, false);
}

RefreshLock RefreshLock::acquire_path(const std::string& lock_path) {
  return acquire_impl(lock_path, true);
}

RefreshStats fold_into_store(const Netlist& netlist,
                             const PatternSet& patterns,
                             const std::string& dir,
                             std::span<const Fault> extra,
                             const ExecPolicy& exec) {
  RefreshStats out;
  out.n_offered = extra.size();
  const std::string path = store_path_for(dir, netlist, patterns);

  std::shared_ptr<const DictReader> existing;
  try {
    auto reader = DictReader::open(path);
    reader->validate_for(netlist, patterns);
    existing = std::move(reader);
  } catch (const StoreError&) {
    existing = nullptr;  // absent or unreadable → rebuild below
  }

  std::vector<Fault> fresh(extra.begin(), extra.end());
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::erase_if(fresh, [&](const Fault& f) {
    try {
      validate_fault(f, netlist);
    } catch (const std::invalid_argument&) {
      ++out.n_invalid;
      return true;
    }
    return existing != nullptr && existing->find(f).has_value();
  });
  out.n_new = fresh.size();

  if (existing == nullptr) {
    // No usable store: first build (or recovery from corruption) — the
    // default universe plus everything the workload taught us.
    out.rebuilt = true;
    std::vector<Fault> universe = default_store_universe(netlist);
    universe.insert(universe.end(), fresh.begin(), fresh.end());
    out.build = DictWriter(netlist, patterns).write(path, universe, exec);
    out.wrote = true;
    refresh_metrics().refreshes.inc();
    refresh_metrics().faults_added.inc(out.n_new);
    return out;
  }

  out.n_existing = existing->n_entries();
  if (fresh.empty()) return out;  // nothing to learn: healthy no-op

  const auto t_sim = std::chrono::steady_clock::now();
  const std::vector<ErrorSignature> sigs =
      solo_signatures(netlist, patterns, fresh, exec);
  out.build.simulate_seconds = seconds_since(t_sim);

  // Merge the sorted existing index with the sorted fresh faults into a
  // new body. Posting lists are self-contained (deltas never cross a
  // record), so existing ones are copied verbatim off the mapping.
  const auto t_enc = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> payload;
  std::vector<FaultRecord> records;
  records.reserve(out.n_existing + fresh.size());
  std::size_t i = 0, j = 0;
  while (i < out.n_existing || j < fresh.size()) {
    const bool take_existing =
        j >= fresh.size() ||
        (i < out.n_existing && existing->fault_at(i) < fresh[j]);
    FaultRecord rec;
    rec.offset = payload.size();
    if (take_existing) {
      rec = existing->record_at(i);
      rec.offset = payload.size();
      const auto raw = existing->postings_at(i);
      payload.insert(payload.end(), raw.begin(), raw.end());
      ++i;
    } else {
      rec.fault = fresh[j];
      rec.n_positions = static_cast<std::uint32_t>(
          encode_postings(sigs[j], netlist.n_outputs(), payload));
      rec.n_bytes = static_cast<std::uint32_t>(payload.size() - rec.offset);
      rec.n_failing =
          static_cast<std::uint32_t>(sigs[j].n_failing_patterns());
      ++j;
    }
    out.build.n_error_bits += rec.n_positions;
    records.push_back(rec);
  }

  std::vector<std::uint8_t> body;
  body.reserve(records.size() * kRecordBytes + payload.size());
  for (const FaultRecord& rec : records) append_record(body, rec);
  body.insert(body.end(), payload.begin(), payload.end());

  StoreHeader header;
  header.netlist_hash = existing->header().netlist_hash;
  header.patterns_hash = existing->header().patterns_hash;
  header.n_faults = records.size();
  header.n_patterns = patterns.n_patterns();
  header.n_outputs = netlist.n_outputs();
  header.payload_bytes = payload.size();
  header.content_hash = fnv1a(body.data(), body.size());

  std::vector<std::uint8_t> file;
  file.reserve(kHeaderBytes + body.size());
  append_header(file, header);
  file.insert(file.end(), body.begin(), body.end());
  out.build.encode_seconds = seconds_since(t_enc);
  out.build.n_faults = records.size();
  out.build.payload_bytes = payload.size();
  out.build.file_bytes = file.size();

  // The old mapping stays valid for readers that hold it (rename drops
  // the directory entry, not the inode); the next open serves the merge.
  atomic_write_file(path, file);
  out.wrote = true;
  refresh_metrics().refreshes.inc();
  refresh_metrics().faults_added.inc(out.n_new);
  return out;
}

RefreshStats refresh_store(const Netlist& netlist, const PatternSet& patterns,
                           const std::string& dir, const ExecPolicy& exec) {
  // Wait for any in-flight fold (a daemon worker's refresh thread), THEN
  // read the journal: the snapshot must postdate the holder's compact or
  // its folded faults would be folded twice (harmless) and this fold's
  // store read could predate the holder's rename (the lost update).
  const RefreshLock lock = RefreshLock::acquire(dir, netlist, patterns);
  const std::uint64_t nh = netlist_content_hash(netlist);
  const std::uint64_t ph = patterns_content_hash(patterns);
  const std::string journal_path = journal_path_for(dir, netlist, patterns);
  const JournalContents journal = read_journal(journal_path, nh, ph);
  RefreshStats out =
      fold_into_store(netlist, patterns, dir, journal.faults, exec);
  if (!journal.faults.empty() || journal.n_skipped > 0)
    reset_journal_file(journal_path, nh, ph);
  return out;
}

}  // namespace mdd::store
