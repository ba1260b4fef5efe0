#pragma once
/// \file result_cache.hpp
/// \brief Sharded LRU cache from 64-bit request keys to EvalReports.
///
/// The service's hot path is "same key, again": duplicate-heavy request
/// streams (design sweeps, GNEP best-response iterations) re-ask for a few
/// hundred distinct (design, cadence) points thousands of times.  The cache
/// stores complete EvalReports — diagnostics and all — so a hit is a copy,
/// never a re-solve, and the reply is bit-identical to the report the first
/// solve produced (asserted by the `service` test label and in-bench).  A hit
/// copies the verification stages' shared VerifyReport pointers, not bases.
///
/// Eviction is byte-budgeted, not entry-counted: transient reports carry
/// O(grid) curve payloads and verification reports carry semiflow bases, so
/// entries differ in size by orders of magnitude.  report_footprint()
/// estimates the heap span of one report (struct size plus every dynamic
/// container's elements); each shard evicts from its LRU tail until it is
/// back under budget.  A report larger than a whole shard's budget is not
/// cached at all (counted in `rejected`) — with byte_budget = 0 this
/// degrades to "coalescing only", which the coalescing tests exploit.
///
/// Sharding: the key's low bits pick the shard (keys are splitmix64-
/// avalanched, so the low bits are uniform) and each shard has its own
/// mutex, list and map — concurrent lookups on different shards never
/// contend.  Counters are per-shard and summed on stats().

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "patchsec/core/session.hpp"

namespace patchsec::service {

/// Aggregate cache counters (summed over shards; a snapshot, not a
/// transaction — concurrent mutation may skew totals by in-flight ops).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;   ///< entries dropped to re-enter budget.
  std::uint64_t rejected = 0;    ///< inserts skipped (footprint > shard budget).
  std::size_t entries = 0;       ///< live entries right now.
  std::size_t bytes = 0;         ///< estimated live footprint right now.
  std::size_t byte_budget = 0;   ///< configured total budget.

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ResultCache {
 public:
  /// \param byte_budget total estimated-footprint budget across all shards
  ///   (0 disables storage: every insert is rejected, every lookup misses).
  /// \param shards shard count, clamped to >= 1 (8 suits a small worker pool;
  ///   keys are avalanche-mixed so low-bit selection balances).
  explicit ResultCache(std::size_t byte_budget, std::size_t shards = 8);

  /// Copy the cached report for `key` into `out` and promote it to MRU.
  /// Returns false (and leaves `out` untouched) on a miss.
  bool lookup(std::uint64_t key, core::EvalReport& out);

  /// Insert (or refresh) the report under `key`, then evict LRU entries
  /// until the shard is back under its budget share.
  void insert(std::uint64_t key, const core::EvalReport& report);

  [[nodiscard]] CacheStats stats() const;

  /// Estimated heap footprint of one report in bytes: sizeof(EvalReport)
  /// plus every dynamically sized member (curve vectors, diagnostics map
  /// nodes, verification certificates/findings, strings) — an upper bound,
  /// as each verification stage is charged in full although it is shared.
  [[nodiscard]] static std::size_t report_footprint(const core::EvalReport& report);

 private:
  struct Entry {
    std::uint64_t key = 0;
    core::EvalReport report;
    std::size_t footprint = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used.
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    return *shards_[key & (shards_.size() - 1)];
  }

  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace patchsec::service
