#include "patchsec/service/result_cache.hpp"

namespace patchsec::service {

namespace {

// Rough per-node allocator overhead of std::map / std::unordered_map entries
// (two pointers of bookkeeping plus malloc rounding) — the footprint is an
// eviction heuristic, not an audit, so a fixed estimate is fine.
constexpr std::size_t kNodeOverhead = 48;

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t string_bytes(const std::string& s) noexcept {
  // Small strings live inline in the struct already counted by sizeof.
  return s.size() > sizeof(std::string) ? s.size() : 0;
}

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) noexcept {
  return v.size() * sizeof(T);
}

std::size_t semiflow_bytes(const std::vector<std::vector<long long>>& flows) noexcept {
  std::size_t bytes = flows.size() * sizeof(std::vector<long long>);
  for (const std::vector<long long>& f : flows) bytes += vector_bytes(f);
  return bytes;
}

}  // namespace

ResultCache::ResultCache(std::size_t byte_budget, std::size_t shards) {
  const std::size_t count = round_up_pow2(shards == 0 ? 1 : shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_budget_ = byte_budget / count;
}

bool ResultCache::lookup(std::uint64_t key, core::EvalReport& out) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // promote to MRU
  out = it->second->report;
  ++shard.hits;
  return true;
}

void ResultCache::insert(std::uint64_t key, const core::EvalReport& report) {
  const std::size_t footprint = report_footprint(report);
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (footprint > shard_budget_) {
    ++shard.rejected;
    return;
  }
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh in place (a coalesced solve can race a plain insert).
    shard.bytes -= it->second->footprint;
    it->second->report = report;
    it->second->footprint = footprint;
    shard.bytes += footprint;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, report, footprint});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += footprint;
  ++shard.insertions;
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.footprint;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats ResultCache::stats() const {
  CacheStats total;
  total.byte_budget = shard_budget_ * shards_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.rejected += shard->rejected;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

std::size_t ResultCache::report_footprint(const core::EvalReport& report) {
  std::size_t bytes = sizeof(core::EvalReport);
  bytes += vector_bytes(report.transient.time_points_hours);
  bytes += vector_bytes(report.transient.coa);
  bytes += string_bytes(report.transient_diagnostics.kernel);
  bytes += report.aggregation_diagnostics.size() *
           (sizeof(std::pair<enterprise::ServerRole, petri::SolveDiagnostics>) + kNodeOverhead);
  // Each stage is charged as if this entry owned its VerifyReport, though the
  // reports are shared: an upper bound, so sharing never changes eviction.
  for (const core::StageVerification& stage : report.verification) {
    bytes += sizeof(std::string) + sizeof(petri::VerifyReport);
    bytes += string_bytes(stage.stage);
    bytes += semiflow_bytes(stage.report->certificates.p_semiflows);
    bytes += semiflow_bytes(stage.report->certificates.t_semiflows);
    bytes += vector_bytes(stage.report->certificates.place_bound);
    for (const petri::VerifyFinding& finding : stage.report->findings) {
      bytes += sizeof(petri::VerifyFinding);
      bytes += string_bytes(finding.rule) + string_bytes(finding.subject) +
               string_bytes(finding.message);
    }
  }
  return bytes;
}

}  // namespace patchsec::service
