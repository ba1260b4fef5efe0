#pragma once
/// \file eval_service.hpp
/// \brief The evaluation service: a content-hashed result cache in front of
/// a bounded async request queue with a pinned-workspace worker pool.
///
/// Request lifecycle:
///
///  1. submit() resolves the cadence default (0 → the scenario's first
///     cadence, canonicalized through Session::canonical_interval), computes
///     request_key(), and probes the ResultCache.  A hit replies immediately
///     — an already-fulfilled future carrying a copy of the cached report
///     whose verification stages are the cached report's own shared objects
///     (source = kCache, zero queue wait).
///  2. On a miss the key is checked against the in-flight table.  If an
///     identical request is already queued or solving, this waiter is
///     appended to its pending list and NO new job is enqueued — K identical
///     concurrent requests pay exactly one solve and receive K replies
///     (the first waiter's reply is tagged kSolve, joiners kCoalesced).
///  3. Otherwise a job enters the bounded queue (submit() blocks while the
///     queue is full — backpressure, not unbounded growth).
///  4. A worker dequeues the job.  Transient jobs are GROUPED: the worker
///     scans the queue for up to max_batch-1 more jobs with the same
///     structure (same design counts + cadence — hence the same CSR pattern
///     and kernel compile) and different waves, claims them, and solves the
///     whole group through one Session::evaluate_transient_batch (8 waves
///     per kernel panel, so the default 16 is two panels).
///     Steady jobs solve singly through Session::evaluate.
///  5. The worker inserts each result into the cache and fulfills every
///     pending waiter with per-request diagnostics (queue wait, solve time,
///     cache source, panel width).
///
/// Workspace ownership: each worker thread gets its own SolverWorkspaces
/// slot inside the service's Session (Session pins workspaces per
/// (Session, thread) — see session.hpp), so the CSR structure cache and
/// kernel compile warm up per worker and are never thrashed by other
/// Sessions on the same thread.
///
/// Determinism: Session's solvers cold-start their iterates every solve, so
/// a warm workspace yields bit-identical results to a cold one — a cache
/// hit's report is bit-identical to the report the original solve produced.
///
/// Tests construct the service with start_workers = false and call start()
/// after enqueuing, making coalescing and grouping deterministic: every
/// request is in the table before the first worker looks.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "patchsec/core/session.hpp"
#include "patchsec/service/request_hash.hpp"
#include "patchsec/service/result_cache.hpp"

namespace patchsec::service {

struct ServiceOptions {
  std::size_t workers = 1;  ///< worker threads (clamped to >= 1).
  /// Bound on queued (not yet claimed) jobs; submit() blocks when full.
  std::size_t queue_capacity = 1024;
  std::size_t cache_bytes = 64 * 1024 * 1024;  ///< ResultCache budget (0 = coalescing only).
  std::size_t cache_shards = 8;
  /// When false, workers do not run until start() — deterministic tests.
  bool start_workers = true;
  /// Max transient jobs grouped into one evaluate_transient_batch panel.
  std::size_t max_batch = 16;
};

/// Where a reply's report came from.
enum class ReplySource : std::uint8_t {
  kCache,      ///< served from the result cache, no solve ran.
  kSolve,      ///< this request triggered the solve.
  kCoalesced,  ///< piggybacked on an identical in-flight request's solve.
};

[[nodiscard]] const char* to_string(ReplySource source) noexcept;

/// One fulfilled request: the report plus per-request diagnostics.
struct ServiceReply {
  core::EvalReport report;
  ReplySource source = ReplySource::kSolve;
  std::uint64_t key = 0;              ///< the request's cache key.
  /// submit → worker claim, and the solve from there; a request that
  /// coalesced after the claim waited 0 and solved from its submit, so the
  /// two sum to submit → reply (both 0 for kCache).
  double queue_wait_seconds = 0.0;
  double solve_seconds = 0.0;
  std::size_t batch_width = 1;        ///< panel width the solve rode in.
};

/// Service-level counters (cache counters ride along from ResultCache).
struct ServiceStats {
  CacheStats cache;
  std::uint64_t submitted = 0;    ///< total submit() calls.
  std::uint64_t solves = 0;       ///< Session solve calls (a panel counts once).
  std::uint64_t solved_jobs = 0;  ///< jobs those solves retired.
  std::uint64_t coalesced = 0;    ///< waiters that piggybacked on a solve.
  std::uint64_t batches = 0;      ///< panels of width > 1.
  std::uint64_t batched_jobs = 0; ///< jobs that rode a width > 1 panel.
};

class EvalService {
 public:
  /// Validates and binds the scenario (hash computed once, Session owns a
  /// copy) and, unless options.start_workers is false, starts the pool.
  explicit EvalService(core::Scenario scenario, ServiceOptions options = {});
  /// Graceful shutdown: drains the queue, then joins the workers.
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Start the worker pool (idempotent; no-op after shutdown).
  void start();

  /// Stop accepting, drain every queued job, fulfill every waiter, join the
  /// pool.  Idempotent.  submit() after shutdown throws.
  void shutdown();

  /// Enqueue one request; the future resolves to the reply (or rethrows the
  /// solve's exception).  Blocks while the queue is full.
  [[nodiscard]] std::future<ServiceReply> submit(EvalRequest request);

  /// submit + get: the synchronous convenience path.
  [[nodiscard]] ServiceReply evaluate(EvalRequest request);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const core::Session& session() const noexcept { return session_; }
  [[nodiscard]] std::uint64_t scenario_hash() const noexcept { return scenario_hash_; }

 private:
  struct Waiter {
    std::promise<ServiceReply> promise;
    std::chrono::steady_clock::time_point submitted;
  };
  /// All waiters of one in-flight key (the first triggered the job).
  struct Pending {
    std::vector<Waiter> waiters;
  };
  struct Job {
    std::uint64_t key = 0;
    EvalRequest request;
  };

  void worker_loop();
  /// Pop the next job and greedily claim its same-structure transient
  /// companions (callers hold mutex_).  False when the queue is empty.
  bool claim_group(std::vector<Job>& group);
  /// Solve `jobs` (1 steady job, or a same-structure transient group) and
  /// fulfill their waiters.  Never throws: solve exceptions propagate
  /// through the waiters' promises.
  void run_group(std::vector<Job> jobs);
  /// Remove and return the waiters of `key` (counts coalesced joiners).
  Pending take_pending(std::uint64_t key);
  /// Reply to every waiter of `key`: the last one takes `report` itself,
  /// the others a copy sharing its verification stages.  A worker claimed
  /// the job at `claimed` and finished solving at `solved`.
  void fulfill(std::uint64_t key, core::EvalReport&& report, std::size_t batch_width,
               std::chrono::steady_clock::time_point claimed,
               std::chrono::steady_clock::time_point solved);

  core::Session session_;
  std::uint64_t scenario_hash_ = 0;
  ServiceOptions options_;
  ResultCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::deque<Job> queue_;
  std::unordered_map<std::uint64_t, Pending> in_flight_;
  bool accepting_ = true;
  bool started_ = false;
  std::vector<std::thread> workers_;

  // Counters (guarded by mutex_).
  std::uint64_t submitted_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t solved_jobs_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_jobs_ = 0;
};

}  // namespace patchsec::service
