#include "patchsec/service/eval_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace patchsec::service {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* to_string(ReplySource source) noexcept {
  switch (source) {
    case ReplySource::kCache:
      return "cache";
    case ReplySource::kSolve:
      return "solve";
    case ReplySource::kCoalesced:
      return "coalesced";
  }
  return "unknown";
}

EvalService::EvalService(core::Scenario scenario, ServiceOptions options)
    : session_(std::move(scenario)),
      options_(options),
      cache_(options.cache_bytes, options.cache_shards) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  scenario_hash_ = hash_scenario(session_.scenario());
  if (options_.start_workers) start();
}

EvalService::~EvalService() { shutdown(); }

void EvalService::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (started_ || !accepting_) return;
  started_ = true;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void EvalService::shutdown() {
  bool drain_inline = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) return;
    accepting_ = false;
    drain_inline = !started_;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (drain_inline) {
    // Never started: retire every queued job on the calling thread so
    // shutdown still fulfills all waiters (graceful, not abandoning).
    for (;;) {
      std::vector<Job> group;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!claim_group(group)) break;
      }
      run_group(std::move(group));
    }
  }
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) worker.join();
}

std::future<ServiceReply> EvalService::submit(EvalRequest request) {
  double cadence = request.patch_interval_hours;
  if (cadence == 0.0) cadence = session_.scenario().patch_interval_hours();
  request.patch_interval_hours = core::Session::canonical_interval(cadence);
  if (request.kind == RequestKind::kSteady) request.wave.clear();
  const std::uint64_t key = request_key(scenario_hash_, request);

  core::EvalReport cached;
  if (cache_.lookup(key, cached)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // The fast path honors the lifecycle contract too: a hit after
    // shutdown() must throw like any other submit, not quietly serve.
    if (!accepting_) throw std::runtime_error("EvalService: submit after shutdown");
    ++submitted_;
    std::promise<ServiceReply> ready;
    ServiceReply reply;
    reply.report = std::move(cached);
    reply.source = ReplySource::kCache;
    reply.key = key;
    ready.set_value(std::move(reply));
    return ready.get_future();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  ++submitted_;
  for (;;) {
    if (!accepting_) throw std::runtime_error("EvalService: submit after shutdown");
    const auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      // Identical request already queued or solving: piggyback on it.
      it->second.waiters.push_back(Waiter{{}, std::chrono::steady_clock::now()});
      return it->second.waiters.back().promise.get_future();
    }
    if (queue_.size() < options_.queue_capacity) break;
    queue_not_full_.wait(lock);
  }
  Pending& pending = in_flight_[key];
  pending.waiters.push_back(Waiter{{}, std::chrono::steady_clock::now()});
  std::future<ServiceReply> future = pending.waiters.back().promise.get_future();
  queue_.push_back(Job{key, std::move(request)});
  queue_not_empty_.notify_one();
  return future;
}

ServiceReply EvalService::evaluate(EvalRequest request) {
  return submit(std::move(request)).get();
}

ServiceStats EvalService::stats() const {
  ServiceStats stats;
  stats.cache = cache_.stats();
  const std::lock_guard<std::mutex> lock(mutex_);
  stats.submitted = submitted_;
  stats.solves = solves_;
  stats.solved_jobs = solved_jobs_;
  stats.coalesced = coalesced_;
  stats.batches = batches_;
  stats.batched_jobs = batched_jobs_;
  return stats;
}

bool EvalService::claim_group(std::vector<Job>& group) {
  if (queue_.empty()) return false;
  group.reserve(options_.max_batch);
  group.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Copies, not references: push_back below may reallocate `group`.
  const enterprise::RedundancyDesign lead_design = group.front().request.design;
  const double lead_cadence = group.front().request.patch_interval_hours;
  if (group.front().request.kind == RequestKind::kTransient && options_.max_batch > 1) {
    // Same structure = same design counts and cadence (both canonicalized
    // at submit, so exact-bits comparison is the cache-key contract): the
    // whole group shares one CSR pattern / kernel compile and rides one
    // evaluate_transient_batch panel.
    for (auto it = queue_.begin(); it != queue_.end() && group.size() < options_.max_batch;) {
      if (it->request.kind == RequestKind::kTransient && it->request.design == lead_design &&
          it->request.patch_interval_hours == lead_cadence) {
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  queue_not_full_.notify_all();
  return true;
}

void EvalService::worker_loop() {
  for (;;) {
    std::vector<Job> group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_not_empty_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
      if (!claim_group(group)) {
        if (!accepting_) return;
        continue;
      }
    }
    run_group(std::move(group));
  }
}

void EvalService::run_group(std::vector<Job> jobs) {
  const auto claimed = std::chrono::steady_clock::now();
  const Job& lead = jobs.front();
  try {
    if (lead.request.kind == RequestKind::kSteady) {
      core::EvalReport report =
          session_.evaluate(lead.request.design, lead.request.patch_interval_hours);
      const auto solved = std::chrono::steady_clock::now();
      cache_.insert(lead.key, report);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++solves_;
        ++solved_jobs_;
      }
      fulfill(lead.key, std::move(report), 1, claimed, solved);
    } else {
      std::vector<std::map<enterprise::ServerRole, unsigned>> waves;
      waves.reserve(jobs.size());
      for (const Job& job : jobs) waves.push_back(job.request.wave);
      std::vector<core::EvalReport> reports = session_.evaluate_transient_batch(
          lead.request.design, waves, lead.request.patch_interval_hours);
      const auto solved = std::chrono::steady_clock::now();
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++solves_;
        solved_jobs_ += jobs.size();
        if (jobs.size() > 1) {
          ++batches_;
          batched_jobs_ += jobs.size();
        }
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        cache_.insert(jobs[i].key, reports[i]);
        fulfill(jobs[i].key, std::move(reports[i]), jobs.size(), claimed, solved);
      }
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (const Job& job : jobs) {
      Pending pending = take_pending(job.key);
      for (Waiter& waiter : pending.waiters) waiter.promise.set_exception(error);
    }
  }
}

EvalService::Pending EvalService::take_pending(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return {};
  Pending pending = std::move(it->second);
  in_flight_.erase(it);
  if (!pending.waiters.empty()) coalesced_ += pending.waiters.size() - 1;
  return pending;
}

void EvalService::fulfill(std::uint64_t key, core::EvalReport&& report, std::size_t batch_width,
                          std::chrono::steady_clock::time_point claimed,
                          std::chrono::steady_clock::time_point solved) {
  Pending pending = take_pending(key);
  bool first = true;
  for (Waiter& waiter : pending.waiters) {
    ServiceReply reply;
    if (&waiter == &pending.waiters.back()) {
      reply.report = std::move(report);
    } else {
      reply.report = report;
    }
    reply.source = first ? ReplySource::kSolve : ReplySource::kCoalesced;
    reply.key = key;
    // A waiter that joined after the claim waited for no worker.
    const auto joined = std::max(waiter.submitted, claimed);
    reply.queue_wait_seconds = seconds_between(waiter.submitted, joined);
    reply.solve_seconds = seconds_between(joined, solved);
    reply.batch_width = batch_width;
    waiter.promise.set_value(std::move(reply));
    first = false;
  }
}

}  // namespace patchsec::service
