// The evaluation service layer (src/service): canonical request hashing,
// the sharded byte-budgeted LRU result cache, in-flight coalescing, the
// same-structure transient grouping, and end-to-end determinism of the
// worker pool — cached replies must be bit-identical to fresh solves.
//
// The concurrency suites run under BOTH sanitizer jobs (label `service` is
// in the ASan and TSan ctest filters), so every lock-ordering or lifetime
// mistake in the queue/coalescing path is caught here, not in production.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/scenario.hpp"
#include "patchsec/petri/verify.hpp"
#include "patchsec/service/eval_service.hpp"
#include "patchsec/service/request_hash.hpp"
#include "patchsec/service/result_cache.hpp"

namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace svc = patchsec::service;

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise payload equality (metrics + curve; wall-time diagnostics differ
/// by nature and are excluded).
bool payload_bit_identical(const core::EvalReport& a, const core::EvalReport& b) {
  if (!(a.design == b.design) || !same_bits(a.coa, b.coa) ||
      !same_bits(a.patch_interval_hours, b.patch_interval_hours)) {
    return false;
  }
  if (!same_bits(a.before_patch.attack_success_probability,
                 b.before_patch.attack_success_probability) ||
      !same_bits(a.after_patch.attack_success_probability,
                 b.after_patch.attack_success_probability)) {
    return false;
  }
  if (a.transient.coa.size() != b.transient.coa.size()) return false;
  for (std::size_t j = 0; j < a.transient.coa.size(); ++j) {
    if (!same_bits(a.transient.coa[j], b.transient.coa[j])) return false;
  }
  return same_bits(a.transient.accumulated_coa_hours, b.transient.accumulated_coa_hours);
}

/// Stage-by-stage equality of two reports' static verification: names,
/// certificates and findings (rule, severity, subject, message, order).
bool same_verification(const std::vector<core::StageVerification>& a,
                       const std::vector<core::StageVerification>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    const patchsec::petri::VerifyCertificates& ca = a[s].report->certificates;
    const patchsec::petri::VerifyCertificates& cb = b[s].report->certificates;
    if (a[s].stage != b[s].stage || ca.p_semiflows != cb.p_semiflows ||
        ca.t_semiflows != cb.t_semiflows || ca.place_bound != cb.place_bound ||
        ca.structurally_bounded != cb.structurally_bounded ||
        ca.token_conserving != cb.token_conserving ||
        ca.p_semiflows_complete != cb.p_semiflows_complete ||
        ca.t_semiflows_complete != cb.t_semiflows_complete) {
      return false;
    }
    const auto& fa = a[s].report->findings;
    const auto& fb = b[s].report->findings;
    if (fa.size() != fb.size()) return false;
    for (std::size_t f = 0; f < fa.size(); ++f) {
      if (fa[f].rule != fb[f].rule || fa[f].severity != fb[f].severity ||
          fa[f].subject != fb[f].subject || fa[f].message != fb[f].message) {
        return false;
      }
    }
  }
  return true;
}

svc::EvalRequest steady_request(const ent::RedundancyDesign& design, double cadence = 0.0) {
  svc::EvalRequest request;
  request.design = design;
  request.patch_interval_hours = cadence;
  return request;
}

}  // namespace

// ---------- request hashing -------------------------------------------------

TEST(RequestHash, ScenarioHashIsDeterministicAcrossValueEqualCopies) {
  const core::Scenario a = core::Scenario::paper_case_study();
  const core::Scenario b = core::Scenario::paper_case_study();
  EXPECT_EQ(svc::hash_scenario(a), svc::hash_scenario(b));
  EXPECT_EQ(svc::hash_engine_options(a.engine()), svc::hash_engine_options(b.engine()));
}

TEST(RequestHash, ResultAffectingKnobsChangeTheHash) {
  const core::Scenario base = core::Scenario::paper_case_study();
  const std::uint64_t reference = svc::hash_scenario(base);

  core::EngineOptions engine = base.engine();
  engine.steady_state.tolerance = 1e-8;
  EXPECT_NE(svc::hash_scenario(core::Scenario(base).with_engine(engine)), reference);

  engine = base.engine();
  engine.lumping = true;
  EXPECT_NE(svc::hash_scenario(core::Scenario(base).with_engine(engine)), reference);


  // A schedule change and a spec change both reach the hash.
  EXPECT_NE(svc::hash_scenario(core::Scenario(base).with_patch_interval(168.0)), reference);
  core::Scenario respecced = base;
  auto specs = respecced.specs();
  specs.at(ent::ServerRole::kWeb).times.hw_mtbf *= 2.0;
  respecced.with_specs(std::move(specs));
  EXPECT_NE(svc::hash_scenario(respecced), reference);
}

TEST(RequestHash, SchedulingOnlyKnobsDoNotChangeTheHash) {
  // Each exclusion is result-invariant by a contract proven elsewhere
  // (request_hash.hpp lists the proofs); the hash must NOT split cache
  // entries over them or a duplicate-heavy mixed-client load loses its hits.
  const core::Scenario base = core::Scenario::paper_case_study();
  const std::uint64_t reference = svc::hash_scenario(base);

  core::EngineOptions engine = base.engine();
  engine.parallel = true;
  engine.threads = 8;
  EXPECT_EQ(svc::hash_scenario(core::Scenario(base).with_engine(engine)), reference);
}

TEST(RequestHash, UniformizationKeysOnlyTheFlatTransientEngine) {
  // Only the flat transient engine reads EngineOptions::
  // uniformization.  Lumped scenarios that differ only in epsilon share a
  // key and reply with the same bytes; flat ones still differ.
  core::EngineOptions tight;
  tight.time_points = {0.0, 1.0, 24.0};
  core::EngineOptions loose = tight;
  loose.uniformization.epsilon = 1e-8;
  const core::Scenario base = core::Scenario::paper_case_study();
  EXPECT_NE(svc::hash_scenario(core::Scenario(base).with_engine(tight)),
            svc::hash_scenario(core::Scenario(base).with_engine(loose)));

  tight.lumping = loose.lumping = true;
  const core::Scenario lumped_tight = core::Scenario(base).with_engine(tight);
  const core::Scenario lumped_loose = core::Scenario(base).with_engine(loose);
  EXPECT_EQ(svc::hash_scenario(lumped_tight), svc::hash_scenario(lumped_loose));
  svc::EvalRequest request = steady_request(ent::example_network_design());
  request.kind = svc::RequestKind::kTransient;
  request.wave.emplace(ent::ServerRole::kWeb, 1u);
  svc::EvalService tight_service(lumped_tight, {});
  svc::EvalService loose_service(lumped_loose, {});
  const svc::ServiceReply a = tight_service.evaluate(request);
  const svc::ServiceReply b = loose_service.evaluate(request);
  EXPECT_EQ(a.key, b.key);
  EXPECT_TRUE(payload_bit_identical(a.report, b.report));
  EXPECT_TRUE(same_verification(a.report.verification, b.report.verification));
}

TEST(RequestHash, NegativeZeroCanonicalizesAndNanThrows) {
  svc::HashStream plus;
  plus.f64(0.0);
  svc::HashStream minus;
  minus.f64(-0.0);
  EXPECT_EQ(plus.digest(), minus.digest());
  svc::HashStream nan_stream;
  EXPECT_THROW(nan_stream.f64(std::nan("")), std::invalid_argument);
}

TEST(RequestHash, RequestKeySeparatesKindDesignCadenceAndWave) {
  const std::uint64_t scenario_hash =
      svc::hash_scenario(core::Scenario::paper_case_study());
  svc::EvalRequest request = steady_request(ent::example_network_design(), 720.0);
  const std::uint64_t reference = svc::request_key(scenario_hash, request);

  svc::EvalRequest other = request;
  other.design.counts[1] += 1;
  EXPECT_NE(svc::request_key(scenario_hash, other), reference);

  other = request;
  other.patch_interval_hours = 168.0;
  EXPECT_NE(svc::request_key(scenario_hash, other), reference);

  other = request;
  other.kind = svc::RequestKind::kTransient;
  EXPECT_NE(svc::request_key(scenario_hash, other), reference);

  // The wave distinguishes transient requests but is excluded for steady.
  svc::EvalRequest transient = request;
  transient.kind = svc::RequestKind::kTransient;
  svc::EvalRequest waved = transient;
  waved.wave.emplace(ent::ServerRole::kWeb, 1u);
  EXPECT_NE(svc::request_key(scenario_hash, waved), svc::request_key(scenario_hash, transient));
  svc::EvalRequest steady_waved = request;
  steady_waved.wave.emplace(ent::ServerRole::kWeb, 1u);
  EXPECT_EQ(svc::request_key(scenario_hash, steady_waved), reference);
}

TEST(RequestHash, RequestKeyRequiresAResolvedCadence) {
  const std::uint64_t scenario_hash =
      svc::hash_scenario(core::Scenario::paper_case_study());
  EXPECT_THROW((void)svc::request_key(scenario_hash,
                                      steady_request(ent::example_network_design(), 0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)svc::request_key(scenario_hash,
                                      steady_request(ent::example_network_design(), -720.0)),
               std::invalid_argument);
}

// ---------- result cache ----------------------------------------------------

namespace {

/// One real report to populate cache entries with (footprints are equal for
/// copies, which makes byte-budget arithmetic exact).
const core::EvalReport& seed_report() {
  static const core::EvalReport report = [] {
    const core::Session session(core::Scenario::paper_case_study());
    return session.evaluate(ent::example_network_design());
  }();
  return report;
}

}  // namespace

TEST(ResultCache, EvictsLeastRecentlyUsedUnderBytePressure) {
  const std::size_t footprint = svc::ResultCache::report_footprint(seed_report());
  ASSERT_GT(footprint, 0u);
  // Budget for three entries (single shard so the arithmetic is exact).
  svc::ResultCache cache(3 * footprint + footprint / 2, 1);
  for (std::uint64_t key = 1; key <= 4; ++key) cache.insert(key, seed_report());

  const svc::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, stats.byte_budget);

  core::EvalReport out;
  EXPECT_FALSE(cache.lookup(1, out));  // the oldest entry was the victim
  EXPECT_TRUE(cache.lookup(2, out));
  EXPECT_TRUE(cache.lookup(3, out));
  EXPECT_TRUE(cache.lookup(4, out));
  EXPECT_TRUE(payload_bit_identical(out, seed_report()));
}

TEST(ResultCache, LookupPromotesToMostRecentlyUsed) {
  const std::size_t footprint = svc::ResultCache::report_footprint(seed_report());
  svc::ResultCache cache(2 * footprint + footprint / 2, 1);
  cache.insert(1, seed_report());
  cache.insert(2, seed_report());
  core::EvalReport out;
  ASSERT_TRUE(cache.lookup(1, out));  // promote 1; 2 becomes the LRU tail
  cache.insert(3, seed_report());
  EXPECT_TRUE(cache.lookup(1, out));
  EXPECT_FALSE(cache.lookup(2, out));
  EXPECT_TRUE(cache.lookup(3, out));
}

TEST(ResultCache, ZeroBudgetRejectsEveryInsert) {
  svc::ResultCache cache(0, 4);
  cache.insert(1, seed_report());
  core::EvalReport out;
  EXPECT_FALSE(cache.lookup(1, out));
  const svc::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.insertions, 0u);
}

// ---------- the service -----------------------------------------------------

TEST(EvalService, CachedReplyIsBitIdenticalToTheFreshSolve) {
  svc::EvalService service(core::Scenario::paper_case_study(), {});
  const svc::ServiceReply first = service.evaluate(steady_request(ent::example_network_design()));
  const svc::ServiceReply second =
      service.evaluate(steady_request(ent::example_network_design()));
  EXPECT_EQ(first.source, svc::ReplySource::kSolve);
  EXPECT_EQ(second.source, svc::ReplySource::kCache);
  EXPECT_EQ(first.key, second.key);
  EXPECT_TRUE(payload_bit_identical(first.report, second.report));

  // And bit-identical to an untouched Session's solve of the same request —
  // the warm-workspace reuse contract (solvers cold-start their iterates).
  const core::Session solo(core::Scenario::paper_case_study());
  EXPECT_TRUE(payload_bit_identical(second.report, solo.evaluate(ent::example_network_design())));
  // A default-cadence request and the explicit scenario cadence share a key.
  const svc::ServiceReply explicit_cadence =
      service.evaluate(steady_request(ent::example_network_design(), 720.0));
  EXPECT_EQ(explicit_cadence.source, svc::ReplySource::kCache);
  EXPECT_EQ(explicit_cadence.key, first.key);

  // One cold solve, then two hits: the cache counters say so exactly.
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_DOUBLE_EQ(stats.cache.hit_rate(), 2.0 / 3.0);
}

TEST(EvalService, CoalescesIdenticalConcurrentRequestsIntoOneSolve) {
  constexpr std::size_t kWaiters = 6;
  svc::ServiceOptions options;
  options.workers = 2;
  options.cache_bytes = 0;       // storage off: coalescing alone must carry this
  options.start_workers = false;  // everything enqueued before a worker looks
  svc::EvalService service(core::Scenario::paper_case_study(), options);

  std::vector<std::future<svc::ServiceReply>> futures;
  for (std::size_t i = 0; i < kWaiters; ++i) {
    futures.push_back(service.submit(steady_request(ent::example_network_design())));
  }
  service.start();

  std::size_t solve_replies = 0;
  std::size_t coalesced_replies = 0;
  std::vector<svc::ServiceReply> replies;
  for (std::future<svc::ServiceReply>& future : futures) replies.push_back(future.get());
  for (const svc::ServiceReply& reply : replies) {
    solve_replies += reply.source == svc::ReplySource::kSolve ? 1 : 0;
    coalesced_replies += reply.source == svc::ReplySource::kCoalesced ? 1 : 0;
    // The last waiter takes the solved report itself, the others copies:
    // every reply must carry the same payload and verification stages.
    EXPECT_TRUE(payload_bit_identical(reply.report, replies.front().report));
    EXPECT_TRUE(same_verification(reply.report.verification, replies.front().report.verification));
    EXPECT_FALSE(reply.report.verification.empty());
  }
  EXPECT_EQ(solve_replies, 1u);
  EXPECT_EQ(coalesced_replies, kWaiters - 1);

  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, 1u);      // K identical requests paid ONE solve
  EXPECT_EQ(stats.coalesced, kWaiters - 1);
  EXPECT_EQ(stats.cache.hits, 0u);  // storage was off, so these were not hits
}

TEST(EvalService, LateCoalescedRequestsReportNoQueueWait) {
  // A request that joins an identical job after a worker claimed it never
  // waited for a worker: its queue wait is 0 and its solve time runs from its
  // own submit, so queue wait plus solve time stays its submit-to-reply time
  // and no reply reports a negative wait.  Joining late is a race (the
  // worker must claim the lead within the sleep, and the solve must outlast
  // it), so a few attempts are allowed.
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::duration d) { return std::chrono::duration<double>(d).count(); };
  const ent::RedundancyDesign large{{8, 8, 8, 8}};  // 6,561 states: a solve of several ms
  bool joined_late = false;
  for (int attempt = 0; attempt < 8 && !joined_late; ++attempt) {
    svc::ServiceOptions options;
    options.workers = 1;
    options.cache_bytes = 0;  // a request after the solve re-solves instead of hitting
    svc::EvalService service(core::Scenario::paper_case_study(), options);
    const Clock::time_point lead_submit = Clock::now();
    std::future<svc::ServiceReply> lead = service.submit(steady_request(large));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const Clock::time_point late_submit = Clock::now();
    std::future<svc::ServiceReply> late = service.submit(steady_request(large));
    const svc::ServiceReply lead_reply = lead.get();
    const Clock::time_point lead_done = Clock::now();
    const svc::ServiceReply late_reply = late.get();
    const Clock::time_point late_done = Clock::now();

    for (const auto& [reply, elapsed] :
         {std::pair{&lead_reply, seconds(lead_done - lead_submit)},
          std::pair{&late_reply, seconds(late_done - late_submit)}}) {
      EXPECT_GE(reply->queue_wait_seconds, 0.0);
      EXPECT_GT(reply->solve_seconds, 0.0);
      EXPECT_LE(reply->queue_wait_seconds + reply->solve_seconds, elapsed);
    }
    if (late_reply.source == svc::ReplySource::kCoalesced && late_reply.queue_wait_seconds == 0.0) {
      joined_late = true;
      // Both replies end at the same solve; the late one started later.
      EXPECT_LT(late_reply.solve_seconds,
                lead_reply.queue_wait_seconds + lead_reply.solve_seconds);
    }
  }
  EXPECT_TRUE(joined_late) << "no request joined a claimed job in 8 attempts";
}

TEST(EvalService, HitsAndCoalescedRepliesShareTheSolvedStageObjects) {
  constexpr std::size_t kWaiters = 4;
  svc::ServiceOptions options;
  options.workers = 2;
  options.start_workers = false;  // every waiter joins before the solve
  svc::EvalService service(core::Scenario::paper_case_study(), options);

  std::vector<std::future<svc::ServiceReply>> futures;
  for (std::size_t i = 0; i < kWaiters; ++i) {
    futures.push_back(service.submit(steady_request(ent::example_network_design())));
  }
  service.start();
  std::vector<svc::ServiceReply> replies;
  for (std::future<svc::ServiceReply>& future : futures) replies.push_back(future.get());
  replies.push_back(service.evaluate(steady_request(ent::example_network_design())));
  EXPECT_EQ(replies.back().source, svc::ReplySource::kCache);

  const auto solved = std::find_if(replies.begin(), replies.end(), [](const auto& reply) {
    return reply.source == svc::ReplySource::kSolve;
  });
  ASSERT_NE(solved, replies.end());
  ASSERT_FALSE(solved->report.verification.empty());
  for (const svc::ServiceReply& reply : replies) {
    ASSERT_EQ(reply.report.verification.size(), solved->report.verification.size());
    for (std::size_t s = 0; s < reply.report.verification.size(); ++s) {
      EXPECT_EQ(reply.report.verification[s].report.get(),
                solved->report.verification[s].report.get())
          << svc::to_string(reply.source) << " " << reply.report.verification[s].stage;
    }
  }
}

TEST(EvalService, GroupsSameStructureTransientJobsIntoOnePanel) {
  constexpr std::size_t kWaves = 4;
  svc::ServiceOptions options;
  options.workers = 1;
  options.start_workers = false;
  options.max_batch = kWaves;
  svc::EvalService service(core::Scenario::paper_case_study(), options);

  std::vector<std::future<svc::ServiceReply>> futures;
  for (std::size_t i = 0; i < kWaves; ++i) {
    svc::EvalRequest request = steady_request(ent::example_network_design());
    request.kind = svc::RequestKind::kTransient;
    request.wave.emplace(static_cast<ent::ServerRole>(i), 1u);
    futures.push_back(service.submit(std::move(request)));
  }
  service.start();
  std::vector<svc::ServiceReply> replies;
  for (std::future<svc::ServiceReply>& future : futures) replies.push_back(future.get());

  EXPECT_EQ(service.stats().solves, 1u);  // one panel retired all waves
  for (const svc::ServiceReply& reply : replies) {
    EXPECT_EQ(reply.batch_width, kWaves);
    EXPECT_EQ(reply.source, svc::ReplySource::kSolve);
    EXPECT_FALSE(reply.report.transient.empty());
  }

  // The grouped curves match the Session's own batch API bit-for-bit: the
  // service solved through the very same evaluate_transient_batch panel.
  const core::Session solo(core::Scenario::paper_case_study());
  std::vector<std::map<ent::ServerRole, unsigned>> waves;
  for (std::size_t i = 0; i < kWaves; ++i) {
    waves.push_back({{static_cast<ent::ServerRole>(i), 1u}});
  }
  const std::vector<core::EvalReport> oracle =
      solo.evaluate_transient_batch(ent::example_network_design(), waves);
  for (std::size_t i = 0; i < kWaves; ++i) {
    EXPECT_TRUE(payload_bit_identical(replies[i].report, oracle[i]));
  }

  // Resubmitting the same waves is served from the cache, bit-identical to
  // the grouped replies.
  for (std::size_t i = 0; i < kWaves; ++i) {
    svc::EvalRequest request = steady_request(ent::example_network_design());
    request.kind = svc::RequestKind::kTransient;
    request.wave.emplace(static_cast<ent::ServerRole>(i), 1u);
    const svc::ServiceReply cached = service.evaluate(std::move(request));
    EXPECT_EQ(cached.source, svc::ReplySource::kCache);
    EXPECT_TRUE(payload_bit_identical(cached.report, replies[i].report));
  }

  // Each wave solved alone as a width-1 panel agrees to 1e-10.
  for (std::size_t i = 0; i < kWaves; ++i) {
    const core::EvalReport single =
        solo.evaluate_transient_batch(ent::example_network_design(), {waves[i]}).front();
    const std::vector<double>& got = replies[i].report.transient.coa;
    ASSERT_EQ(got.size(), single.transient.coa.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got[j], single.transient.coa[j], 1e-10) << "wave " << i << " t" << j;
    }
  }
}

TEST(EvalService, ConcurrentMixedLoadIsDeterministic) {
  // Several submitter threads hammer a small design set through one service;
  // every reply — whatever its source — must be bit-identical to a fresh
  // solo-Session solve of the same design.  (The `service` label puts this
  // under TSan, which additionally vets the queue/coalescing locking.)
  const std::vector<ent::RedundancyDesign> designs = {
      ent::RedundancyDesign{{1, 1, 1, 1}},
      ent::example_network_design(),
      ent::RedundancyDesign{{1, 2, 1, 2}},
  };
  const core::Session solo(core::Scenario::paper_case_study());
  std::vector<core::EvalReport> oracle;
  oracle.reserve(designs.size());
  for (const ent::RedundancyDesign& design : designs) oracle.push_back(solo.evaluate(design));

  svc::ServiceOptions options;
  options.workers = 2;
  svc::EvalService service(core::Scenario::paper_case_study(), options);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 12;
  std::vector<std::thread> submitters;
  std::vector<int> mismatches(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t n = 0; n < kPerThread; ++n) {
        const std::size_t which = (t + n) % designs.size();
        const svc::ServiceReply reply = service.evaluate(steady_request(designs[which]));
        if (!payload_bit_identical(reply.report, oracle[which])) ++mismatches[t];
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;

  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  // Every request beyond the first per design was a hit or a coalesce.
  EXPECT_EQ(stats.solves + stats.coalesced + stats.cache.hits, kThreads * kPerThread);
}

TEST(EvalService, GracefulShutdownFulfillsQueuedWork) {
  svc::ServiceOptions options;
  options.start_workers = false;  // nothing will ever run the queue...
  svc::EvalService service(core::Scenario::paper_case_study(), options);
  std::future<svc::ServiceReply> queued =
      service.submit(steady_request(ent::example_network_design()));
  service.shutdown();  // ...so shutdown itself must drain it
  const svc::ServiceReply reply = queued.get();
  EXPECT_EQ(reply.source, svc::ReplySource::kSolve);
  EXPECT_GT(reply.report.coa, 0.9);
  EXPECT_THROW((void)service.submit(steady_request(ent::example_network_design())),
               std::runtime_error);
}

TEST(EvalService, SolveErrorsPropagateThroughTheFuture) {
  core::EngineOptions starved;
  starved.steady_state.max_iterations = 1;
  starved.throw_on_divergence = true;
  svc::EvalService service(core::Scenario::paper_case_study().with_engine(starved), {});
  EXPECT_THROW((void)service.evaluate(steady_request(ent::RedundancyDesign{{2, 2, 2, 2}})),
               std::runtime_error);
  // The service survives the failed solve and keeps serving.
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(EvalService, WorkspaceSlotsArePinnedPerWorker) {
  // Each worker thread owns its own SolverWorkspaces slot inside the
  // service's Session — N workers, N slots, none shared with this thread.
  svc::ServiceOptions options;
  options.workers = 2;
  svc::EvalService service(core::Scenario::paper_case_study(), options);
  std::vector<std::future<svc::ServiceReply>> futures;
  for (unsigned k = 1; k <= 4; ++k) {
    futures.push_back(service.submit(steady_request(ent::RedundancyDesign{{k, 1, 1, 1}})));
  }
  for (std::future<svc::ServiceReply>& future : futures) (void)future.get();
  const core::Session::WorkspaceCounters counters = service.session().workspace_counters();
  EXPECT_GE(counters.thread_slots, 1u);
  EXPECT_LE(counters.thread_slots, options.workers);
  EXPECT_GT(counters.availability_solves, 0u);
}

TEST(EvalService, ConcurrentColdCellsShareStructureCertificates) {
  // 4 workers race over 24 cold (design, cadence) cells.  The Session's
  // structure memo computes outside its lock, so a cold structure may be
  // certified by every worker at once, but never more often; the reports'
  // verification blocks must equal a serial Session's exactly.
  const std::vector<ent::RedundancyDesign> designs = {
      ent::RedundancyDesign{{1, 1, 1, 1}}, ent::RedundancyDesign{{2, 1, 1, 1}},
      ent::RedundancyDesign{{1, 2, 1, 1}}, ent::RedundancyDesign{{1, 1, 2, 1}},
      ent::RedundancyDesign{{1, 1, 1, 2}}, ent::RedundancyDesign{{2, 2, 2, 2}},
  };
  const std::vector<double> cadences = {168.0, 336.0, 720.0, 1440.0};
  core::EngineOptions engine;
  engine.lumping = true;
  const core::Scenario scenario = core::Scenario::paper_case_study().with_engine(engine);

  const core::Session serial(scenario);
  std::vector<core::EvalReport> expected;
  for (const double cadence : cadences) {
    for (const ent::RedundancyDesign& design : designs) {
      expected.push_back(serial.evaluate(design, cadence));
    }
  }
  // The distinct structures, counted from the nets themselves.
  std::set<std::string> keys;
  for (const double cadence : cadences) {
    patchsec::avail::ServerSrnOptions srn_options;
    srn_options.patch_interval_hours = cadence;
    for (const auto& entry : scenario.specs()) {
      keys.insert(patchsec::petri::structure_key(
          patchsec::avail::build_server_srn(entry.second, srn_options).model,
          engine.verify_options));
    }
    for (const ent::RedundancyDesign& design : designs) {
      keys.insert(patchsec::petri::structure_key(
          patchsec::avail::build_network_srn(design, serial.aggregated_rates(cadence)).model,
          engine.verify_options));
    }
  }
  EXPECT_EQ(serial.workspace_counters().verify_structure_builds, keys.size());

  svc::ServiceOptions options;
  options.workers = 4;
  svc::EvalService service(scenario, options);
  std::vector<std::future<svc::ServiceReply>> futures;
  for (const double cadence : cadences) {
    for (const ent::RedundancyDesign& design : designs) {
      futures.push_back(service.submit(steady_request(design, cadence)));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const svc::ServiceReply reply = futures[i].get();
    EXPECT_TRUE(same_verification(reply.report.verification, expected[i].verification))
        << "cell " << i;
    EXPECT_TRUE(payload_bit_identical(reply.report, expected[i])) << "cell " << i;
  }
  const core::Session::WorkspaceCounters counters = service.session().workspace_counters();
  EXPECT_GE(counters.verify_structure_builds, keys.size());
  EXPECT_LE(counters.verify_structure_builds, keys.size() * options.workers);
  EXPECT_GT(counters.verify_structure_reuses, 0u);
}
