// Recovery tests (PR 6): buddy-replicated superstep checkpointing, the
// resumable superstep state machine, and the three RecoveryModes of
// core::sort_resilient — RestartFull, ResumeCheckpoint (replay only the
// interrupted superstep on the same rank count) and ShrinkSurvivors
// (in-flight ULFM-style shrink to P-1 ranks with shard redistribution).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "check/race_detector.h"
#include "common/rng.h"
#include "core/histogram_sort.h"
#include "obs/report.h"
#include "runtime/checkpoint.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::runtime {
namespace {

TeamConfig cfg_with(int p, std::shared_ptr<FaultPlan> plan = nullptr,
                    double watchdog_s = 60.0) {
  TeamConfig cfg;
  cfg.nranks = p;
  cfg.fault = std::move(plan);
  cfg.watchdog_timeout_s = watchdog_s;
  return cfg;
}

std::vector<std::vector<u64>> random_partitions(int p, usize per_rank,
                                                u64 seed) {
  std::vector<std::vector<u64>> parts(p);
  for (int r = 0; r < p; ++r) {
    Xoshiro256 rng(hash_mix(seed, r));
    parts[r].resize(per_rank);
    for (auto& v : parts[r]) v = rng();
  }
  return parts;
}

std::vector<u64> flatten(const std::vector<std::vector<u64>>& parts) {
  std::vector<u64> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  return all;
}

std::vector<u64> flatten_sorted(const std::vector<std::vector<u64>>& parts) {
  std::vector<u64> all = flatten(parts);
  std::sort(all.begin(), all.end());
  return all;
}

// --- CheckpointStore unit ----------------------------------------------------

TEST(CheckpointStore, SaveLoadAndBuddyPlacement) {
  CheckpointStore store(4);
  EXPECT_EQ(CheckpointStore::buddy_of(0, 4), 1);
  EXPECT_EQ(CheckpointStore::buddy_of(3, 4), 0);
  EXPECT_EQ(store.latest_step(2), -1);

  std::vector<std::byte> blob{std::byte{7}, std::byte{8}};
  store.save(2, CheckpointStore::buddy_of(2, 4), 0, blob);
  store.save(2, CheckpointStore::buddy_of(2, 4), 1, blob);
  EXPECT_EQ(store.latest_step(2), 1);
  EXPECT_TRUE(store.available(2, 0));
  EXPECT_TRUE(store.available(2, 1));
  EXPECT_FALSE(store.available(2, 2));

  auto got = store.load(2, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->holder, 2);       // primary preferred
  EXPECT_FALSE(got->from_replica);
  EXPECT_EQ(got->bytes, blob);
}

TEST(CheckpointStore, MarkLostFallsBackToReplicaThenNothing) {
  CheckpointStore store(4);
  std::vector<std::byte> blob{std::byte{1}};
  store.save(2, /*buddy=*/3, 0, blob);
  store.save(3, /*buddy=*/0, 0, blob);

  // Rank 2 dies: its primary is gone but the replica at rank 3 survives.
  store.mark_lost(2);
  auto got = store.load(2, 0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->holder, 3);
  EXPECT_TRUE(got->from_replica);

  // Rank 3 dies too: rank 2's replica lived at rank 3 — now fully lost —
  // while rank 3's own state still has its replica at rank 0.
  store.mark_lost(3);
  EXPECT_FALSE(store.load(2, 0).has_value());
  EXPECT_EQ(store.latest_step(2), -1);
  auto r3 = store.load(3, 0);
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->holder, 0);
}

// --- SortState serialization -------------------------------------------------

TEST(SortState, SerializeDeserializeRoundTrip) {
  core::SortState<u64, u64> st;
  st.completed = core::SuperstepId::SplittersReady;
  st.out_capacity = 123;
  st.data = {5, 1, 9};
  st.splitters.splitter = {10, 20, 30};
  st.splitters.boundary = {1, 2, 2};
  st.splitters.iterations = 4;
  st.stats.elements_before = 3;
  st.stats.histogram_convergence = {0.5, 0.25};
  st.recv_counts = {1, 1, 1, 0};

  const auto blob = core::detail::serialize_state(st);
  const auto rt = core::detail::deserialize_state<u64, u64>(blob);
  EXPECT_EQ(rt.completed, st.completed);
  EXPECT_EQ(rt.out_capacity, st.out_capacity);
  EXPECT_EQ(rt.data, st.data);
  EXPECT_EQ(rt.splitters.splitter, st.splitters.splitter);
  EXPECT_EQ(rt.splitters.boundary, st.splitters.boundary);
  EXPECT_EQ(rt.splitters.iterations, st.splitters.iterations);
  EXPECT_EQ(rt.stats.elements_before, st.stats.elements_before);
  EXPECT_EQ(rt.stats.histogram_convergence, st.stats.histogram_convergence);
  EXPECT_EQ(rt.recv_counts, st.recv_counts);
}

// --- checkpointing-off invariants --------------------------------------------

TEST(Checkpointing, DisabledIsBitIdenticalAndCostsNothing) {
  constexpr int P = 4;
  auto run_once = [&] {
    Team team(cfg_with(P));
    auto parts = random_partitions(P, 256, 5);
    team.run([&](Comm& c) {
      auto local = parts[c.rank()];
      (void)core::sort(c, local);
    });
    u64 ck_bytes = 0, ck_count = 0, steps = 0;
    for (int r = 0; r < P; ++r) {
      ck_bytes += team.metrics(r).value(obs::Counter::CheckpointBytes);
      ck_count += team.metrics(r).value(obs::Counter::CheckpointCount);
      steps += team.metrics(r).value(obs::Counter::SuperstepsExecuted);
    }
    EXPECT_EQ(ck_bytes, 0u);
    EXPECT_EQ(ck_count, 0u);
    EXPECT_EQ(steps, core::kSupersteps * P);
    return team.stats().makespan_s;
  };
  // Two identical runs with checkpointing off: bit-identical simulated time.
  EXPECT_EQ(run_once(), run_once());
}

TEST(Checkpointing, FaultFreeCheckpointedRunChargesOverhead) {
  constexpr int P = 4;
  auto parts0 = random_partitions(P, 256, 6);
  const auto expected = flatten_sorted(parts0);

  Team plain_team(cfg_with(P));
  auto plain_parts = parts0;
  core::ResilienceConfig none;  // RestartFull: no checkpoints
  (void)core::sort_resilient(plain_team, plain_parts, core::SortConfig{},
                             none);
  const double plain = plain_team.stats().makespan_s;

  Team ck_team(cfg_with(P));
  auto ck_parts = parts0;
  core::ResilienceConfig resume;
  resume.mode = core::RecoveryMode::ResumeCheckpoint;
  core::ResilienceReport rep;
  (void)core::sort_resilient(ck_team, ck_parts, core::SortConfig{}, resume,
                             &rep);
  const double ck = ck_team.stats().makespan_s;

  EXPECT_EQ(flatten(ck_parts), expected);
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_DOUBLE_EQ(rep.recomputed_fraction, 0.0);
  EXPECT_GT(rep.checkpoint_bytes, 0u);
  // Checkpointing is overlapped: charged, but only the residue fraction.
  EXPECT_GT(ck, plain);
  EXPECT_LT(ck, plain * 1.10);
}

// --- ResumeCheckpoint --------------------------------------------------------

// Crash one rank at every point of the sort (stride-swept over the full op
// schedule, which crosses every superstep boundary) and require: recovery
// completes in exactly two attempts, output matches the fault-free run, and
// the recomputed-work fraction stays below a full re-execution.
TEST(ResumeCheckpoint, CrashSweepReplaysOnlyTheInterruptedSuperstep) {
  constexpr int P = 4;
  constexpr usize kPerRank = 96;
  const u64 seed = 23;

  auto probe_plan = std::make_shared<FaultPlan>();
  u64 total_ops = 0;
  {
    Team team(cfg_with(P, probe_plan));
    auto parts = random_partitions(P, kPerRank, seed);
    core::ResilienceConfig rcfg;
    rcfg.mode = core::RecoveryMode::ResumeCheckpoint;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg);
    total_ops = probe_plan->ops_observed(1);
    ASSERT_GT(total_ops, core::kSupersteps);
  }

  const auto original = random_partitions(P, kPerRank, seed);
  const auto expected = flatten_sorted(original);
  const u64 stride = std::max<u64>(1, total_ops / 24);
  for (u64 k = 0; k < total_ops; k += stride) {
    auto plan = std::make_shared<FaultPlan>();
    plan->crash_rank_at_op(1, k);
    Team team(cfg_with(P, plan, /*watchdog_s=*/10.0));
    auto parts = original;
    core::ResilienceConfig rcfg;
    rcfg.mode = core::RecoveryMode::ResumeCheckpoint;
    core::ResilienceReport rep;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
    EXPECT_EQ(rep.attempts, 2) << "crash at op " << k;
    EXPECT_EQ(rep.failures, 1u) << "crash at op " << k;
    // Replaying from the last boundary must beat re-running everything.
    EXPECT_LT(rep.recomputed_fraction, 1.0) << "crash at op " << k;
    EXPECT_EQ(flatten(parts), expected) << "crash at op " << k;
    for (const auto& p : parts)
      EXPECT_EQ(p.size(), kPerRank) << "crash at op " << k;
  }
}

TEST(ResumeCheckpoint, ExecutesFewerSuperstepsThanRestartForLateCrash) {
  constexpr int P = 4;
  const auto original = random_partitions(P, 128, 31);
  const auto expected = flatten_sorted(original);

  auto run_mode = [&](core::RecoveryMode mode) {
    auto plan = std::make_shared<FaultPlan>();
    // Crash in the exchange: local sort and splitters are checkpointed.
    // (Merge has no communication ops, so Exchange is the latest phase a
    // comm-op-keyed fault can target.)
    plan->crash_rank_at_phase_op(1, net::Phase::Exchange, 0);
    Team team(cfg_with(P, plan, /*watchdog_s=*/10.0));
    auto parts = original;
    core::ResilienceConfig rcfg;
    rcfg.mode = mode;
    core::ResilienceReport rep;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
    EXPECT_EQ(flatten(parts), expected);
    return rep;
  };

  const auto restart = run_mode(core::RecoveryMode::RestartFull);
  const auto resume = run_mode(core::RecoveryMode::ResumeCheckpoint);
  EXPECT_EQ(restart.attempts, 2);
  EXPECT_EQ(resume.attempts, 2);
  EXPECT_LT(resume.supersteps_executed, restart.supersteps_executed);
  EXPECT_LT(resume.recomputed_fraction, restart.recomputed_fraction);
}

TEST(ResumeCheckpoint, VictimRestoresFromBuddyReplica) {
  // The dead rank's primary checkpoints die with it; the next attempt must
  // restore its state from the buddy replica (a charged remote fetch), not
  // silently restart from scratch — visible as a resumed (not fresh) run.
  constexpr int P = 4;
  const auto original = random_partitions(P, 128, 37);
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank_at_phase_op(2, net::Phase::Exchange, 1);
  Team team(cfg_with(P, plan, /*watchdog_s=*/10.0));
  auto parts = original;
  core::ResilienceConfig rcfg;
  rcfg.mode = core::RecoveryMode::ResumeCheckpoint;
  core::ResilienceReport rep;
  (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(flatten(parts), flatten_sorted(original));
  // Attempt 2 resumed from the LocalSorted (or later) boundary: strictly
  // fewer supersteps than two full executions.
  EXPECT_LT(rep.supersteps_executed, 2 * rep.supersteps_minimum);
}

TEST(ResumeCheckpoint, FaultBudgetExhaustionRethrows) {
  constexpr int P = 2;
  auto plan = std::make_shared<FaultPlan>();
  for (int i = 0; i < 4; ++i) plan->crash_rank_at_op(0, 2);
  Team team(cfg_with(P, plan));
  auto parts = random_partitions(P, 64, 3);
  const auto original = parts;
  core::ResilienceConfig rcfg;
  rcfg.mode = core::RecoveryMode::ResumeCheckpoint;
  rcfg.fault_budget = 1;
  EXPECT_THROW(
      core::sort_resilient(team, parts, core::SortConfig{}, rcfg),
      rank_failed);
  EXPECT_EQ(parts, original);  // input preserved across failed attempts
}

TEST(ResilienceReport, BudgetExhaustionKeepsRecomputedFractionNonNegative) {
  // Every attempt dies at rank 0's first op, so fewer supersteps execute
  // than a fault-free run needs: the failure exit must clamp the fraction
  // at 0 exactly like the success exit does.
  constexpr int P = 2;
  for (core::RecoveryMode mode : {core::RecoveryMode::RestartFull,
                                  core::RecoveryMode::ResumeCheckpoint}) {
    SCOPED_TRACE(core::recovery_mode_name(mode));
    auto plan = std::make_shared<FaultPlan>();
    for (int i = 0; i < 4; ++i) plan->crash_rank_at_op(0, 0);
    Team team(cfg_with(P, plan));
    auto parts = random_partitions(P, 64, 5);
    core::ResilienceConfig rcfg;
    rcfg.mode = mode;
    rcfg.fault_budget = 1;
    core::ResilienceReport rep;
    EXPECT_THROW(
        core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep),
        rank_failed);
    EXPECT_EQ(rep.attempts, 2);
    EXPECT_LT(rep.supersteps_executed, rep.supersteps_minimum);
    EXPECT_GE(rep.recomputed_fraction, 0.0);
  }
}

// Multi-fault schedule (satellite: fault matrices): two distinct ranks are
// armed to crash; recovery pays both from the fault budget and completes.
TEST(ResumeCheckpoint, MultiFaultScheduleWithinBudget) {
  constexpr int P = 4;
  const auto original = random_partitions(P, 96, 41);
  auto plan = std::make_shared<FaultPlan>();
  const std::vector<u64> ks{9, 33};
  plan->crash_rank_at_ops(1, std::span<const u64>(ks));
  plan->crash_rank_at_phase_op(3, net::Phase::Histogram, 2);
  Team team(cfg_with(P, plan, /*watchdog_s=*/10.0));
  auto parts = original;
  core::ResilienceConfig rcfg;
  rcfg.mode = core::RecoveryMode::ResumeCheckpoint;
  rcfg.fault_budget = 4;
  core::ResilienceReport rep;
  (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
  EXPECT_GE(rep.failures, 2u);
  EXPECT_EQ(flatten(parts), flatten_sorted(original));
}

// --- ShrinkSurvivors ---------------------------------------------------------

void expect_shrink_output(const std::vector<std::vector<u64>>& parts,
                          const std::vector<u64>& expected,
                          const core::ResilienceReport& rep, int P) {
  // Survivor partitions concatenate (in rank order) to the sorted whole;
  // dead ranks hold nothing.
  EXPECT_EQ(flatten(parts), expected);
  for (const auto& p : parts) EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
  ASSERT_FALSE(rep.final_ranks.empty());
  EXPECT_LT(rep.final_ranks.size(), static_cast<usize>(P));
  usize mn = expected.size(), mx = 0;
  for (rank_t r = 0; r < static_cast<rank_t>(P); ++r) {
    const bool survivor =
        std::find(rep.final_ranks.begin(), rep.final_ranks.end(), r) !=
        rep.final_ranks.end();
    if (!survivor) {
      EXPECT_TRUE(parts[static_cast<usize>(r)].empty())
          << "dead rank " << r << " still holds data";
    } else {
      mn = std::min(mn, parts[static_cast<usize>(r)].size());
      mx = std::max(mx, parts[static_cast<usize>(r)].size());
    }
  }
  // Rebalanced even shares over the survivors.
  EXPECT_LE(mx - mn, 1u);
}

TEST(ShrinkSurvivors, InFlightRecoveryAcrossTeamSizes) {
  for (int P : {4, 8, 16}) {
    const auto original = random_partitions(P, 128, 100 + P);
    const auto expected = flatten_sorted(original);
    // Crash mid-exchange: local sort and splitters are checkpointed, the
    // survivors absorb the dead shard and redo splitters on P-1 ranks.
    auto plan = std::make_shared<FaultPlan>();
    plan->crash_rank_at_phase_op(P / 2, net::Phase::Exchange, 1);
    Team team(cfg_with(P, plan, /*watchdog_s=*/20.0));
    auto parts = original;
    core::ResilienceConfig rcfg;
    rcfg.mode = core::RecoveryMode::ShrinkSurvivors;
    core::ResilienceReport rep;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
    EXPECT_EQ(rep.attempts, 1) << "P=" << P;  // no re-run: shrank in-flight
    EXPECT_GE(rep.recoveries, 1u) << "P=" << P;
    EXPECT_EQ(rep.final_ranks.size(), static_cast<usize>(P - 1)) << "P=" << P;
    EXPECT_LT(rep.recomputed_fraction, 1.0) << "P=" << P;
    EXPECT_FALSE(rep.recovery_seconds.empty()) << "P=" << P;
    expect_shrink_output(parts, expected, rep, P);
  }
}

TEST(ShrinkSurvivors, CrashSweepAcrossTheWholeSchedule) {
  constexpr int P = 4;
  constexpr usize kPerRank = 96;
  const u64 seed = 51;

  auto probe_plan = std::make_shared<FaultPlan>();
  u64 total_ops = 0;
  {
    Team team(cfg_with(P, probe_plan));
    auto parts = random_partitions(P, kPerRank, seed);
    core::ResilienceConfig rcfg;
    rcfg.mode = core::RecoveryMode::ShrinkSurvivors;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg);
    total_ops = probe_plan->ops_observed(1);
    ASSERT_GT(total_ops, core::kSupersteps);
  }

  const auto original = random_partitions(P, kPerRank, seed);
  const auto expected = flatten_sorted(original);
  const u64 stride = std::max<u64>(1, total_ops / 16);
  for (u64 k = 0; k < total_ops; k += stride) {
    auto plan = std::make_shared<FaultPlan>();
    plan->crash_rank_at_op(1, k);
    Team team(cfg_with(P, plan, /*watchdog_s=*/20.0));
    auto parts = original;
    core::ResilienceConfig rcfg;
    rcfg.mode = core::RecoveryMode::ShrinkSurvivors;
    core::ResilienceReport rep;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
    // A crash before the victim's first checkpoint legitimately escalates
    // to a full-team restart (attempt 2); anything later shrinks in-flight.
    EXPECT_LE(rep.attempts, 2) << "crash at op " << k;
    EXPECT_EQ(flatten(parts), expected) << "crash at op " << k;
    if (rep.attempts == 1) {
      EXPECT_GE(rep.recoveries, 1u) << "crash at op " << k;
      expect_shrink_output(parts, expected, rep, P);
    }
  }
}

TEST(ShrinkSurvivors, BuddyDoubleFaultEscalatesToRestartAndStillSorts) {
  // Ranks 2 and 3 both die; 3 is 2's buddy, so 2's checkpoints are fully
  // lost. In-flight shrink is impossible — the sort must fall back to a
  // full-team restart attempt and still produce the right output.
  constexpr int P = 4;
  const auto original = random_partitions(P, 96, 61);
  auto plan = std::make_shared<FaultPlan>();
  const std::vector<rank_t> victims{2, 3};
  plan->crash_ranks_at_op(std::span<const rank_t>(victims), 12);
  Team team(cfg_with(P, plan, /*watchdog_s=*/20.0));
  auto parts = original;
  core::ResilienceConfig rcfg;
  rcfg.mode = core::RecoveryMode::ShrinkSurvivors;
  rcfg.fault_budget = 3;
  core::ResilienceReport rep;
  (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_GE(rep.failures, 2u);
  EXPECT_EQ(flatten(parts), flatten_sorted(original));
}

TEST(ShrinkSurvivors, RecoveryMetricsAndHappensBeforeClean) {
  // Run a shrink recovery with the happens-before checker on: the Agree
  // edge published at the survivor rendezvous must keep the HB graph
  // violation-free, and the recovery metrics must be populated.
  constexpr int P = 4;
  const auto original = random_partitions(P, 128, 71);
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank_at_phase_op(1, net::Phase::Exchange, 1);
  TeamConfig cfg = cfg_with(P, plan, /*watchdog_s=*/20.0);
  cfg.check.enabled = true;
  Team team(cfg);
  auto parts = original;
  core::ResilienceConfig rcfg;
  rcfg.mode = core::RecoveryMode::ShrinkSurvivors;
  core::ResilienceReport rep;
  (void)core::sort_resilient(team, parts, core::SortConfig{}, rcfg, &rep);
  EXPECT_EQ(flatten(parts), flatten_sorted(original));
  ASSERT_NE(team.check_report(), nullptr);
  EXPECT_TRUE(team.check_report()->violations.empty());

  u64 recoveries = 0;
  for (int r = 0; r < P; ++r)
    recoveries += team.metrics(r).value(obs::Counter::RecoveryCount);
  EXPECT_EQ(recoveries, static_cast<u64>(P - 1));  // every survivor agreed
  EXPECT_EQ(rep.recovery_seconds.size(), static_cast<usize>(P - 1));
  for (double s : rep.recovery_seconds) EXPECT_GT(s, 0.0);
}

// --- skewed inputs under faults (satellite) ----------------------------------

TEST(SkewedInputs, DuplicateHeavyAndZipfSurviveFaults) {
  constexpr int P = 4;
  constexpr usize kPerRank = 256;
  using workload::Dist;
  for (Dist dist : {Dist::Zipf, Dist::FewDistinct, Dist::AllEqual}) {
    workload::GenConfig gen;
    gen.dist = dist;
    gen.seed = 97;
    std::vector<std::vector<u64>> original(P);
    for (int r = 0; r < P; ++r)
      original[r] = workload::generate_u64(gen, r, P, kPerRank);
    const auto expected = flatten_sorted(original);

    for (core::RecoveryMode mode : {core::RecoveryMode::ResumeCheckpoint,
                                    core::RecoveryMode::ShrinkSurvivors}) {
      auto plan = std::make_shared<FaultPlan>();
      plan->crash_rank_at_phase_op(1, net::Phase::Histogram, 4);
      Team team(cfg_with(P, plan, /*watchdog_s=*/20.0));
      auto parts = original;
      core::ResilienceConfig rcfg;
      rcfg.mode = mode;
      core::SortConfig scfg;  // epsilon 0: duplicates resolve via tie splits
      core::ResilienceReport rep;
      (void)core::sort_resilient(team, parts, scfg, rcfg, &rep);
      EXPECT_EQ(flatten(parts), expected)
          << workload::dist_name(dist) << " under "
          << core::recovery_mode_name(mode);
      for (const auto& p : parts)
        EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
    }
  }
}

// --- hybrid histogramming under faults (PR 10) -------------------------------

TEST(HybridHistogram, RecoveryModesSurviveCrashInSampledRounds) {
  // Crash inside the histogram phase while the hybrid's sampled rounds are
  // running: the SplitterResult checkpointed at the superstep boundary
  // carries the sampled-round telemetry, and both recovery modes must
  // replay the search deterministically (same sample positions) to the
  // same sorted output as a fault-free run.
  // Auto, the default, runs the same sampled rounds on two nodes.
  constexpr int P = 8;
  constexpr usize kPerRank = 128;
  const auto original = random_partitions(P, kPerRank, 41);
  const auto expected = flatten_sorted(original);

  for (core::HistogramMode hmode :
       {core::HistogramMode::Hybrid, core::HistogramMode::Auto}) {
    core::SortConfig scfg;
    scfg.histogram = hmode;
    for (core::RecoveryMode mode : {core::RecoveryMode::ResumeCheckpoint,
                                    core::RecoveryMode::ShrinkSurvivors}) {
      SCOPED_TRACE(testing::Message()
                   << core::histogram_mode_name(hmode) << " "
                   << core::recovery_mode_name(mode));
      TeamConfig tc = cfg_with(P, nullptr, /*watchdog_s=*/20.0);
      if (hmode == core::HistogramMode::Auto)
        tc.machine = net::MachineModel::supermuc_phase2(2, P / 2);
      // Rank 1's first sampled-round SampleGather, counted among its
      // histogram-phase ops (compute slices are not ops) in a fault-free
      // traced run.
      u64 k = 0;
      {
        TeamConfig traced = tc;
        traced.trace = true;
        Team probe(traced);
        auto parts = original;
        core::ResilienceConfig rcfg;
        rcfg.mode = mode;
        (void)core::sort_resilient(probe, parts, scfg, rcfg);
        bool found = false;
        for (const obs::TraceEvent& e : probe.trace()->events[1]) {
          if (e.phase != net::Phase::Histogram ||
              e.op == obs::OpKind::Compute)
            continue;
          if (e.op == obs::OpKind::SampleGather) {
            found = true;
            break;
          }
          ++k;
        }
        ASSERT_TRUE(found);
        EXPECT_GE(k, 4u);  // after the capacity and range collectives
      }
      auto plan = std::make_shared<FaultPlan>();
      plan->crash_rank_at_phase_op(1, net::Phase::Histogram, k);
      tc.fault = plan;
      Team team(tc);
      auto parts = original;
      core::ResilienceConfig rcfg;
      rcfg.mode = mode;
      core::ResilienceReport rep;
      (void)core::sort_resilient(team, parts, scfg, rcfg, &rep);
      EXPECT_GE(rep.failures + rep.recoveries, 1u);  // the crash was seen
      EXPECT_EQ(flatten(parts), expected);
      for (const auto& p : parts)
        EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
    }
  }
}

// --- records sorted by reference under faults --------------------------------

/// 64 bytes, so superstep 1 sorts it by reference: RestartFull runs the
/// deferred gather (the pull Alltoallv's receivers gather the records);
/// the checkpointed modes gather before their first post-sort checkpoint.
struct WideRec {
  u64 key;
  u64 origin;
  std::array<u64, 6> payload;
};

struct WideKey {
  u64 operator()(const WideRec& r) const { return r.key; }
};

TEST(RecordRecovery, EveryModeSortsWideRecordsAfterACrash) {
  constexpr int P = 4;
  constexpr usize kPerRank = 700;  // above the radix crossover
  std::vector<std::vector<WideRec>> original(P);
  std::vector<WideRec> expected;
  for (int r = 0; r < P; ++r) {
    Xoshiro256 rng(hash_mix(61, r));
    for (usize i = 0; i < kPerRank; ++i) {
      const u64 k = rng();
      const u64 origin = static_cast<u64>(r) * kPerRank + i;
      original[r].push_back({k, origin, {k, origin, k ^ origin, 1, 2, 3}});
    }
    expected.insert(expected.end(), original[r].begin(), original[r].end());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const WideRec& a, const WideRec& b) {
                     return a.key < b.key;
                   });

  for (core::RecoveryMode mode : {core::RecoveryMode::RestartFull,
                                  core::RecoveryMode::ResumeCheckpoint,
                                  core::RecoveryMode::ShrinkSurvivors})
    for (net::Phase phase : {net::Phase::Histogram, net::Phase::Exchange}) {
      std::string where(core::recovery_mode_name(mode));
      where += ", crash in ";
      where += net::phase_name(phase);
      SCOPED_TRACE(where);
      // Histogram op 1 is the second capacity allgather; Exchange op 2 is
      // the Alltoallv itself.
      auto plan = std::make_shared<FaultPlan>();
      plan->crash_rank_at_phase_op(
          2, phase, phase == net::Phase::Exchange ? 2 : 1);
      Team team(cfg_with(P, plan, /*watchdog_s=*/20.0));
      auto parts = original;
      core::ResilienceConfig rcfg;
      rcfg.mode = mode;
      core::ResilienceReport rep;
      (void)core::sort_resilient(team, parts, WideKey{}, core::SortConfig{},
                                 rcfg, &rep);
      EXPECT_GE(rep.failures + rep.recoveries, 1u);  // the crash was seen
      std::vector<WideRec> got;
      for (const auto& p : parts) got.insert(got.end(), p.begin(), p.end());
      ASSERT_EQ(got.size(), expected.size());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            got.size() * sizeof(WideRec)),
                0);
    }
}

}  // namespace
}  // namespace hds::runtime
