// Fault-tolerance tests: deterministic fault injection (crash, straggler,
// message drop/delay), the release-mode collective-mismatch guard, the
// no-progress watchdog, and the resilient end-to-end sort. These exercise
// every abort path in barrier.h / mailbox.h / team.cpp that the seed
// runtime had but never reached from tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/team.h"

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

// --- deterministic fault injection -----------------------------------------

TEST(FaultInjection, CrashAtOpKillsExactRankAndOp) {
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank_at_op(2, 3);
  Team team(cfg_with(4, plan));
  try {
    team.run([&](Comm& c) {
      for (int i = 0; i < 10; ++i)
        (void)c.allreduce_value<int>(c.rank(), std::plus<>{});
    });
    FAIL() << "expected rank_failed";
  } catch (const rank_failed& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.op_index(), 3u);
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
  // The plan is one-shot: the same team runs clean afterwards.
  team.run([&](Comm& c) {
    EXPECT_EQ(c.allreduce_value<int>(1, std::plus<>{}), 4);
  });
}

TEST(FaultInjection, CrashUnblocksPeersParkedInCollective) {
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank_at_op(0, 5);
  Team team(cfg_with(6, plan));
  std::atomic<int> aborted{0};
  EXPECT_THROW(team.run([&](Comm& c) {
                 try {
                   for (int i = 0; i < 10; ++i) c.barrier();
                 } catch (const team_aborted&) {
                   aborted.fetch_add(1);
                   throw;
                 }
               }),
               rank_failed);
  // Every surviving rank unwound via team_aborted rather than hanging.
  EXPECT_EQ(aborted.load(), 5);
}

TEST(FaultInjection, StragglerDelayShowsUpInSimClock) {
  auto plan = std::make_shared<FaultPlan>();
  plan->delay_rank_at_op(1, 0, 5.0);
  Team team(cfg_with(4, plan));
  team.run([&](Comm& c) { c.barrier(); });
  // The barrier drags every rank to the straggler's exit time.
  EXPECT_GE(team.stats().makespan_s, 5.0);
  for (int r = 0; r < 4; ++r) EXPECT_GE(team.rank_time(r), 5.0);
}

TEST(FaultInjection, DelayedMessageArrivesLate) {
  constexpr u64 kTag = 77;
  auto plan = std::make_shared<FaultPlan>();
  plan->delay_message(0, 1, kTag, 2.5);
  Team team(cfg_with(2, plan));
  double recv_clock = 0.0;
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<u64> payload{42};
      c.send(1, kTag, std::span<const u64>(payload));
    } else {
      EXPECT_EQ(c.recv<u64>(0, kTag), (std::vector<u64>{42}));
      recv_clock = c.clock().now();
    }
  });
  EXPECT_GE(recv_clock, 2.5);
}

TEST(FaultInjection, SeededRandomDropIsDeterministic) {
  // Identical seeds must make identical drop decisions; different seeds
  // must (with overwhelming probability over 64 draws) diverge. rearm()
  // resets the RNG stream so a re-armed plan replays the same schedule.
  auto decisions = [](u64 seed) {
    FaultPlan plan(seed);
    plan.drop_messages_with_probability(0.3);
    plan.begin_run(2);
    std::vector<bool> out;
    double d = 0.0;
    for (u64 i = 0; i < 64; ++i) out.push_back(plan.on_send(0, 1, i, &d));
    return out;
  };
  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));

  FaultPlan plan(7);
  plan.drop_messages_with_probability(0.3);
  plan.begin_run(2);
  std::vector<bool> first;
  double d = 0.0;
  for (u64 i = 0; i < 64; ++i) first.push_back(plan.on_send(0, 1, i, &d));
  plan.rearm();
  for (u64 i = 0; i < 64; ++i)
    EXPECT_EQ(plan.on_send(0, 1, i, &d), first[i]);
}

TEST(FaultInjection, OpsObservedCountsCollectivesAndP2P) {
  auto plan = std::make_shared<FaultPlan>();
  Team team(cfg_with(2, plan));
  team.run([&](Comm& c) {
    c.barrier();                                            // op 0
    (void)c.allreduce_value<int>(1, std::plus<>{});         // op 1
    if (c.rank() == 0) {
      const std::vector<u32> v{9};
      c.send(1, 5, std::span<const u32>(v));                // op 2
    } else {
      (void)c.recv<u32>(0, 5);                              // op 2
    }
  });
  EXPECT_EQ(plan->ops_observed(0), 3u);
  EXPECT_EQ(plan->ops_observed(1), 3u);
}

// --- collective mismatch guard ---------------------------------------------

TEST(CollectiveGuard, MismatchedOpsProduceStructuredError) {
  Team team(cfg_with(4));
  try {
    team.run([&](Comm& c) {
      if (c.rank() == 3) {
        c.barrier();
      } else {
        (void)c.allreduce_value<int>(c.rank(), std::plus<>{});
      }
    });
    FAIL() << "expected collective_mismatch";
  } catch (const collective_mismatch& e) {
    const std::string what = e.what();
    // The report names both attempted ops and the offending rank.
    EXPECT_NE(what.find("Allreduce"), std::string::npos) << what;
    EXPECT_NE(what.find("Barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
  }
  // The team stays usable after the abort.
  team.run([&](Comm& c) { c.barrier(); });
}

TEST(CollectiveGuard, MismatchDetectedOnSubcommunicator) {
  // The survivor communicator of a shrink recovery is a non-world
  // communicator: rank 3 crashes entering the first barrier, and the three
  // survivors then disagree on their next collective.
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_rank_at_op(3, 0);
  TeamConfig cfg = cfg_with(4, plan);
  cfg.recoverable = true;
  Team team(cfg);
  EXPECT_THROW(team.run([&](Comm& c) {
                 try {
                   c.barrier();
                 } catch (const team_aborted&) {
                 }
                 Comm sub = c.recover_survivors();
                 ASSERT_EQ(sub.size(), 3);
                 if (sub.rank() == 1)
                   (void)sub.allreduce_value<int>(1, std::plus<>{});
                 else
                   sub.barrier();
               }),
               collective_mismatch);
  team.run([&](Comm& c) { c.barrier(); });  // team reusable
}

// --- watchdog ----------------------------------------------------------------

TEST(Watchdog, RecvOnNeverSentTagAbortsWithDiagnostic) {
  Team team(cfg_with(3, nullptr, /*watchdog_s=*/0.3));
  try {
    team.run([&](Comm& c) {
      if (c.rank() == 1) (void)c.recv<u64>(0, /*tag=*/424242);
    });
    FAIL() << "expected watchdog_timeout";
  } catch (const watchdog_timeout& e) {
    const std::string what = e.what();
    // Diagnostic names the stuck rank and its waiting site.
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("mailbox(src=0, tag=424242)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("last_op=Recv"), std::string::npos) << what;
  }
  // Reusable afterwards.
  team.run([&](Comm& c) { c.barrier(); });
}

TEST(Watchdog, DroppedMessageBecomesTimeoutNotHang) {
  constexpr u64 kTag = 99;
  auto plan = std::make_shared<FaultPlan>();
  plan->drop_message(0, 1, kTag);
  Team team(cfg_with(2, plan, /*watchdog_s=*/0.3));
  try {
    team.run([&](Comm& c) {
      if (c.rank() == 0) {
        const std::vector<u64> payload{7};
        c.send(1, kTag, std::span<const u64>(payload));
      } else {
        (void)c.recv<u64>(0, kTag);
      }
    });
    FAIL() << "expected watchdog_timeout";
  } catch (const watchdog_timeout& e) {
    EXPECT_NE(std::string(e.what()).find("tag=99"), std::string::npos)
        << e.what();
  }
}

TEST(Watchdog, BarrierCountMismatchAborts) {
  // One rank skips the collective entirely: the barrier never fills, which
  // under MPI is an infinite hang. The watchdog converts it into an abort
  // that shows who is parked.
  Team team(cfg_with(3, nullptr, /*watchdog_s=*/0.3));
  try {
    team.run([&](Comm& c) {
      if (c.rank() != 2) c.barrier();
    });
    FAIL() << "expected watchdog_timeout";
  } catch (const watchdog_timeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("site=barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("2/3 ranks parked"), std::string::npos) << what;
  }
}

TEST(Watchdog, DoesNotFireOnHealthyRuns) {
  Team team(cfg_with(4, nullptr, /*watchdog_s=*/0.5));
  team.run([&](Comm& c) {
    for (int i = 0; i < 100; ++i)
      (void)c.allreduce_value<int>(i, std::plus<>{});
  });
  // A second healthy run with the watchdog enabled also passes.
  team.run([&](Comm& c) { c.barrier(); });
}

// --- existing abort machinery (satellite coverage) ---------------------------

TEST(Abort, PeerParkedInMailboxPopIsPoisoned) {
  Team team(cfg_with(3, nullptr, /*watchdog_s=*/60.0));
  std::atomic<int> aborted{0};
  try {
    team.run([&](Comm& c) {
      if (c.rank() == 0) throw std::runtime_error("rank 0 died");
      try {
        (void)c.recv<u64>(0, 1);  // never sent: parks in Mailbox::pop
      } catch (const team_aborted&) {
        aborted.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the original error";
  } catch (const std::runtime_error& e) {
    // The original exception is rethrown, not team_aborted.
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
  EXPECT_EQ(aborted.load(), 2);
}

TEST(Abort, RerunAfterAbortHasFreshMailboxes) {
  constexpr u64 kTag = 31;
  Team team(cfg_with(2, nullptr, /*watchdog_s=*/0.3));
  // Run 1 leaves an undelivered message in rank 1's mailbox, then aborts.
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 0) {
                   const std::vector<u64> payload{1};
                   c.send(1, kTag, std::span<const u64>(payload));
                   throw std::runtime_error("boom");
                 }
                 c.barrier();
               }),
               std::runtime_error);
  // Run 2: the stale message must be gone — a recv on the same channel
  // times out instead of consuming leftovers from the aborted run.
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 1) (void)c.recv<u64>(0, kTag);
               }),
               watchdog_timeout);
  // And a clean run still works (barrier counts are back to zero).
  team.run([&](Comm& c) { c.barrier(); });
}

// --- resilient end-to-end sort ----------------------------------------------

const core::ResilienceConfig kRestart{core::RecoveryMode::RestartFull};

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

std::vector<u64> flatten_sorted(const std::vector<std::vector<u64>>& parts) {
  std::vector<u64> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(SortResilient, CleanRunSortsAndPreservesElements) {
  constexpr int P = 4;
  Team team(cfg_with(P));
  auto parts = random_partitions(P, 512, 11);
  const std::vector<u64> expected = flatten_sorted(parts);
  core::ResilienceReport rep;
  const core::SortStats stats = core::sort_resilient(
      team, parts, core::SortConfig{}, kRestart, &rep);
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(stats.elements_before, expected.size());
  EXPECT_EQ(stats.elements_after, expected.size());
  std::vector<u64> got;
  for (const auto& p : parts) {
    EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
    EXPECT_EQ(p.size(), 512u);  // perfect partitioning preserved
    got.insert(got.end(), p.begin(), p.end());
  }
  EXPECT_EQ(got, expected);
}

TEST(SortResilient, RecoversFromCrashAtEverySuperstepOp) {
  constexpr int P = 4;
  constexpr usize kPerRank = 96;
  const u64 seed = 23;

  // Probe run: count how many ops one full sort issues per rank, so the
  // crash sweep below covers every superstep (local sort, splitting,
  // exchange, merge) of core::sort.
  auto probe_plan = std::make_shared<FaultPlan>();
  u64 total_ops = 0;
  {
    Team team(cfg_with(P, probe_plan));
    auto parts = random_partitions(P, kPerRank, seed);
    (void)core::sort_resilient(team, parts, core::SortConfig{}, kRestart);
    total_ops = probe_plan->ops_observed(1);
    ASSERT_GT(total_ops, 4u);
  }

  const auto original = random_partitions(P, kPerRank, seed);
  const std::vector<u64> expected = flatten_sorted(original);
  // Sweep the crash across every op index (capped stride keeps the test
  // fast if the op count grows); log nothing silently: every k is exact.
  const u64 stride = std::max<u64>(1, total_ops / 24);
  for (u64 k = 0; k < total_ops; k += stride) {
    auto plan = std::make_shared<FaultPlan>();
    plan->crash_rank_at_op(1, k);
    Team team(cfg_with(P, plan, /*watchdog_s=*/10.0));
    auto parts = original;
    core::ResilienceReport rep;
    (void)core::sort_resilient(team, parts, core::SortConfig{}, kRestart,
                               &rep);
    EXPECT_EQ(rep.attempts, 2) << "crash at op " << k;
    std::vector<u64> got;
    for (const auto& p : parts) got.insert(got.end(), p.begin(), p.end());
    EXPECT_EQ(got, expected) << "crash at op " << k;
  }
}

TEST(SortResilient, InputPreservedWhenAllAttemptsFail) {
  constexpr int P = 2;
  auto plan = std::make_shared<FaultPlan>();
  for (int i = 0; i < 4; ++i) plan->crash_rank_at_op(0, 2);
  Team team(cfg_with(P, plan));
  auto parts = random_partitions(P, 64, 3);
  const auto original = parts;
  core::ResilienceConfig rcfg = kRestart;
  rcfg.fault_budget = 1;
  EXPECT_THROW(core::sort_resilient(team, parts, core::SortConfig{}, rcfg),
               rank_failed);
  // The caller's partitions were never clobbered by a failed attempt.
  EXPECT_EQ(parts, original);
}

}  // namespace
}  // namespace hds::runtime
