// hds::model end-to-end tests (DESIGN.md sec. 15): the controlled
// scheduler is transparent (same outputs and simulated times as a free
// run), the explorer proves schedule determinism for the histogram sort
// and the runtime micro-protocols, each seeded protocol mutation is caught
// with a counterexample that replays from its serialized schedule file,
// the static matcher passes on correct programs and fails on a seeded
// collective-order swap, and a BorrowToken abandoned by an exception
// poisons the team instead of deadlocking the drain.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/explorer.h"
#include "model/recorder.h"
#include "model/scenarios.h"
#include "model/schedule_file.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds::model {
namespace {

using runtime::Comm;
using runtime::Team;
using runtime::TeamConfig;

/// Terminal-state classification mirroring explorer::check_run for the
/// single-run oracles (divergence needs a reference run and is handled
/// separately where tested).
std::string classify(const RunOutcome& out) {
  if (out.deadlock) return "deadlock";
  if (!out.completed) return "error";
  if (out.dtor_drains > 0) return "unwaited-borrow";
  if (out.undelivered > 0) return "undelivered";
  if (!out.quiescence.empty()) return "quiescence";
  return "";
}

void expect_clean(const ExploreReport& rep) {
  EXPECT_TRUE(rep.issues.empty())
      << rep.scenario << ": " << rep.issues.front();
  EXPECT_TRUE(rep.deterministic) << rep.scenario;
  EXPECT_TRUE(rep.counterexample_kind.empty())
      << rep.scenario << ": " << rep.counterexample_kind;
  EXPECT_GE(rep.runs, 1u);
}

// --- controlled-run transparency --------------------------------------------

TEST(ControlledScheduler, TransparentForHistogramSort) {
  const Scenario s = find_scenario("sort2");
  ASSERT_FALSE(s.name.empty());

  // Free run: same body, no scheduling hook.
  std::vector<u64> free_digests(2);
  std::vector<double> free_times(2);
  {
    Team team(TeamConfig{.nranks = 2});
    team.run([&](Comm& c) {
      free_digests[static_cast<usize>(c.rank())] = s.body(c);
    });
    for (int r = 0; r < 2; ++r)
      free_times[static_cast<usize>(r)] = team.rank_time(r);
  }

  const RunOutcome out = run_scenario(s, /*prefix=*/{}, Mutation{}, 100000);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.digests, free_digests);
  // Exact equality: the hook must not perturb the simulated clocks at all.
  EXPECT_EQ(out.final_times, free_times);
}

// --- determinism exploration -------------------------------------------------

TEST(ModelExplorer, HistogramSortP2Deterministic) {
  ExploreConfig cfg;
  cfg.max_runs = 48;
  expect_clean(explore(find_scenario("sort2"), cfg));
}

TEST(ModelExplorer, HistogramSortP3Deterministic) {
  ExploreConfig cfg;
  cfg.max_runs = 32;
  expect_clean(explore(find_scenario("sort3"), cfg));
}

TEST(ModelExplorer, KAry2ExchangeDeterministic) {
  // The k = 2 k-ary exchange: the hypercube's store-and-forward schedule.
  ExploreConfig cfg;
  cfg.max_runs = 32;
  expect_clean(explore(find_scenario("sort2-kary2"), cfg));
}

TEST(ModelExplorer, MailboxProtocolDeterministicWithRealBranching) {
  ExploreConfig cfg;
  cfg.max_runs = 96;
  const ExploreReport rep = explore(find_scenario("mailbox"), cfg);
  expect_clean(rep);
  // The ack-window protocol must actually expose schedule freedom —
  // otherwise the determinism claim is vacuous.
  EXPECT_GE(rep.branch_points, 1u);
  EXPECT_GE(rep.runs, 2u);
}

TEST(ModelExplorer, BorrowProtocolClean) {
  ExploreConfig cfg;
  cfg.max_runs = 64;
  expect_clean(explore(find_scenario("borrow"), cfg));
}

TEST(ModelExplorer, RecoveryRendezvousClean) {
  ExploreConfig cfg;
  cfg.max_runs = 64;
  expect_clean(explore(find_scenario("recovery"), cfg));
}

// --- seeded mutations: caught, serialized, replayed --------------------------

/// Explore with the mutation active, require a counterexample, round-trip
/// it through an hds-schedule file, and replay it: the replayed run must
/// reproduce the same terminal-state classification.
void check_mutation_caught(const std::string& scenario_name,
                           Mutation mutation,
                           const std::string& file_tag) {
  const Scenario s = find_scenario(scenario_name);
  ASSERT_FALSE(s.name.empty());
  ExploreConfig cfg;
  cfg.max_runs = 128;
  cfg.mutation = mutation;
  const ExploreReport rep = explore(s, cfg);
  ASSERT_FALSE(rep.counterexample_kind.empty())
      << mutation_kind_name(mutation.kind) << " on " << scenario_name
      << " survived " << rep.runs << " schedules";

  const std::string path = "model_ce_" + file_tag + ".schedule";
  ScheduleFile sf;
  sf.scenario = s.name;
  sf.mutation = mutation;
  sf.choices = rep.counterexample;
  ASSERT_TRUE(write_schedule(path, sf));
  const auto back = read_schedule(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->scenario, s.name);
  EXPECT_EQ(back->choices, rep.counterexample);
  ASSERT_EQ(static_cast<int>(back->mutation.kind),
            static_cast<int>(mutation.kind));

  const RunOutcome replay =
      run_scenario(s, back->choices, back->mutation, cfg.max_steps);
  EXPECT_FALSE(replay.replay_diverged);
  if (rep.counterexample_kind == "output-divergence" ||
      rep.counterexample_kind == "time-divergence") {
    // Divergence is relative to the reference schedule: replaying the
    // counterexample must complete but differ from the reference run.
    ASSERT_TRUE(replay.completed) << replay.error;
    const RunOutcome ref =
        run_scenario(s, /*prefix=*/{}, back->mutation, cfg.max_steps);
    ASSERT_TRUE(ref.completed) << ref.error;
    EXPECT_TRUE(replay.digests != ref.digests ||
                replay.final_times != ref.final_times);
  } else {
    EXPECT_EQ(classify(replay), rep.counterexample_kind);
  }
}

TEST(ModelMutations, DropBarrierCaughtWithReplayableCounterexample) {
  check_mutation_caught("mailbox",
                        Mutation{Mutation::Kind::DropBarrier, 0, 0},
                        "drop_barrier");
}

TEST(ModelMutations, ReorderPushCaughtWithReplayableCounterexample) {
  check_mutation_caught("mailbox",
                        Mutation{Mutation::Kind::ReorderPush, 0, 0},
                        "reorder_push");
}

TEST(ModelMutations, SkipBorrowWaitCaughtWithReplayableCounterexample) {
  check_mutation_caught("borrow",
                        Mutation{Mutation::Kind::SkipBorrowWait, 0, 0},
                        "skip_borrow_wait");
}

// --- schedule file round-trip ------------------------------------------------

TEST(ScheduleFile, RoundTripsAndRejectsMalformed) {
  const std::string path = "model_roundtrip.schedule";
  ScheduleFile sf;
  sf.scenario = "mailbox";
  sf.mutation = Mutation{Mutation::Kind::ReorderPush, 2, 5};
  sf.choices = {0, 1, 1, 3, 0};
  ASSERT_TRUE(write_schedule(path, sf));
  const auto back = read_schedule(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->scenario, sf.scenario);
  EXPECT_EQ(static_cast<int>(back->mutation.kind),
            static_cast<int>(sf.mutation.kind));
  EXPECT_EQ(back->mutation.rank, sf.mutation.rank);
  EXPECT_EQ(back->mutation.nth, sf.mutation.nth);
  EXPECT_EQ(back->choices, sf.choices);
  std::remove(path.c_str());

  EXPECT_FALSE(read_schedule("no_such_schedule_file").has_value());
}

// --- static schedule matcher -------------------------------------------------

TEST(ScheduleMatcher, CleanProtocolPasses) {
  ScheduleRecorder rec;
  TeamConfig cfg{.nranks = 4};
  cfg.recorder = &rec;
  Team team(cfg);
  team.run([](Comm& c) {
    auto add = [](u64 a, u64 b) { return a + b; };
    (void)c.allreduce_value<u64>(static_cast<u64>(c.rank()), add);
    if (c.rank() == 0) {
      const u64 v = 42;
      c.send<u64>(1, 9, std::span<const u64>(&v, 1));
    }
    if (c.rank() == 1) (void)c.recv<u64>(0, 9);
    c.barrier();
  });
  const auto issues = rec.verify();
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_GT(rec.ops(), 0u);
}

TEST(ScheduleMatcher, CollectiveOrderSwapFails) {
  ScheduleRecorder rec;
  TeamConfig cfg{.nranks = 4};
  cfg.recorder = &rec;
  Team team(cfg);
  EXPECT_THROW(team.run([](Comm& c) {
    auto add = [](u64 a, u64 b) { return a + b; };
    if (c.rank() == 0) {
      c.barrier();
      (void)c.allreduce_value<u64>(1, add);
    } else {
      (void)c.allreduce_value<u64>(1, add);
      c.barrier();
    }
  }),
               std::exception);
  // The ghost capture is written before execution, so the matcher reports
  // the divergence even though the run aborted.
  const auto issues = rec.verify();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("collective sequence mismatch"),
            std::string::npos)
      << issues.front();
}

TEST(ScheduleMatcher, UnreceivedSendFails) {
  ScheduleRecorder rec;
  TeamConfig cfg{.nranks = 2};
  cfg.recorder = &rec;
  Team team(cfg);
  team.run([](Comm& c) {
    if (c.rank() == 0) {
      const u64 v = 7;
      // send_uncharged delivers without a matching recv ever being posted:
      // the payload sits in rank 1's mailbox when the run ends.
      c.send_uncharged<u64>(1, 3, std::span<const u64>(&v, 1));
    }
    c.barrier();
  });
  const auto issues = rec.verify();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("unreceived send"), std::string::npos)
      << issues.front();
}

TEST(ScheduleMatcher, UnwaitedLoanReported) {
  // A loan the caller never waits: the recorder must flag it even though
  // the destructor drains it cleanly at scope exit.
  ScheduleRecorder rec;
  TeamConfig cfg{.nranks = 2};
  cfg.recorder = &rec;
  Team team(cfg);
  team.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u64> buf(4, 5);
      {
        auto token = c.send_borrowed<u64>(
            1, 11, std::span<const u64>(buf.data(), buf.size()));
        // no token.wait(): dropped at scope exit
      }
      c.barrier();
    } else {
      (void)c.recv<u64>(0, 11);
      c.barrier();
    }
  });
  EXPECT_EQ(rec.loans_opened(), 1u);
  EXPECT_EQ(rec.loans_waited(), 0u);
  const auto issues = rec.verify();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("never explicitly waited"),
            std::string::npos)
      << issues.front();
}

// --- BorrowToken error-path regression (satellite 6) -------------------------

// A rank that throws while holding an unwaited BorrowToken must poison the
// team in the token's destructor: the receiver never posts its recv (it is
// parked in the barrier), so without the poison the drain would block until
// the watchdog timeout. The run must fail promptly with the *original*
// exception, not a watchdog report.
TEST(BorrowTokenErrorPath, PendingLoanOnUnwindPoisonsTeam) {
  TeamConfig cfg{.nranks = 2};
  cfg.watchdog_timeout_s = 120.0;  // a hang would trip the 600 s test timeout
  Team team(cfg);
  try {
    team.run([](Comm& c) {
      if (c.rank() == 0) {
        std::vector<u64> buf(64, 1);
        auto token = c.send_borrowed<u64>(
            1, 17, std::span<const u64>(buf.data(), buf.size()));
        throw std::runtime_error("sender failed mid-loan");
        // token's destructor runs during unwind with the loan pending
      }
      c.barrier();  // rank 1 parks here; must be released by the poison
    });
    FAIL() << "run completed despite the thrown error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sender failed mid-loan");
  }
}

}  // namespace
}  // namespace hds::model
