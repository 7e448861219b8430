// Tests for hds::check — the PGAS happens-before race checker: vector-clock
// algebra, the logical synchronization shapes (full-join / star / prefix /
// pairwise), shadow-memory conflict detection on GlobalVector, clean-run
// assertions over the histogram sort and both baselines (HSS and the
// shared-memory merge sort), the barrier/fence-elision mutation hooks
// (detector teeth), and the bit-identical-time invariant of disabled
// checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/hss_sort.h"
#include "baselines/parallel_merge_sort.h"
#include "check/race_detector.h"
#include "check/vector_clock.h"
#include "core/histogram_sort.h"
#include "runtime/global_vector.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::check {
namespace {

using runtime::Comm;
using runtime::GlobalVector;
using runtime::Team;
using runtime::TeamConfig;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

// --- vector-clock algebra ---------------------------------------------------

TEST(VectorClockTest, TickAdvancesOwnComponentOnly) {
  VectorClock vc(3);
  EXPECT_EQ(vc[0], 0u);
  EXPECT_EQ(vc.tick(1), 1u);
  EXPECT_EQ(vc.tick(1), 2u);
  EXPECT_EQ(vc[0], 0u);
  EXPECT_EQ(vc[1], 2u);
  EXPECT_EQ(vc[2], 0u);
}

TEST(VectorClockTest, JoinIsComponentwiseMax) {
  VectorClock a(3), b(3);
  a.tick(0);
  a.tick(0);
  b.tick(1);
  b.tick(2);
  b.tick(2);
  a.join(b);
  EXPECT_EQ(a[0], 2u);
  EXPECT_EQ(a[1], 1u);
  EXPECT_EQ(a[2], 2u);
  // Join is idempotent and monotone.
  VectorClock before = a;
  a.join(b);
  EXPECT_TRUE(before.leq(a) && a.leq(before));
}

TEST(VectorClockTest, OrderedAfterFollowsStamps) {
  VectorClock writer(2), reader(2);
  const u64 stamp = writer.tick(0);
  EXPECT_FALSE(reader.ordered_after(0, stamp));
  reader.join(writer);  // synchronization edge
  EXPECT_TRUE(reader.ordered_after(0, stamp));
  // A later event of the writer is again unordered.
  const u64 stamp2 = writer.tick(0);
  EXPECT_FALSE(reader.ordered_after(0, stamp2));
}

TEST(VectorClockTest, LeqAndConcurrency) {
  VectorClock a(2), b(2);
  EXPECT_TRUE(a.leq(b) && b.leq(a));  // equal clocks
  a.tick(0);
  b.tick(1);
  EXPECT_TRUE(a.concurrent_with(b));
  a.join(b);
  EXPECT_TRUE(b.leq(a));
  EXPECT_FALSE(a.leq(b));
  EXPECT_FALSE(a.concurrent_with(b));
}

// --- shape semantics, driven directly against the detector ------------------

struct Harness {
  explicit Harness(int P) : members(P) {
    for (int r = 0; r < P; ++r) {
      members[r] = r;
      tracers.push_back(std::make_unique<obs::RankTracer>());
    }
    rd = std::make_unique<RaceDetector>(CheckConfig{.enabled = true});
    rd->begin_run(P, tracers);
  }
  void collective(obs::OpKind op, int root = -1) {
    rd->on_collective(this, op, members, root);
  }
  std::vector<rank_t> members;
  std::vector<std::unique_ptr<obs::RankTracer>> tracers;
  std::unique_ptr<RaceDetector> rd;
  int obj = 0;  // shadow object identity
};

TEST(ShapeTest, FullJoinOrdersEveryPair) {
  Harness h(4);
  h.rd->on_access(1, &h.obj, 0, 0, 10, /*is_write=*/true, "w");
  h.collective(obs::OpKind::Allgather);
  h.rd->on_access(3, &h.obj, 0, 5, 6, /*is_write=*/false, "r");
  EXPECT_TRUE(h.rd->report().clean()) << h.rd->report().summary();
}

TEST(ShapeTest, BroadcastLeavesNonRootPairsUnordered) {
  Harness h(4);
  h.rd->on_access(1, &h.obj, 0, 0, 10, /*is_write=*/true, "w");
  h.collective(obs::OpKind::Broadcast, /*root=*/0);
  h.rd->on_access(3, &h.obj, 0, 5, 6, /*is_write=*/false, "r");
  ASSERT_EQ(h.rd->report().violations_total, 1u);
  const Violation& v = h.rd->report().violations[0];
  EXPECT_EQ(v.kind, Violation::Kind::Shadow);
  EXPECT_EQ(v.prior.rank, 1);
  EXPECT_EQ(v.current.rank, 3);
}

TEST(ShapeTest, BroadcastOrdersRootAgainstReceivers) {
  Harness h(4);
  h.rd->on_access(0, &h.obj, 0, 0, 10, /*is_write=*/true, "w");
  h.collective(obs::OpKind::Broadcast, /*root=*/0);
  h.rd->on_access(2, &h.obj, 0, 5, 6, /*is_write=*/false, "r");
  EXPECT_TRUE(h.rd->report().clean()) << h.rd->report().summary();
}

TEST(ShapeTest, GathervLeavesNonRootPairsUnordered) {
  Harness h(4);
  h.rd->on_access(2, &h.obj, 0, 0, 10, /*is_write=*/true, "w");
  h.collective(obs::OpKind::Gatherv, /*root=*/0);
  h.rd->on_access(1, &h.obj, 0, 0, 1, /*is_write=*/false, "r");
  EXPECT_EQ(h.rd->report().violations_total, 1u);
}

TEST(ShapeTest, DisjointRangesNeverConflict) {
  Harness h(2);
  h.rd->on_access(0, &h.obj, 0, 0, 5, /*is_write=*/true, "w");
  h.rd->on_access(1, &h.obj, 0, 5, 10, /*is_write=*/true, "w");
  h.rd->on_access(1, &h.obj, 1, 0, 5, /*is_write=*/true, "other shard");
  EXPECT_TRUE(h.rd->report().clean()) << h.rd->report().summary();
}

TEST(ShapeTest, ReadReadPairsNeverConflict) {
  Harness h(2);
  h.rd->on_access(0, &h.obj, 0, 0, 5, /*is_write=*/false, "r");
  h.rd->on_access(1, &h.obj, 0, 0, 5, /*is_write=*/false, "r");
  EXPECT_TRUE(h.rd->report().clean()) << h.rd->report().summary();
}

TEST(ShapeTest, ElisionSuppressesJoinsDeterministically) {
  CheckConfig cfg{.enabled = true};
  cfg.elide_op = obs::OpKind::Allgather;
  cfg.elide_index = 1;  // second allgather
  Harness h(4);
  h.rd = std::make_unique<RaceDetector>(cfg);
  h.rd->begin_run(4, h.tracers);
  h.collective(obs::OpKind::Allgather);  // #0: joins applied
  EXPECT_TRUE(h.rd->report().clean());
  h.collective(obs::OpKind::Allgather);  // #1: elided -> consumption races
  EXPECT_FALSE(h.rd->report().clean());
  EXPECT_GT(h.rd->report().joins_elided, 0u);
  EXPECT_EQ(h.rd->report().violations[0].kind,
            Violation::Kind::CollectiveData);
}

// --- checked runs over the real runtime -------------------------------------

std::vector<std::vector<u64>> make_shards(int P, usize n) {
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64({}, r, P, n);
  return shards;
}

/// Run `body` on a checked team and return the violation report.
CheckReport run_checked(int P, const std::function<void(Comm&)>& body,
                        CheckConfig cc = {.enabled = true}) {
  TeamConfig tc{.nranks = P};
  tc.check = cc;
  tc.check.enabled = true;
  Team team(tc);
  team.run(body);
  const CheckReport* rep = team.check_report();
  EXPECT_NE(rep, nullptr);
  return *rep;
}

TEST(CheckedRunTest, HistogramSortAndAllBaselinesAreViolationFree) {
  for (int P : {4, 8, 16}) {
    auto shards = make_shards(P, 400);
    struct Algo {
      const char* name;
      std::function<void(Comm&, std::vector<u64>&)> run;
    };
    const std::vector<Algo> algos = {
        {"histogram_sort",
         [](Comm& c, std::vector<u64>& v) { core::sort(c, v); }},
        {"hss_sort",
         [](Comm& c, std::vector<u64>& v) { baselines::hss_sort(c, v); }},
        {"parallel_merge_sort",
         [](Comm& c, std::vector<u64>& v) {
           baselines::parallel_merge_sort(c, v);
         }},
    };
    for (const Algo& algo : algos) {
      const CheckReport rep = run_checked(P, [&](Comm& c) {
        auto local = shards[c.rank()];
        algo.run(c, local);
        EXPECT_TRUE(core::is_globally_sorted(
            c, std::span<const u64>(local.data(), local.size()), identity));
      });
      EXPECT_TRUE(rep.clean())
          << algo.name << " at P=" << P << ": " << rep.summary();
      EXPECT_GT(rep.collectives_checked, 0u) << algo.name << " P=" << P;
      EXPECT_GT(rep.joins_applied, 0u) << algo.name << " P=" << P;
    }
  }
}

TEST(CheckedRunTest, ExchangeKernelGridIsViolationFree) {
  const int P = 8;
  auto shards = make_shards(P, 300);
  for (auto ex :
       {core::ExchangeAlgorithm::Alltoallv, core::ExchangeAlgorithm::KAry}) {
    core::SortConfig scfg;
    scfg.exchange = ex;
    const CheckReport rep = run_checked(P, [&](Comm& c) {
      auto local = shards[c.rank()];
      core::sort(c, local, scfg);
    });
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_GT(rep.collectives_checked, 0u);
  }
}

/// 64-byte record: wide enough that superstep 1 sorts it by reference and
/// the Alltoallv's receivers gather it through the senders' orders.
struct WideRec {
  u64 key;
  std::array<u64, 7> payload;
};

struct WideKey {
  u64 operator()(const WideRec& r) const { return r.key; }
};

std::vector<std::vector<WideRec>> make_wide_shards(int P, usize n) {
  std::vector<std::vector<WideRec>> shards(P);
  for (int r = 0; r < P; ++r)
    for (u64 k : workload::generate_u64({}, r, P, n))
      shards[r].push_back({k, {k, k, k, k, k, k, k}});
  return shards;
}

TEST(CheckedRunTest, RecordGatherSortIsViolationFree) {
  const int P = 4;
  auto shards = make_wide_shards(P, 600);
  for (auto ex :
       {core::ExchangeAlgorithm::Alltoallv, core::ExchangeAlgorithm::KAry}) {
    core::SortConfig scfg;
    scfg.exchange = ex;
    const CheckReport rep = run_checked(P, [&](Comm& c) {
      auto local = shards[c.rank()];
      const bool by_ref =
          core::sorts_by_ref<WideRec, WideKey>(c.machine(), local.size());
      EXPECT_TRUE(by_ref);
      core::sort_balanced(c, local, WideKey{}, scfg);
      EXPECT_TRUE(core::is_globally_sorted(
          c, std::span<const WideRec>(local.data(), local.size()),
          WideKey{}));
    });
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_GT(rep.collectives_checked, 0u);
  }
}

TEST(MutationTest, ElidedAlltoallvOnTheRecordGatherPathIsFlagged) {
  const int P = 4;
  auto shards = make_wide_shards(P, 600);
  CheckConfig cc{.enabled = true};
  cc.elide_op = obs::OpKind::Alltoallv;
  cc.elide_index = 0;  // the Alltoallv that gathers the records
  const CheckReport rep = run_checked(
      P,
      [&](Comm& c) {
        auto local = shards[c.rank()];
        core::sort_balanced(c, local, WideKey{});
      },
      cc);
  EXPECT_FALSE(rep.clean()) << "record-gather Alltoallv elision went "
                               "undetected";
  EXPECT_GT(rep.joins_elided, 0u);
}

TEST(CheckedRunTest, GlobalVectorPutBarrierGetIsClean) {
  const int P = 4;
  GlobalVector<u64> gv(P);
  for (int r = 0; r < P; ++r) gv.shard(r).assign(8, 0);
  const CheckReport rep = run_checked(P, [&](Comm& c) {
    gv.rebuild_index(c);
    // Everyone writes one element of the next rank's shard ...
    const usize next = (static_cast<usize>(c.rank()) + 1) % P;
    gv.put(c, next * 8, static_cast<u64>(c.rank()));
    c.barrier();  // the fence separating the put and get epochs
    // ... then reads the element its neighbour wrote into its own shard.
    const u64 got = gv.get(c, static_cast<usize>(c.rank()) * 8);
    EXPECT_EQ(got, static_cast<u64>((c.rank() + P - 1) % P));
  });
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_GT(rep.shadow_accesses, 0u);
}

TEST(CheckedRunTest, PairwiseMessageEdgeOrdersOneSidedRead) {
  const int P = 2;
  GlobalVector<u64> gv(P);
  for (int r = 0; r < P; ++r) gv.shard(r).assign(4, 7);
  const CheckReport rep = run_checked(P, [&](Comm& c) {
    gv.rebuild_index(c);
    if (c.rank() == 0) {
      gv.put(c, 1, 42);  // writes into own shard
      const u64 token = 1;
      c.send(1, /*tag=*/9, std::span<const u64>(&token, 1));
    } else {
      (void)c.recv<u64>(0, 9);  // pairwise edge orders the read below
      EXPECT_EQ(gv.get(c, 1), 42u);
    }
  });
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_GT(rep.p2p_edges, 0u);
}

TEST(CheckedRunTest, UnorderedRemoteReadIsFlagged) {
  // The quintessential PGAS bug TSan cannot see: rank 0 puts, rank 2 gets,
  // and the only intervening synchronization is a broadcast rooted at rank
  // 1 — which physically orders the two (so the run is TSan-clean and
  // deterministic) but leaves non-root pairs logically concurrent. Over
  // real one-sided communication the get could observe either value.
  const int P = 4;
  GlobalVector<u64> gv(P);
  for (int r = 0; r < P; ++r) gv.shard(r).assign(4, 0);
  const CheckReport rep = run_checked(P, [&](Comm& c) {
    gv.rebuild_index(c);
    if (c.rank() == 0) gv.put(c, 3 * 4 + 1, 42);  // element 1 of shard 3
    u64 token = 7;
    c.broadcast(&token, 1, /*root=*/1);  // not a fence between ranks 0 and 2
    if (c.rank() == 2) (void)gv.get(c, 3 * 4 + 1);
  });
  ASSERT_FALSE(rep.clean());
  const Violation& v = rep.violations[0];
  EXPECT_EQ(v.kind, Violation::Kind::Shadow);
  std::vector<rank_t> ranks{v.prior.rank, v.current.rank};
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<rank_t>{0, 2}));
  EXPECT_TRUE(v.prior.is_write || v.current.is_write);
  EXPECT_NE(v.location.find("shard 3"), std::string::npos);
}

// --- mutation tests: the detector must have teeth ---------------------------

TEST(MutationTest, ElidedFenceBarrierBetweenPutAndGetIsFlagged) {
  const int P = 4;
  GlobalVector<u64> gv(P);
  for (int r = 0; r < P; ++r) gv.shard(r).assign(8, 0);
  CheckConfig cc{.enabled = true};
  cc.elide_op = obs::OpKind::Barrier;
  cc.elide_index = 1;  // #0 is rebuild_index's trailing barrier
  const CheckReport rep = run_checked(
      P,
      [&](Comm& c) {
        gv.rebuild_index(c);
        const usize next = (static_cast<usize>(c.rank()) + 1) % P;
        gv.put(c, next * 8, static_cast<u64>(c.rank()));
        c.barrier();  // the elided fence
        (void)gv.get(c, static_cast<usize>(c.rank()) * 8);
      },
      cc);
  ASSERT_FALSE(rep.clean());
  EXPECT_GT(rep.joins_elided, 0u);
  // The report names both ranks with their op context from the crash ring.
  const Violation& v = rep.violations[0];
  EXPECT_EQ(v.kind, Violation::Kind::Shadow);
  EXPECT_NE(v.prior.rank, v.current.rank);
  EXPECT_FALSE(v.prior.recent.empty());
  EXPECT_FALSE(v.current.recent.empty());
  EXPECT_NE(v.to_string().find("PGAS consistency violation"),
            std::string::npos);
}

TEST(MutationTest, ElidedRebuildIndexFenceIsFlagged) {
  const int P = 4;
  GlobalVector<u64> gv(P);
  for (int r = 0; r < P; ++r) gv.shard(r).assign(8, 0);
  CheckConfig cc{.enabled = true};
  cc.elide_op = obs::OpKind::Barrier;
  cc.elide_index = 0;  // the barrier inside rebuild_index publishing offsets
  const CheckReport rep = run_checked(
      P,
      [&](Comm& c) {
        gv.rebuild_index(c);
        (void)gv.get(c, static_cast<usize>(c.rank()));
      },
      cc);
  ASSERT_FALSE(rep.clean());
  // Non-root locate() index reads race rank 0's offsets write.
  bool index_violation = false;
  for (const Violation& v : rep.violations)
    if (v.location.find("offsets index") != std::string::npos)
      index_violation = true;
  EXPECT_TRUE(index_violation) << rep.summary();
}

TEST(MutationTest, ElidedAllgatherInsideHistogramSortIsFlagged) {
  const int P = 8;
  auto shards = make_shards(P, 300);
  CheckConfig cc{.enabled = true};
  cc.elide_op = obs::OpKind::Allgather;
  cc.elide_index = 0;  // the capacity allgather opening the sort
  const CheckReport rep = run_checked(
      P,
      [&](Comm& c) {
        auto local = shards[c.rank()];
        core::sort(c, local);
      },
      cc);
  ASSERT_FALSE(rep.clean());
  EXPECT_GT(rep.joins_elided, 0u);
  const Violation& v = rep.violations[0];
  EXPECT_EQ(v.kind, Violation::Kind::CollectiveData);
  EXPECT_NE(v.prior.rank, v.current.rank);
  EXPECT_FALSE(v.prior.recent.empty());
  EXPECT_FALSE(v.current.recent.empty());
  EXPECT_NE(v.location.find("Allgather"), std::string::npos);
}

TEST(CheckedRunTest, HybridHistogramSortIsViolationFree) {
  // The sampled rounds add a SampleGather collective per round; its
  // full-join happens-before shape must leave the hybrid sort as clean as
  // the dense one.
  for (int P : {4, 8}) {
    auto shards = make_shards(P, 400);
    const CheckReport rep = run_checked(P, [&](Comm& c) {
      auto local = shards[c.rank()];
      core::SortConfig scfg;
      scfg.histogram = core::HistogramMode::Hybrid;
      core::sort(c, local, scfg);
      EXPECT_TRUE(core::is_globally_sorted(
          c, std::span<const u64>(local.data(), local.size()), identity));
    });
    EXPECT_TRUE(rep.clean()) << "P=" << P << "\n" << rep.summary();
    EXPECT_GT(rep.collectives_checked, 0u);
  }
}

TEST(MutationTest, ElidedSampleGatherInsideHybridSortIsFlagged) {
  // Detector teeth for the new collective: dropping the first sampled
  // round's gather join leaves every rank consuming the other ranks'
  // sample blocks unordered, which the checker must flag and attribute to
  // the SampleGather op.
  const int P = 8;
  auto shards = make_shards(P, 300);
  CheckConfig cc{.enabled = true};
  cc.elide_op = obs::OpKind::SampleGather;
  cc.elide_index = 0;  // the first sampled-round gather
  const CheckReport rep = run_checked(
      P,
      [&](Comm& c) {
        auto local = shards[c.rank()];
        core::SortConfig scfg;
        scfg.histogram = core::HistogramMode::Hybrid;
        core::sort(c, local, scfg);
      },
      cc);
  ASSERT_FALSE(rep.clean());
  EXPECT_GT(rep.joins_elided, 0u);
  const Violation& v = rep.violations[0];
  EXPECT_EQ(v.kind, Violation::Kind::CollectiveData);
  EXPECT_NE(v.prior.rank, v.current.rank);
  EXPECT_NE(v.location.find("SampleGather"), std::string::npos)
      << v.location;
}

TEST(MutationTest, EveryBaselineElisionIsFlagged) {
  // One representative synchronizing op per baseline; eliding it must be
  // noticed (the elided op's own data consumption becomes unordered).
  const int P = 4;
  auto shards = make_shards(P, 200);
  struct Case {
    const char* name;
    obs::OpKind op;
    std::function<void(Comm&, std::vector<u64>&)> run;
  };
  const std::vector<Case> cases = {
      {"hss_sort/broadcast", obs::OpKind::Broadcast,
       [](Comm& c, std::vector<u64>& v) { baselines::hss_sort(c, v); }},
      {"hss_sort/allreduce", obs::OpKind::Allreduce,
       [](Comm& c, std::vector<u64>& v) { baselines::hss_sort(c, v); }},
      {"histogram/alltoallv", obs::OpKind::Alltoallv,
       [](Comm& c, std::vector<u64>& v) { core::sort(c, v); }},
  };
  for (const Case& cs : cases) {
    CheckConfig cc{.enabled = true};
    cc.elide_op = cs.op;
    cc.elide_index = 0;
    const CheckReport rep = run_checked(
        P,
        [&](Comm& c) {
          auto local = shards[c.rank()];
          cs.run(c, local);
        },
        cc);
    EXPECT_FALSE(rep.clean()) << cs.name << " elision went undetected";
    EXPECT_GT(rep.joins_elided, 0u) << cs.name;
  }
}

// --- invariants -------------------------------------------------------------

TEST(CheckInvariantTest, DisabledCheckingLeavesSimulatedTimeBitIdentical) {
  const int P = 8;
  auto shards = make_shards(P, 500);
  auto run_once = [&](bool check) {
    TeamConfig tc{.nranks = P};
    tc.check.enabled = check;
    Team team(tc);
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      core::sort(c, local);
    });
    std::vector<double> times;
    for (int r = 0; r < P; ++r) times.push_back(team.rank_time(r));
    return times;
  };
  const auto base = run_once(false);
  const auto checked = run_once(true);
  ASSERT_EQ(base.size(), checked.size());
  for (usize r = 0; r < base.size(); ++r)
    EXPECT_EQ(base[r], checked[r]) << "rank " << r;  // bitwise, not approx
}

TEST(CheckInvariantTest, UncheckedRunHasNoReport) {
  Team team(TeamConfig{.nranks = 2});
  team.run([](Comm&) {});
  EXPECT_EQ(team.check_report(), nullptr);
}

TEST(CheckInvariantTest, FailOnViolationThrows) {
  const int P = 4;
  GlobalVector<u64> gv(P);
  for (int r = 0; r < P; ++r) gv.shard(r).assign(4, 0);
  TeamConfig tc{.nranks = P};
  tc.check.enabled = true;
  tc.check.fail_on_violation = true;
  Team team(tc);
  EXPECT_THROW(team.run([&](Comm& c) {
                 gv.rebuild_index(c);
                 if (c.rank() == 0) gv.put(c, 1, 1);
                 u64 token = 0;
                 c.broadcast(&token, 1, /*root=*/1);
                 if (c.rank() == 2) (void)gv.get(c, 1);
               }),
               pgas_violation);
}

TEST(CheckInvariantTest, MaxViolationsCapsRecordingNotCounting) {
  const int P = 4;
  auto shards = make_shards(P, 200);
  CheckConfig cc{.enabled = true};
  cc.max_violations = 2;
  cc.elide_op = obs::OpKind::Allgather;
  cc.elide_index = 0;
  const CheckReport rep = run_checked(
      P,
      [&](Comm& c) {
        auto local = shards[c.rank()];
        core::sort(c, local);
      },
      cc);
  EXPECT_LE(rep.violations.size(), 2u);
  EXPECT_GE(rep.violations_total, rep.violations.size());
  EXPECT_NE(rep.summary().find("further violations"), std::string::npos);
}

TEST(CheckInvariantTest, ReportCountersArePopulated) {
  const int P = 4;
  auto shards = make_shards(P, 300);
  const CheckReport rep = run_checked(P, [&](Comm& c) {
    auto local = shards[c.rank()];
    core::SortConfig scfg;
    scfg.exchange = core::ExchangeAlgorithm::KAry;  // uses send/recv
    core::sort(c, local, scfg);
  });
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.nranks, P);
  EXPECT_GT(rep.collectives_checked, 0u);
  EXPECT_GT(rep.p2p_edges, 0u);
  EXPECT_GT(rep.joins_applied, 0u);
  EXPECT_EQ(rep.joins_elided, 0u);
  EXPECT_NE(rep.summary().find("0 violations"), std::string::npos);
}

}  // namespace
}  // namespace hds::check
