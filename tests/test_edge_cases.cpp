// Edge-case and regression tests across modules: team reuse, clock reset,
// nested phase scopes, subteam poisoning, self-messaging, empty-span
// searches, and split ordering stability.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "core/local_sort.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

TEST(TeamEdge, ClocksResetBetweenRuns) {
  Team team({.nranks = 2});
  team.run([&](Comm& c) { c.charge_seconds(1.0); });
  EXPECT_NEAR(team.stats().makespan_s, 1.0, 1e-12);
  team.run([&](Comm& c) { c.charge_seconds(0.25); });
  EXPECT_NEAR(team.stats().makespan_s, 0.25, 1e-12);
}

TEST(TeamEdge, MailboxesClearedBetweenRuns) {
  Team team({.nranks = 2});
  // First run leaves an unconsumed message behind.
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<u32> v{1};
      c.send(1, 9, std::span<const u32>(v));
    }
  });
  // Second run must not see it.
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 1) {
                   // Nothing was sent this run; a failing peer poisons us.
                   (void)c.recv<u32>(0, 9);
                 } else {
                   throw std::runtime_error("force abort");
                 }
               }),
               std::runtime_error);
}

TEST(TeamEdge, ExceptionInsideSubteamCollectiveUnblocks) {
  Team team({.nranks = 4});
  EXPECT_THROW(team.run([&](Comm& c) {
                 Comm half = c.split(c.rank() / 2, c.rank());
                 if (c.rank() == 0) throw std::runtime_error("boom");
                 half.barrier();  // peers parked on subteam barriers
                 half.barrier();
               }),
               std::runtime_error);
  team.run([&](Comm& c) { c.barrier(); });  // team reusable
}

TEST(TeamEdge, SelfSendReceives) {
  Team team({.nranks = 2});
  team.run([&](Comm& c) {
    const std::vector<u64> v{7, 8};
    c.send(c.rank(), 5, std::span<const u64>(v));
    EXPECT_EQ(c.recv<u64>(c.rank(), 5), v);
  });
}

TEST(TeamEdge, PhaseScopesNest) {
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    net::PhaseScope outer(c.clock(), net::Phase::LocalSort);
    c.charge_seconds(0.1);
    {
      net::PhaseScope inner(c.clock(), net::Phase::Merge);
      c.charge_seconds(0.2);
    }
    c.charge_seconds(0.3);  // back to LocalSort
  });
  EXPECT_NEAR(team.stats().phase_seconds(net::Phase::LocalSort), 0.4, 1e-12);
  EXPECT_NEAR(team.stats().phase_seconds(net::Phase::Merge), 0.2, 1e-12);
}

TEST(TeamEdge, SplitColorsNeedNotBeContiguous) {
  Team team({.nranks = 6});
  team.run([&](Comm& c) {
    // Colors 10, 20, 42 instead of 0..2.
    const int colors[] = {42, 10, 42, 20, 10, 42};
    Comm sub = c.split(colors[c.rank()], c.rank());
    const int expected_size = colors[c.rank()] == 42 ? 3
                              : colors[c.rank()] == 10 ? 2
                                                       : 1;
    EXPECT_EQ(sub.size(), expected_size);
  });
}

TEST(TeamEdge, ExscanWithNonZeroInit) {
  Team team({.nranks = 4});
  team.run([&](Comm& c) {
    const i64 r = c.exscan_value<i64>(1, std::plus<>{}, 100);
    EXPECT_EQ(r, 100 + c.rank());
  });
}

TEST(TeamEdge, AllreduceStructMin) {
  struct MinLoc {
    double value;
    int rank;
  };
  Team team({.nranks = 5});
  team.run([&](Comm& c) {
    const MinLoc mine{10.0 - c.rank(), c.rank()};
    MinLoc out{};
    c.allreduce(&mine, &out, 1, [](MinLoc a, MinLoc b) {
      return a.value < b.value ? a : b;
    });
    EXPECT_EQ(out.rank, 4);  // rank 4 holds the minimum value 6.0
    EXPECT_DOUBLE_EQ(out.value, 6.0);
  });
}

TEST(SearchEdge, EmptySpanCounts) {
  const std::vector<u64> empty;
  EXPECT_EQ(core::count_below(std::span<const u64>(empty), u64{5}, identity),
            0u);
  EXPECT_EQ(core::count_below_equal(std::span<const u64>(empty), u64{5},
                                    identity),
            0u);
}

TEST(SearchEdge, BoundsAtExtremes) {
  const std::vector<u64> v{2, 4, 4, 6};
  const std::span<const u64> s(v);
  EXPECT_EQ(core::count_below(s, u64{1}, identity), 0u);
  EXPECT_EQ(core::count_below(s, u64{4}, identity), 1u);
  EXPECT_EQ(core::count_below_equal(s, u64{4}, identity), 3u);
  EXPECT_EQ(core::count_below(s, u64{7}, identity), 4u);
  EXPECT_EQ(core::count_below_equal(s, u64{7}, identity), 4u);
}

TEST(SortEdgeMore, RepeatSortIsIdempotent) {
  const int P = 4;
  Xoshiro256 rng(9);
  std::vector<std::vector<u64>> shards(P);
  for (auto& s : shards)
    for (int i = 0; i < 300; ++i) s.push_back(rng());
  std::vector<std::vector<u64>> first(P), second(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::sort(c, local);
    first[c.rank()] = local;
    core::sort(c, local);  // sorting sorted data
    second[c.rank()] = std::move(local);
  });
  EXPECT_EQ(first, second);
}

TEST(SortEdgeMore, SortedInputMovesNothingWithSortedFlag) {
  const int P = 4;
  std::vector<std::vector<u64>> shards(P);
  u64 v = 0;
  for (auto& s : shards)
    for (int i = 0; i < 200; ++i) s.push_back(v += 2);
  Team t1({.nranks = P}), t2({.nranks = P});
  t1.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::SortConfig cfg;
    cfg.input_is_sorted = true;
    core::sort(c, local, cfg);
  });
  t2.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::sort(c, local);
  });
  // Skipping superstep 1 on sorted input is strictly cheaper.
  EXPECT_LT(t1.stats().makespan_s, t2.stats().makespan_s);
}

TEST(SortEdgeMore, MaxAndMinKeysAtRangeEdges) {
  const int P = 3;
  std::vector<std::vector<u64>> shards(P);
  shards[0] = {0, ~u64{0}};
  shards[1] = {~u64{0}, 0, 5};
  shards[2] = {1};
  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::sort(c, local);
    out[c.rank()] = std::move(local);
  });
  EXPECT_EQ(out[0], (std::vector<u64>{0, 0}));
  EXPECT_EQ(out[1], (std::vector<u64>{1, 5, ~u64{0}}));
  EXPECT_EQ(out[2], (std::vector<u64>{~u64{0}}));
}

TEST(SortEdgeMore, NegativeZeroAndInfinityDoubles) {
  const int P = 2;
  std::vector<std::vector<double>> shards(P);
  const double inf = std::numeric_limits<double>::infinity();
  shards[0] = {0.0, -inf, 1.0};
  shards[1] = {-0.0, inf, -1.0};
  std::vector<std::vector<double>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::sort(c, local);
    out[c.rank()] = std::move(local);
  });
  EXPECT_EQ(out[0][0], -inf);
  EXPECT_EQ(out[1][2], inf);
  // -0.0 and 0.0 order as equal keys; all finite values in between sorted.
  EXPECT_LE(out[0][1], out[0][2]);
  EXPECT_LE(out[0][2], out[1][0]);
}

}  // namespace
}  // namespace hds
