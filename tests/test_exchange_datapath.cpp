// Single-copy data path (DESIGN.md sec. 11): the pull-based alltoallv_into
// must deliver each receiver its senders' slices in source-rank order, with
// the counts and the simulated time a sequential oracle computes, and
// every sort config must give the gathered std::sort of its input; the
// borrowed-payload P2P must hand over exactly the lent bytes, and the
// channel-indexed mailbox must preserve FIFO-per-channel semantics the
// runtime's P2P ordering rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/mailbox.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Mailbox;
using runtime::Message;
using runtime::Team;

// ---------------------------------------------------------------------------
// Comm-level: alltoallv_into vs a sequential oracle

/// Per-destination send counts as a pure function of (P, rank), so the test
/// can derive every rank's incoming slices without communication.
using CountsFn = std::function<std::vector<usize>(int P, int rank)>;

struct PathResult {
  std::vector<std::vector<u64>> data;    // per rank, received elements
  std::vector<std::vector<usize>> counts;  // per rank, per-source counts
  std::vector<double> times;             // per rank, final simulated clock
};

/// Element i of rank r's send buffer (its send order).
u64 element(int rank, usize i) { return (static_cast<u64>(rank) << 32) | i; }

/// What every receiver must hold: the packed receive layout, each sender's
/// slice for it concatenated in source-rank order, with the per-source
/// counts, and as every rank's clock the CostModel charge of the byte
/// matrix (all ranks enter at time 0).
PathResult packed_oracle(int P, const CountsFn& counts_fn) {
  PathResult want;
  want.data.resize(P);
  want.counts.assign(P, std::vector<usize>(P, 0));
  std::vector<usize> matrix(static_cast<usize>(P) * P);
  for (int src = 0; src < P; ++src) {
    const std::vector<usize> send = counts_fn(P, src);
    usize off = 0;
    for (int dst = 0; dst < P; ++dst) {
      const usize c = send[static_cast<usize>(dst)];
      for (usize i = off; i < off + c; ++i)
        want.data[dst].push_back(element(src, i));
      want.counts[dst][src] = c;
      matrix[static_cast<usize>(src) * P + dst] = c * sizeof(u64);
      off += c;
    }
  }
  std::vector<rank_t> members(P);
  std::iota(members.begin(), members.end(), rank_t{0});
  net::MachineModel machine;  // a Team's placement of P ranks: one node
  machine.ranks_per_node = P;
  const net::CostModel cost(machine);
  want.times.assign(P, cost.alltoallv(members, matrix, net::Traffic::Data));
  return want;
}

/// Run one alltoallv_into of counts_fn's layout. Ranks with `ordered(rank)`
/// store their data reversed and send it through a KeyRef order that
/// restores element()'s sequence; the others send their data as it lies.
PathResult run_alltoallv(int P, const CountsFn& counts_fn,
                         const std::function<bool(int)>& ordered =
                             [](int) { return false; }) {
  Team team({.nranks = P});
  PathResult res;
  res.data.resize(P);
  res.counts.resize(P);
  res.times.resize(P);
  team.run([&](Comm& c) {
    const std::vector<usize> send = counts_fn(P, c.rank());
    usize total = 0;
    for (usize s : send) total += s;
    const bool by_order = ordered(c.rank());
    std::vector<u64> data(total);
    std::vector<KeyRef<u64>> refs;
    for (usize i = 0; i < total; ++i) {
      const u64 v = element(c.rank(), i);
      data[by_order ? total - 1 - i : i] = v;
      if (by_order) refs.push_back({v, total - 1 - i});
    }
    std::vector<u64> out;
    std::vector<usize> rc;
    c.alltoallv_into(std::span<const u64>(data),
                     std::span<const usize>(send), out, rc,
                     send_order(std::span<const KeyRef<u64>>(refs)));
    res.data[c.rank()] = std::move(out);
    res.counts[c.rank()] = std::move(rc);
  });
  for (int r = 0; r < P; ++r) res.times[r] = team.rank_time(r);
  return res;
}

void expect_matches(int P, const PathResult& got, const PathResult& want) {
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(got.data[r], want.data[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(got.counts[r], want.counts[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(got.times[r], want.times[r]) << "P=" << P << " rank " << r;
  }
}

void expect_matches_packed_oracle(int P, const CountsFn& counts_fn) {
  expect_matches(P, run_alltoallv(P, counts_fn), packed_oracle(P, counts_fn));
}

std::vector<usize> random_counts(int P, int rank) {
  // Deterministic, asymmetric, with some zero blocks.
  std::vector<usize> send(static_cast<usize>(P));
  for (int d = 0; d < P; ++d) {
    const u64 h = static_cast<u64>(rank) * 2654435761u + static_cast<u64>(d);
    send[static_cast<usize>(d)] = (h % 7 == 0) ? 0 : (h % 53);
  }
  return send;
}

TEST(AlltoallvInto, MatchesPackedOnRandomLayouts) {
  for (int P : {4, 8, 16}) expect_matches_packed_oracle(P, random_counts);
}

TEST(AlltoallvInto, MatchesPackedOnEmptyExchange) {
  for (int P : {4, 8, 16})
    expect_matches_packed_oracle(
        P, [](int p, int) { return std::vector<usize>(p, 0); });
}

TEST(AlltoallvInto, MatchesPackedOnAllToSelf) {
  for (int P : {4, 8, 16})
    expect_matches_packed_oracle(P, [](int p, int rank) {
      std::vector<usize> send(static_cast<usize>(p), 0);
      send[static_cast<usize>(rank)] = 37;
      return send;
    });
}

TEST(AlltoallvInto, MatchesPackedOnSkewedAllToOne) {
  // One rank receives everything — the serial-executor worst case the pull
  // path exists to fix.
  for (int P : {4, 8, 16})
    expect_matches_packed_oracle(P, [](int p, int rank) {
      std::vector<usize> send(static_cast<usize>(p), 0);
      send[0] = 29 + static_cast<usize>(rank);
      return send;
    });
}

TEST(AlltoallvInto, SendOrderMatchesPrePermutedData) {
  // Even ranks send through a KeyRef order (a reversal of their data), odd
  // ranks as their data lies; each receiver must copy each source the way
  // that source published, at the simulated time of the same exchange of
  // pre-permuted data.
  for (int P : {3, 4, 8})
    expect_matches(P,
                   run_alltoallv(P, random_counts,
                                 [](int rank) { return rank % 2 == 0; }),
                   packed_oracle(P, random_counts));
}

// ---------------------------------------------------------------------------
// Sort-level grid: exchange algorithm x kernel x merge vs the gathered
// std::sort (the kernel follows the per-rank size: 300 keys sort by
// comparison, 900 by radix)

/// Sort generated shards under cfg; the ranks' outputs, concatenated in
/// rank order, must be the gathered std::sort of the input, with every
/// rank keeping its input count (eps = 0).
void expect_matches_oracle(int P, const SortConfig& cfg, usize n_rank,
                           const workload::GenConfig& gen = {}) {
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> want;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, n_rank);
    want.insert(want.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(want.begin(), want.end());
  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> got;
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(out[r].size(), n_rank) << "P=" << P << " rank " << r;
    got.insert(got.end(), out[r].begin(), out[r].end());
  }
  EXPECT_EQ(got, want) << "P=" << P << " algo "
                       << static_cast<int>(cfg.exchange)
                       << " k=" << cfg.exchange_k;
}

SortConfig kary(int k, bool overlap_merge = false) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = k;
  cfg.overlap_merge = overlap_merge;
  return cfg;
}

TEST(SortOracleGrid, AlgorithmsTimesKernelsAtP8) {
  for (const SortConfig& cfg : {SortConfig{}, kary(2), kary(8)})
    for (usize n_rank : {300, 900}) expect_matches_oracle(8, cfg, n_rank);
}

TEST(SortOracleGrid, AlltoallvAtP4AndP16) {
  expect_matches_oracle(4, {}, 800);
  expect_matches_oracle(16, {}, 250);
}

TEST(SortOracleGrid, DirectOverlapMerge) {
  // The direct pairwise exchange (k = P) with merge-on-arrival: borrowed
  // payloads merged straight out of the senders' buffers.
  expect_matches_oracle(8, kary(8, true), 600);
  expect_matches_oracle(5, kary(5, true), 400);
}

TEST(SortOracleGrid, MergeStrategies) {
  for (MergeStrategy m : {MergeStrategy::Sort, MergeStrategy::Tournament,
                          MergeStrategy::Auto}) {
    SortConfig cfg;
    cfg.merge = m;
    expect_matches_oracle(8, cfg, 400);
  }
}

TEST(SortOracleGrid, SkewedInputWithDuplicates) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Zipf;
  expect_matches_oracle(8, {}, 700, gen);
}

// ---------------------------------------------------------------------------
// hds::check coverage of the pull path

TEST(DataPathCheck, PullPathRunsViolationFree) {
  for (int P : {4, 8, 16}) {
    runtime::TeamConfig tcfg;
    tcfg.nranks = P;
    tcfg.check.enabled = true;
    workload::GenConfig gen;
    std::vector<std::vector<u64>> shards(P);
    for (int r = 0; r < P; ++r)
      shards[r] = workload::generate_u64(gen, r, P, 400);
    Team team(tcfg);
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      sort(c, local);
    });
    ASSERT_NE(team.check_report(), nullptr);
    EXPECT_TRUE(team.check_report()->clean())
        << team.check_report()->summary();
    EXPECT_GT(team.check_report()->collectives_checked, 0u);
  }
}

TEST(DataPathCheck, ElidedAlltoallvJoinIsNoticedOnPullPath) {
  // Mutation test: logically delete the exchange's happens-before joins.
  // The physical pull still happens (ranks synchronize through the real
  // barriers), but the checker must flag the now-unordered consumption of
  // the published spans — proving the pull reads are modeled.
  runtime::TeamConfig tcfg;
  tcfg.nranks = 8;
  tcfg.check.enabled = true;
  tcfg.check.elide_op = obs::OpKind::Alltoallv;
  tcfg.check.elide_index = 0;
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(8);
  for (int r = 0; r < 8; ++r)
    shards[r] = workload::generate_u64(gen, r, 8, 500);
  Team team(tcfg);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local);
  });
  ASSERT_NE(team.check_report(), nullptr);
  EXPECT_GT(team.check_report()->joins_elided, 0u);
  EXPECT_FALSE(team.check_report()->clean());
}

// ---------------------------------------------------------------------------
// Borrowed-payload P2P

TEST(BorrowedSend, PairwiseSwapThroughRecvInto) {
  const int P = 4;
  Team team({.nranks = P});
  std::vector<std::vector<u64>> got(P);
  team.run([&](Comm& c) {
    const int partner = c.rank() ^ 1;
    std::vector<u64> mine(64);
    for (usize i = 0; i < mine.size(); ++i)
      mine[i] = (static_cast<u64>(c.rank()) << 16) | i;
    auto loan =
        c.send_borrowed(partner, /*tag=*/42, std::span<const u64>(mine));
    std::vector<u64> theirs(64);
    const usize n = c.recv_into(partner, 42, std::span<u64>(theirs));
    loan.wait();
    EXPECT_FALSE(loan.pending());
    ASSERT_EQ(n, 64u);
    for (usize i = 0; i < n; ++i)
      EXPECT_EQ(theirs[i], (static_cast<u64>(partner) << 16) | i);
    got[c.rank()] = std::move(theirs);
  });
}

TEST(BorrowedSend, PlainRecvAndRecvIntoConsumeLoans) {
  Team team({.nranks = 2});
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u32> a{1, 2, 3}, b{4, 5};
      auto la = c.send_borrowed(1, 7, std::span<const u32>(a));
      auto lb = c.send_borrowed(1, 8, std::span<const u32>(b));
      la.wait();
      lb.wait();
    } else {
      const std::vector<u32> a = c.recv<u32>(0, 7);
      EXPECT_EQ(a, (std::vector<u32>{1, 2, 3}));
      // recv_into a subspan: the loan lands in the tail of an
      // already-filled buffer.
      std::vector<u32> acc{9, 0, 0};
      EXPECT_EQ(c.recv_into(0, 8, std::span<u32>(acc).subspan(1)), 2u);
      EXPECT_EQ(acc, (std::vector<u32>{9, 4, 5}));
    }
  });
}

TEST(BorrowedSend, EmptyPayloadRoundTrips) {
  Team team({.nranks = 2});
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u64> empty;
      auto loan = c.send_borrowed(1, 3, std::span<const u64>(empty));
      loan.wait();
    } else {
      EXPECT_TRUE(c.recv<u64>(0, 3).empty());
    }
  });
}

TEST(BorrowedSend, DroppedMessageReturnsLoanImmediately) {
  // A fault-dropped borrowed send must pre-signal the token: the receiver
  // never sees the message, so nobody else would return the loan.
  runtime::TeamConfig tcfg;
  tcfg.nranks = 2;
  auto plan = std::make_shared<runtime::FaultPlan>();
  plan->drop_message(0, 1, /*tag=*/11);
  tcfg.fault = plan;
  Team team(tcfg);
  team.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<u64> data(16, 5);
      auto loan = c.send_borrowed(1, 11, std::span<const u64>(data));
      loan.wait();  // must not hang: the drop signals the token
      EXPECT_FALSE(loan.pending());
    }
    // Rank 1 deliberately does not receive (the message was dropped).
  });
}

TEST(BorrowedSend, RecvIntoRejectsTooSmallSpan) {
  Team team({.nranks = 2});
  EXPECT_THROW(team.run([&](Comm& c) {
                 if (c.rank() == 0) {
                   std::vector<u64> data(8, 1);
                   c.send(1, 5, std::span<const u64>(data));
                 } else {
                   std::vector<u64> dst(4);  // too small for 8
                   c.recv_into(0, 5, std::span<u64>(dst));
                 }
               }),
               invariant_error);
}

// ---------------------------------------------------------------------------
// Channel-indexed mailbox

Message make_msg(rank_t src, u64 tag, u8 payload) {
  Message m;
  m.src = src;
  m.tag = tag;
  m.data.assign(1, static_cast<std::byte>(payload));
  return m;
}

u8 payload_of(const Message& m) { return static_cast<u8>(m.data.at(0)); }

TEST(MailboxChannels, FifoPerChannelAcrossInterleavedChannels) {
  std::atomic<bool> abort{false};
  Mailbox mb(&abort);
  mb.push(make_msg(1, 7, 10));
  mb.push(make_msg(2, 7, 20));
  mb.push(make_msg(1, 7, 11));
  mb.push(make_msg(1, 9, 30));
  mb.push(make_msg(2, 7, 21));
  EXPECT_EQ(mb.pending(), 5u);

  EXPECT_EQ(payload_of(mb.pop(1, 7)), 10);  // FIFO within (1,7)
  EXPECT_EQ(payload_of(mb.pop(1, 7)), 11);
  EXPECT_EQ(payload_of(mb.pop(2, 7)), 20);  // (2,7) unaffected
  EXPECT_EQ(payload_of(mb.pop(1, 9)), 30);
  EXPECT_EQ(payload_of(mb.pop(2, 7)), 21);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(MailboxChannels, PendingChannelsListsDistinctChannels) {
  std::atomic<bool> abort{false};
  Mailbox mb(&abort);
  mb.push(make_msg(3, 1, 1));
  mb.push(make_msg(3, 1, 2));
  mb.push(make_msg(4, 2, 3));
  const auto chans = mb.pending_channels();
  ASSERT_EQ(chans.size(), 2u);  // two distinct channels, not three messages
  EXPECT_TRUE(std::count(chans.begin(), chans.end(),
                         std::make_pair(rank_t{3}, u64{1})) == 1);
  EXPECT_TRUE(std::count(chans.begin(), chans.end(),
                         std::make_pair(rank_t{4}, u64{2})) == 1);
}

TEST(MailboxChannels, AbortUnblocksPop) {
  std::atomic<bool> abort{true};
  Mailbox mb(&abort);
  EXPECT_THROW(mb.pop(0, 0), runtime::team_aborted);
}

}  // namespace
}  // namespace hds::core
