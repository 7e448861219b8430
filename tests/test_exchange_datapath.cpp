// Single-copy data path (DESIGN.md sec. 11): the pull-based alltoallv_into
// and borrowed-payload P2P must produce byte-identical results versus the
// packed Comm::alltoallv reference — with bit-identical simulated time
// wherever the op sequence is the same (the collective itself, and the
// default sort) — across exchange algorithms, local-sort kernels, rank
// counts, and degenerate layouts; and the channel-indexed mailbox must
// preserve FIFO-per-channel semantics the runtime's P2P ordering rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
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
// Comm-level: alltoallv_into vs packed alltoallv

/// Per-destination send counts as a pure function of (P, rank), so the test
/// can derive every rank's incoming total without communication.
using CountsFn = std::function<std::vector<usize>(int P, int rank)>;

struct PathResult {
  std::vector<std::vector<u64>> data;    // per rank, received elements
  std::vector<std::vector<usize>> counts;  // per rank, per-source counts
  std::vector<double> times;             // per rank, final simulated clock
};

enum class IntoMode { Packed, PullVector, PullSpan };

PathResult run_alltoallv(int P, const CountsFn& counts_fn, IntoMode mode) {
  Team team({.nranks = P});
  PathResult res;
  res.data.resize(P);
  res.counts.resize(P);
  res.times.resize(P);
  team.run([&](Comm& c) {
    const std::vector<usize> send = counts_fn(P, c.rank());
    usize total = 0;
    for (usize s : send) total += s;
    std::vector<u64> data(total);
    for (usize i = 0; i < total; ++i)
      data[i] = (static_cast<u64>(c.rank()) << 32) | i;

    std::vector<u64> out;
    std::vector<usize> rc;
    switch (mode) {
      case IntoMode::Packed:
        out = c.alltoallv(std::span<const u64>(data),
                          std::span<const usize>(send), &rc);
        break;
      case IntoMode::PullVector:
        c.alltoallv_into(std::span<const u64>(data),
                         std::span<const usize>(send), out, rc);
        break;
      case IntoMode::PullSpan: {
        // The span overload needs a pre-sized destination; incoming totals
        // are derivable locally because counts_fn is a pure function.
        usize incoming = 0;
        for (int src = 0; src < P; ++src)
          incoming += counts_fn(P, src)[static_cast<usize>(c.rank())];
        out.resize(incoming);
        c.alltoallv_into(std::span<const u64>(data),
                         std::span<const usize>(send), std::span<u64>(out),
                         rc);
        break;
      }
    }
    res.data[c.rank()] = std::move(out);
    res.counts[c.rank()] = std::move(rc);
  });
  for (int r = 0; r < P; ++r) res.times[r] = team.rank_time(r);
  return res;
}

void expect_paths_identical(int P, const CountsFn& counts_fn) {
  const PathResult packed = run_alltoallv(P, counts_fn, IntoMode::Packed);
  const PathResult pull_v = run_alltoallv(P, counts_fn, IntoMode::PullVector);
  const PathResult pull_s = run_alltoallv(P, counts_fn, IntoMode::PullSpan);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(packed.data[r], pull_v.data[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(packed.data[r], pull_s.data[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(packed.counts[r], pull_v.counts[r]) << "P=" << P << " rank "
                                                  << r;
    EXPECT_EQ(packed.counts[r], pull_s.counts[r]) << "P=" << P << " rank "
                                                  << r;
    // Bit-identical simulated time: the cost model charges volume, not copy
    // count, and both paths charge from the same byte matrix.
    EXPECT_EQ(packed.times[r], pull_v.times[r]) << "P=" << P << " rank " << r;
    EXPECT_EQ(packed.times[r], pull_s.times[r]) << "P=" << P << " rank " << r;
  }
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
  for (int P : {4, 8, 16}) expect_paths_identical(P, random_counts);
}

TEST(AlltoallvInto, MatchesPackedOnEmptyExchange) {
  for (int P : {4, 8, 16})
    expect_paths_identical(
        P, [](int p, int) { return std::vector<usize>(p, 0); });
}

TEST(AlltoallvInto, MatchesPackedOnAllToSelf) {
  for (int P : {4, 8, 16})
    expect_paths_identical(P, [](int p, int rank) {
      std::vector<usize> send(static_cast<usize>(p), 0);
      send[static_cast<usize>(rank)] = 37;
      return send;
    });
}

TEST(AlltoallvInto, MatchesPackedOnSkewedAllToOne) {
  // One rank receives everything — the serial-executor worst case the pull
  // path exists to fix.
  for (int P : {4, 8, 16})
    expect_paths_identical(P, [](int p, int rank) {
      std::vector<usize> send(static_cast<usize>(p), 0);
      send[0] = 29 + static_cast<usize>(rank);
      return send;
    });
}

TEST(AlltoallvInto, SpanOverloadRejectsWrongSize) {
  Team team({.nranks = 4});
  EXPECT_THROW(team.run([&](Comm& c) {
                 std::vector<u64> data(4, 7);
                 std::vector<usize> send(4, 1);
                 std::vector<u64> dst(1);  // needs 4
                 std::vector<usize> rc;
                 c.alltoallv_into(std::span<const u64>(data),
                                  std::span<const usize>(send),
                                  std::span<u64>(dst), rc);
               }),
               invariant_error);
}

// ---------------------------------------------------------------------------
// Sort-level grid: exchange algorithm x kernel vs the packed reference
// (the kernel follows the per-rank size: 300 keys sort by comparison, 900
// by radix)

/// core::sort with its exchange superstep replaced by the packed reference:
/// compute_send_counts followed by the arena-staged Comm::alltoallv. The op
/// sequence is the default Alltoallv sort's, so the two must agree in
/// simulated time as well as in bytes.
void packed_reference_sort(Comm& c, std::vector<u64>& local,
                           const SortConfig& cfg) {
  SortState<u64, SortKeyImage<u64, IdentityKey>> st;
  st.out_capacity = local.size();
  st.data = std::move(local);
  advance_superstep(c, st, IdentityKey{}, cfg);  // local sort
  advance_superstep(c, st, IdentityKey{}, cfg);  // splitters
  {
    net::PhaseScope phase(c.clock(), net::Phase::Exchange);
    const std::vector<usize> send =
        compute_send_counts(c, st.data.size(), st.splitters);
    st.data = c.alltoallv(std::span<const u64>(st.data),
                          std::span<const usize>(send), &st.recv_counts);
  }
  st.completed = SuperstepId::Exchanged;
  advance_superstep(c, st, IdentityKey{}, cfg);  // merge
  local = std::move(st.data);
}

struct SortRun {
  std::vector<std::vector<u64>> out;
  std::vector<double> times;
};

SortRun run_sort(int P, const runtime::TeamConfig& tcfg, SortConfig cfg,
                 usize n_rank, bool packed,
                 const workload::GenConfig& gen = {}) {
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, n_rank);
  SortRun res;
  res.out.resize(P);
  res.times.resize(P);
  Team team(tcfg);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    if (packed)
      packed_reference_sort(c, local, cfg);
    else
      sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()),
        [](u64 v) { return v; }));
    res.out[c.rank()] = std::move(local);
  });
  for (int r = 0; r < P; ++r) res.times[r] = team.rank_time(r);
  return res;
}

/// Every exchange algorithm must deliver the packed reference's bytes; the
/// collective path must also match its simulated time exactly.
void expect_matches_packed_reference(int P, SortConfig cfg, usize n_rank) {
  const runtime::TeamConfig tcfg{.nranks = P};
  const SortRun pull = run_sort(P, tcfg, cfg, n_rank, false);
  const SortRun packed = run_sort(P, tcfg, cfg, n_rank, true);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(pull.out[r], packed.out[r])
        << "P=" << P << " rank " << r << " algo "
        << static_cast<int>(cfg.exchange) << " k=" << cfg.exchange_k;
    if (cfg.exchange == ExchangeAlgorithm::Alltoallv) {
      EXPECT_EQ(pull.times[r], packed.times[r]) << "P=" << P << " rank " << r;
    }
  }
}

SortConfig kary(int k, bool overlap_merge = false) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = k;
  cfg.overlap_merge = overlap_merge;
  return cfg;
}

TEST(PackedReferenceGrid, AlgorithmsTimesKernelsAtP8) {
  for (const SortConfig& cfg : {SortConfig{}, kary(2), kary(8)})
    for (usize n_rank : {300, 900})
      expect_matches_packed_reference(8, cfg, n_rank);
}

TEST(PackedReferenceGrid, AlltoallvAtP4AndP16) {
  expect_matches_packed_reference(4, {}, 800);
  expect_matches_packed_reference(16, {}, 250);
}

TEST(PackedReferenceGrid, DirectOverlapMerge) {
  // The direct pairwise exchange (k = P) with merge-on-arrival: borrowed
  // payloads merged straight out of the senders' buffers.
  expect_matches_packed_reference(8, kary(8, true), 600);
  expect_matches_packed_reference(5, kary(5, true), 400);
}

TEST(PackedReferenceGrid, MergeStrategiesSeeIdenticalChunks) {
  for (MergeStrategy m : {MergeStrategy::Sort, MergeStrategy::BinaryTree,
                          MergeStrategy::Tournament}) {
    SortConfig cfg;
    cfg.merge = m;
    expect_matches_packed_reference(8, cfg, 400);
  }
}

TEST(PackedReferenceGrid, SkewedInputWithDuplicates) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Zipf;
  runtime::TeamConfig tcfg;
  tcfg.nranks = 8;
  const SortRun pull = run_sort(8, tcfg, {}, 700, false, gen);
  const SortRun packed = run_sort(8, tcfg, {}, 700, true, gen);
  usize total = 0;
  for (const auto& o : pull.out) total += o.size();
  EXPECT_EQ(total, 8u * 700u);
  EXPECT_EQ(pull.out, packed.out);
  EXPECT_EQ(pull.times, packed.times);
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
