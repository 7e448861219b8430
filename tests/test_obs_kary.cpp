// Observability attribution of the k-ary exchange (DESIGN.md sec. 13):
// every round is one Data Alltoallv per rank, charged exactly
// CostModel::alltoallv of the round's own traced byte matrix; the rounds'
// matrices add up to the trace's communication matrix; and the traced
// slices reconcile with the SimClock phase sums across the k x P grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/exchange.h"
#include "core/multiselect.h"
#include "obs/report.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds {
namespace {

using runtime::Comm;
using runtime::Team;
using runtime::TeamConfig;

struct TracedKAry {
  std::unique_ptr<Team> team;
  std::vector<std::vector<double>> rounds;  ///< per rank: round seconds
};

/// One traced run of the k-ary exchange pipeline: per-rank local sort
/// (LocalSort), splitter determination (Histogram), then exchange_kary
/// (Exchange), capturing each rank's per-round seconds.
TracedKAry run_traced_kary(int P, int k, usize n, u64 seed) {
  TracedKAry out;
  TeamConfig cfg;
  cfg.nranks = P;
  cfg.trace = true;
  out.team = std::make_unique<Team>(cfg);
  out.rounds.assign(static_cast<usize>(P), {});
  out.team->run([&](Comm& c) {
    const auto key = [](u64 v) { return v; };
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<u64> local(n);
    for (auto& v : local) v = rng();
    {
      net::PhaseScope ps(c.clock(), net::Phase::LocalSort);
      std::sort(local.begin(), local.end());
      c.charge_sort(local.size());
    }
    const std::span<const u64> sorted_view(local.data(), local.size());
    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = [&] {
      net::PhaseScope ps(c.clock(), net::Phase::Histogram);
      return core::find_splitters(c, sorted_view, key,
                                  std::span<const usize>(targets));
    }();
    auto ex = core::exchange_kary(c, sorted_view, sp, k, {},
                                  &out.rounds[static_cast<usize>(c.rank())]);
    // Unmerged: the output is one sorted run per source.
    usize off = 0;
    for (usize len : ex.recv_counts) {
      EXPECT_TRUE(std::is_sorted(ex.data.begin() + off,
                                 ex.data.begin() + off + len));
      off += len;
    }
    EXPECT_EQ(off, ex.data.size());
  });
  return out;
}

TEST(KAryObs, PhaseSumsReconcileAcrossKAndP) {
  for (int P : {4, 8, 16}) {
    for (int k : {2, 4, P}) {
      const TracedKAry run = run_traced_kary(P, k, 1500, 31);
      const obs::TraceReport* trace = run.team->trace();
      ASSERT_NE(trace, nullptr);
      for (int r = 0; r < P; ++r) {
        const auto traced = trace->traced_phase_seconds(r);
        const auto& clock = trace->clock_phase_s[static_cast<usize>(r)];
        for (usize p = 0; p < net::kPhaseCount; ++p) {
          EXPECT_NEAR(traced[p], clock[p], 1e-9 * std::max(1.0, clock[p]))
              << "P=" << P << " k=" << k << " rank " << r << " phase "
              << net::phase_name(static_cast<net::Phase>(p));
        }
      }
    }
  }
}

TEST(KAryObs, PerRoundMatricesReconcileSendRecvAndCommMatrix) {
  constexpr int P = 16;
  const auto idx = [](int src, int dst) {
    return static_cast<usize>(src) * static_cast<usize>(P) +
           static_cast<usize>(dst);
  };
  for (int k : {2, 4, P}) {
    const usize nrounds = core::kary_round_factors(P, k).size();
    const TracedKAry run = run_traced_kary(P, k, 2000, 7);
    const obs::TraceReport* trace = run.team->trace();
    ASSERT_NE(trace, nullptr);
    for (const auto& rs : run.rounds)
      ASSERT_EQ(rs.size(), nrounds > 1 ? nrounds : 0u) << "k=" << k;

    // Each round is one Data Alltoallv event per rank; its (peer, bytes)
    // details rebuild the round's byte matrix, row by row.
    std::vector<std::vector<usize>> matrix(
        nrounds, std::vector<usize>(static_cast<usize>(P) * P, 0));
    std::vector<std::vector<double>> model_s(
        nrounds, std::vector<double>(static_cast<usize>(P), 0.0));
    for (int src = 0; src < P; ++src) {
      const auto& det = trace->details[static_cast<usize>(src)];
      usize round = 0;
      for (const obs::TraceEvent& e : trace->events[static_cast<usize>(src)]) {
        if (e.op != obs::OpKind::Alltoallv ||
            e.traffic != net::Traffic::Data)
          continue;
        ASSERT_LT(round, nrounds) << "k=" << k << " rank " << src;
        for (u32 i = 0; i < e.detail_count; ++i) {
          const usize off = (static_cast<usize>(e.detail_off) + i) * 2;
          matrix[round][idx(src, static_cast<int>(det[off]))] +=
              static_cast<usize>(det[off + 1]);
        }
        model_s[round][static_cast<usize>(src)] = e.model_s;
        ++round;
      }
      EXPECT_EQ(round, nrounds) << "k=" << k << " rank " << src;
    }

    // One transport, one price: every rank's round event is charged
    // exactly what CostModel::alltoallv charges that round's matrix.
    std::vector<rank_t> members(P);
    for (int r = 0; r < P; ++r) members[static_cast<usize>(r)] = r;
    for (usize r = 0; r < nrounds; ++r) {
      const double want = run.team->cost().alltoallv(
          std::span<const rank_t>(members),
          std::span<const usize>(matrix[r]), net::Traffic::Data);
      EXPECT_GT(want, 0.0) << "k=" << k << " round " << r;
      for (int rank = 0; rank < P; ++rank)
        EXPECT_EQ(model_s[r][static_cast<usize>(rank)], want)
            << "k=" << k << " round " << r << " rank " << rank;
      if (nrounds == 1) continue;  // exchange() records no rounds
      for (int rank = 0; rank < P; ++rank)
        EXPECT_GE(run.rounds[static_cast<usize>(rank)][r] + 1e-15, want)
            << "k=" << k << " round " << r << " rank " << rank;
    }

    // The rounds are the run's only Data-plane traffic, so their summed
    // matrices are the trace's comm matrix, cell for cell (forwarded bytes
    // on the forwarding rank's row, the last round's self-sends on the
    // diagonal), and their off-rank bytes are its off-rank total.
    const obs::CommMatrix m = trace->comm_matrix(/*data_only=*/true);
    ASSERT_EQ(m.nranks, P);
    u64 off_rank = 0;
    for (int src = 0; src < P; ++src) {
      for (int dst = 0; dst < P; ++dst) {
        u64 from_rounds = 0;
        for (usize r = 0; r < nrounds; ++r)
          from_rounds += matrix[r][idx(src, dst)];
        EXPECT_EQ(m.at(src, dst), from_rounds)
            << "k=" << k << " " << src << "->" << dst;
        if (src != dst) off_rank += from_rounds;
      }
    }
    EXPECT_EQ(m.total(), off_rank) << "k=" << k;
    EXPECT_GT(off_rank, 0u) << "k=" << k;
  }
}

}  // namespace
}  // namespace hds
