// Tests for the histogramming multiselect (Alg. 2+3) and the data exchange
// (Alg. 4): splitter conditions of Def. 4, iteration bounds of Sec. V-A,
// permutation-matrix invariants, and tie refinement.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "core/multiselect.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

/// Sorted shards for P ranks drawn from a workload distribution.
std::vector<std::vector<u64>> make_shards(int P, usize n_per_rank,
                                          workload::GenConfig cfg) {
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(cfg, r, P, n_per_rank);
    std::sort(shards[r].begin(), shards[r].end());
  }
  return shards;
}

/// Oracle check: for every boundary b, the resolved global boundary count
/// equals the target (eps == 0) and the splitter brackets it: the number of
/// keys strictly below the splitter is <= boundary <= number of keys <= it.
void check_splitters(int P, const std::vector<std::vector<u64>>& shards,
                     std::vector<usize> targets, MultiselectConfig cfg = {},
                     usize* iterations_out = nullptr,
                     net::MachineModel machine = {}) {
  std::vector<u64> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  const usize N = all.size();
  const double w = cfg.epsilon * static_cast<double>(N) / (2.0 * P);

  runtime::TeamConfig tc{.nranks = P};
  tc.machine = machine;
  Team team(tc);
  SplitterResult<u64> result;
  team.run([&](Comm& c) {
    const auto& local = shards[c.rank()];
    auto res = find_splitters(c, std::span<const u64>(local), identity,
                              std::span<const usize>(targets), cfg);
    if (c.rank() == 0) result = res;
    // Per-rank postconditions: local bounds consistent with the local shard.
    for (usize b = 0; b < targets.size(); ++b) {
      EXPECT_LE(res.local_lb[b], res.local_ub[b]);
      EXPECT_LE(res.local_ub[b], local.size());
    }
  });

  if (iterations_out) *iterations_out = result.iterations;
  ASSERT_EQ(result.boundary.size(), targets.size());
  for (usize b = 0; b < targets.size(); ++b) {
    const usize B = result.boundary[b];
    if (cfg.epsilon == 0.0) {
      EXPECT_EQ(B, targets[b]) << "boundary " << b;
    } else {
      EXPECT_LE(std::abs(static_cast<double>(B) -
                         static_cast<double>(targets[b])),
                w + 1e-9)
          << "boundary " << b;
    }
    if (targets[b] == 0 || targets[b] == N) continue;
    // Splitter key brackets the boundary in the sorted oracle.
    const u64 s = result.splitter[b];
    const usize below =
        std::lower_bound(all.begin(), all.end(), s) - all.begin();
    const usize below_eq =
        std::upper_bound(all.begin(), all.end(), s) - all.begin();
    EXPECT_LE(below, B);
    EXPECT_LE(B, below_eq);
    EXPECT_EQ(result.global_lb[b], below);
    EXPECT_EQ(result.global_ub[b], below_eq);
  }
}

std::vector<usize> even_targets(int P, usize n_per_rank) {
  std::vector<usize> t(P - 1);
  for (int b = 0; b < P - 1; ++b) t[b] = (b + 1) * n_per_rank;
  return t;
}

TEST(Multiselect, UniformKeysPerfectPartition) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Uniform;
  const auto shards = make_shards(8, 1000, cfg);
  check_splitters(8, shards, even_targets(8, 1000));
}

TEST(Multiselect, NormalKeys) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Normal;
  const auto shards = make_shards(6, 800, cfg);
  check_splitters(6, shards, even_targets(6, 800));
}

TEST(Multiselect, StaircaseAdversarial) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Staircase;
  const auto shards = make_shards(7, 500, cfg);
  check_splitters(7, shards, even_targets(7, 500));
}

TEST(Multiselect, AllEqualKeysResolveViaTies) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::AllEqual;
  const auto shards = make_shards(5, 400, cfg);
  usize iters = 0;
  check_splitters(5, shards, even_targets(5, 400), {}, &iters);
  // Equal keys cannot be separated by key bisection; ties resolve through
  // counts in very few rounds.
  EXPECT_LE(iters, 3u);
}

TEST(Multiselect, FewDistinctKeys) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::FewDistinct;
  cfg.alphabet = 4;
  const auto shards = make_shards(9, 300, cfg);
  check_splitters(9, shards, even_targets(9, 300));
}

TEST(Multiselect, SparseEmptyRanks) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Uniform;
  std::vector<std::vector<u64>> shards = make_shards(6, 500, cfg);
  shards[1].clear();
  shards[4].clear();
  // Targets follow the capacities (prefix sums of shard sizes).
  std::vector<usize> targets;
  usize acc = 0;
  for (int r = 0; r + 1 < 6; ++r) {
    acc += shards[r].size();
    targets.push_back(acc);
  }
  check_splitters(6, shards, targets);
}

TEST(Multiselect, ArbitraryTargetsQuantiles) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Exponential;
  const auto shards = make_shards(4, 1000, cfg);
  check_splitters(4, shards, {1, 100, 2000, 3999});
}

TEST(Multiselect, TargetsAtZeroAndN) {
  workload::GenConfig cfg;
  const auto shards = make_shards(4, 250, cfg);
  check_splitters(4, shards, {0, 500, 1000});
  check_splitters(4, shards, {250, 500, 750});
}

TEST(Multiselect, EpsilonRelaxationWithinWindow) {
  workload::GenConfig cfg;
  const auto shards = make_shards(8, 2000, cfg);
  MultiselectConfig mcfg;
  mcfg.epsilon = 0.1;
  usize it_eps = 0, it_exact = 0;
  check_splitters(8, shards, even_targets(8, 2000), mcfg, &it_eps);
  check_splitters(8, shards, even_targets(8, 2000), {}, &it_exact);
  EXPECT_LE(it_eps, it_exact);
}

TEST(Multiselect, IterationCountBoundedByKeyWidth) {
  // Sec. V-A: iterations are bounded by the key width and independent of P.
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Uniform;
  cfg.hi = 1'000'000'000;  // ~2^30 distinct values -> ~30 iterations
  for (int P : {4, 16}) {
    const auto shards = make_shards(P, 512, cfg);
    usize iters = 0;
    check_splitters(P, shards, even_targets(P, 512), {}, &iters);
    EXPECT_GE(iters, 15u) << "P=" << P;
    EXPECT_LE(iters, 34u) << "P=" << P;
  }
}

TEST(Multiselect, NarrowKeyRangeConvergesFaster) {
  workload::GenConfig narrow, wide;
  narrow.hi = 255;  // 8-bit effective keys
  wide.hi = ~u64{0} >> 1;
  usize it_narrow = 0, it_wide = 0;
  check_splitters(4, make_shards(4, 800, narrow), even_targets(4, 800), {},
                  &it_narrow);
  check_splitters(4, make_shards(4, 800, wide), even_targets(4, 800), {},
                  &it_wide);
  EXPECT_LT(it_narrow, it_wide);
  EXPECT_LE(it_narrow, 10u);
}

// The sampled initialization is the Hybrid mode's sampled rounds: they
// bracket every boundary from a pooled sample before the dense rounds.
TEST(Multiselect, SampledInitConvergesAndIsNoWorse) {
  workload::GenConfig cfg;
  const auto shards = make_shards(8, 1500, cfg);
  MultiselectConfig sampled;
  sampled.histogram = HistogramMode::Hybrid;
  usize it_sampled = 0, it_minmax = 0;
  check_splitters(8, shards, even_targets(8, 1500), sampled, &it_sampled);
  check_splitters(8, shards, even_targets(8, 1500), {}, &it_minmax);
  EXPECT_LT(it_sampled, it_minmax);
}

TEST(Multiselect, SampledInitSurvivesAdversarialSample) {
  // Staircase input: per-rank samples are clustered, so the sampled
  // brackets are coarse; the search must still converge to the Def. 4
  // splitters, and in no more rounds than dense bisection.
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Staircase;
  const auto shards = make_shards(6, 700, cfg);
  MultiselectConfig sampled;
  sampled.histogram = HistogramMode::Hybrid;
  usize it_sampled = 0, it_dense = 0;
  check_splitters(6, shards, even_targets(6, 700), sampled, &it_sampled);
  check_splitters(6, shards, even_targets(6, 700), {}, &it_dense);
  EXPECT_LE(it_sampled, it_dense);
}

TEST(Multiselect, SignedAndFloatKeys) {
  // Direct call with doubles including negatives.
  const int P = 4;
  std::vector<std::vector<double>> shards(P);
  Xoshiro256 rng(5);
  std::vector<double> all;
  for (auto& s : shards) {
    for (int i = 0; i < 500; ++i) s.push_back(rng.normal() * 1e6);
    std::sort(s.begin(), s.end());
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<usize> targets = {500, 1000, 1500};
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    const auto& local = shards[c.rank()];
    auto res = find_splitters(c, std::span<const double>(local), identity,
                              std::span<const usize>(targets));
    for (usize b = 0; b < 3; ++b) EXPECT_EQ(res.boundary[b], targets[b]);
  });
}

// ---------------------------------------------------------------------------
// Hybrid sampled histogramming (HSS-style rounds folded into the search).
// ---------------------------------------------------------------------------

/// find_splitters under `cfg` on `machine` (one node by default); the
/// (replicated) result taken from rank 0.
SplitterResult<u64> run_mode(int P, const std::vector<std::vector<u64>>& shards,
                             const std::vector<usize>& targets,
                             MultiselectConfig cfg,
                             net::MachineModel machine = {}) {
  runtime::TeamConfig tc{.nranks = P};
  tc.machine = machine;
  Team team(tc);
  SplitterResult<u64> result;
  team.run([&](Comm& c) {
    auto res = find_splitters(c, std::span<const u64>(shards[c.rank()]),
                              identity, std::span<const usize>(targets), cfg);
    if (c.rank() == 0) result = res;
  });
  return result;
}

TEST(HistogramModes, IdenticalSplittersAtEpsilonZero) {
  // Def. 4 with eps = 0 admits exactly one splitter key per boundary — the
  // key whose tie class contains the target rank — so every mode must
  // land on the same key, boundary, and global bracket on every
  // distribution, no matter how the sampled rounds narrowed the search.
  // Auto runs on two nodes, where its sampled rounds pay.
  constexpr int P = 16;
  constexpr usize n = 256;
  struct DistCase {
    const char* name;
    workload::Dist dist;
  };
  const DistCase dists[] = {
      {"uniform", workload::Dist::Uniform},
      {"zipf", workload::Dist::Zipf},
      {"fewdistinct", workload::Dist::FewDistinct},
      {"allequal", workload::Dist::AllEqual},
  };
  for (const DistCase& d : dists) {
    SCOPED_TRACE(d.name);
    workload::GenConfig gen;
    gen.dist = d.dist;
    const auto shards = make_shards(P, n, gen);
    const auto targets = even_targets(P, n);
    MultiselectConfig cfg;
    cfg.histogram = HistogramMode::Dense;
    const auto dense = run_mode(P, shards, targets, cfg);
    EXPECT_EQ(dense.sampled_rounds, 0u);
    EXPECT_EQ(dense.hist_bytes_sampled, 0u);
    const auto two_nodes = net::MachineModel::supermuc_phase2(2, P / 2);
    for (HistogramMode m : {HistogramMode::Hybrid, HistogramMode::Auto}) {
      SCOPED_TRACE(histogram_mode_name(m));
      cfg.histogram = m;
      const net::MachineModel machine =
          m == HistogramMode::Auto ? two_nodes : net::MachineModel{};
      // Def. 4 oracle validity.
      check_splitters(P, shards, targets, cfg, nullptr, machine);
      const auto res = run_mode(P, shards, targets, cfg, machine);
      EXPECT_EQ(res.splitter, dense.splitter);
      EXPECT_EQ(res.boundary, dense.boundary);
      EXPECT_EQ(res.global_lb, dense.global_lb);
      EXPECT_EQ(res.global_ub, dense.global_ub);
    }
  }
}

TEST(HistogramModes, EpsilonWindowHoldsAcrossModes) {
  constexpr int P = 16;
  constexpr usize n = 256;
  for (workload::Dist d : {workload::Dist::Uniform, workload::Dist::Zipf,
                           workload::Dist::FewDistinct}) {
    workload::GenConfig gen;
    gen.dist = d;
    const auto shards = make_shards(P, n, gen);
    for (HistogramMode m : {HistogramMode::Dense, HistogramMode::Hybrid,
                            HistogramMode::Auto}) {
      for (const net::MachineModel& machine :
           {net::MachineModel{}, net::MachineModel::supermuc_phase2(2, 8)}) {
        MultiselectConfig cfg;
        cfg.histogram = m;
        cfg.epsilon = 0.1;
        check_splitters(P, shards, even_targets(P, n), cfg, nullptr,
                        machine);
      }
    }
  }
}

/// Full sort of `shards` under `cfg` on `machine`: each rank's output, each
/// rank's final clock and stats, and the team's phase seconds.
struct SortRun {
  std::vector<std::vector<u64>> out;
  std::vector<double> clock;
  std::vector<SortStats> stats;
  net::TeamStats team;
};

SortRun run_sort(const std::vector<std::vector<u64>>& shards, SortConfig cfg,
                 net::MachineModel machine = {}) {
  const int P = static_cast<int>(shards.size());
  runtime::TeamConfig tc{.nranks = P};
  tc.machine = machine;
  Team team(tc);
  SortRun run;
  run.out.resize(shards.size());
  run.stats.resize(shards.size());
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    run.stats[c.rank()] = sort(c, local, cfg);
    run.out[c.rank()] = std::move(local);
  });
  for (int r = 0; r < P; ++r) run.clock.push_back(team.rank_time(r));
  run.team = team.stats();
  return run;
}

TEST(HistogramModes, AutoDecliningRoundZeroIsDense) {
  // On one node a sampled round (a 2.5 us gather) costs more than the
  // dense rounds it saves (1 us allreduces), so Auto prices round 0 and
  // declines it. It must then run Dense's exact op sequence: per-rank
  // clocks, stats, histogram bytes and output bit-identical.
  constexpr int P = 4;
  workload::GenConfig gen;
  gen.hi = 1'000'000'000;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, usize{1} << 14);
  SortConfig dense_cfg;
  dense_cfg.histogram = HistogramMode::Dense;
  const SortRun dense = run_sort(shards, dense_cfg);
  const SortRun autom = run_sort(shards, SortConfig{});  // Auto, the default
  for (int r = 0; r < P; ++r) {
    SCOPED_TRACE(r);
    const SortStats& a = autom.stats[r];
    const SortStats& d = dense.stats[r];
    ASSERT_EQ(a.histogram_decisions.size(), 1u);
    EXPECT_FALSE(a.histogram_decisions[0].taken);
    EXPECT_GT(a.histogram_decisions[0].sampled_s,
              a.histogram_decisions[0].saved_rounds *
                  a.histogram_decisions[0].dense_s);
    EXPECT_TRUE(d.histogram_decisions.empty());
    EXPECT_EQ(autom.clock[r], dense.clock[r]);
    EXPECT_EQ(autom.out[r], dense.out[r]);
    EXPECT_EQ(a.histogram_iterations, d.histogram_iterations);
    EXPECT_EQ(a.splitter_probes, d.splitter_probes);
    EXPECT_EQ(a.elements_sent_off_rank, d.elements_sent_off_rank);
    EXPECT_EQ(a.elements_before, d.elements_before);
    EXPECT_EQ(a.elements_after, d.elements_after);
    EXPECT_EQ(a.histogram_convergence, d.histogram_convergence);
    EXPECT_EQ(a.sampled_rounds, 0u);
    EXPECT_EQ(a.sample_keys_total, 0u);
    EXPECT_EQ(a.hist_bytes_sampled, 0u);
    EXPECT_EQ(a.hist_bytes_dense, d.hist_bytes_dense);
    EXPECT_EQ(a.round_probes, d.round_probes);
  }
  EXPECT_EQ(autom.team.makespan_s, dense.team.makespan_s);
  EXPECT_EQ(autom.team.phase_s, dense.team.phase_s);
}

TEST(HistogramModes, AutoSamplesAcrossNodes) {
  // Across nodes every histogram round pays the inter-node stage
  // overhead: a sampled round is one gather, a dense round an allreduce
  // (two tree passes), so Auto samples, lands on Dense's output and
  // finishes the sort sooner.
  constexpr int P = 4;
  workload::GenConfig gen;
  gen.hi = 1'000'000'000;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 4096);
  const auto machine = net::MachineModel::supermuc_phase2(2, 2);
  SortConfig dense_cfg;
  dense_cfg.histogram = HistogramMode::Dense;
  const SortRun dense = run_sort(shards, dense_cfg, machine);
  const SortRun autom = run_sort(shards, SortConfig{}, machine);
  EXPECT_GE(autom.stats[0].sampled_rounds, 1u);
  ASSERT_FALSE(autom.stats[0].histogram_decisions.empty());
  EXPECT_TRUE(autom.stats[0].histogram_decisions[0].taken);
  EXPECT_EQ(autom.out, dense.out);
  EXPECT_LT(autom.team.makespan_s, dense.team.makespan_s);
  EXPECT_LT(autom.stats[0].histogram_iterations,
            dense.stats[0].histogram_iterations);
}

TEST(HistogramModes, SampledPoolIsLinearInP) {
  // Each segment's sample budget is (kOversample + 2) keys per open
  // boundary over all ranks, so a sampled round pools O(P) keys however
  // many segments are open — not a block per rank per segment. The bound
  // 2 * P * (kOversample + 2) is DESIGN.md sec. 16's (and the histogram
  // gate's): the factor 2 covers the strides' estimated segment masses.
  constexpr usize n = 512;
  for (int P : {16, 64}) {
    const auto machine = net::MachineModel::supermuc_phase2(P / 8, 8);
    for (workload::Dist d : {workload::Dist::Uniform, workload::Dist::Zipf}) {
      workload::GenConfig gen;
      gen.dist = d;
      const auto shards = make_shards(P, n, gen);
      const auto targets = even_targets(P, n);
      for (HistogramMode m : {HistogramMode::Hybrid, HistogramMode::Auto}) {
        SCOPED_TRACE(testing::Message()
                     << "P=" << P << " " << workload::dist_name(d) << " "
                     << histogram_mode_name(m));
        MultiselectConfig cfg;
        cfg.histogram = m;
        const auto res = run_mode(P, shards, targets, cfg, machine);
        EXPECT_GE(res.sampled_rounds, 1u);
        ASSERT_GE(res.round_probes.size(), res.sampled_rounds);
        usize pooled = 0;
        for (usize i = 0; i < res.sampled_rounds; ++i) {
          EXPECT_LE(res.round_probes[i],
                    2 * static_cast<usize>(P) * (detail::kOversample + 2))
              << "sampled round " << i;
          pooled += res.round_probes[i];
        }
        EXPECT_EQ(pooled, res.sample_keys_total);
      }
    }
  }
}

TEST(HistogramModes, HybridConvergesFasterOnUniform) {
  // The point of the sampled rounds: on a uniform key space the sampled CDF
  // shrinks every bracket multiplicatively per round, so the hybrid resolves
  // in a handful of rounds where dense bisection needs ~log2(key range), and
  // moves strictly fewer probe counts through the allreduce.
  constexpr int P = 16;
  constexpr usize n = 1024;
  workload::GenConfig gen;
  gen.dist = workload::Dist::Uniform;
  const auto shards = make_shards(P, n, gen);
  const auto targets = even_targets(P, n);
  const auto dense = run_mode(P, shards, targets, {});
  MultiselectConfig hcfg;
  hcfg.histogram = HistogramMode::Hybrid;
  const auto hybrid = run_mode(P, shards, targets, hcfg);
  EXPECT_GT(hybrid.sampled_rounds, 0u);
  EXPECT_GT(hybrid.sample_keys_total, 0u);
  EXPECT_GT(hybrid.hist_bytes_sampled, 0u);
  EXPECT_LT(hybrid.iterations, dense.iterations);
  EXPECT_LT(hybrid.probes_total, dense.probes_total);
  EXPECT_LT(hybrid.hist_bytes_dense, dense.hist_bytes_dense);
  // One per-round entry per executed round, sampled rounds included.
  EXPECT_EQ(hybrid.round_probes.size(), hybrid.iterations);
  EXPECT_EQ(dense.round_probes.size(), dense.iterations);
}

TEST(HistogramModes, SampledStallsFallBackToDenseOnAllEqual) {
  // An all-equal key space gives the sampler nothing to narrow: every
  // sampled key is the same, the per-round mass cannot shrink, and the
  // stall detector must hand over to dense count refinement, which resolves
  // ties through counts in very few rounds (cf. AllEqualKeysResolveViaTies).
  constexpr int P = 8;
  workload::GenConfig gen;
  gen.dist = workload::Dist::AllEqual;
  const auto shards = make_shards(P, 400, gen);
  MultiselectConfig cfg;
  cfg.histogram = HistogramMode::Hybrid;
  usize iters = 0;
  check_splitters(P, shards, even_targets(P, 400), cfg, &iters);
  EXPECT_LE(iters, 5u);
}

TEST(HistogramModes, HybridNoMoreRoundsThanDenseOnSortedKeys) {
  // Globally (reverse-)sorted full-range keys give each rank one narrow
  // band of the key space. The dense rounds do most of the search here,
  // and must still need no more rounds than Dense's bisection.
  constexpr int P = 16;
  constexpr usize n = 512;
  for (workload::Dist d :
       {workload::Dist::ReverseSorted, workload::Dist::NearlySorted}) {
    SCOPED_TRACE(workload::dist_name(d));
    workload::GenConfig gen;
    gen.dist = d;
    gen.hi = ~u64{0} >> 1;
    gen.seed = 7;
    const auto shards = make_shards(P, n, gen);
    MultiselectConfig hcfg;
    hcfg.histogram = HistogramMode::Hybrid;
    usize it_hybrid = 0, it_dense = 0;
    check_splitters(P, shards, even_targets(P, n), hcfg, &it_hybrid);
    check_splitters(P, shards, even_targets(P, n), {}, &it_dense);
    EXPECT_LE(it_hybrid, it_dense);
  }
}

TEST(HybridHistogram, FewDistinctResolvesInFewRounds) {
  // Few distinct keys leave wide empty key gaps between the tie classes.
  // Snapping each bracket end onto the nearest real key jumps every gap in
  // one round, so the search needs a handful of rounds, not the key width.
  struct Case {
    int P;
    usize n;
    u64 seed;
  };
  for (const Case& k : {Case{4, 500, 15}, Case{16, 512, 7}}) {
    SCOPED_TRACE(k.P);
    workload::GenConfig gen;
    gen.dist = workload::Dist::FewDistinct;
    gen.alphabet = 16;
    gen.seed = k.seed;
    std::vector<std::vector<u64>> shards(k.P);
    for (int r = 0; r < k.P; ++r)
      shards[r] = workload::generate_u64(gen, r, k.P, k.n);
    SortConfig cfg;
    cfg.histogram = HistogramMode::Hybrid;
    usize iterations = 0;
    Team team({.nranks = k.P});
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      const SortStats st = sort(c, local, cfg);
      EXPECT_TRUE(
          is_globally_sorted(c, std::span<const u64>(local), identity));
      if (c.rank() == 0) iterations = st.histogram_iterations;
    });
    EXPECT_LE(iterations, 8u);
  }
}

TEST(HybridHistogram, SampledReopenMatchesDense) {
  // Seed found by searching small inputs for one on which a slack-guarded
  // sampled shrink loses a splitter, so that a later sampled round's exact
  // segment counts disprove the bracket and reopen it (sampled_reopens
  // counts it). The search must still land on Dense's splitters (eps = 0
  // admits only one).
  constexpr int P = 22;
  constexpr usize n = 39;
  workload::GenConfig gen;
  gen.dist = workload::Dist::Uniform;
  gen.hi = ~u64{0} >> 1;
  gen.seed = 2943812495442610627ULL;
  const auto shards = make_shards(P, n, gen);
  const auto targets = even_targets(P, n);
  MultiselectConfig cfg;
  const auto dense = run_mode(P, shards, targets, cfg);
  EXPECT_EQ(dense.sampled_reopens, 0u);
  cfg.histogram = HistogramMode::Hybrid;
  check_splitters(P, shards, targets, cfg);
  const auto hybrid = run_mode(P, shards, targets, cfg);
  EXPECT_GT(hybrid.sampled_reopens, 0u);
  EXPECT_EQ(hybrid.splitter, dense.splitter);
  EXPECT_EQ(hybrid.boundary, dense.boundary);
}

TEST(HybridHistogram, AnchorDisproofMatchesDense) {
  // Seed found by searching inputs for one on which a sampled bracket top
  // misses its target inside a segment merged with a neighbour's bracket:
  // the segment's exact top count still covers the target, so only the
  // exact count of the anchor at the bracket's top disproves it
  // (anchor_disproofs counts it). The search must still land on Dense's
  // splitters.
  constexpr int P = 78;
  constexpr usize n = 42;
  workload::GenConfig gen;
  gen.dist = workload::Dist::Uniform;
  gen.hi = ~u64{0} >> 1;
  gen.seed = 11188556590366068ULL;
  const auto shards = make_shards(P, n, gen);
  const auto targets = even_targets(P, n);
  MultiselectConfig cfg;
  const auto dense = run_mode(P, shards, targets, cfg);
  EXPECT_EQ(dense.anchor_disproofs, 0u);
  cfg.histogram = HistogramMode::Hybrid;
  check_splitters(P, shards, targets, cfg);
  const auto hybrid = run_mode(P, shards, targets, cfg);
  EXPECT_GT(hybrid.anchor_disproofs, 0u);
  EXPECT_EQ(hybrid.splitter, dense.splitter);
  EXPECT_EQ(hybrid.boundary, dense.boundary);
}

TEST(HybridHistogram, CrossingSplittersStillExchange) {
  // Regression: rank sizes 65/8/1/2 put targets 73 and 74 less than two
  // epsilon windows apart, and Hybrid's per-boundary interpolation accepted
  // boundary 2 at a smaller key (13) than boundary 1 (14). Lifting boundary
  // 2 to boundary 1's count then left it outside its splitter's tie range,
  // and the exchange's tie refinement could not place the elements.
  constexpr int P = 4;
  const std::vector<std::vector<u64>> shards = {
      {11, 3, 13, 9, 2, 9, 2, 11, 6, 8, 3, 2, 6, 0, 0, 2, 0, 9, 10, 10, 14, 9,
       4, 2, 9, 9, 6, 4, 8, 4, 12, 12, 13, 0, 9, 6, 1, 7, 10, 1, 2, 15, 1, 0,
       2, 7, 6, 9, 1, 5, 6, 5, 10, 10, 15, 1, 2, 11, 5, 10, 2, 9, 11, 10, 4},
      {11, 12, 0, 1, 14, 3, 11, 1},
      {0},
      {2, 1}};
  SortConfig cfg;
  cfg.histogram = HistogramMode::Hybrid;
  cfg.epsilon = 0.3;
  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    EXPECT_TRUE(
        is_globally_sorted(c, std::span<const u64>(local), identity));
    out[c.rank()] = std::move(local);
  });

  std::vector<u64> all, merged;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  for (const auto& o : out) merged.insert(merged.end(), o.begin(), o.end());
  std::sort(all.begin(), all.end());
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);

  const usize window = static_cast<usize>(
      cfg.epsilon * static_cast<double>(all.size()) / (2.0 * P));
  usize target = 0, prefix = 0;
  for (int r = 0; r + 1 < P; ++r) {
    target += shards[r].size();
    prefix += out[r].size();
    EXPECT_LE(prefix, target + window) << "boundary " << r;
    EXPECT_LE(target, prefix + window) << "boundary " << r;
  }
}

// ---------------------------------------------------------------------------
// Exchange (Alg. 4).
// ---------------------------------------------------------------------------

/// Full splitting + exchange; verifies the permutation invariants.
void check_exchange(int P, std::vector<std::vector<u64>> shards,
                    double epsilon = 0.0) {
  for (auto& s : shards) std::sort(s.begin(), s.end());
  std::vector<usize> capacities;
  std::vector<usize> targets;
  usize acc = 0;
  for (int r = 0; r < P; ++r) capacities.push_back(shards[r].size());
  for (int r = 0; r + 1 < P; ++r) {
    acc += capacities[r];
    targets.push_back(acc);
  }
  std::vector<u64> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  const usize N = all.size();

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    const auto& local = shards[c.rank()];
    MultiselectConfig mcfg;
    mcfg.epsilon = epsilon;
    const auto sp = find_splitters(c, std::span<const u64>(local), identity,
                                   std::span<const usize>(targets), mcfg);
    auto ex = exchange(c, std::span<const u64>(local), sp);
    // Received chunk structure is consistent.
    usize sum = 0;
    for (usize cnt : ex.recv_counts) sum += cnt;
    EXPECT_EQ(sum, ex.data.size());
    std::sort(ex.data.begin(), ex.data.end());
    out[c.rank()] = std::move(ex.data);
  });

  // Global content is a permutation of the input.
  std::vector<u64> merged;
  for (const auto& o : out) merged.insert(merged.end(), o.begin(), o.end());
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);

  // Partition boundaries respect global order.
  for (int r = 0; r + 1 < P; ++r) {
    if (out[r].empty() || out[r + 1].empty()) continue;
    EXPECT_LE(out[r].back(), out[r + 1].front());
  }

  if (epsilon == 0.0) {
    // Perfect partitioning: output sizes equal input capacities.
    for (int r = 0; r < P; ++r)
      EXPECT_EQ(out[r].size(), capacities[r]) << "rank " << r;
  } else {
    const double cap = static_cast<double>(N) / P * (1.0 + epsilon);
    for (int r = 0; r < P; ++r)
      EXPECT_LE(static_cast<double>(out[r].size()), cap + 1e-9);
  }
}

TEST(Exchange, UniformPerfectPartition) {
  workload::GenConfig cfg;
  check_exchange(6, make_shards(6, 700, cfg));
}

TEST(Exchange, AllEqualTiesSplitByCounts) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::AllEqual;
  check_exchange(5, make_shards(5, 300, cfg));
}

TEST(Exchange, ZipfHeavyDuplicates) {
  workload::GenConfig cfg;
  cfg.dist = workload::Dist::Zipf;
  check_exchange(8, make_shards(8, 600, cfg));
}

TEST(Exchange, UnevenCapacities) {
  Xoshiro256 rng(17);
  std::vector<std::vector<u64>> shards(5);
  for (int r = 0; r < 5; ++r)
    for (int i = 0; i < 100 * (r + 1); ++i) shards[r].push_back(rng());
  check_exchange(5, shards);
}

TEST(Exchange, SparseEmptyShards) {
  Xoshiro256 rng(19);
  std::vector<std::vector<u64>> shards(6);
  for (int r : {0, 3, 5})
    for (int i = 0; i < 400; ++i) shards[r].push_back(rng() % 1000);
  check_exchange(6, shards);
}

TEST(Exchange, EpsilonBalanced) {
  workload::GenConfig cfg;
  check_exchange(8, make_shards(8, 1000, cfg), 0.05);
}

TEST(Exchange, SendCountsSumToLocalSize) {
  workload::GenConfig cfg;
  const int P = 4;
  auto shards = make_shards(P, 512, cfg);
  std::vector<usize> targets = even_targets(P, 512);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    const auto& local = shards[c.rank()];
    const auto sp = find_splitters(c, std::span<const u64>(local), identity,
                                   std::span<const usize>(targets));
    const auto send = compute_send_counts(c, local.size(), sp);
    usize total = 0;
    for (usize s : send) total += s;
    EXPECT_EQ(total, local.size());
  });
}

TEST(Exchange, NLessThanP) {
  // Fewer elements than ranks: most partitions end up empty.
  std::vector<std::vector<u64>> shards(8);
  shards[2] = {42, 7};
  shards[6] = {99};
  check_exchange(8, shards);
}

TEST(Exchange, EmptyGlobalInput) {
  std::vector<std::vector<u64>> shards(4);
  check_exchange(4, shards);
}

}  // namespace
}  // namespace hds::core
