// Records wider than three key images through the distributed sort. Superstep
// 1 sorts them by reference ((key image, index) pairs, radix_sort_refs) and
// the pull Alltoallv gathers each record straight into its receiver; ranks
// below the radix crossover sort with the comparison kernel and send their
// records as they lie, and the k-ary exchange and checkpointed sorts gather
// first. Every combination must give the bytes of a stable sort, and the
// deferred gather must leave the simulated plane and the stats untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

/// 64 bytes: a u64 key, the record's global input position, and a payload
/// derived from both, so a record split from its payload shows.
struct Rec {
  u64 key;
  u64 origin;
  std::array<u8, 48> payload;
};
static_assert(sizeof(Rec) == 64);
static_assert(kSortsByRef<Rec, u64>);

struct RecKey {
  u64 operator()(const Rec& r) const { return r.key; }
};

enum class Keys { Uniform, Zipf, AllEqual };

std::string keys_name(Keys k) {
  switch (k) {
    case Keys::Uniform: return "Uniform";
    case Keys::Zipf: return "Zipf";
    case Keys::AllEqual: return "AllEqual";
  }
  return "?";
}

struct Layout {
  const char* name;
  std::vector<usize> n;  ///< records per rank
};

/// 1:3:5:7 (every rank sorts by reference); one rank below the 512-record
/// crossover beside an empty one, so publish modes mix; one rank; an odd P.
const std::vector<Layout>& layouts() {
  static const std::vector<Layout> all = {
      {"Skewed1357", {600, 1800, 3000, 4200}},
      {"MixedCrossover", {100, 5000, 0, 3000}},
      {"OneRank", {2000}},
      {"SevenRanks", {700, 1300, 520, 900, 1100, 600, 1000}},
  };
  return all;
}

std::vector<std::vector<Rec>> make_records(const Layout& l, Keys keys) {
  const int P = static_cast<int>(l.n.size());
  workload::GenConfig gen;
  gen.seed = 7;
  gen.dist = keys == Keys::Zipf       ? workload::Dist::Zipf
             : keys == Keys::AllEqual ? workload::Dist::AllEqual
                                      : workload::Dist::Uniform;
  std::vector<std::vector<Rec>> shards(P);
  u64 origin = 0;
  for (int r = 0; r < P; ++r) {
    const std::vector<u64> k = workload::generate_u64(gen, r, P, l.n[r]);
    for (usize i = 0; i < k.size(); ++i) {
      Rec rec{k[i], origin, {}};
      for (usize b = 0; b < rec.payload.size(); ++b)
        rec.payload[b] = static_cast<u8>(hash_mix(origin, b));
      shards[r].push_back(rec);
      ++origin;
    }
  }
  return shards;
}

/// The stable sort of the gathered input by key. A rank below the radix
/// crossover sorts its partition with the (unstable, deterministic)
/// comparison kernel in superstep 1, so its records enter the oracle in
/// the order that kernel leaves them.
std::vector<Rec> oracle(std::vector<std::vector<Rec>> shards) {
  const net::MachineModel machine;
  std::vector<Rec> all;
  for (auto& s : shards) {
    if (!use_radix<u64>(machine, s.size()))
      std::sort(s.begin(), s.end(),
                [](const Rec& a, const Rec& b) { return a.key < b.key; });
    all.insert(all.end(), s.begin(), s.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  return all;
}

bool same_bytes(const std::vector<Rec>& a, const std::vector<Rec>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Rec)) == 0);
}

std::vector<SortConfig> configs(int P) {
  std::vector<SortConfig> out;
  for (HistogramMode h : {HistogramMode::Dense, HistogramMode::Hybrid})
    for (MergeStrategy m : {MergeStrategy::Sort, MergeStrategy::Tournament,
                            MergeStrategy::Auto}) {
      SortConfig cfg;
      cfg.histogram = h;
      cfg.merge = m;
      out.push_back(cfg);
      cfg.exchange = ExchangeAlgorithm::KAry;
      for (int k : {2, P})
        for (bool overlap : {false, true}) {
          cfg.exchange_k = k;
          cfg.overlap_merge = overlap;
          out.push_back(cfg);
        }
    }
  return out;
}

std::string config_name(const SortConfig& cfg) {
  std::string s = "alltoallv";
  if (cfg.exchange == ExchangeAlgorithm::KAry) {
    s = "kary";
    s += std::to_string(cfg.exchange_k);
    if (cfg.overlap_merge) s += "+overlap";
  }
  s += cfg.histogram == HistogramMode::Hybrid ? "/hybrid/" : "/dense/";
  s += merge_name(cfg.merge);
  return s;
}

class RecordSortGrid
    : public ::testing::TestWithParam<std::tuple<usize, Keys>> {};

TEST_P(RecordSortGrid, EveryConfigGivesTheStableSort) {
  const auto [li, keys] = GetParam();
  const Layout& layout = layouts()[li];
  const int P = static_cast<int>(layout.n.size());
  const auto shards = make_records(layout, keys);
  const std::vector<Rec> want = oracle(shards);
  // sort_by_key keeps each rank's count; a rank below the crossover would
  // then re-sort its received ties with the unstable comparison kernel.
  bool by_key_ok = true;
  for (usize n : layout.n)
    if (n > 0 && !use_radix<u64>(net::MachineModel{}, n)) by_key_ok = false;

  for (const SortConfig& cfg : configs(P))
    for (bool balanced : {true, false}) {
      if (!balanced && !by_key_ok) continue;
      std::vector<std::vector<Rec>> out(P);
      Team team({.nranks = P});
      team.run([&](Comm& c) {
        auto local = shards[c.rank()];
        if (balanced)
          sort_balanced(c, local, RecKey{}, cfg);
        else
          sort_by_key(c, local, RecKey{}, cfg);
        out[c.rank()] = std::move(local);
      });
      std::vector<Rec> got;
      for (int r = 0; r < P; ++r) {
        if (!balanced) {
          EXPECT_EQ(out[r].size(), layout.n[r]) << config_name(cfg);
        }
        got.insert(got.end(), out[r].begin(), out[r].end());
      }
      EXPECT_TRUE(same_bytes(got, want))
          << config_name(cfg) << (balanced ? " sort_balanced" : " sort_by_key");
    }
}

std::string grid_name(
    const ::testing::TestParamInfo<RecordSortGrid::ParamType>& info) {
  std::string s = layouts()[std::get<0>(info.param)].name;
  s += "_";
  s += keys_name(std::get<1>(info.param));
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsByKeys, RecordSortGrid,
    ::testing::Combine(::testing::Range<usize>(0, 4),
                       ::testing::Values(Keys::Uniform, Keys::Zipf,
                                         Keys::AllEqual)),
    grid_name);

/// Per-rank simulated clocks after each superstep, the stats and the
/// output of one sort run superstep by superstep, optionally gathering the
/// records into key order right after superstep 1.
struct SteppedRun {
  std::vector<std::array<double, kSupersteps>> clocks;
  std::vector<SortStats> stats;
  std::vector<std::vector<Rec>> out;
};

SteppedRun run_stepped(const std::vector<std::vector<Rec>>& shards,
                       const SortConfig& cfg, bool gather_first) {
  const int P = static_cast<int>(shards.size());
  SteppedRun run;
  run.clocks.resize(P);
  run.stats.resize(P);
  run.out.resize(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    SortState<Rec, u64> st;
    st.data = shards[c.rank()];
    st.out_capacity = st.data.size();
    st.stats.elements_before = st.data.size();
    for (usize s = 0; s < kSupersteps; ++s) {
      advance_superstep(c, st, RecKey{}, cfg);
      if (gather_first && st.completed == SuperstepId::LocalSorted) {
        const bool by_ref =
            sorts_by_ref<Rec, RecKey>(c.machine(), st.data.size());
        EXPECT_EQ(st.refs.empty(), !by_ref);
        gather_by_refs(st.data, st.refs);
      }
      run.clocks[c.rank()][s] = c.clock().now();
    }
    run.stats[c.rank()] = st.stats;
    run.out[c.rank()] = std::move(st.data);
  });
  return run;
}

void expect_same_stats(const SortStats& a, const SortStats& b, int r) {
  EXPECT_EQ(a.histogram_iterations, b.histogram_iterations) << "rank " << r;
  EXPECT_EQ(a.splitter_probes, b.splitter_probes) << "rank " << r;
  EXPECT_EQ(a.elements_sent_off_rank, b.elements_sent_off_rank)
      << "rank " << r;
  EXPECT_EQ(a.elements_before, b.elements_before) << "rank " << r;
  EXPECT_EQ(a.elements_after, b.elements_after) << "rank " << r;
  EXPECT_EQ(a.histogram_convergence, b.histogram_convergence) << "rank " << r;
  EXPECT_EQ(a.sampled_rounds, b.sampled_rounds) << "rank " << r;
  EXPECT_EQ(a.sample_keys_total, b.sample_keys_total) << "rank " << r;
  EXPECT_EQ(a.hist_bytes_sampled, b.hist_bytes_sampled) << "rank " << r;
  EXPECT_EQ(a.hist_bytes_dense, b.hist_bytes_dense) << "rank " << r;
  EXPECT_EQ(a.round_probes, b.round_probes) << "rank " << r;
}

TEST(RecordSupersteps, DeferredGatherMatchesGatherAfterLocalSort) {
  for (usize li : {usize{0}, usize{1}})
    for (Keys keys : {Keys::Zipf, Keys::Uniform}) {
      const auto shards = make_records(layouts()[li], keys);
      const int P = static_cast<int>(shards.size());
      SortConfig hybrid;
      hybrid.histogram = HistogramMode::Hybrid;
      hybrid.merge = MergeStrategy::Tournament;
      for (const SortConfig& cfg : {SortConfig{}, hybrid}) {
        const SteppedRun deferred = run_stepped(shards, cfg, false);
        const SteppedRun gathered = run_stepped(shards, cfg, true);
        for (int r = 0; r < P; ++r) {
          for (usize s = 0; s < kSupersteps; ++s)
            EXPECT_EQ(deferred.clocks[r][s], gathered.clocks[r][s])
                << "rank " << r << " after superstep " << s + 1;
          expect_same_stats(deferred.stats[r], gathered.stats[r], r);
          EXPECT_TRUE(same_bytes(deferred.out[r], gathered.out[r]))
              << "rank " << r;
        }
      }
    }
}

}  // namespace
}  // namespace hds::core
