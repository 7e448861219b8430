// Records wider than three key images through the distributed sort. Superstep
// 1 sorts them by reference ((key image, index) pairs, radix_sort_refs) and
// the pull Alltoallv gathers each record straight into its receiver; ranks
// below the radix crossover sort with the comparison kernel and send their
// records as they lie, and a multi-round k-ary exchange and checkpointed
// sorts gather first. Every combination must give the bytes of a stable
// sort, the deferred gather must leave the simulated plane and the stats
// untouched, and a one-round k-ary schedule must be the default exchange
// bit for bit.
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

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
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
      for (int k : {2, P}) {
        cfg.exchange_k = k;
        out.push_back(cfg);
      }
    }
  return out;
}

std::string config_name(const SortConfig& cfg) {
  std::string s = "alltoallv";
  if (cfg.exchange_k != 0) {
    s = "kary";
    s += std::to_string(cfg.exchange_k);
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

/// Per-rank simulated clocks after each superstep, the stats, the output
/// and the merge_kway counter of one sort run superstep by superstep,
/// optionally gathering the records into key order right after superstep 1.
template <class T>
struct SteppedRun {
  std::vector<std::array<double, kSupersteps>> clocks;
  std::vector<SortStats> stats;
  std::vector<std::vector<T>> out;
  std::vector<u64> kway;
};

/// `balanced`: every rank's output capacity is its share of N, as under
/// sort_balanced, so ranks holding less than that receive more than their
/// vacated input can hold; otherwise each keeps its input count.
template <class T, class KeyFn>
SteppedRun<T> run_stepped(const std::vector<std::vector<T>>& shards,
                          KeyFn key, const SortConfig& cfg,
                          bool gather_first, bool balanced = false) {
  const int P = static_cast<int>(shards.size());
  usize total = 0;
  for (const auto& s : shards) total += s.size();
  SteppedRun<T> run;
  run.clocks.resize(P);
  run.stats.resize(P);
  run.out.resize(P);
  run.kway.resize(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    const int r = c.rank();
    SortState<T, SortKeyImage<T, KeyFn>> st;
    st.data = shards[r];
    st.out_capacity =
        balanced ? total / P + (static_cast<usize>(r) < total % P ? 1 : 0)
                 : st.data.size();
    st.stats.elements_before = st.data.size();
    for (usize s = 0; s < kSupersteps; ++s) {
      advance_superstep(c, st, key, cfg);
      if (gather_first && st.completed == SuperstepId::LocalSorted) {
        const bool by_ref =
            sorts_by_ref<T, KeyFn>(c.machine(), st.data.size());
        EXPECT_EQ(st.refs.empty(), !by_ref);
        gather_by_refs(st.data, st.refs);
      }
      run.clocks[r][s] = c.clock().now();
    }
    run.kway[r] = c.metrics().value(obs::Counter::MergeKWay);
    run.stats[r] = st.stats;
    run.out[r] = std::move(st.data);
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
  // The gathered run sends no references, so its receivers copy each
  // source's chunk as it lies; the deferred run's receivers gather through
  // the senders' references. Both must agree on every clock, stat, byte
  // and merge kernel, including where ties span every source (AllEqual),
  // where the merge is pinned to the re-sort, and where a rank's output
  // outgrows its vacated input, so the k-way merge allocates its output.
  SortConfig hybrid;
  hybrid.histogram = HistogramMode::Hybrid;
  hybrid.merge = MergeStrategy::Tournament;
  SortConfig sort_pin;
  sort_pin.merge = MergeStrategy::Sort;
  for (usize li : {usize{0}, usize{1}, usize{3}})
    for (Keys keys : {Keys::Zipf, Keys::Uniform, Keys::AllEqual}) {
      const auto shards = make_records(layouts()[li], keys);
      const int P = static_cast<int>(shards.size());
      for (const SortConfig& cfg : {SortConfig{}, hybrid, sort_pin})
        for (bool balanced : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << layouts()[li].name << " " << keys_name(keys) << " "
                       << config_name(cfg)
                       << (balanced ? " balanced" : " own capacity"));
          const auto deferred =
              run_stepped(shards, RecKey{}, cfg, false, balanced);
          const auto gathered =
              run_stepped(shards, RecKey{}, cfg, true, balanced);
          for (int r = 0; r < P; ++r) {
            for (usize s = 0; s < kSupersteps; ++s)
              EXPECT_EQ(deferred.clocks[r][s], gathered.clocks[r][s])
                  << "rank " << r << " after superstep " << s + 1;
            expect_same_stats(deferred.stats[r], gathered.stats[r], r);
            EXPECT_TRUE(same_bytes(deferred.out[r], gathered.out[r]))
                << "rank " << r;
            EXPECT_EQ(deferred.kway[r], gathered.kway[r]) << "rank " << r;
          }
        }
    }
}

/// A one-round k-ary schedule is the default exchange itself: per-rank
/// clocks after every superstep, stats and output bytes bit-identical.
template <class T, class KeyFn>
void expect_one_round_is_default(const std::vector<std::vector<T>>& shards,
                                 KeyFn key, int k) {
  SortConfig one_round;
  one_round.exchange_k = k;
  const auto want = run_stepped(shards, key, SortConfig{}, false);
  const auto got = run_stepped(shards, key, one_round, false);
  for (usize r = 0; r < shards.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    for (usize s = 0; s < kSupersteps; ++s)
      EXPECT_EQ(got.clocks[r][s], want.clocks[r][s])
          << "rank " << r << " after superstep " << s + 1;
    expect_same_stats(got.stats[r], want.stats[r], static_cast<int>(r));
    EXPECT_TRUE(same_bytes(got.out[r], want.out[r])) << "rank " << r;
  }
}

TEST(KAryOneRound, BitIdenticalToDefaultForKeysAndRecordsByRef) {
  // Skewed1357 is P = 4, where k = 4 and 64 are >= P; SevenRanks is the
  // prime P = 7, where k = 4 has no factor <= 4 and k = 64 is >= P. Every
  // rank holds at least 512 records, so each sorts by reference; Zipf keys
  // tie, so a change in record order shows in the bytes.
  for (usize li : {usize{0}, usize{3}}) {
    const auto recs = make_records(layouts()[li], Keys::Zipf);
    std::vector<std::vector<u64>> keys(recs.size());
    for (usize r = 0; r < recs.size(); ++r)
      for (const Rec& x : recs[r]) keys[r].push_back(x.key);
    SCOPED_TRACE(layouts()[li].name);
    for (int k : {4, 64}) {
      expect_one_round_is_default(recs, RecKey{}, k);
      expect_one_round_is_default(keys, IdentityKey{}, k);
    }
  }
}

}  // namespace
}  // namespace hds::core
