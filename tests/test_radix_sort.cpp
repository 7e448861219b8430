// The local-sort kernel layer: radix sort property tests against std::sort
// over every KeyTraits type (including IEEE specials), on both sides of the
// kernel's cache budget and with top-digit buckets above it, stability, the
// modelled pass count, batched binary searches, the radix crossover, and a
// size x exchange-algorithm grid that runs both kernels through the full
// distributed sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "core/local_sort.h"
#include "core/radix_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

// ---------------------------------------------------------------------------
// Typed property tests: radix_sort_keys must agree with std::sort.
// ---------------------------------------------------------------------------

template <class T>
T random_key(Xoshiro256& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return static_cast<float>((rng.uniform01() - 0.5) * 1e6);
  } else if constexpr (std::is_same_v<T, double>) {
    return (rng.uniform01() - 0.5) * 1e12;
  } else if constexpr (std::is_signed_v<T>) {
    return static_cast<T>(rng());  // wraps over the full signed range
  } else {
    return static_cast<T>(rng());
  }
}

template <class T>
class RadixTyped : public ::testing::Test {};

using KeyTypes = ::testing::Types<u32, u64, i32, i64, float, double>;
TYPED_TEST_SUITE(RadixTyped, KeyTypes);

template <class T>
void expect_matches_std_sort(std::vector<T> data) {
  std::vector<T> expected = data;
  std::sort(expected.begin(), expected.end());
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], expected[i]) << "mismatch at index " << i;
  EXPECT_EQ(st.passes_planned,
            sizeof(typename KeyTraits<T>::uint_type));
  EXPECT_LE(st.passes_executed, st.passes_planned);
}

/// An element count whose array is above the kernel's cache budget, so the
/// kernel splits on the top digit before its in-cache passes.
template <class T>
usize above_budget() {
  return kRadixCacheBytes / sizeof(T) * 3 / 2;
}

TYPED_TEST(RadixTyped, RandomFullRange) {
  Xoshiro256 rng(2024);
  for (const usize n : {usize{5000}, above_budget<TypeParam>()}) {
    std::vector<TypeParam> data(n);
    for (auto& v : data) v = random_key<TypeParam>(rng);
    expect_matches_std_sort(std::move(data));
  }
}

TYPED_TEST(RadixTyped, DuplicatesHeavy) {
  Xoshiro256 rng(7);
  for (const usize n : {usize{4000}, above_budget<TypeParam>()}) {
    std::vector<TypeParam> data(n);
    for (auto& v : data)
      v = static_cast<TypeParam>(static_cast<i64>(rng() % 17) - 8);
    expect_matches_std_sort(std::move(data));
  }
}

TYPED_TEST(RadixTyped, PreSorted) {
  std::vector<TypeParam> data(3000);
  for (usize i = 0; i < data.size(); ++i)
    data[i] = static_cast<TypeParam>(static_cast<i64>(i) - 1500);
  expect_matches_std_sort(std::move(data));
}

TYPED_TEST(RadixTyped, ReverseSorted) {
  std::vector<TypeParam> data(3000);
  for (usize i = 0; i < data.size(); ++i)
    data[i] =
        static_cast<TypeParam>(1500 - static_cast<i64>(i));
  expect_matches_std_sort(std::move(data));
}

TYPED_TEST(RadixTyped, EmptyAndSingle) {
  expect_matches_std_sort(std::vector<TypeParam>{});
  expect_matches_std_sort(std::vector<TypeParam>{TypeParam{1}});
}

TYPED_TEST(RadixTyped, AllEqual) {
  expect_matches_std_sort(
      std::vector<TypeParam>(2000, static_cast<TypeParam>(42)));
}

// ---------------------------------------------------------------------------
// Top-digit buckets above the cache budget: the kernel recurses on them.
// ---------------------------------------------------------------------------

/// Bytes in the largest bucket of the kernel's first split: the top 8 bits
/// of the span of the keys' uint projections.
template <class T>
usize largest_top_bucket_bytes(const std::vector<T>& data) {
  using UK = typename KeyTraits<T>::uint_type;
  UK diff = 0;
  for (const T& v : data)
    diff |= KeyTraits<T>::to_uint(v) ^ KeyTraits<T>::to_uint(data[0]);
  const int shift = std::max(static_cast<int>(std::bit_width(diff)) - 8, 0);
  std::vector<usize> count(256, 0);
  for (const T& v : data)
    ++count[(KeyTraits<T>::to_uint(v) >> shift) & 0xff];
  return *std::max_element(count.begin(), count.end()) * sizeof(T);
}

// perfbench's rec64-skewed key shape: Zipf keys in {1..1024}, s = 1.2. Keys
// 1..7 share the top digit and hold about half the elements.
TEST(RadixRecursion, ZipfTopBucketAboveBudget) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Zipf;
  gen.seed = 9;
  std::vector<u64> data = workload::generate_u64(gen, 0, 1, usize{1} << 21);
  ASSERT_GT(largest_top_bucket_bytes(data), kRadixCacheBytes);
  expect_matches_std_sort(std::move(data));
}

// Floats straddling zero: the top byte is sign plus exponent, so a few
// buckets hold almost every element (two hold about 37% each).
TEST(RadixRecursion, FloatStraddlingZero) {
  Xoshiro256 rng(31);
  std::vector<float> data(usize{1} << 22);
  for (auto& v : data) v = random_key<float>(rng);
  ASSERT_GT(largest_top_bucket_bytes(data), kRadixCacheBytes);
  expect_matches_std_sort(std::move(data));
}

// ---------------------------------------------------------------------------
// IEEE-754 specials: +-0.0, +-inf, denormals, negatives.
// ---------------------------------------------------------------------------

template <class F>
void float_specials_case() {
  using Lim = std::numeric_limits<F>;
  Xoshiro256 rng(33);
  std::vector<F> data = {F{0.0},       -F{0.0},     Lim::infinity(),
                         -Lim::infinity(), Lim::denorm_min(),
                         -Lim::denorm_min(), Lim::max(), Lim::lowest(),
                         F{-1.5},      F{1.5}};
  for (int i = 0; i < 500; ++i)
    data.push_back(static_cast<F>((rng.uniform01() - 0.5) * 1e3));
  std::vector<F> expected = data;
  // Compare in KeyTraits uint space so -0.0 vs +0.0 placement is exact (the
  // radix kernel orders -0.0 before +0.0; operator< calls them equal).
  auto uk = [](F v) { return KeyTraits<F>::to_uint(v); };
  std::sort(expected.begin(), expected.end(),
            [&](F a, F b) { return uk(a) < uk(b); });
  radix_sort_keys(data);
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i)
    EXPECT_EQ(uk(data[i]), uk(expected[i])) << "bit mismatch at " << i;
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(RadixFloatSpecials, Float) { float_specials_case<float>(); }
TEST(RadixFloatSpecials, Double) { float_specials_case<double>(); }

// ---------------------------------------------------------------------------
// Stats: passes_executed counts the 8-bit digits that vary across the input
// (what Comm::charge_radix_sort prices), whatever passes the kernel runs.
// ---------------------------------------------------------------------------

TEST(RadixStats, PassesExecutedCountsVaryingDigits) {
  Xoshiro256 rng(4);
  for (const usize n : {usize{4096}, above_budget<u64>()}) {
    std::vector<u64> paper(n);  // the paper's [0, 1e9]: bytes 0..3 vary
    for (auto& v : paper) v = rng() % 1'000'000'001;
    std::vector<u64> two(n);  // only bytes 0 and 5 vary
    for (auto& v : two) v = (rng() & 0xff) | ((rng() & 0xff) << 40);
    std::vector<u64> equal(n, 0x0123'4567'89ab'cdefULL);
    // One outlier in byte 5 at an index a strided sample of the span skips.
    std::vector<u64> outlier(n, 5);
    outlier[1] |= u64{1} << 40;
    for (auto [data, passes] :
         {std::pair{paper, 4u}, std::pair{two, 2u}, std::pair{equal, 0u},
          std::pair{outlier, 1u}}) {
      const RadixSortStats st = radix_sort_keys(data);
      EXPECT_EQ(st.passes_executed, passes) << "n = " << n;
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end())) << "n = " << n;
    }
  }
}

TEST(RadixStats, NarrowRangeSkipsHighPasses) {
  Xoshiro256 rng(5);
  std::vector<u64> data(4096);
  for (auto& v : data) v = rng() & 0xffULL;  // one non-trivial byte
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_EQ(st.passes_planned, 8u);
  EXPECT_LE(st.passes_executed, 1u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(RadixStats, FullRangeRunsAllPasses) {
  Xoshiro256 rng(6);
  std::vector<u64> data(4096);
  for (auto& v : data) v = rng();
  const RadixSortStats st = radix_sort_keys(data);
  EXPECT_EQ(st.passes_executed, 8u);
  EXPECT_FALSE(st.used_pairs);
}

// ---------------------------------------------------------------------------
// Stability of radix_sort_by_key (both the pairs and the index path).
// ---------------------------------------------------------------------------

// Each path runs once below the cache budget and once above it: 2^19
// (key, value) or (key, index) pairs of 12 and 16 bytes, with keys drawn
// from 50000 values so the buckets of the first split hold ties.
TEST(RadixByKey, PairsPathIsStable) {
  struct Rec {  // sizeof == 8 <= 3 * sizeof(u32): pairs path
    u32 key;
    u32 seq;
  };
  Xoshiro256 rng(21);
  for (const auto& [n, keys] :
       {std::pair{3000u, 50u}, std::pair{1u << 19, 50000u}}) {
    std::vector<Rec> data(n);
    for (u32 i = 0; i < n; ++i)
      data[i] = Rec{static_cast<u32>(rng() % keys), i};
    std::vector<Rec> expected = data;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Rec& a, const Rec& b) { return a.key < b.key; });
    const RadixSortStats st =
        radix_sort_by_key(data, [](const Rec& r) { return r.key; });
    EXPECT_TRUE(st.used_pairs);
    ASSERT_EQ(data.size(), expected.size());
    for (usize i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i].key, expected[i].key) << "n = " << n;
      ASSERT_EQ(data[i].seq, expected[i].seq) << "instability at " << i;
    }
  }
}

TEST(RadixByKey, IndexPathIsStableForLargeRecords) {
  struct Big {  // sizeof > 3 * sizeof(u32): (key, index) + gather path
    u32 key;
    u64 a, b, c;
    u32 seq;
  };
  Xoshiro256 rng(22);
  for (const auto& [n, keys] :
       {std::pair{2000u, 40u}, std::pair{1u << 19, 50000u}}) {
    std::vector<Big> data(n);
    for (u32 i = 0; i < n; ++i)
      data[i] = Big{static_cast<u32>(rng() % keys), rng(), rng(), rng(), i};
    std::vector<Big> expected = data;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Big& a, const Big& b) { return a.key < b.key; });
    radix_sort_by_key(data, [](const Big& r) { return r.key; });
    ASSERT_EQ(data.size(), expected.size());
    for (usize i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i].key, expected[i].key) << "n = " << n;
      ASSERT_EQ(data[i].seq, expected[i].seq) << "instability at " << i;
    }
  }
}

TEST(RadixByKey, NegativeDoubleKeys) {
  struct Rec {
    double key;
    u32 seq;
  };
  Xoshiro256 rng(23);
  std::vector<Rec> data(1500);
  for (u32 i = 0; i < data.size(); ++i)
    data[i] = Rec{(rng.uniform01() - 0.5) * 100.0, i};
  radix_sort_by_key(data, [](const Rec& r) { return r.key; });
  EXPECT_TRUE(std::is_sorted(
      data.begin(), data.end(),
      [](const Rec& a, const Rec& b) { return a.key < b.key; }));
}

// ---------------------------------------------------------------------------
// Batched binary search agrees with the per-probe searches.
// ---------------------------------------------------------------------------

TEST(BatchedCounts, MatchesIndividualSearches) {
  Xoshiro256 rng(44);
  std::vector<u64> data(5000);
  for (auto& v : data) v = rng() % 1000;
  std::sort(data.begin(), data.end());
  const std::span<const u64> sorted(data.data(), data.size());

  std::vector<u64> probes;
  for (int i = 0; i < 200; ++i) probes.push_back(rng() % 1100);
  probes.push_back(probes.back());  // duplicate probes must be handled
  probes.push_back(0);
  probes.push_back(2000);  // out of range both sides
  std::sort(probes.begin(), probes.end());

  IdentityKey id;
  std::vector<usize> lb(probes.size()), ub(probes.size());
  batched_counts(sorted, std::span<const u64>(probes), id, lb.data(),
                 ub.data());
  for (usize i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(lb[i], count_below(sorted, probes[i], id)) << "probe " << i;
    EXPECT_EQ(ub[i], count_below_equal(sorted, probes[i], id))
        << "probe " << i;
  }
}

TEST(BatchedCounts, EmptyHaystackAndProbes) {
  IdentityKey id;
  std::vector<u64> none;
  std::vector<u64> probes = {1, 2, 3};
  std::vector<usize> lb(3, 99), ub(3, 99);
  batched_counts(std::span<const u64>(none.data(), 0),
                 std::span<const u64>(probes), id, lb.data(), ub.data());
  for (usize i = 0; i < 3; ++i) {
    EXPECT_EQ(lb[i], 0u);
    EXPECT_EQ(ub[i], 0u);
  }
  batched_counts(std::span<const u64>(none.data(), 0),
                 std::span<const u64>(none.data(), 0), id, nullptr, nullptr);
}

// ---------------------------------------------------------------------------
// Radix crossover: the kernel choice.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, AutoUsesComparisonBelowFloor) {
  const net::MachineModel m;
  EXPECT_FALSE(use_radix<u64>(m, kRadixMinN - 1));
  EXPECT_TRUE(use_radix<u64>(m, usize{1} << 20));
}

TEST(KernelDispatch, SlowRadixConstantDisablesAuto) {
  net::MachineModel m;
  m.radix_s_per_elem_pass = 1e-3;  // pathological calibration
  EXPECT_FALSE(use_radix<u64>(m, usize{1} << 20));
  EXPECT_EQ(radix_crossover_n(m, 64), std::numeric_limits<usize>::max());
}

TEST(KernelDispatch, NonBisectableKeyAlwaysComparison) {
  struct Opaque {
    int x;
    bool operator<(const Opaque& o) const { return x < o.x; }
  };
  static_assert(!Bisectable<Opaque>);
  const net::MachineModel m;
  EXPECT_FALSE(use_radix<Opaque>(m, usize{1} << 20));
}

TEST(KernelDispatch, CrossoverRespectsFloor) {
  const net::MachineModel m;
  EXPECT_GE(radix_crossover_n(m, 64), kRadixMinN);
  EXPECT_GE(radix_crossover_n(m, 32), kRadixMinN);
}

// ---------------------------------------------------------------------------
// local_sort through a Comm: charges differ by kernel, output identical.
// ---------------------------------------------------------------------------

TEST(LocalSortKernels, SameOutputDifferentCharge) {
  const usize n = 20000;
  Xoshiro256 rng(55);
  std::vector<u64> base(n);
  for (auto& v : base) v = rng();

  // The default model picks radix at this n; a pathological radix constant
  // forces the comparison kernel (the comparison charge does not read it).
  const net::MachineModel radix_model;
  net::MachineModel cmp_model;
  cmp_model.radix_s_per_elem_pass = 1e-3;
  ASSERT_TRUE(use_radix<u64>(radix_model, n));
  ASSERT_FALSE(use_radix<u64>(cmp_model, n));

  auto run = [&](const net::MachineModel& m) {
    std::vector<u64> data = base;
    double elapsed = 0.0;
    Team team({.nranks = 1, .machine = m});
    team.run([&](Comm& c) { local_sort(c, data, IdentityKey{}); });
    elapsed = team.stats().makespan_s;
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    return std::make_pair(data, elapsed);
  };
  const auto [cmp_data, cmp_t] = run(cmp_model);
  const auto [rad_data, rad_t] = run(radix_model);
  EXPECT_EQ(cmp_data, rad_data);
  EXPECT_GT(cmp_t, 0.0);
  EXPECT_GT(rad_t, 0.0);
  // Full-range u64 at this n: the charged radix time (8 passes) must be
  // cheaper than n log2(n) comparisons under the default model.
  EXPECT_LT(rad_t, cmp_t);
}

// ---------------------------------------------------------------------------
// Size x exchange grid: the full sort's output must not depend on the
// kernel or the exchange. 300 and 900 keys per rank sit on either side of
// kRadixMinN, so the local sort and the re-sort merge run the comparison
// kernel in one size and the radix kernel in the other. Exchange cells are
// named by k: KAryK2 is the k-ary exchange at k = 2, KAryKP the direct
// exchange (k = P).
// ---------------------------------------------------------------------------

struct ExchangeCell {
  const char* name;
  ExchangeAlgorithm algo;
  int k;
};

// Print cells by name (gtest's default dumps the raw bytes, pointer
// included, into the registered test names).
void PrintTo(const ExchangeCell& cell, std::ostream* os) { *os << cell.name; }

using GridParam = std::tuple<usize, ExchangeCell>;

class KernelExchangeGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(KernelExchangeGrid, InvariantsAndIdenticalOutput) {
  const auto [keys_per_rank, exchange] = GetParam();
  const int P = 8;
  workload::GenConfig gen;
  gen.dist = workload::Dist::Normal;
  gen.seed = 321;
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, keys_per_rank);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());

  SortConfig cfg;
  cfg.exchange = exchange.algo;
  if (exchange.k > 0) cfg.exchange_k = exchange.k;
  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()), IdentityKey{}));
    out[c.rank()] = std::move(local);
  });

  std::vector<u64> merged;
  for (const auto& o : out) {
    EXPECT_TRUE(std::is_sorted(o.begin(), o.end()));
    merged.insert(merged.end(), o.begin(), o.end());
  }
  // Identical output across every (size, exchange) cell: with epsilon == 0
  // the sorted permutation and the per-rank capacities pin the result
  // exactly, so comparing against the one reference covers all cells.
  EXPECT_EQ(merged, all);
}

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  const auto [keys_per_rank, exchange] = info.param;
  return "n" + std::to_string(keys_per_rank) + "_" + exchange.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, KernelExchangeGrid,
    ::testing::Combine(
        ::testing::Values(usize{300}, usize{900}),
        ::testing::Values(
            ExchangeCell{"Alltoallv", ExchangeAlgorithm::Alltoallv, 0},
            ExchangeCell{"KAryKP", ExchangeAlgorithm::KAry, 8},
            ExchangeCell{"KAryK2", ExchangeAlgorithm::KAry, 2})),
    grid_name);

// ---------------------------------------------------------------------------
// sort_by_key exercises the radix pairs path end to end (800 records per
// rank clear the crossover).
// ---------------------------------------------------------------------------

TEST(KernelDispatch, SortByKeyRadixEndToEnd) {
  struct Rec {
    u64 key;
    u32 payload;
  };
  const int P = 4;
  Xoshiro256 rng(66);
  std::vector<std::vector<Rec>> shards(P);
  usize total = 0;
  for (auto& s : shards)
    for (int i = 0; i < 800; ++i, ++total)
      s.push_back(Rec{rng(), static_cast<u32>(total)});

  std::vector<std::vector<Rec>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort_by_key(c, local, [](const Rec& r) { return r.key; });
    out[c.rank()] = std::move(local);
  });
  u64 prev = 0;
  usize count = 0;
  for (const auto& o : out)
    for (const auto& r : o) {
      EXPECT_GE(r.key, prev);
      prev = r.key;
      ++count;
    }
  EXPECT_EQ(count, total);
}

}  // namespace
}  // namespace hds::core
