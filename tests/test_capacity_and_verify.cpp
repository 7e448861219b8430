// Tests for the capacity-targeted sort entry points (sort_to_capacity /
// sort_balanced), the validation module, and host calibration.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "core/verify.h"
#include "net/calibrate.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

TEST(SortToCapacity, ArbitraryCapacities) {
  const int P = 4;
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, 250);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());
  const std::vector<usize> caps = {100, 400, 0, 500};  // sums to 1000

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort_to_capacity(c, local, identity, caps[c.rank()]);
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> merged;
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(out[r].size(), caps[r]) << "rank " << r;
    merged.insert(merged.end(), out[r].begin(), out[r].end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

TEST(SortToCapacity, MismatchedCapacitiesThrow) {
  Team team({.nranks = 2});
  EXPECT_THROW(team.run([&](Comm& c) {
                 std::vector<u64> local{1, 2, 3};
                 sort_to_capacity(c, local, identity, 100);
               }),
               invariant_error);
}

TEST(SortBalanced, EvensOutSparseInput) {
  const int P = 6;
  std::vector<std::vector<u64>> shards(P);
  Xoshiro256 rng(3);
  for (int i = 0; i < 599; ++i) shards[2].push_back(rng());
  shards[5].push_back(42);  // total 600 over 6 ranks -> 100 each

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort_balanced(c, local, identity);
    out[c.rank()] = std::move(local);
  });
  for (int r = 0; r < P; ++r) EXPECT_EQ(out[r].size(), 100u);
  for (int r = 0; r + 1 < P; ++r)
    EXPECT_LE(out[r].back(), out[r + 1].front());
}

TEST(SortBalanced, RemainderGoesToLowRanks) {
  const int P = 4;
  std::vector<std::vector<u64>> shards(P);
  Xoshiro256 rng(5);
  for (int i = 0; i < 10; ++i) shards[0].push_back(rng());  // N=10, P=4
  std::vector<usize> sizes(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort_balanced(c, local, identity);
    sizes[c.rank()] = local.size();
  });
  EXPECT_EQ(sizes, (std::vector<usize>{3, 3, 2, 2}));
}

TEST(Validate, DetectsContentAndOrder) {
  const int P = 4;
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 300);

  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    const auto before =
        validate(c, std::span<const u64>(local.data(), local.size()),
                 identity);
    EXPECT_FALSE(before.globally_sorted);  // random input
    EXPECT_EQ(before.count, 1200u);

    sort(c, local);
    const auto after =
        validate(c, std::span<const u64>(local.data(), local.size()),
                 identity);
    EXPECT_TRUE(after.globally_sorted);
    EXPECT_TRUE(SortValidation::consistent(before, after));
    EXPECT_DOUBLE_EQ(after.imbalance, 1.0);  // equal capacities

    // Corrupt one element: checksum must change.
    local[0] ^= 1;
    const auto corrupted =
        validate(c, std::span<const u64>(local.data(), local.size()),
                 identity);
    EXPECT_FALSE(SortValidation::consistent(before, corrupted));
  });
}

TEST(Validate, ImbalanceReflectsSkew) {
  Team team({.nranks = 4});
  std::vector<std::vector<u64>> shards = {{1, 2, 3, 4, 5, 6}, {7}, {8}, {9}};
  team.run([&](Comm& c) {
    const auto& local = shards[c.rank()];
    const auto v = validate(
        c, std::span<const u64>(local.data(), local.size()), identity);
    EXPECT_NEAR(v.imbalance, 6.0 * 4 / 9.0, 1e-12);
  });
}

TEST(Calibrate, ProducesSaneConstants) {
  const auto cal = net::measure_host_constants(1u << 18);
  EXPECT_GT(cal.sort_s_per_elem_log, 0.0);
  EXPECT_LT(cal.sort_s_per_elem_log, 1e-6);  // < 1 us/elem/log is sane
  EXPECT_GT(cal.merge_s_per_elem, 0.0);
  EXPECT_GT(cal.partition_s_per_elem, 0.0);
  EXPECT_GT(cal.scan_s_per_elem, 0.0);
  EXPECT_GT(cal.binsearch_s_per_step, 0.0);
  // The radix constant is a measurement, not the clamp that keeps it
  // positive.
  EXPECT_GT(cal.radix_s_per_elem_pass, 1e-12);
  // Sorting costs more per element than a linear scan.
  EXPECT_GT(cal.sort_s_per_elem_log * 18, cal.scan_s_per_elem);
}

TEST(Calibrate, AppliesToMachineModel) {
  net::MachineModel m;
  net::CalibrationResult cal;
  cal.sort_s_per_elem_log = 1e-9;
  cal.merge_s_per_elem = 2e-9;
  cal.partition_s_per_elem = 3e-10;
  cal.scan_s_per_elem = 4e-10;
  cal.binsearch_s_per_step = 5e-9;
  cal.radix_s_per_elem_pass = 6e-10;
  net::apply_calibration(m, cal);
  EXPECT_DOUBLE_EQ(m.sort_s_per_elem_log, 1e-9);
  EXPECT_DOUBLE_EQ(m.merge_s_per_elem, 2e-9);
  EXPECT_DOUBLE_EQ(m.partition_s_per_elem, 3e-10);
  EXPECT_DOUBLE_EQ(m.scan_s_per_elem, 4e-10);
  EXPECT_DOUBLE_EQ(m.binsearch_s_per_step, 5e-9);
  EXPECT_DOUBLE_EQ(m.radix_s_per_elem_pass, 6e-10);

  // A calibration without a radix measurement keeps the model default.
  net::MachineModel fresh;
  const double model_default = fresh.radix_s_per_elem_pass;
  cal.radix_s_per_elem_pass = 0.0;
  net::apply_calibration(fresh, cal);
  EXPECT_DOUBLE_EQ(fresh.radix_s_per_elem_pass, model_default);
  EXPECT_DOUBLE_EQ(fresh.sort_s_per_elem_log, 1e-9);
}

TEST(Calibrate, RejectsEmptyCalibration) {
  net::MachineModel m;
  EXPECT_THROW(net::apply_calibration(m, {}), invariant_error);
}

}  // namespace
}  // namespace hds::core
