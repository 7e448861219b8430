// Unit tests for src/common: args, bits, rng, morton, stats, table.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/bits.h"
#include "common/error.h"
#include "common/morton.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace hds {
namespace {

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(1024), 10u);
  EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4), 2u);
  EXPECT_EQ(log2_floor(1023), 9u);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2((1ULL << 40) + 1));
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
}

TEST(Bits, DivCeil) {
  EXPECT_EQ(div_ceil(10, 3), 4);
  EXPECT_EQ(div_ceil(9, 3), 3);
  EXPECT_EQ(div_ceil(1, 7), 1);
  EXPECT_EQ(div_ceil(0, 7), 0);
}

TEST(Bits, MidpointNoOverflow) {
  const u64 hi = ~u64{0};
  EXPECT_EQ(midpoint_u64(hi - 1, hi), hi - 1);
  EXPECT_EQ(midpoint_u64(0, hi), hi / 2);
  EXPECT_EQ(midpoint_u64(5, 5), 5u);
}

TEST(Rng, SplitMix64Deterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, HashMixSpreads) {
  std::set<u64> seen;
  for (u64 i = 0; i < 1000; ++i) seen.insert(hash_mix(42, i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformU64Bounds) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 10000; ++i) {
    const u64 v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformU64FullRangeDoesNotHang) {
  Xoshiro256 rng(3);
  (void)rng.uniform_u64(0, ~u64{0});
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Morton, RoundTrip3D) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 1000; ++i) {
    const u32 x = static_cast<u32>(rng.uniform_u64(0, (1u << 21) - 1));
    const u32 y = static_cast<u32>(rng.uniform_u64(0, (1u << 21) - 1));
    const u32 z = static_cast<u32>(rng.uniform_u64(0, (1u << 21) - 1));
    const u64 code = morton3(x, y, z);
    EXPECT_EQ(morton3_axis(code, 0), x);
    EXPECT_EQ(morton3_axis(code, 1), y);
    EXPECT_EQ(morton3_axis(code, 2), z);
  }
}

TEST(Morton, OrderIsHierarchical) {
  // All codes within one octant are below all codes of the next octant at
  // the top level.
  const u64 low = morton3((1u << 20) - 1, (1u << 20) - 1, (1u << 20) - 1);
  const u64 high = morton3(1u << 20, 1u << 20, 1u << 20);
  EXPECT_LT(low, high);
}

TEST(Morton, Quantize) {
  EXPECT_EQ(morton_quantize(-1.0, 0.0, 1.0), 0u);
  EXPECT_EQ(morton_quantize(2.0, 0.0, 1.0), (1u << 21) - 1);
  const u32 mid = morton_quantize(0.5, 0.0, 1.0);
  EXPECT_NEAR(static_cast<double>(mid), 1048575.5, 2.0);
}

TEST(Morton, RoundTrip2D) {
  const u64 c = morton2(0xDEADBEEF, 0x12345678);
  // Interleave then de-interleave by brute force.
  u32 x = 0, y = 0;
  for (int b = 0; b < 32; ++b) {
    x |= static_cast<u32>((c >> (2 * b)) & 1) << b;
    y |= static_cast<u32>((c >> (2 * b + 1)) & 1) << b;
  }
  EXPECT_EQ(x, 0xDEADBEEFu);
  EXPECT_EQ(y, 0x12345678u);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
}

TEST(Stats, SummaryCIBracketsMedian) {
  std::vector<double> xs;
  for (int i = 1; i <= 99; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  EXPECT_LE(s.ci_lo, s.median);
  EXPECT_GE(s.ci_hi, s.median);
  EXPECT_GT(s.ci_lo, s.min - 1);
  EXPECT_EQ(s.n, 99u);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"longer-name", "200"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowSizeMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), invariant_error);
}

TEST(Table, FmtBytes) {
  EXPECT_EQ(fmt_bytes(512), "512.0 B");
  EXPECT_EQ(fmt_bytes(2048), "2.00 KiB");
  EXPECT_NE(fmt_bytes(3.5 * 1024 * 1024 * 1024).find("GiB"), std::string::npos);
}

/// Parses `argv` (program name first) against the flags "ranks" and
/// "check".
Args parse_args(std::vector<std::string> argv) {
  std::vector<char*> ptrs;
  for (std::string& a : argv) ptrs.push_back(a.data());
  return Args(static_cast<int>(ptrs.size()), ptrs.data(), {"ranks", "check"});
}

TEST(Args, ParsesKnownFlags) {
  const Args args = parse_args({"prog", "--ranks=4", "--check"});
  EXPECT_EQ(args.get_int("ranks", 8), 4);
  EXPECT_TRUE(args.has("check"));
  EXPECT_EQ(parse_args({"prog"}).get_int("ranks", 8), 8);
}

TEST(Args, RejectsUnknownFlagsAndBareArgumentsWithUsage) {
  // Each exits with status 2 before the program could run at defaults.
  EXPECT_EXIT(parse_args({"prog", "--help"}), ::testing::ExitedWithCode(2),
              "unknown argument --help\nusage: prog \\[--ranks\\] "
              "\\[--check\\]");
  EXPECT_EXIT(parse_args({"prog", "--rank=4"}), ::testing::ExitedWithCode(2),
              "unknown argument --rank=4");
  EXPECT_EXIT(parse_args({"prog", "--ranks=4", "ranks=4"}),
              ::testing::ExitedWithCode(2), "unknown argument ranks=4");
  EXPECT_EXIT(parse_args({"prog", "--=4"}), ::testing::ExitedWithCode(2),
              "unknown argument --=4");
}

}  // namespace
}  // namespace hds
