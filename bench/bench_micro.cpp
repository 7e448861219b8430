// Microbenchmarks (google-benchmark) for the kernels of the sort: local
// histogramming by binary search, weighted median, 3-way partitioning,
// k-way merging, and the runtime's collectives at small rank counts.
// These measure real wall-clock time of this machine (not simulated time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "core/local_sort.h"
#include "core/kway_merge.h"
#include "core/selection.h"
#include "runtime/comm.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace {

using namespace hds;

std::vector<u64> sorted_keys(usize n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u64> v(n);
  for (auto& x : v) x = rng();
  std::sort(v.begin(), v.end());
  return v;
}

void BM_LocalHistogram(benchmark::State& state) {
  const usize n = state.range(0);
  const usize probes = state.range(1);
  const auto keys = sorted_keys(n, 1);
  Xoshiro256 rng(2);
  std::vector<u64> ps(probes);
  for (auto& p : ps) p = rng();
  auto id = [](u64 v) { return v; };
  for (auto _ : state) {
    u64 acc = 0;
    for (u64 p : ps) {
      acc += core::count_below(std::span<const u64>(keys), p, id);
      acc += core::count_below_equal(std::span<const u64>(keys), p, id);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * probes * 2);
}
BENCHMARK(BM_LocalHistogram)
    ->Args({1 << 16, 15})
    ->Args({1 << 20, 15})
    ->Args({1 << 20, 255});

void BM_WeightedMedian(benchmark::State& state) {
  const usize n = state.range(0);
  Xoshiro256 rng(3);
  std::vector<std::pair<u64, double>> sample;
  for (usize i = 0; i < n; ++i)
    sample.emplace_back(rng(), rng.uniform01() + 0.01);
  for (auto _ : state) {
    auto copy = sample;
    benchmark::DoNotOptimize(core::weighted_median(std::move(copy)));
  }
}
BENCHMARK(BM_WeightedMedian)->Arg(16)->Arg(256)->Arg(4096);

void BM_ThreeWayPartition(benchmark::State& state) {
  const usize n = state.range(0);
  Xoshiro256 rng(4);
  std::vector<u64> base(n);
  for (auto& x : base) x = rng() % 1000;
  for (auto _ : state) {
    auto v = base;
    const u64 pivot = 500;
    auto* mid1 = std::partition(v.data(), v.data() + n,
                                [&](u64 x) { return x < pivot; });
    auto* mid2 = std::partition(mid1, v.data() + n,
                                [&](u64 x) { return x <= pivot; });
    benchmark::DoNotOptimize(mid2);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ThreeWayPartition)->Arg(1 << 16)->Arg(1 << 20);

void BM_KWayMerge(benchmark::State& state) {
  const usize k = state.range(0);
  const usize per = state.range(1);
  std::vector<std::vector<u64>> chunks(k);
  Xoshiro256 rng(5);
  for (auto& c : chunks) {
    c.resize(per);
    for (auto& x : c) x = rng();
    std::sort(c.begin(), c.end());
  }
  const std::vector<std::span<const u64>> runs(chunks.begin(), chunks.end());
  const std::span<const std::span<const u64>> rest =
      std::span<const std::span<const u64>>(runs).subspan(1);
  std::vector<u64> out(k * per);
  auto less = [](u64 a, u64 b) { return a < b; };
  for (auto _ : state) {
    core::kway_merge_into(std::span<u64>(out), runs[0], rest, less);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k * per);
}
BENCHMARK(BM_KWayMerge)->Args({4, 1 << 14})->Args({64, 1 << 10});

void BM_StdSortReference(benchmark::State& state) {
  const usize n = state.range(0);
  Xoshiro256 rng(6);
  std::vector<u64> base(n);
  for (auto& x : base) x = rng();
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StdSortReference)->Arg(1 << 16)->Arg(1 << 20);

void BM_Allreduce(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const usize n = state.range(1);
  runtime::Team team({.nranks = P});
  for (auto _ : state) {
    team.run([&](runtime::Comm& c) {
      std::vector<u64> in(n, c.rank()), out(n);
      c.allreduce(in.data(), out.data(), n, std::plus<>{});
      benchmark::DoNotOptimize(out.data());
    });
  }
}
BENCHMARK(BM_Allreduce)->Args({4, 64})->Args({16, 64})->Args({16, 4096})->Iterations(30);

void BM_Alltoallv(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const usize per = state.range(1);
  runtime::Team team({.nranks = P});
  for (auto _ : state) {
    team.run([&](runtime::Comm& c) {
      std::vector<u64> data(per * P, c.rank());
      std::vector<usize> counts(P, per);
      std::vector<u64> out;
      std::vector<usize> recv_counts;
      c.alltoallv_into(std::span<const u64>(data),
                       std::span<const usize>(counts), out, recv_counts);
      benchmark::DoNotOptimize(out.data());
    });
  }
}
BENCHMARK(BM_Alltoallv)->Args({4, 1 << 12})->Args({16, 1 << 10})->Iterations(30);

}  // namespace

BENCHMARK_MAIN();
