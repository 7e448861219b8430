// Local k-way merging of the sorted chunks received in the exchange
// (Sec. V-C and the merging study of Sec. VI-E2). Three strategies:
//
//  * Sort        — re-sort the concatenation with a fast shared-memory sort
//                  (what the paper's evaluated implementation does);
//  * Tournament  — k-way merge, O(n log k) comparisons, by the element's
//                  width (core/kway_merge.h): elements of at most
//                  kMergePathMaxBytes merge pairwise through branchless
//                  merge-path chains (ceil(log2 k) levels, each moving every
//                  element once), wider records through the loser tree
//                  (every element moved once);
//  * Auto        — the default: each rank prices both with the cost model
//                  (detail::kway_merge_is_cheaper) and runs the cheaper one.
//                  The study's finding as a per-rank rule: merging wins for
//                  a few large chunks, re-sorting for many small ones. The
//                  choice is rank-local and needs no communication.
//
// The k-way merge is charged as the loser tree (CostModel::kway_heap_merge)
// whichever kernel runs, so the kernel choice moves host time only. Its
// result lands in a caller-donated `spare` buffer when that is large
// enough — the sort passes the input partition superstep 3 vacated, so on a
// balanced sort the merge allocates nothing — and otherwise in a newly
// allocated one or, after the pairwise kernel, wherever its last level
// wrote. The study's pairwise binary merge tree (bench::pairwise_merge_tree)
// runs the pairwise kernel under the binary tree's charge.
#pragma once

#include <algorithm>
#include <bit>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/key_traits.h"
#include "core/kway_merge.h"
#include "core/local_sort.h"
#include "runtime/comm.h"

namespace hds::core {

/// Value 1 (the binary merge tree) is retired: Tournament keeps 2, so the
/// parameter printed in every surviving test instance's name is unchanged.
enum class MergeStrategy : u8 { Sort = 0, Tournament = 2, Auto = 3 };

constexpr std::string_view merge_name(MergeStrategy m) {
  switch (m) {
    case MergeStrategy::Sort: return "sort";
    case MergeStrategy::Tournament: return "tournament";
    case MergeStrategy::Auto: return "auto";
  }
  return "?";
}

namespace detail {

/// Auto's rule: is the k-way merge of `runs` (>= 2 non-empty sorted runs,
/// n elements in all) strictly cheaper in the cost model than the re-sort
/// local_sort would run on their concatenation? A tie re-sorts, as the
/// paper does. O(runs): the re-sort's radix passes are bounded from the
/// runs' end keys — every key lies in [lo, hi], so digits above
/// bit_width(lo ^ hi) are constant and the kernel skips them. The bound is
/// exact unless some lower digit is also constant across all keys.
template <class T, class KeyFn>
bool kway_merge_is_cheaper(const runtime::Comm& comm,
                           std::span<const std::span<const T>> runs, usize n,
                           KeyFn key) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  const net::CostModel& cost = comm.cost();
  const double kway = cost.kway_heap_merge(n, runs.size());
  double resort = cost.sort(n);
  if constexpr (Bisectable<K>) {
    if (use_radix<K>(comm.machine(), n)) {
      using Traits = KeyTraits<K>;
      using UK = typename Traits::uint_type;
      UK lo = Traits::to_uint(key(runs[0].front()));
      UK hi = Traits::to_uint(key(runs[0].back()));
      for (const auto& run : runs) {
        lo = std::min(lo, Traits::to_uint(key(run.front())));
        hi = std::max(hi, Traits::to_uint(key(run.back())));
      }
      const usize passes =
          (static_cast<usize>(std::bit_width(static_cast<UK>(lo ^ hi))) +
           radix_detail::kDigitBits - 1) /
          radix_detail::kDigitBits;
      constexpr bool by_key =
          !(std::is_same_v<KeyFn, IdentityKey> && Bisectable<T>);
      resort = cost.radix_sort(n, passes, by_key);
    }
  }
  return kway < resort;
}

}  // namespace detail

/// Merge `k` sorted runs (concatenated in `data`, lengths in `counts`) into
/// a single sorted sequence, charging simulated time per strategy. The Sort
/// strategy re-sorts through the local-sort kernel layer, with the same
/// comparison/radix dispatch as superstep 1. The k-way merge runs the
/// pairwise kernel on elements of at most kMergePathMaxBytes and the loser
/// tree on wider ones. Either merges into `spare` when its capacity holds
/// the output (no allocation; only elements beyond its size are
/// value-initialized) and into a new buffer otherwise; the pairwise kernel
/// alternates between that buffer and `data`, and when its last level
/// writes `data` the result is copied into the donated spare, so the
/// received buffer is the one freed. The result is swapped into `data` and
/// nothing but `data` outlives the call. The re-sort releases `spare`
/// first, so its peak stays data plus radix scratch.
template <class T, class KeyFn>
void merge_chunks(runtime::Comm& comm, std::vector<T>& data,
                  std::span<const usize> counts, MergeStrategy strategy,
                  KeyFn key, std::vector<T> spare = {}) {
  net::PhaseScope phase(comm.clock(), net::Phase::Merge);
  const usize n = data.size();
  std::vector<std::span<const T>> runs;
  usize off = 0;
  for (usize c : counts) {
    if (c > 0) runs.emplace_back(std::span<const T>(data.data() + off, c));
    off += c;
  }
  if (runs.size() <= 1) return;  // zero or one chunk: already sorted

  const std::span<const std::span<const T>> all(runs);
  const bool kway =
      strategy == MergeStrategy::Tournament ||
      (strategy == MergeStrategy::Auto &&
       detail::kway_merge_is_cheaper(comm, all, n, key));
  if (!kway) {
    spare = std::vector<T>();  // release before the radix scratch exists
    local_sort(comm, data, key);
    return;
  }
  const bool donated = spare.capacity() >= n;
  if (!donated) spare = std::vector<T>();  // release, then grow
  spare.resize(n);
  // Comparator invocations feed the MergeComparisons counter; the re-sort's
  // radix path does no comparisons, so it emits nothing.
  u64 comparisons = 0;
  if constexpr (sizeof(T) <= kMergePathMaxBytes) {
    std::vector<usize> bounds{0};
    for (const auto& run : runs) bounds.push_back(bounds.back() + run.size());
    const PairwiseMerge pm =
        pairwise_merge(std::span<T>(data), std::span<T>(spare),
                       std::move(bounds), [&key](const T& a, const T& b) {
                         return key(a) < key(b);
                       });
    comparisons = pm.comparisons;
    const bool in_data = pm.levels % 2 == 0;
    if (in_data && donated) std::copy(data.begin(), data.end(), spare.begin());
    if (!in_data || donated) data.swap(spare);
  } else {
    auto less = [&](const auto& a, const auto& b) {
      ++comparisons;
      return a < b;
    };
    kway_merge_into(std::span<T>(spare), runs[0], all.subspan(1), key, less);
    data.swap(spare);  // the received buffer is freed with `spare`
  }
  comm.charge_kway_merge(n, runs.size());
  comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
  comm.metrics().add(obs::Counter::MergeKWay, 1);
}

}  // namespace hds::core
