// Local k-way merging of the sorted chunks received in the exchange
// (Sec. V-C and the merging study of Sec. VI-E2). Two strategies:
//
//  * Sort        — re-sort the concatenation with a fast shared-memory sort
//                  (what the paper's evaluated implementation does);
//  * Tournament  — loser-tree k-way merge (kway_merge_into), O(n log k)
//                  comparisons but each element moves once (cache-efficient
//                  for small k).
//
// The study's third strategy, the pairwise binary merge tree, is never
// strictly the best and lives bench-local (bench::pairwise_merge_tree).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/kway_merge.h"
#include "core/local_sort.h"
#include "runtime/comm.h"

namespace hds::core {

/// Value 1 (the binary merge tree) is retired: Tournament keeps 2, so the
/// parameter printed in every surviving test instance's name is unchanged.
enum class MergeStrategy : u8 { Sort = 0, Tournament = 2 };

constexpr std::string_view merge_name(MergeStrategy m) {
  switch (m) {
    case MergeStrategy::Sort: return "sort";
    case MergeStrategy::Tournament: return "tournament";
  }
  return "?";
}

/// Merge `k` sorted runs (concatenated in `data`, lengths in `counts`) into
/// a single sorted sequence, charging simulated time per strategy. The Sort
/// strategy re-sorts through the local-sort kernel layer, with the same
/// comparison/radix dispatch as superstep 1.
template <class T, class KeyFn>
void merge_chunks(runtime::Comm& comm, std::vector<T>& data,
                  std::span<const usize> counts, MergeStrategy strategy,
                  KeyFn key) {
  net::PhaseScope phase(comm.clock(), net::Phase::Merge);
  const usize n = data.size();
  // Comparator invocations feed the MergeComparisons counter for the
  // Tournament strategy; the Sort strategy's radix path does no
  // comparisons, so it emits nothing.
  u64 comparisons = 0;
  auto less = [&](const T& a, const T& b) {
    ++comparisons;
    return key(a) < key(b);
  };

  usize nonempty = 0;
  for (usize c : counts)
    if (c > 0) ++nonempty;
  if (nonempty <= 1) return;  // zero or one chunk: already sorted

  switch (strategy) {
    case MergeStrategy::Sort: {
      local_sort(comm, data, key);
      return;
    }
    case MergeStrategy::Tournament: {
      // kway_merge_into reads the runs in place and writes a new buffer,
      // which then replaces `data` — nothing outlives the call.
      std::vector<std::span<const T>> runs;
      usize off = 0;
      for (usize c : counts) {
        if (c > 0)
          runs.emplace_back(std::span<const T>(data.data() + off, c));
        off += c;
      }
      std::vector<T> out(n);
      kway_merge_into(std::span<T>(out), runs[0],
                      std::span<const std::span<const T>>(runs).subspan(1),
                      less);
      data.swap(out);
      comm.charge_kway_merge(n, nonempty);
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
  }
}

}  // namespace hds::core
