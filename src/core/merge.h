// Local k-way merging of the sorted chunks received in the exchange
// (Sec. V-C and the merging study of Sec. VI-E2). Three strategies:
//
//  * Sort        — re-sort the concatenation with a fast shared-memory sort
//                  (what the paper's evaluated implementation does);
//  * BinaryTree  — out-of-place pairwise merge tree, O(n log k), each element
//                  moves log k times;
//  * Tournament  — loser-tree k-way merge (kway_merge_into), O(n log k)
//                  comparisons but each element moves once (cache-efficient
//                  for small k).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "core/local_sort.h"
#include "core/merge_inplace.h"
#include "runtime/comm.h"

namespace hds::core {

namespace detail {

/// View of the rank's pooled byte arena (Comm::scratch_arena) as `n`
/// elements of T. The arena is grown once and then reused across merge
/// passes, exchange rounds and sort calls, replacing the per-call staging
/// allocations the merge strategies used to make. T must be trivially
/// copyable (the same constraint the wire format imposes) because the bytes
/// are reinterpreted without constructing objects. The returned span is
/// invalidated by the next pooled_scratch call on the same rank.
template <class T>
std::span<T> pooled_scratch(runtime::Comm& comm, usize n) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto& arena = comm.scratch_arena();
  const usize bytes = n * sizeof(T) + alignof(T);
  if (arena.size() < bytes) arena.resize(bytes);
  void* p = arena.data();
  usize space = arena.size();
  p = std::align(alignof(T), n * sizeof(T), p, space);
  HDS_CHECK(p != nullptr);
  return {static_cast<T*>(p), n};
}

}  // namespace detail

enum class MergeStrategy : u8 { Sort, BinaryTree, Tournament };

constexpr std::string_view merge_name(MergeStrategy m) {
  switch (m) {
    case MergeStrategy::Sort: return "sort";
    case MergeStrategy::BinaryTree: return "binary-tree";
    case MergeStrategy::Tournament: return "tournament";
  }
  return "?";
}

/// Merge `k` sorted runs (concatenated in `data`, lengths in `counts`) into
/// a single sorted sequence, charging simulated time per strategy. The Sort
/// strategy re-sorts through the local-sort kernel layer, so `kernel`
/// selects the same comparison/radix dispatch as superstep 1.
template <class T, class KeyFn>
void merge_chunks(runtime::Comm& comm, std::vector<T>& data,
                  std::span<const usize> counts, MergeStrategy strategy,
                  KeyFn key,
                  LocalSortKernel kernel = LocalSortKernel::Auto) {
  net::PhaseScope phase(comm.clock(), net::Phase::Merge);
  const usize n = data.size();
  // Comparator invocations feed the MergeComparisons counter for the
  // comparison-based strategies; the Sort strategy's radix path does no
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
      local_sort(comm, data, key, kernel);
      return;
    }
    case MergeStrategy::BinaryTree: {
      // Out-of-place pairwise merge levels; each level halves the number of
      // runs and touches every element once.
      std::vector<std::pair<usize, usize>> runs;  // (offset, length)
      usize off = 0;
      for (usize c : counts) {
        if (c > 0) runs.emplace_back(off, c);
        off += c;
      }
      if (runs.size() == 2 && runs[0].first == 0 &&
          runs[1].first == runs[0].second &&
          runs[0].second + runs[1].second == n) {
        // Two adjacent runs spanning the buffer — the shape every exchange
        // produces at P=2.
        // Merge in place: only the second run is staged (pooled scratch of
        // l2 elements, not a full-size ping-pong buffer), then a backward
        // merge places everything at its final offset.
        const usize l1 = runs[0].second;
        const usize l2 = runs[1].second;
        std::span<T> scratch = detail::pooled_scratch<T>(comm, l2);
        std::copy(data.begin() + l1, data.end(), scratch.begin());
        merge_tail_inplace(std::span<T>(data), l1,
                           std::span<const T>(scratch), less);
        comm.charge_merge_pass(n);
        comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
        return;
      }
      // Ping-pong between `data` and the pooled arena — no per-call
      // full-size buffer allocation.
      std::span<T> src(data.data(), n);
      std::span<T> dst = detail::pooled_scratch<T>(comm, n);
      while (runs.size() > 1) {
        std::vector<std::pair<usize, usize>> next;
        usize out_off = 0;
        for (usize i = 0; i + 1 < runs.size(); i += 2) {
          const auto [o1, l1] = runs[i];
          const auto [o2, l2] = runs[i + 1];
          std::merge(src.begin() + o1, src.begin() + o1 + l1,
                     src.begin() + o2, src.begin() + o2 + l2,
                     dst.begin() + out_off, less);
          next.emplace_back(out_off, l1 + l2);
          out_off += l1 + l2;
        }
        if (runs.size() % 2 == 1) {
          const auto [o, l] = runs.back();
          std::copy(src.begin() + o, src.begin() + o + l,
                    dst.begin() + out_off);
          next.emplace_back(out_off, l);
        }
        comm.charge_merge_pass(n);
        runs.swap(next);
        std::swap(src, dst);
      }
      if (src.data() != data.data())
        std::copy(src.begin(), src.end(), data.begin());
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
    case MergeStrategy::Tournament: {
      // kway_merge_into (the k-ary exchange's merge kernel) reads the runs
      // in place and writes into the pooled arena, which is then copied
      // back over `data` — no per-call output allocation.
      std::vector<std::span<const T>> runs;
      usize off = 0;
      for (usize c : counts) {
        if (c > 0)
          runs.emplace_back(std::span<const T>(data.data() + off, c));
        off += c;
      }
      std::span<T> out = detail::pooled_scratch<T>(comm, n);
      kway_merge_into(out, runs[0],
                      std::span<const std::span<const T>>(runs).subspan(1),
                      less);
      std::copy(out.begin(), out.end(), data.begin());
      comm.charge_kway_merge(n, nonempty);
      comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
      return;
    }
  }
}

}  // namespace hds::core
