// The two k-way merge kernels of superstep 4 (DESIGN.md sec. 13). Each
// merges sorted runs into a separate destination and keeps equal keys in
// run order (stable):
//
//  * kway_merge_into — a loser tree over all k runs, two tournaments
//    stepped side by side. It plays on the runs' cached key images and
//    copies each winner straight from its run into the destination, so
//    every element moves once. It takes records wider than
//    kMergePathMaxBytes, whose moves would dominate a pairwise merge.
//  * pairwise_merge  — the runs merged two at a time, level by level,
//    alternating between two buffers; every two-way merge is branchless
//    and cut by merge path into kMergeChains independent chains stepped
//    together. It takes elements of at most kMergePathMaxBytes.
//
// merge_chunks (core/merge.h) picks the kernel by element width and hands
// both the input buffer superstep 3 vacated as their destination.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace hds::core {

namespace detail {

/// One loser-tree merge over slices of the input runs, writing a fixed
/// region of the destination back to front. Run 0 is the base run, runs
/// 1..m-1 the chunk slices. `cur[i]` caches the KEY IMAGE of run i's tail
/// (`tailp[i]`), so every comparison reads a tiny L1-resident array
/// instead of chasing a pointer into the cold run buffers; the winner is
/// copied straight from its run, so each element moves once. `tree` holds
/// u32 indices so stores of T into the destination cannot alias it.
template <class T, class K>
struct KWaySegment {
  std::vector<usize> rem;
  std::vector<const T*> tailp;
  std::vector<K> cur;
  std::vector<u32> tree;  // losers; winner at [0]
  u32 leaves = 1;
  usize k = 0;            // write cursor (one past the last write)
  usize from_chunks = 0;  // chunk elements not yet placed
};

inline constexpr u32 kKWayEmpty = static_cast<u32>(-1);

template <class T, class K, class Key, class Less>
void kway_seg_init(KWaySegment<T, K>& st, std::span<const T> run0,
                   std::span<const std::span<const T>> slices, usize write_end,
                   Key key, Less less) {
  const u32 m = static_cast<u32>(slices.size()) + 1;
  st.rem.assign(m, 0);
  st.tailp.assign(m, nullptr);
  st.cur.assign(m, K{});
  st.rem[0] = run0.size();
  if (st.rem[0] > 0) {
    st.tailp[0] = &run0[run0.size() - 1];
    st.cur[0] = key(run0.back());
  }
  usize total = st.rem[0];
  for (u32 i = 1; i < m; ++i) {
    const auto& c = slices[i - 1];
    st.rem[i] = c.size();
    total += c.size();
    if (st.rem[i] > 0) {
      st.tailp[i] = &c[c.size() - 1];
      st.cur[i] = key(c.back());
    }
  }
  st.leaves = 1;
  while (st.leaves < m) st.leaves <<= 1;
  st.tree.assign(2 * st.leaves, kKWayEmpty);
  // Build via a winner tree; ties go to the LATER run: its equal elements
  // must land at higher offsets to preserve range order.
  std::vector<u32> win(2 * st.leaves, kKWayEmpty);
  for (u32 i = 0; i < m; ++i)
    if (st.rem[i] > 0) win[st.leaves + i] = i;
  auto winner_of = [&](u32 a, u32 b) {
    if (a == kKWayEmpty) return b;
    if (b == kKWayEmpty) return a;
    const u32 lo = a < b ? a : b;
    const u32 hi = a < b ? b : a;
    return less(st.cur[hi], st.cur[lo]) ? lo : hi;
  };
  for (u32 node = st.leaves - 1; node >= 1; --node) {
    const u32 a = win[2 * node];
    const u32 b = win[2 * node + 1];
    const u32 w = winner_of(a, b);
    win[node] = w;
    st.tree[node] = (w == a) ? b : a;  // store the loser
  }
  st.tree[0] = win[1];
  st.k = write_end;
  st.from_chunks = total - st.rem[0];
}

/// Place one element: copy the tournament winner from its run into
/// dst[--k] and replay its path. The replay selects winner/loser with
/// arithmetic masks — gcc keeps a ternary here as a branch, and the
/// comparison outcome is data-dependent, so a mispredict per level would
/// dominate the merge.
template <class T, class K, class Key, class Less>
inline void kway_seg_step(KWaySegment<T, K>& st, T* dst, Key key, Less less) {
  u32* const tree = st.tree.data();
  K* const cur = st.cur.data();
  const T** const tailp = st.tailp.data();
  usize* const rem = st.rem.data();
  const u32 w = tree[0];
  const T* const src = tailp[w];
  dst[--st.k] = *src;
  st.from_chunks -= (w != 0) ? 1 : 0;
  u32 contender;
  if (--rem[w] != 0) {
    tailp[w] = src - 1;
    cur[w] = key(src[-1]);
    contender = w;
  } else {
    contender = kKWayEmpty;
  }
  for (u32 node = (st.leaves + w) >> 1; node >= 1; node >>= 1) {
    const u32 other = tree[node];
    if (other == kKWayEmpty) continue;
    if (contender == kKWayEmpty) {
      contender = other;
      tree[node] = kKWayEmpty;
      continue;
    }
    const u32 lo = contender < other ? contender : other;
    const u32 hi = contender ^ other ^ lo;
    const u32 mask = 0 - static_cast<u32>(less(cur[hi], cur[lo]));
    const u32 l = (hi & mask) | (lo & ~mask);
    tree[node] = l;
    contender = lo ^ hi ^ l;
  }
  tree[0] = contender;
}

/// The cuts of kway_merge_into's two-segment split: cut[0] for the base
/// run, cut[i + 1] for chunk i; segment 0 takes each run's prefix up to its
/// cut, segment 1 the rest. The pivot is the median of the largest chunk
/// (at least one chunk must be non-empty). Every run is first cut at
/// lower_bound(pivot), so segment 0 holds exactly the elements < pivot;
/// then elements equal to the pivot move into segment 0 in run order (base
/// first, each run's in position order) until it holds floor(n / 2), n the
/// total. A skewed pivot only costs overlap (one segment finishes early),
/// never correctness, but without the tie fill a tie-heavy merge whose
/// pivot is its smallest key (Zipf keys) leaves segment 0 empty and runs
/// as one serial chain.
///
/// Stability: in the stable merged order the pivot-equal elements follow
/// every smaller one and precede every larger one, and among themselves
/// come in run order, then position order. The fill takes them in exactly
/// that order and stops at most once part-way through a run, so segment 0
/// holds a prefix of them and segment 1 the rest. Each segment's merge is
/// stable, and segment 0's output lies wholly below segment 1's, so the
/// two concatenate to the stable merge.
template <class T, class Less>
std::vector<usize> kway_split_cuts(std::span<const T> base,
                                   std::span<const std::span<const T>> chunks,
                                   Less less) {
  usize big = 0;
  for (usize i = 1; i < chunks.size(); ++i)
    if (chunks[i].size() > chunks[big].size()) big = i;
  const T pivot = chunks[big][chunks[big].size() / 2];

  const usize m = chunks.size();
  const auto run = [&](usize i) { return i == 0 ? base : chunks[i - 1]; };
  std::vector<usize> cut(m + 1);
  usize total = 0;
  usize low = 0;
  for (usize i = 0; i <= m; ++i) {
    const std::span<const T> r = run(i);
    cut[i] = static_cast<usize>(
        std::lower_bound(r.begin(), r.end(), pivot, less) - r.begin());
    low += cut[i];
    total += r.size();
  }
  const usize half = total / 2;
  for (usize i = 0; i <= m && low < half; ++i) {
    const std::span<const T> r = run(i);
    const usize ties = static_cast<usize>(
        std::upper_bound(r.begin() + static_cast<std::ptrdiff_t>(cut[i]),
                         r.end(), pivot, less) -
        r.begin()) - cut[i];
    const usize take = std::min(ties, half - low);
    cut[i] += take;
    low += take;
  }
  return cut;
}

}  // namespace detail

/// Merge the sorted `base` run and the sorted `chunks` into `dst`, which
/// must already have size base.size() + sum(chunks) and must not alias any
/// input — O(n log k) comparisons, every element moved exactly once. The
/// runs are ordered by `less` on the key images `key` projects. Equal keys
/// keep range order (base first, then the chunks in the given order),
/// matching std::merge's stability.
///
/// A single tournament is a serial dependency chain — each placed element's
/// replay feeds the next winner selection — which leaves a 1-wide core
/// mostly idle between L1 loads. The merge is therefore value-split into
/// two independent segments (detail::kway_split_cuts: a pivot cut, evened
/// out over the pivot's ties, stable) whose loser trees are stepped
/// alternately in one loop: the two chains overlap in the out-of-order
/// window for ~1.7x the throughput of one tree.
template <class T, class Key, class Less>
void kway_merge_into(std::span<T> dst, std::span<const T> base,
                     std::span<const std::span<const T>> chunks, Key key,
                     Less less) {
  using K = std::decay_t<std::invoke_result_t<Key&, const T&>>;
  const usize n1 = base.size();
  usize total = n1;
  for (const auto& c : chunks) total += c.size();
  HDS_CHECK(dst.size() == total);
  if (total == n1) {
    std::copy(base.begin(), base.end(), dst.begin());
    return;
  }

  const usize m = chunks.size();
  const std::vector<usize> cut = detail::kway_split_cuts(
      base, chunks,
      [&](const T& a, const T& b) { return less(key(a), key(b)); });
  usize low_total = 0;
  for (usize c : cut) low_total += c;

  std::vector<std::span<const T>> lo_slices(m);
  std::vector<std::span<const T>> hi_slices(m);
  for (usize i = 0; i < m; ++i) {
    lo_slices[i] = chunks[i].subspan(0, cut[i + 1]);
    hi_slices[i] = chunks[i].subspan(cut[i + 1]);
  }
  detail::KWaySegment<T, K> s0;
  detail::KWaySegment<T, K> s1;
  detail::kway_seg_init(s0, base.subspan(0, cut[0]),
                        std::span<const std::span<const T>>(lo_slices),
                        low_total, key, less);
  detail::kway_seg_init(s1, base.subspan(cut[0]),
                        std::span<const std::span<const T>>(hi_slices), total,
                        key, less);

  T* const out = dst.data();
  // Alternate the two segments in batches bounded by the smaller remaining
  // count, so the hot loop carries no per-element exhaustion test.
  while (true) {
    usize batch = s0.from_chunks < s1.from_chunks ? s0.from_chunks
                                                  : s1.from_chunks;
    if (batch == 0) break;
    for (; batch > 0; --batch) {
      detail::kway_seg_step(s0, out, key, less);
      detail::kway_seg_step(s1, out, key, less);
    }
  }
  while (s0.from_chunks > 0) detail::kway_seg_step(s0, out, key, less);
  while (s1.from_chunks > 0) detail::kway_seg_step(s1, out, key, less);

  // Chunks drained: each segment's leftover base elements are its smallest
  // and slide in just below its write cursor.
  if (s0.rem[0] > 0)
    std::copy(base.begin(), base.begin() + s0.rem[0],
              dst.begin() + (s0.k - s0.rem[0]));
  if (s1.rem[0] > 0)
    std::copy(base.begin() + cut[0], base.begin() + cut[0] + s1.rem[0],
              dst.begin() + (s1.k - s1.rem[0]));
}

/// Elements of at most this many bytes merge through pairwise_merge, wider
/// ones through the loser tree: at k = 4 the pairwise kernel led by 2.15x on
/// u64 keys and the loser tree by 1.6x on 64-byte records (bench_local_sort's
/// merge cells). At 32 bytes the pairwise kernel led by only 1.06x on one
/// thread and trailed with four threads merging at once, as the sort's
/// ranks do.
inline constexpr usize kMergePathMaxBytes = 24;

/// The independent chains one two-way merge is cut into.
inline constexpr usize kMergeChains = 4;

namespace detail {

/// A chain shorter than this would cost more in its co-rank search than its
/// overlap saves, so shorter merges run fewer chains (down to one).
inline constexpr usize kMinChainLength = 256;

/// Merge path's co-rank: how many of `a`'s elements are among the first `d`
/// outputs of the stable merge of `a` and `b` (on a tie `a`'s element comes
/// first). A binary search along the diagonal, its comparisons counted into
/// `comparisons`.
template <class T, class Less>
usize merge_path_corank(const T* a, usize na, const T* b, usize nb, usize d,
                        Less less, u64& comparisons) {
  usize lo = d > nb ? d - nb : 0;
  usize hi = d < na ? d : na;
  while (lo < hi) {
    const usize mid = lo + (hi - lo) / 2;
    ++comparisons;
    if (less(b[d - mid - 1], a[mid]))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// One chain of a two-way merge: the unread rest of its slice of each input
/// and its write cursor.
template <class T>
struct MergeChain {
  const T* a;
  const T* a_end;
  const T* b;
  const T* b_end;
  T* out;
};

/// Step N chains `steps` times in lockstep, one element each per step.
/// `steps` is at most every chain's shorter remainder, so the loop carries
/// no exhaustion test, and the selection is a conditional move, so it
/// carries no data-dependent branch: the N load-compare-advance chains are
/// independent and overlap in the out-of-order window. The loop over the
/// chains must unroll, or their cursors live in memory and every step
/// waits on a store (gcc unrolls it by itself only at -O3).
template <usize N, class T, class Less>
void step_merge_chains(MergeChain<T>* c, usize steps, Less less) {
  const T* a[N];
  const T* b[N];
  T* out[N];
  for (usize i = 0; i < N; ++i) {
    a[i] = c[i].a;
    b[i] = c[i].b;
    out[i] = c[i].out;
  }
  for (usize s = 0; s < steps; ++s) {
#pragma GCC unroll 4
    for (usize i = 0; i < N; ++i) {
      const bool take_b = less(*b[i], *a[i]);  // a tie takes a
      out[i][s] = take_b ? *b[i] : *a[i];
      a[i] += !take_b;
      b[i] += take_b;
    }
  }
  for (usize i = 0; i < N; ++i) {
    c[i].a = a[i];
    c[i].b = b[i];
    c[i].out = out[i] + steps;
  }
}

/// Run `live` chains to completion: lockstep batches while every chain has
/// both inputs left, and each chain with an input run dry copies the
/// other's rest and retires. Returns the comparisons, one per stepped
/// element.
template <class T, class Less>
u64 run_merge_chains(MergeChain<T>* c, usize live, Less less) {
  static_assert(kMergeChains == 4, "step_merge_chains dispatch below");
  u64 comparisons = 0;
  while (live > 0) {
    usize steps = static_cast<usize>(-1);
    for (usize i = 0; i < live; ++i)
      steps = std::min({steps, static_cast<usize>(c[i].a_end - c[i].a),
                        static_cast<usize>(c[i].b_end - c[i].b)});
    if (steps == 0) {
      usize kept = 0;
      for (usize i = 0; i < live; ++i) {
        if (c[i].a == c[i].a_end || c[i].b == c[i].b_end) {
          T* const o = std::copy(c[i].a, c[i].a_end, c[i].out);
          std::copy(c[i].b, c[i].b_end, o);
        } else {
          c[kept++] = c[i];
        }
      }
      live = kept;
      continue;
    }
    comparisons += static_cast<u64>(steps) * live;
    switch (live) {
      case 1: step_merge_chains<1>(c, steps, less); break;
      case 2: step_merge_chains<2>(c, steps, less); break;
      case 3: step_merge_chains<3>(c, steps, less); break;
      default: step_merge_chains<4>(c, steps, less); break;
    }
  }
  return comparisons;
}

/// Stable branchless merge of `a` and `b` into `out` (overlapping neither),
/// cut by merge path into up to kMergeChains chains of equal output length:
/// chain i writes outputs [d_i, d_i+1) from the inputs the co-ranks of d_i
/// and d_i+1 bound, so the chains share nothing. Returns the comparisons.
template <class T, class Less>
u64 merge_two_runs(const T* a, usize na, const T* b, usize nb, T* out,
                   Less less) {
  const usize m = na + nb;
  const usize chains = std::clamp<usize>(m / kMinChainLength, 1, kMergeChains);
  MergeChain<T> c[kMergeChains];
  u64 comparisons = 0;
  usize d0 = 0;
  usize a0 = 0;
  for (usize i = 0; i < chains; ++i) {
    const usize d1 = m * (i + 1) / chains;
    const usize a1 = i + 1 == chains
                         ? na
                         : merge_path_corank(a, na, b, nb, d1, less,
                                             comparisons);
    c[i] = {a + a0, a + a1, b + (d0 - a0), b + (d1 - a1), out + d0};
    d0 = d1;
    a0 = a1;
  }
  return comparisons + run_merge_chains(c, chains, less);
}

}  // namespace detail

/// What pairwise_merge did: its levels (the result lies in the first buffer
/// after an even count, in the second after an odd one) and its comparator
/// calls.
struct PairwiseMerge {
  usize levels = 0;
  u64 comparisons = 0;
};

/// Merge the sorted runs laid end to end in `a` — run i spans
/// [bounds[i], bounds[i + 1]), bounds.front() == 0, bounds.back() ==
/// a.size() — pairwise, level by level: each level merges runs 2j and
/// 2j + 1 (and copies an odd last run) from one buffer into the other,
/// starting from `a` into `b` (same size, overlapping none of `a`).
/// ceil(log2 runs) levels, each moving every element once, no allocation
/// but `bounds`. Equal keys keep run order: each two-way merge
/// (detail::merge_two_runs) is stable with the left run winning ties.
template <class T, class Less>
PairwiseMerge pairwise_merge(std::span<T> a, std::span<T> b,
                             std::vector<usize> bounds, Less less) {
  HDS_CHECK(a.size() == b.size() && !bounds.empty() && bounds.front() == 0 &&
            bounds.back() == a.size());
  PairwiseMerge r;
  T* src = a.data();
  T* dst = b.data();
  while (bounds.size() > 2) {
    const usize runs = bounds.size() - 1;
    usize kept = 0;  // bounds[0, kept) are the next level's (i / 2 <= i)
    for (usize i = 0; i < runs; i += 2) {
      const usize lo = bounds[i];
      const usize mid = bounds[i + 1];
      if (i + 1 == runs) {
        std::copy(src + lo, src + mid, dst + lo);
      } else {
        const usize hi = bounds[i + 2];
        r.comparisons += detail::merge_two_runs(src + lo, mid - lo, src + mid,
                                                hi - mid, dst + lo, less);
      }
      bounds[kept++] = lo;
    }
    bounds[kept++] = a.size();
    bounds.resize(kept);
    std::swap(src, dst);
    ++r.levels;
  }
  return r;
}

}  // namespace hds::core
