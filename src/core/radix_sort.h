// Non-comparison local-sort kernel: a stable radix sort over the KeyTraits
// order-preserving bijection onto unsigned integers — the same projection
// FIND_SPLITTERS bisects, reused here to make superstep 1 ("fast
// shared-memory sort") and Auto's re-sort O(n * key_bytes) instead of
// O(n log n) comparisons.
//
// Design (see DESIGN.md, "Local-sort kernel layer"):
//  * 8-bit digits throughout;
//  * a range of at most kRadixCacheBytes runs LSD passes in cache: all of
//    its digit histograms come from ONE read, so a digit that is constant
//    across the range (common for keys that occupy only the low bytes of
//    their type) is skipped without touching the data for that pass;
//  * a larger range scatters once, stably, on the top 8 bits of its key
//    span (the bits that vary across it). Each bucket then holds keys that
//    agree on every bit above the ones still to sort, and finishes with the
//    LSD passes for those bits in cache; a bucket still above the budget
//    (Zipf keys; floats, whose top byte is sign plus exponent) recurses. So
//    an array pays one out-of-cache scatter, not one per varying byte;
//  * every range ends in the caller's array. Passes ping-pong between it
//    and one uninitialized scratch array; a range whose pass count leaves
//    it in the scratch array is copied back while it is still in cache
//    (it is at most kRadixCacheBytes). The only other copy is of a range
//    in the scratch array whose keys are all equal;
//  * stable throughout (counting sort per digit), so payload order among
//    equal keys is preserved — unlike introsort.
//
// The simulated plane does not see this structure: RadixSortStats reports
// the 8-bit digits that vary across the input, which is what
// Comm::charge_radix_sort prices.
//
// Records are sorted by materializing (uint key, value) pairs — the key
// projection runs exactly once per element, not O(log n) times as under a
// comparison sort — or, for large values, (uint key, index) pairs followed
// by a single gather permutation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/key_traits.h"

namespace hds::core {

/// What a radix kernel invocation actually did; the caller charges
/// simulated time from these (see Comm::charge_radix_sort).
struct RadixSortStats {
  usize passes_planned = 0;   ///< key_bytes: upper bound for this key type
  /// Modelled passes: the 8-bit digits that vary across the input (the
  /// non-zero bytes of the OR of key ^ key[0]), i.e. the scatters a plain
  /// LSD radix sort would run. The kernel's physical passes differ.
  usize passes_executed = 0;
  bool used_pairs = false;    ///< by-key path materialized (key, value) pairs
};

/// Below this n the radix kernel's histogram setup (key_bytes * 256 counters
/// plus one full read) dominates any pass savings.
inline constexpr usize kRadixMinN = 512;

/// Cache budget of the radix kernel: a range of at most this many bytes is
/// sorted by LSD passes in cache; a larger one first splits on its top
/// digit. The budget is the largest range whose LSD passes (each reads the
/// range and writes a buffer of its size) still ran at in-cache speed on
/// the 2.1 GHz Xeon VM it was sized on: a pass over 4 MiB cost within
/// about a quarter of a pass inside L1, one over 8 MiB 2-3x that. A smaller budget
/// splits ranges whose passes were already fast, and the split does not
/// pay back: f32 keys at 2^20 sorted 0.82x as fast with a 1 MiB budget.
inline constexpr usize kRadixCacheBytes = usize{4} << 20;

namespace radix_detail {

inline constexpr int kDigitBits = 8;
inline constexpr usize kBuckets = usize{1} << kDigitBits;

/// Non-zero 8-bit digits of `diff`.
template <class UK>
usize nonzero_digits(UK diff) {
  usize m = 0;
  for (int s = 0; s < std::numeric_limits<UK>::digits; s += kDigitBits)
    m += ((diff >> s) & (kBuckets - 1)) != 0;
  return m;
}

/// One sort over the caller's array `a` and its scratch twin `b` (same
/// length). The range [lo, lo + n) sits in a or b at the same offset, and
/// ends sorted in a; while it is being sorted, its slot in the other array
/// is free.
template <class E, class KeyOf>
struct RadixKernel {
  using UK = std::decay_t<std::invoke_result_t<KeyOf&, const E&>>;
  static_assert(std::is_unsigned_v<UK>,
                "radix sort operates on the KeyTraits uint projection");
  static constexpr int kKeyBits = std::numeric_limits<UK>::digits;

  KeyOf key_of;
  E* a;
  E* b;

  /// Stride of the sample that guesses a range's span before its one
  /// counting read.
  static constexpr usize kSampleStride = 64;

  /// Shift of the top 8 bits of a span.
  static int top_digit_shift(UK diff) {
    return std::max(static_cast<int>(std::bit_width(diff)) - kDigitBits, 0);
  }

  usize digit(const E& e, int shift) const {
    return static_cast<usize>((key_of(e) >> shift) & (kBuckets - 1));
  }

  /// Sorts the range [lo, lo + n), which sits in b iff `in_b`, into a. Its
  /// keys agree on every bit at or above `bits`. Returns the number of
  /// 8-bit digits that vary across the range.
  usize sort_range(usize lo, usize n, bool in_b, int bits) {
    E* src = (in_b ? b : a) + lo;
    // A range whose keys are all equal is already sorted.
    const auto keep = [&] {
      if (in_b) std::copy(src, src + n, a + lo);
      return usize{0};
    };
    if (bits == 0) return keep();
    if (n * sizeof(E) <= kRadixCacheBytes)
      return (this->*kLsd[(bits - 1) / kDigitBits])(src, a + lo, b + lo, n);
    // Split on the top 8 bits of the span, the key bits that vary across
    // the range. A strided sample guesses the span, so that one read both
    // computes it and counts the digit; a wrong guess costs a recount.
    const UK first = key_of(src[0]);
    UK guess = 0;
    for (usize i = 0; i < n; i += kSampleStride)
      guess |= key_of(src[i]) ^ first;
    int shift = top_digit_shift(guess);
    std::array<usize, kBuckets> count{};
    UK diff = 0;
    for (usize i = 0; i < n; ++i) {
      const UK k = key_of(src[i]);
      diff |= k ^ first;
      ++count[static_cast<usize>((k >> shift) & (kBuckets - 1))];
    }
    if (diff == 0) return keep();
    if (top_digit_shift(diff) != shift) {
      shift = top_digit_shift(diff);
      count.fill(0);
      for (usize i = 0; i < n; ++i) ++count[digit(src[i], shift)];
    }
    // One scatter into the other array, after which every bucket's keys
    // agree on bits >= shift.
    std::array<usize, kBuckets> offs;
    usize acc = 0;
    for (usize d = 0; d < kBuckets; ++d) {
      offs[d] = acc;
      acc += count[d];
    }
    E* dst = (in_b ? a : b) + lo;
    for (usize i = 0; i < n; ++i) dst[offs[digit(src[i], shift)]++] = src[i];
    usize start = lo;
    for (usize d = 0; d < kBuckets; ++d) {
      if (count[d] > 0) sort_range(start, count[d], !in_b, shift);
      start += count[d];
    }
    return nonzero_digits(diff);
  }

  /// LSD passes over the low `kBytes` digits of the n elements at `src`
  /// (which is `dst` or `alt`), ending in `dst`; `alt` is free. The range
  /// is at most kRadixCacheBytes, so its passes and copy stay in cache.
  /// Returns the number of digits that vary, i.e. the passes run. The digit
  /// count is a template argument so the histogram read unrolls.
  template <usize kBytes>
  usize lsd(E* src, E* dst, E* alt, usize n) {
    // u32 counters suffice: n * sizeof(E) <= kRadixCacheBytes.
    std::array<u32, kBytes * kBuckets> hist{};
    for (usize i = 0; i < n; ++i) {
      const UK k = key_of(src[i]);
      for (usize p = 0; p < kBytes; ++p)
        ++hist[p * kBuckets + ((k >> (p * kDigitBits)) & (kBuckets - 1))];
    }
    // A digit is trivial when one bucket holds every element: its scatter
    // would be the identity permutation.
    std::array<usize, kBytes> passes{};
    usize m = 0;
    for (usize p = 0; p < kBytes; ++p) {
      const u32* h = &hist[p * kBuckets];
      if (std::find(h, h + kBuckets, n) == h + kBuckets) passes[m++] = p;
    }
    // Passes ping-pong between dst and alt; a pass count that ends in alt
    // costs one in-cache copy.
    E* cur = src;
    for (usize j = 0; j < m; ++j) {
      E* to = cur == dst ? alt : dst;
      const u32* h = &hist[passes[j] * kBuckets];
      std::array<usize, kBuckets> offs;
      usize acc = 0;
      for (usize d = 0; d < kBuckets; ++d) {
        offs[d] = acc;
        acc += h[d];
      }
      const int shift = static_cast<int>(passes[j]) * kDigitBits;
      for (usize i = 0; i < n; ++i) to[offs[digit(cur[i], shift)]++] = cur[i];
      cur = to;
    }
    if (cur != dst) std::copy(cur, cur + n, dst);
    return m;
  }

  /// lsd<1> ... lsd<sizeof(UK)>, indexed by digit count - 1.
  static constexpr auto kLsd = []<usize... I>(std::index_sequence<I...>) {
    return std::array{&RadixKernel::lsd<I + 1>...};
  }(std::make_index_sequence<sizeof(UK)>{});
};

/// Radix sort of `data` by an unsigned key projection `key_of`, called a
/// few times per element per level (callers that need single key
/// extraction materialize pairs first). Stable.
template <class E, class KeyOf>
RadixSortStats radix_sort(std::vector<E>& data, KeyOf key_of) {
  using Kernel = RadixKernel<E, KeyOf>;
  RadixSortStats st;
  st.passes_planned = sizeof(typename Kernel::UK);
  const usize n = data.size();
  if (n < 2) return st;
  const auto scratch = std::make_unique_for_overwrite<E[]>(n);
  Kernel k{key_of, data.data(), scratch.get()};
  st.passes_executed = k.sort_range(0, n, false, Kernel::kKeyBits);
  return st;
}

}  // namespace radix_detail

/// Sort a vector of bisectable keys in place. Stable; equal keys (including
/// -0.0 vs +0.0, which KeyTraits distinguishes) keep their input order.
template <Bisectable T>
RadixSortStats radix_sort_keys(std::vector<T>& keys) {
  using Traits = KeyTraits<T>;
  return radix_detail::radix_sort(
      keys, [](const T& v) { return Traits::to_uint(v); });
}

/// Sort records by a bisectable key projection. The projection is evaluated
/// exactly once per element: small records ride along as (uint key, value)
/// pairs through every pass; large records are sorted as (uint key, index)
/// pairs and gathered once at the end. Stable.
template <class T, class KeyFn>
RadixSortStats radix_sort_by_key(std::vector<T>& data, KeyFn key) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  using Traits = KeyTraits<K>;
  using UK = typename Traits::uint_type;
  RadixSortStats st;
  st.passes_planned = sizeof(UK);
  st.used_pairs = true;
  const usize n = data.size();
  if (n < 2) return st;

  if constexpr (sizeof(T) <= 3 * sizeof(UK)) {
    struct Pair {
      UK k;
      T v;
    };
    std::vector<Pair> pairs;
    pairs.reserve(n);
    for (const T& v : data) pairs.push_back(Pair{Traits::to_uint(key(v)), v});
    st = radix_detail::radix_sort(pairs,
                                      [](const Pair& p) { return p.k; });
    for (usize i = 0; i < n; ++i) data[i] = std::move(pairs[i].v);
  } else {
    struct Ref {
      UK k;
      usize i;
    };
    std::vector<Ref> refs;
    refs.reserve(n);
    for (usize i = 0; i < n; ++i)
      refs.push_back(Ref{Traits::to_uint(key(data[i])), i});
    st = radix_detail::radix_sort(refs,
                                      [](const Ref& r) { return r.k; });
    std::vector<T> out;
    out.reserve(n);
    for (const Ref& r : refs) out.push_back(std::move(data[r.i]));
    data = std::move(out);
  }
  st.used_pairs = true;
  return st;
}

}  // namespace hds::core
