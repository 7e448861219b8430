// Resumable superstep state for the distributed histogram sort (PR 6).
//
// The sort is an explicit state machine over its four supersteps:
//
//   Start ──LocalSort──> LocalSorted ──Splitters──> SplittersReady
//         ──Exchange──> Exchanged ──Merge──> Done
//
// SortState<T, UK> is the complete per-rank state at a superstep BOUNDARY:
// everything a rank needs to replay the remaining supersteps after a
// failure, and nothing more. It serializes to a flat byte blob so it can be
// buddy-replicated through runtime::CheckpointStore; the blob is compact by
// construction — the data vector plus O(P) splitter/manifest metadata, never
// any mid-superstep scratch.
#pragma once

#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "core/multiselect.h"
#include "core/radix_sort.h"

namespace hds::core {

/// Superstep boundaries of the histogram sort. The value names the work
/// COMPLETED: a state with completed == LocalSorted holds a sorted local
/// partition and is about to run splitter determination.
enum class SuperstepId : u8 {
  Start = 0,           ///< raw input partition, nothing done yet
  LocalSorted = 1,     ///< superstep 1 done: local partition sorted
  SplittersReady = 2,  ///< superstep 2 done: global splitters determined
  Exchanged = 3,       ///< superstep 3 done: chunks received, unmerged
  Done = 4,            ///< superstep 4 done: output partition in place
};

/// Executable supersteps per fault-free sort (Done is not executed).
inline constexpr usize kSupersteps = 4;

constexpr std::string_view superstep_name(SuperstepId s) {
  switch (s) {
    case SuperstepId::Start:
      return "Start";
    case SuperstepId::LocalSorted:
      return "LocalSorted";
    case SuperstepId::SplittersReady:
      return "SplittersReady";
    case SuperstepId::Exchanged:
      return "Exchanged";
    case SuperstepId::Done:
      return "Done";
  }
  return "?";
}

struct SortStats {
  usize histogram_iterations = 0;
  usize splitter_probes = 0;
  usize elements_sent_off_rank = 0;  ///< this rank's off-rank sends
  usize elements_before = 0;
  usize elements_after = 0;
  /// Per-round max relative boundary error of the splitter search (one
  /// entry per histogram round, identical on every rank) — lets the
  /// convergence curve of the paper's Table 3 be plotted, not just the
  /// final iteration count.
  std::vector<double> histogram_convergence;
  // Hybrid histogramming accounting (PR 10), mirrored from SplitterResult:
  // sampled rounds executed, sample keys pooled, and histogram traffic
  // split into sampled-gather vs dense-allreduce bytes.
  usize sampled_rounds = 0;
  usize sample_keys_total = 0;
  usize hist_bytes_sampled = 0;
  usize hist_bytes_dense = 0;
  /// Per-round probe volume (sample keys or dense probes), parallel to
  /// histogram_convergence.
  std::vector<u32> round_probes;
  /// HistogramMode::Auto's pricing of each sampled round it considered
  /// (SplitterResult::decisions). Observability only: not checkpointed, so
  /// a sort resumed past superstep 2 reports none.
  std::vector<SampleDecision> histogram_decisions;
};

/// Per-rank sort state at a superstep boundary. UK is the unsigned key
/// image type of the splitter search (KeyTraits<K>::uint_type).
template <class T, class UK>
struct SortState {
  SuperstepId completed = SuperstepId::Start;
  usize out_capacity = 0;
  /// The partition at this boundary: raw input (Start), sorted run
  /// (LocalSorted / SplittersReady; but see `refs`), received chunk
  /// concatenation (Exchanged), merged output (Done).
  std::vector<T> data;
  /// Superstep 1's by-reference sort (radix_sort_refs): when non-empty, at
  /// LocalSorted and SplittersReady, `data` is still in input order and
  /// `refs` lists it in key order; superstep 3 sends the records through
  /// it. Host memory only: a checkpointed sort gathers `data` into order
  /// before it serializes (gather_by_refs), so `refs` is never serialized.
  std::vector<KeyRef<UK>> refs;
  /// Splitter-search result; meaningful from SplittersReady on.
  SplitterResult<UK> splitters;
  /// Received-chunk manifest (per-source counts); meaningful at Exchanged.
  std::vector<usize> recv_counts;
  SortStats stats;
  /// The input partition superstep 3 vacated, donated to superstep 4's
  /// k-way merge as its output buffer (merge_chunks). Host memory only:
  /// never serialized, so it is empty after a restore and the merge then
  /// allocates.
  std::vector<T> spare;
};

namespace detail {

inline void put_bytes(std::vector<std::byte>& out, const void* p, usize n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <class V>
void put_pod(std::vector<std::byte>& out, const V& v) {
  static_assert(std::is_trivially_copyable_v<V>);
  put_bytes(out, &v, sizeof(V));
}

template <class V>
void put_vec(std::vector<std::byte>& out, const std::vector<V>& v) {
  static_assert(std::is_trivially_copyable_v<V>);
  put_pod<u64>(out, static_cast<u64>(v.size()));
  if (!v.empty()) put_bytes(out, v.data(), v.size() * sizeof(V));
}

/// Bounds-checked cursor over a checkpoint blob.
struct ByteReader {
  std::span<const std::byte> in;
  usize off = 0;

  void get_bytes(void* p, usize n) {
    HDS_CHECK_MSG(off + n <= in.size(), "checkpoint blob truncated (need "
                                            << n << " bytes at offset " << off
                                            << " of " << in.size() << ")");
    if (n > 0) std::memcpy(p, in.data() + off, n);
    off += n;
  }

  template <class V>
  V get_pod() {
    V v{};
    get_bytes(&v, sizeof(V));
    return v;
  }

  template <class V>
  std::vector<V> get_vec() {
    const u64 n = get_pod<u64>();
    HDS_CHECK_MSG(n * sizeof(V) <= in.size() - off,
                  "checkpoint blob truncated (vector of " << n << ")");
    std::vector<V> v(static_cast<usize>(n));
    if (n > 0) get_bytes(v.data(), static_cast<usize>(n) * sizeof(V));
    return v;
  }
};

template <class T, class UK>
std::vector<std::byte> serialize_state(const SortState<T, UK>& st) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checkpointing transports trivially copyable types only");
  std::vector<std::byte> out;
  out.reserve(64 + st.data.size() * sizeof(T) +
              st.splitters.splitter.size() * sizeof(UK));
  put_pod<u64>(out, static_cast<u64>(st.completed));
  put_pod<u64>(out, static_cast<u64>(st.out_capacity));
  put_vec(out, st.data);
  put_vec(out, st.splitters.splitter);
  put_vec(out, st.splitters.boundary);
  put_vec(out, st.splitters.local_lb);
  put_vec(out, st.splitters.local_ub);
  put_vec(out, st.splitters.global_lb);
  put_vec(out, st.splitters.global_ub);
  put_pod<u64>(out, static_cast<u64>(st.splitters.iterations));
  put_pod<u64>(out, static_cast<u64>(st.splitters.probes_total));
  put_vec(out, st.splitters.convergence);
  put_pod<u64>(out, static_cast<u64>(st.splitters.sampled_rounds));
  put_pod<u64>(out, static_cast<u64>(st.splitters.sample_keys_total));
  put_pod<u64>(out, static_cast<u64>(st.splitters.hist_bytes_sampled));
  put_pod<u64>(out, static_cast<u64>(st.splitters.hist_bytes_dense));
  put_vec(out, st.splitters.round_probes);
  put_vec(out, st.recv_counts);
  put_pod<u64>(out, static_cast<u64>(st.stats.histogram_iterations));
  put_pod<u64>(out, static_cast<u64>(st.stats.splitter_probes));
  put_pod<u64>(out, static_cast<u64>(st.stats.elements_sent_off_rank));
  put_pod<u64>(out, static_cast<u64>(st.stats.elements_before));
  put_pod<u64>(out, static_cast<u64>(st.stats.elements_after));
  put_vec(out, st.stats.histogram_convergence);
  put_pod<u64>(out, static_cast<u64>(st.stats.sampled_rounds));
  put_pod<u64>(out, static_cast<u64>(st.stats.sample_keys_total));
  put_pod<u64>(out, static_cast<u64>(st.stats.hist_bytes_sampled));
  put_pod<u64>(out, static_cast<u64>(st.stats.hist_bytes_dense));
  put_vec(out, st.stats.round_probes);
  return out;
}

template <class T, class UK>
SortState<T, UK> deserialize_state(std::span<const std::byte> blob) {
  ByteReader r{blob};
  SortState<T, UK> st;
  const u64 completed = r.get_pod<u64>();
  HDS_CHECK_MSG(completed <= static_cast<u64>(SuperstepId::Done),
                "checkpoint blob carries invalid superstep " << completed);
  st.completed = static_cast<SuperstepId>(completed);
  st.out_capacity = static_cast<usize>(r.get_pod<u64>());
  st.data = r.get_vec<T>();
  st.splitters.splitter = r.get_vec<UK>();
  st.splitters.boundary = r.get_vec<usize>();
  st.splitters.local_lb = r.get_vec<usize>();
  st.splitters.local_ub = r.get_vec<usize>();
  st.splitters.global_lb = r.get_vec<usize>();
  st.splitters.global_ub = r.get_vec<usize>();
  st.splitters.iterations = static_cast<usize>(r.get_pod<u64>());
  st.splitters.probes_total = static_cast<usize>(r.get_pod<u64>());
  st.splitters.convergence = r.get_vec<double>();
  st.splitters.sampled_rounds = static_cast<usize>(r.get_pod<u64>());
  st.splitters.sample_keys_total = static_cast<usize>(r.get_pod<u64>());
  st.splitters.hist_bytes_sampled = static_cast<usize>(r.get_pod<u64>());
  st.splitters.hist_bytes_dense = static_cast<usize>(r.get_pod<u64>());
  st.splitters.round_probes = r.get_vec<u32>();
  st.recv_counts = r.get_vec<usize>();
  st.stats.histogram_iterations = static_cast<usize>(r.get_pod<u64>());
  st.stats.splitter_probes = static_cast<usize>(r.get_pod<u64>());
  st.stats.elements_sent_off_rank = static_cast<usize>(r.get_pod<u64>());
  st.stats.elements_before = static_cast<usize>(r.get_pod<u64>());
  st.stats.elements_after = static_cast<usize>(r.get_pod<u64>());
  st.stats.histogram_convergence = r.get_vec<double>();
  st.stats.sampled_rounds = static_cast<usize>(r.get_pod<u64>());
  st.stats.sample_keys_total = static_cast<usize>(r.get_pod<u64>());
  st.stats.hist_bytes_sampled = static_cast<usize>(r.get_pod<u64>());
  st.stats.hist_bytes_dense = static_cast<usize>(r.get_pod<u64>());
  st.stats.round_probes = r.get_vec<u32>();
  HDS_CHECK_MSG(r.off == blob.size(),
                "checkpoint blob has " << blob.size() - r.off
                                       << " trailing bytes");
  return st;
}

}  // namespace detail

}  // namespace hds::core
