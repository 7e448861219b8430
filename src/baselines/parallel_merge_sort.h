// Shared-memory task-parallel merge sort — the stand-in for Intel Parallel
// STL / TBB and the OpenMP task merge sort of Fig. 4.
//
// Execution model: every rank (thread) sorts its slice, then a binary merge
// tree combines slices; the *real* merging runs serially along the tree via
// uncharged mailbox handoffs (correctness), while simulated time charges the
// analytic critical path of a fully task-parallel merge sort, which is what
// TBB actually achieves:
//
//   T = sort(n/p) + sum over levels l=1..log2(p) of
//         [ alpha_task * l  +  (n/p) * (c_merge + bytes/bw(l)) ]
//
// where bw(l) is same-NUMA copy bandwidth while 2^l slices fit in one NUMA
// domain and cross-NUMA bandwidth beyond — every level re-touches all data,
// which is exactly why this loses to the one-shot exchange of the histogram
// sort once data spans NUMA domains (Sec. VI-D).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.h"
#include "core/local_sort.h"
#include "runtime/comm.h"

namespace hds::baselines {

struct PMergeSortConfig {
  /// Per-task scheduling overhead (TBB steal/spawn).
  double task_alpha_s = 5.0e-7;
  /// Comparison/merge cost per element per level; tuned libraries beat the
  /// message-passing implementation's constants on one NUMA domain.
  double merge_s_per_elem = 0.8e-9;
  /// Local-sort constant: the tuned TBB/PSTL introsort beats a per-rank
  /// std::sort wrapped in an MPI process (cache-aware partitioning,
  /// hyperthreading benefits the paper observed) — this is what makes PSTL
  /// win inside one NUMA domain in Fig. 4.
  double sort_s_per_elem_log = 1.5e-9;
};

struct PMergeSortStats {
  usize levels = 0;
};

/// Task-parallel merge sort across the ranks of `comm` (which model the
/// threads of one node). The globally sorted result is redistributed so
/// every rank ends with its original element count.
template <class T>
PMergeSortStats parallel_merge_sort(runtime::Comm& comm,
                                    std::vector<T>& local,
                                    const PMergeSortConfig& cfg = {}) {

  const int P = comm.size();
  const auto& machine = comm.machine();
  PMergeSortStats stats;

  const u64 N = comm.allreduce_value<u64>(local.size(),
                                          [](u64 a, u64 b) { return a + b; });
  if (N == 0) return stats;

  // --- simulated critical path (charged identically on every rank) --------
  {
    net::PhaseScope phase(comm.clock(), net::Phase::LocalSort);
    const double n_per = comm.cost().scaled(
        static_cast<usize>(div_ceil<u64>(N, static_cast<u64>(P))));
    const double sort_t = cfg.sort_s_per_elem_log * n_per *
                          std::max(1.0, std::log2(std::max(n_per, 2.0)));
    comm.charge_seconds(sort_t);
  }
  {
    net::PhaseScope phase(comm.clock(), net::Phase::Merge);
    const int levels = static_cast<int>(log2_ceil(static_cast<u64>(P)));
    const double n_per = comm.cost().scaled(
        static_cast<usize>(div_ceil<u64>(N, static_cast<u64>(P))));
    const int ranks_per_numa = machine.ranks_per_numa();
    double t = 0.0;
    for (int l = 1; l <= levels; ++l) {
      const int span = 1 << l;  // slices merged together at this level
      const bool crosses_numa = span > ranks_per_numa;
      // All P threads stream concurrently; levels that cross NUMA domains
      // share the inter-socket fabric, so each thread sees fabric/P.
      const double bw = crosses_numa
                            ? machine.numa_fabric_Bps / std::max(1, P)
                            : machine.memcpy_Bps;
      t += cfg.task_alpha_s * span +
           n_per * (cfg.merge_s_per_elem + sizeof(T) / bw);
    }
    comm.charge_seconds(t);
    stats.levels = static_cast<usize>(levels);
  }

  // --- real execution: serial merge tree over uncharged handoffs ----------
  // The handoffs and the final redistribution are part of the modelled
  // merge: their collectives (and any recv-side clock sync) belong to the
  // Merge phase, not Other.
  net::PhaseScope real_phase(comm.clock(), net::Phase::Merge);
  // The real local sort is uncharged: simulated time stays the analytic
  // TBB critical path above whichever kernel runs.
  if (core::use_radix<T>(machine, local.size())) {
    core::radix_sort_keys(local);
  } else {
    std::sort(local.begin(), local.end());
  }
  const usize my_count = local.size();
  for (int l = 1; static_cast<u64>(1ULL << l) <= next_pow2(static_cast<u64>(P)) && P > 1; ++l) {
    const int step = 1 << l;
    const int half = step / 2;
    if (comm.rank() % step == half) {
      comm.send_uncharged(comm.rank() - half, l,
                          std::span<const T>(local.data(), local.size()));
      local.clear();
    } else if (comm.rank() % step == 0 && comm.rank() + half < P) {
      const std::vector<T> theirs = comm.recv<T>(comm.rank() + half, l);
      std::vector<T> merged(local.size() + theirs.size());
      std::merge(local.begin(), local.end(), theirs.begin(), theirs.end(),
                 merged.begin());
      local = std::move(merged);
    }
  }

  // Redistribute: rank 0 holds everything; hand back original counts.
  std::vector<u64> counts(P);
  const u64 mine = my_count;
  comm.allgather(&mine, 1, counts.data());
  if (comm.rank() == 0) {
    usize off = 0;
    for (int r = 1; r < P; ++r) {
      off += counts[r - 1];
      comm.send_uncharged(
          r, /*tag=*/1000,
          std::span<const T>(local.data() + off, counts[r]));
    }
    local.resize(counts[0]);
  } else {
    local = comm.recv<T>(0, 1000);
  }
  return stats;
}

}  // namespace hds::baselines
