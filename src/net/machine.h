// Machine model: a parametrized description of the cluster the simulated
// time accounting charges against. The default instance models SuperMUC
// Phase 2 (the paper's testbed, Table I): dual E5-2697v3 nodes (28 cores, 4
// NUMA domains), InfiniBand FDR14 in a non-blocking fat tree.
//
// Ranks are laid out blockwise: rank r lives on node r / ranks_per_node and
// inside that node on NUMA domain (r % ranks_per_node) / ranks_per_numa.
#pragma once

#include <string>

#include "common/types.h"

namespace hds::net {

struct MachineModel {
  // --- topology -----------------------------------------------------------
  int nodes = 1;
  int ranks_per_node = 1;
  int cores_per_node = 28;
  int numa_domains_per_node = 4;

  // --- network (inter-node) ------------------------------------------------
  double net_alpha_s = 1.5e-6;       ///< per-message hardware latency
  double net_bandwidth_Bps = 5.6e9;  ///< per-node NIC bandwidth (FDR14)
  double bisection_Bps = 5.1e12;     ///< full-system fat-tree bisection
  /// Software/progression overhead per inter-node tree stage of a blocking
  /// collective (MPI stack, 16-ranks-per-node NIC contention, OS noise
  /// amplified by the implicit max over ranks). This — not the wire — is
  /// what makes a 2048-rank ALLREDUCE cost ~1 ms in practice and lets
  /// histogramming become the strong-scaling bottleneck (Fig. 2(b)).
  double coll_stage_overhead_s = 1.5e-4;
  /// Fraction of nominal NIC bandwidth an MPI_Alltoallv actually sustains
  /// (message-count overheads, rendezvous protocol, fabric congestion);
  /// the paper's weak-scaling discussion measures the same gap.
  double alltoall_efficiency = 0.35;

  // --- memory (intra-node) --------------------------------------------------
  double mem_alpha_s = 2.5e-7;        ///< intra-node message/handshake latency
  double memcpy_Bps = 10.0e9;         ///< same-NUMA-domain copy bandwidth
  double numa_Bps = 7.0e9;            ///< cross-NUMA copy bandwidth (QPI)
  /// Aggregate cross-NUMA fabric bandwidth per node: when many cores stream
  /// across domain boundaries simultaneously they share this, which is what
  /// penalizes algorithms that re-cross NUMA repeatedly (Sec. VI-D).
  double numa_fabric_Bps = 16.0e9;

  // --- computation constants (seconds per element) -------------------------
  // Calibrated to single-threaded icc-era Haswell throughputs (std::sort of
  // 1M random u64 in ~45 ms, ~35 M elements/s merges).
  double sort_s_per_elem_log = 1.8e-9;    ///< introsort: t = k * n * log2 n
  /// One 8-bit-digit radix scatter pass: t = k * n * passes (plus one
  /// histogram read charged as a linear scan). Roughly memory-bound, so it
  /// sits between the scan and merge constants; net/calibrate.cpp measures
  /// it next to the introsort constant, and the Auto kernel crossover
  /// (core/local_sort.h) is derived from the ratio of the two.
  double radix_s_per_elem_pass = 1.2e-9;
  double merge_s_per_elem = 2.0e-9;       ///< one binary-merge pass
  double heap_merge_s_per_elem_log = 0.9e-9;  ///< tournament tree per level
  /// Beyond this many runs a k-way merge's working set of run heads falls
  /// out of cache and every extraction misses (the Sec. VI-E2 observation
  /// that merging many small chunks degrades drastically).
  usize heap_merge_cache_runs = 64;
  double heap_merge_cache_s_per_elem = 2.5e-9;  ///< per elem per log2(k/64)
  double partition_s_per_elem = 0.8e-9;   ///< 3-way partition pass
  double scan_s_per_elem = 0.35e-9;       ///< linear scan / accumulate
  double binsearch_s_per_step = 2.2e-9;   ///< one binary-search bisection step
  /// Fixed software overhead per sampled-histogram round of the hybrid
  /// splitter search (PR 10): assembling the variable-size sample blocks
  /// and registering the sparse gather, beyond the allgatherv wire cost and
  /// the charged draw/sort/scan compute. Keeps a sampled round honestly
  /// more expensive than one dense allreduce round at small P, so the
  /// hybrid's win has to come from doing fewer rounds, not free sampling.
  double sample_round_overhead_s = 2.0e-6;

  /// When true, collectives between ranks of the same node are charged with
  /// shared-memory constants instead of NIC constants (the DASH PGAS
  /// optimization of Sec. VI-A1). Disable for the ablation study.
  bool intra_node_shortcut = true;

  // --- failure recovery (PR 6) ---------------------------------------------
  /// Fraction of a checkpoint's buddy-transfer cost that lands on the
  /// critical path. Checkpoints ship to the buddy asynchronously while the
  /// next superstep's computation runs, so only this overlap residue is
  /// charged to the rank's clock (the rest rides in network slack).
  double checkpoint_overlap_residue = 0.25;
  /// Time for survivors to *detect* a failed peer: the failure detector's
  /// timeout plus RDMA read probes (ULFM-style revoke propagation).
  double fault_detect_s = 5.0e-4;
  /// Per-survivor-stage cost of the agreement round that adopts the new
  /// survivor set and rebuilds the communicator (log P stages of an
  /// MPI_Comm_shrink-like agreement, each paying collective overhead).
  double agree_stage_s = 2.5e-4;

  // --- descriptive metadata (Table I) ---------------------------------------
  std::string cpu = "2 x Intel Xeon E5-2697v3 (Haswell, 14c, 2.6 GHz)";
  std::string memory = "64 GB (56 GB usable)";
  std::string network = "InfiniBand FDR14, non-blocking fat tree";
  std::string compiler = "modelled after ICC 18.0.2";
  std::string mpi = "hds::runtime (thread-backed, MPI-3-like semantics)";

  /// SuperMUC Phase 2 with the given allocation.
  static MachineModel supermuc_phase2(int nodes, int ranks_per_node);

  /// One SuperMUC node used as a shared-memory machine (Fig. 4): `ranks`
  /// ranks packed densely over `numa_domains` domains of 7 cores each.
  static MachineModel supermuc_node(int ranks, int numa_domains);

  int total_ranks() const { return nodes * ranks_per_node; }
  int ranks_per_numa() const;
  int node_of(rank_t r) const { return r / ranks_per_node; }
  int numa_of(rank_t r) const;
  bool same_node(rank_t a, rank_t b) const { return node_of(a) == node_of(b); }
  bool same_numa(rank_t a, rank_t b) const;

  /// Point-to-point bandwidth between two ranks given their placement.
  double p2p_bandwidth(rank_t a, rank_t b) const;
  /// Point-to-point latency between two ranks given their placement.
  double p2p_latency(rank_t a, rank_t b) const;

  /// Effective bisection bandwidth scaled to the allocated partition of the
  /// fat tree (the paper could reserve at most one 512-node island).
  double allocated_bisection_Bps() const;
};

}  // namespace hds::net
