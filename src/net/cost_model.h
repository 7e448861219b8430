// Analytic communication / computation cost model.
//
// Collectives are charged with alpha-beta tree costs where the tree stages
// are split into intra-node stages (shared-memory constants — the DASH PGAS
// optimization) and inter-node stages (NIC constants). The all-to-allv cost
// additionally honours per-node NIC serialization and the fat-tree bisection
// bandwidth.
//
// `data_scale` implements the virtual-workload mode: benches execute the
// real algorithm on a proportionally sampled input while the model charges
// for the paper's full problem size. Only *data* byte terms scale; control
// traffic (histograms, splitters, clock sync) and latency terms do not,
// and computation charges use the scaled element count.
#pragma once

#include <span>

#include "common/types.h"
#include "net/machine.h"

namespace hds::net {

/// Whether a transfer carries the (scalable) key payload or fixed-size
/// control data such as histograms and splitters.
enum class Traffic : u8 { Control, Data };

/// Linear surrogate of a cost formula: seconds ≈ alpha_s + per_byte_s * B,
/// where B is the payload-byte measure the tracer records for the op class
/// (this rank's contributed bytes). The differential profiler fits the same
/// two constants from measured slices, so surrogate and fit are directly
/// comparable per class.
struct OpCost {
  double alpha_s = 0.0;
  double per_byte_s = 0.0;
  double at(double bytes) const { return alpha_s + per_byte_s * bytes; }
};

class CostModel {
 public:
  CostModel() = default;
  CostModel(MachineModel machine, double data_scale = 1.0)
      : machine_(machine), data_scale_(data_scale) {}

  const MachineModel& machine() const { return machine_; }
  double data_scale() const { return data_scale_; }

  /// Scaled element count for computation charges.
  double scaled(usize n) const { return static_cast<double>(n) * data_scale_; }
  double scaled_bytes(usize bytes, Traffic t) const {
    return t == Traffic::Data ? static_cast<double>(bytes) * data_scale_
                              : static_cast<double>(bytes);
  }

  // --- collective costs -----------------------------------------------------
  // P: number of participating ranks; nodes_spanned: distinct nodes they
  // occupy; bytes: payload per rank unless stated otherwise.

  double barrier(int P, int nodes_spanned) const;
  double broadcast(int P, int nodes_spanned, usize bytes, Traffic t) const;
  double reduce(int P, int nodes_spanned, usize bytes, Traffic t) const;
  double allreduce(int P, int nodes_spanned, usize bytes, Traffic t) const;
  /// bytes_per_rank contributed by each rank; result is P * bytes_per_rank.
  double allgather(int P, int nodes_spanned, usize bytes_per_rank,
                   Traffic t) const;
  /// Regular all-to-all: every rank sends `bytes_per_pair` to every other.
  double alltoall(int P, int nodes_spanned, usize bytes_per_pair,
                  Traffic t) const;

  /// One sampled-histogram gather round of the hybrid splitter search
  /// (PR 10): an allgatherv of the per-rank sample blocks — control
  /// traffic, gated by the largest single contribution like allgatherv —
  /// plus the machine's fixed per-round sampling overhead.
  double sample_gather(int P, int nodes_spanned,
                       usize bytes_per_rank_max) const;

  /// Irregular all-to-allv. `bytes[src * P + dst]` is the matrix of bytes
  /// sent from member src to member dst; `members[i]` is the global rank of
  /// member i (for node/NUMA placement). Models per-rank send/recv
  /// serialization, per-node NIC egress/ingress and fat-tree bisection.
  double alltoallv(std::span<const rank_t> members,
                   std::span<const usize> bytes, Traffic t) const;

  /// Point-to-point message.
  double p2p(rank_t src_world, rank_t dst_world, usize bytes, Traffic t) const;

  // --- introspection (PR 8) -------------------------------------------------
  // Linearized per-op-class cost surrogates: the full formulas above,
  // sampled at B = 0 and B = 64 KiB per rank (secant). These are the model
  // side of the differential profiler — what the run ledger's least-squares
  // fit of measured slices is compared against, class by class.

  /// Sync class (Barrier): latency only, per_byte_s is 0.
  OpCost probe_sync(int P, int nodes_spanned) const;
  /// Tree class (Broadcast / Allreduce), B = payload bytes.
  OpCost probe_tree(int P, int nodes_spanned, Traffic t) const;
  /// Gather class (Allgather(v) / Gatherv), B = one rank's contribution.
  OpCost probe_gather(int P, int nodes_spanned, Traffic t) const;
  /// Alltoall class, B = one rank's total send volume, spread uniformly
  /// over the other members of `members`.
  OpCost probe_alltoall(std::span<const rank_t> members, Traffic t) const;
  /// Send class, B = message payload bytes.
  OpCost probe_p2p(rank_t src_world, rank_t dst_world, Traffic t) const;

  // --- failure recovery (PR 6) ---------------------------------------------
  /// Critical-path cost of shipping a `bytes` checkpoint to the buddy rank.
  /// The transfer overlaps the next superstep's computation, so only the
  /// machine's overlap residue of the p2p cost is charged.
  double checkpoint(rank_t src_world, rank_t buddy_world, usize bytes,
                    Traffic t) const;
  /// Cost of detecting a failed peer plus the survivor agreement round that
  /// adopts the new communicator (log2(survivors) agreement stages).
  double detect_and_agree(int survivors) const;

  // --- computation costs (seconds), all using scaled element counts --------
  double sort(usize n) const;
  /// LSD radix sort that executed `passes` scatter passes over n elements
  /// (skipped trivial-digit passes are not charged) plus the single
  /// histogram-building read; `pairs` adds one merge-pass-equivalent for
  /// materializing/permuting (key, value) pairs on the record path.
  double radix_sort(usize n, usize passes, bool pairs = false) const;
  double merge_pass(usize n) const;
  double kway_heap_merge(usize n, usize k) const;
  double partition(usize n) const;
  double linear_scan(usize n) const;
  /// `probes` binary searches over a local array of n elements.
  double binary_search(usize n, usize probes) const;
  /// `probes` ASCENDING probes answered by one narrowing forward sweep
  /// (core::batched_counts): each search spans ~n/probes elements. Never
  /// charged above the independent-searches cost.
  double batched_search(usize n, usize probes) const;
  /// Control-plane compute over n items that do NOT grow with the modelled
  /// data volume (splitter vectors, sample pools, permutation rows), so
  /// data_scale does not apply: a comparison sort and a linear scan.
  double control_sort(usize n) const;
  double control_scan(usize n) const;

 private:
  /// Tree-stage latency and inverse bandwidth blended over intra/inter-node
  /// stages of a P-rank collective spanning `nodes_spanned` nodes.
  struct Blend {
    double alpha;     ///< total latency over all tree stages
    double inv_bw;    ///< per-byte cost per stage, averaged
    int stages;
  };
  Blend blend(int P, int nodes_spanned) const;

  MachineModel machine_{};
  double data_scale_ = 1.0;
};

}  // namespace hds::net
