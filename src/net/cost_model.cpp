#include "net/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bits.h"
#include "common/error.h"

namespace hds::net {

namespace {
double log2d(double x) { return x <= 2.0 ? 1.0 : std::log2(x); }
}  // namespace

CostModel::Blend CostModel::blend(int P, int nodes_spanned) const {
  HDS_CHECK(P >= 1);
  HDS_CHECK(nodes_spanned >= 1);
  Blend b{};
  b.stages = static_cast<int>(log2_ceil(static_cast<u64>(P)));
  if (b.stages == 0) {
    b.alpha = 0.0;
    b.inv_bw = 0.0;
    return b;
  }
  // A binomial tree over P ranks on `nodes_spanned` nodes: the last
  // ceil(log2(nodes)) stages cross the network, the rest stay on-node.
  int inter = static_cast<int>(log2_ceil(static_cast<u64>(nodes_spanned)));
  inter = std::min(inter, b.stages);
  const int intra = b.stages - inter;
  const bool shortcut = machine_.intra_node_shortcut;
  const double a_inter =
      machine_.net_alpha_s + machine_.coll_stage_overhead_s;
  // Without the PGAS shortcut even on-node stages go through the full MPI
  // stack (loopback + software overhead); with it they are plain memcpys.
  const double a_intra = shortcut ? machine_.mem_alpha_s : a_inter;
  const double bw_intra =
      shortcut ? machine_.memcpy_Bps : machine_.net_bandwidth_Bps;
  b.alpha = intra * a_intra + inter * a_inter;
  const double inv_intra = 1.0 / bw_intra;
  const double inv_inter = 1.0 / machine_.net_bandwidth_Bps;
  b.inv_bw = (intra * inv_intra + inter * inv_inter) / b.stages;
  return b;
}

double CostModel::barrier(int P, int nodes_spanned) const {
  // Dissemination barrier: log2(P) rounds of one small message each.
  return blend(P, nodes_spanned).alpha;
}

double CostModel::broadcast(int P, int nodes_spanned, usize bytes,
                            Traffic t) const {
  const Blend b = blend(P, nodes_spanned);
  const double m = scaled_bytes(bytes, t);
  return b.alpha + b.stages * m * b.inv_bw;
}

double CostModel::reduce(int P, int nodes_spanned, usize bytes,
                         Traffic t) const {
  // Same tree shape as broadcast plus the per-stage combine, which is
  // negligible next to transfer for the message sizes we use.
  return broadcast(P, nodes_spanned, bytes, t);
}

double CostModel::allreduce(int P, int nodes_spanned, usize bytes,
                            Traffic t) const {
  const Blend b = blend(P, nodes_spanned);
  const double m = scaled_bytes(bytes, t);
  // Small messages: binomial reduce + broadcast (2 * stages latencies).
  // Large messages: Rabenseifner reduce-scatter + allgather, 2*m transfer.
  const double small = 2.0 * (b.alpha + b.stages * m * b.inv_bw);
  const double large = 2.0 * b.alpha + 2.0 * m * b.inv_bw * 2.0;
  return std::min(small, large);
}

double CostModel::allgather(int P, int nodes_spanned, usize bytes_per_rank,
                            Traffic t) const {
  const Blend b = blend(P, nodes_spanned);
  const double m = scaled_bytes(bytes_per_rank, t);
  // Bruck/ring: log latency, (P-1)*m data per rank.
  return b.alpha + static_cast<double>(P - 1) * m * b.inv_bw;
}

double CostModel::sample_gather(int P, int nodes_spanned,
                                usize bytes_per_rank_max) const {
  return allgather(P, nodes_spanned, bytes_per_rank_max, Traffic::Control) +
         machine_.sample_round_overhead_s;
}

double CostModel::alltoall(int P, int nodes_spanned, usize bytes_per_pair,
                           Traffic t) const {
  const Blend b = blend(P, nodes_spanned);
  const double m = scaled_bytes(bytes_per_pair, t);
  // Hypercube store-and-forward for small messages: log(P) rounds moving
  // P/2 * m each; direct exchange for large: (P-1) messages of m.
  const double saf =
      b.alpha + b.stages * (static_cast<double>(P) / 2.0) * m * b.inv_bw;
  const double direct = static_cast<double>(P - 1) *
                        (b.alpha / std::max(1, b.stages) + m * b.inv_bw);
  return std::min(saf, direct);
}

double CostModel::alltoallv(std::span<const rank_t> members,
                            std::span<const usize> bytes, Traffic t) const {
  const int P = static_cast<int>(members.size());
  HDS_CHECK(bytes.size() == static_cast<usize>(P) * static_cast<usize>(P));
  if (P <= 1) return 0.0;

  const bool shortcut = machine_.intra_node_shortcut;
  double max_rank_cost = 0.0;
  std::vector<double> node_wire_bytes;  // per distinct node, egress+ingress
  std::vector<double> node_numa_bytes;  // per distinct node, cross-NUMA
  std::vector<int> node_ids;
  double cross_bisection = 0.0;

  auto node_index = [&](int node) -> usize {
    for (usize i = 0; i < node_ids.size(); ++i)
      if (node_ids[i] == node) return i;
    node_ids.push_back(node);
    node_wire_bytes.push_back(0.0);
    node_numa_bytes.push_back(0.0);
    return node_ids.size() - 1;
  };

  for (int src = 0; src < P; ++src) {
    double send_time = 0.0;
    double recv_time = 0.0;
    double alpha = 0.0;
    for (int dst = 0; dst < P; ++dst) {
      if (dst == src) continue;
      const rank_t ws = members[src];
      const rank_t wd = members[dst];
      const double out_b = scaled_bytes(bytes[static_cast<usize>(src) * P + dst], t);
      const double in_b = scaled_bytes(bytes[static_cast<usize>(dst) * P + src], t);
      const bool same_node = machine_.same_node(ws, wd);
      const double bw =
          (same_node && shortcut)
              ? machine_.p2p_bandwidth(ws, wd)
              : machine_.net_bandwidth_Bps * machine_.alltoall_efficiency;
      if (out_b > 0.0 || in_b > 0.0)
        alpha += (same_node && shortcut) ? machine_.mem_alpha_s
                                         : machine_.net_alpha_s;
      send_time += out_b / bw;
      recv_time += in_b / bw;
      if (!same_node) {
        node_wire_bytes[node_index(machine_.node_of(ws))] += out_b;
        node_wire_bytes[node_index(machine_.node_of(wd))] += in_b;
        cross_bisection += out_b;
      } else if (!machine_.same_numa(ws, wd)) {
        // Intra-node traffic crossing NUMA domains contends on the shared
        // inter-socket fabric.
        node_numa_bytes[node_index(machine_.node_of(ws))] += out_b;
      }
    }
    max_rank_cost = std::max(max_rank_cost,
                             alpha + std::max(send_time, recv_time));
  }

  const double node_wire_bw =
      2.0 * machine_.net_bandwidth_Bps * machine_.alltoall_efficiency;
  double max_node_time = 0.0;
  for (usize i = 0; i < node_ids.size(); ++i) {
    max_node_time =
        std::max(max_node_time, node_wire_bytes[i] / node_wire_bw);
    max_node_time = std::max(max_node_time,
                             node_numa_bytes[i] / machine_.numa_fabric_Bps);
  }
  const double bisection_time =
      cross_bisection / machine_.allocated_bisection_Bps();

  return std::max({max_rank_cost, max_node_time, bisection_time});
}

double CostModel::p2p(rank_t src_world, rank_t dst_world, usize bytes,
                      Traffic t) const {
  const double m = scaled_bytes(bytes, t);
  return machine_.p2p_latency(src_world, dst_world) +
         m / machine_.p2p_bandwidth(src_world, dst_world);
}

namespace {
/// Secant linearization of a cost formula f(bytes): alpha from f(0), the
/// per-byte slope from the chord to f(64 KiB). The formulas themselves are
/// piecewise linear in bytes (min over algorithm variants), so the chord is
/// exact within one regime and a fair blend across the small/large switch.
constexpr usize kProbeBytes = 64 * 1024;

template <class F>
OpCost secant(F&& f) {
  OpCost c;
  c.alpha_s = f(usize{0});
  c.per_byte_s =
      (f(kProbeBytes) - c.alpha_s) / static_cast<double>(kProbeBytes);
  return c;
}
}  // namespace

OpCost CostModel::probe_sync(int P, int nodes_spanned) const {
  return OpCost{barrier(P, nodes_spanned), 0.0};
}

OpCost CostModel::probe_tree(int P, int nodes_spanned, Traffic t) const {
  return secant([&](usize b) { return broadcast(P, nodes_spanned, b, t); });
}

OpCost CostModel::probe_gather(int P, int nodes_spanned, Traffic t) const {
  return secant([&](usize b) { return allgather(P, nodes_spanned, b, t); });
}

OpCost CostModel::probe_alltoall(std::span<const rank_t> members,
                                 Traffic t) const {
  const int P = static_cast<int>(members.size());
  if (P <= 1) return OpCost{};
  // Uniform matrix: every rank splits a total of `b` send bytes evenly over
  // the other P-1 members, so the surrogate's byte axis matches the
  // per-rank total-send bytes the tracer records for Alltoall(v) events.
  return secant([&](usize b) {
    const usize per_pair = b / static_cast<usize>(P - 1);
    std::vector<usize> matrix(static_cast<usize>(P) * P, 0);
    for (int src = 0; src < P; ++src)
      for (int dst = 0; dst < P; ++dst)
        if (src != dst)
          matrix[static_cast<usize>(src) * P + dst] = per_pair;
    return alltoallv(members, matrix, t);
  });
}

OpCost CostModel::probe_p2p(rank_t src_world, rank_t dst_world,
                            Traffic t) const {
  return secant([&](usize b) { return p2p(src_world, dst_world, b, t); });
}

double CostModel::checkpoint(rank_t src_world, rank_t buddy_world, usize bytes,
                             Traffic t) const {
  return machine_.checkpoint_overlap_residue *
         p2p(src_world, buddy_world, bytes, t);
}

double CostModel::detect_and_agree(int survivors) const {
  const double stages = log2d(static_cast<double>(std::max(survivors, 2)));
  return machine_.fault_detect_s + machine_.agree_stage_s * stages;
}

double CostModel::sort(usize n) const {
  const double m = scaled(n);
  return m <= 1.0 ? 0.0 : machine_.sort_s_per_elem_log * m * log2d(m);
}

double CostModel::radix_sort(usize n, usize passes, bool pairs) const {
  const double m = scaled(n);
  const double s =
      machine_.radix_s_per_elem_pass * m * static_cast<double>(passes) +
      machine_.scan_s_per_elem * m;  // the one histogram-building read
  return pairs ? s + merge_pass(n) : s;
}

double CostModel::merge_pass(usize n) const {
  return machine_.merge_s_per_elem * scaled(n);
}

double CostModel::kway_heap_merge(usize n, usize k) const {
  const double base = machine_.heap_merge_s_per_elem_log * scaled(n) *
                      log2d(static_cast<double>(std::max<usize>(k, 2)));
  if (k <= machine_.heap_merge_cache_runs) return base;
  // Cache-miss regime: run heads no longer fit in cache (Sec. VI-E2).
  const double excess = log2d(static_cast<double>(k) /
                              static_cast<double>(machine_.heap_merge_cache_runs));
  return base + machine_.heap_merge_cache_s_per_elem * scaled(n) * excess;
}

double CostModel::overlapped_merge(usize n, usize k, double window_s) const {
  const double full = kway_heap_merge(n, k);
  return std::max(full - window_s, machine_.merge_overlap_residue * full);
}

double CostModel::partition(usize n) const {
  return machine_.partition_s_per_elem * scaled(n);
}

double CostModel::linear_scan(usize n) const {
  return machine_.scan_s_per_elem * scaled(n);
}

double CostModel::binary_search(usize n, usize probes) const {
  const double m = std::max(scaled(n), 2.0);
  return machine_.binsearch_s_per_step * static_cast<double>(probes) *
         log2d(m);
}

double CostModel::batched_search(usize n, usize probes) const {
  if (probes == 0) return 0.0;
  const double m = std::max(scaled(n), 2.0);
  const double per = log2d(m / static_cast<double>(probes) + 2.0);
  const double batched =
      machine_.binsearch_s_per_step * static_cast<double>(probes) * per;
  return std::min(batched, binary_search(n, probes));
}

}  // namespace hds::net
