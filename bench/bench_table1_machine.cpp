// Table I: SuperMUC Phase 2 single-node specifications — printed from the
// machine model the simulated-time experiments charge against, alongside
// the model's calibration constants so every other bench is interpretable.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "net/calibrate.h"
#include "net/machine.h"

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv,
                         {"calibrate", "nodes", "ranks-per-node"});
  auto m = net::MachineModel::supermuc_phase2(
      static_cast<int>(args.get_int("nodes", 128)),
      static_cast<int>(args.get_int("ranks-per-node", 16)));
  if (args.has("calibrate")) {
    // Replace the SuperMUC-era compute constants with measurements of the
    // build host (communication constants stay modelled).
    const auto cal = net::measure_host_constants();
    net::apply_calibration(m, cal);
  }

  bench::print_header("Machine model", "Table I (SuperMUC Phase 2 node)");

  Table spec({"property", "value"});
  spec.add_row({"CPU", m.cpu});
  spec.add_row({"Memory", m.memory});
  spec.add_row({"Network", m.network});
  spec.add_row({"Compiler", m.compiler});
  spec.add_row({"MPI library", m.mpi});
  spec.add_row({"Cores per node", std::to_string(m.cores_per_node)});
  spec.add_row({"NUMA domains per node",
                std::to_string(m.numa_domains_per_node)});
  std::cout << spec.to_string() << "\n";

  Table model({"model parameter", "value"});
  model.add_row({"nodes modelled", std::to_string(m.nodes)});
  model.add_row({"ranks per node", std::to_string(m.ranks_per_node)});
  model.add_row({"NIC latency", fmt(m.net_alpha_s * 1e6, 2) + " us"});
  model.add_row({"NIC bandwidth", fmt_bytes(m.net_bandwidth_Bps) + "/s"});
  model.add_row({"fat-tree bisection (512 nodes)",
                 fmt_bytes(m.bisection_Bps) + "/s"});
  model.add_row({"allocated bisection",
                 fmt_bytes(m.allocated_bisection_Bps()) + "/s"});
  model.add_row({"same-NUMA memcpy", fmt_bytes(m.memcpy_Bps) + "/s"});
  model.add_row({"cross-NUMA p2p", fmt_bytes(m.numa_Bps) + "/s"});
  model.add_row({"cross-NUMA fabric", fmt_bytes(m.numa_fabric_Bps) + "/s"});
  model.add_row({"intra-node latency", fmt(m.mem_alpha_s * 1e6, 2) + " us"});
  model.add_row({"sort constant", fmt(m.sort_s_per_elem_log * 1e9, 3) +
                                      " ns/elem/log2(n)"});
  model.add_row({"merge-pass constant",
                 fmt(m.merge_s_per_elem * 1e9, 3) + " ns/elem"});
  model.add_row({"binary-search step",
                 fmt(m.binsearch_s_per_step * 1e9, 3) + " ns/step"});
  model.add_row({"intra-node shortcut",
                 m.intra_node_shortcut ? "on (PGAS memcpy collectives)"
                                       : "off"});
  std::cout << model.to_string();
  return 0;
}
