// Ablation studies over the design choices the paper discusses:
//
//  (1) epsilon sweep — softening perfect partitioning reduces histogram
//      iterations and end-to-end time (Sec. VI-B: "we certainly get a
//      better scaling if we soften the perfect partitioning requirement");
//  (2) splitter search — dense min/max-bracketed bisection (the paper's
//      choice) vs HSS-style sampled rounds plus interpolated dense probes
//      (the sample-sort idea, Sec. III-B);
//  (3) PGAS intra-node shortcut — shared-memory collectives vs MPI-through-
//      the-loopback (Sec. VI-A1: "we replace collective communication by
//      fast memcpy operations");
//  (4) final merge strategy on the full sort (Sec. V-C);
//  (5) exchange schedule (Sec. VI-E1).
#include <iostream>

#include "bench_common.h"
#include "core/histogram_sort.h"
#include "workload/distributions.h"

namespace {

using namespace hds;
using runtime::Comm;
using runtime::Team;

struct RunResult {
  double time;
  usize iterations;
};

// Set once in main; lets run_sort honour --trace without threading the
// argument through every ablation call site. The trace file ends up holding
// the last configuration run.
const bench::Args* g_args = nullptr;

RunResult run_sort(int nodes, int rpn, u64 model_keys, u64 real_keys,
                   core::SortConfig scfg, bool shortcut) {
  runtime::TeamConfig cfg;
  cfg.nranks = nodes * rpn;
  cfg.machine = net::MachineModel::supermuc_phase2(nodes, rpn);
  cfg.machine.intra_node_shortcut = shortcut;
  cfg.data_scale =
      static_cast<double>(model_keys) / static_cast<double>(real_keys);
  cfg.trace = g_args != nullptr && g_args->has("trace");
  Team team(cfg);
  workload::GenConfig gen;
  gen.seed = 11;
  usize iters = 0;
  const usize n_rank = static_cast<usize>(real_keys) / cfg.nranks;
  team.run([&](Comm& c) {
    auto local = workload::generate_u64(gen, c.rank(), c.size(), n_rank);
    const auto st = core::sort(c, local, scfg);
    if (c.rank() == 0) iters = st.histogram_iterations;
  });
  if (g_args != nullptr) {
    bench::write_trace_if_requested(*g_args, team);
    bench::write_ledger_if_requested(
        *g_args, team, "bench_ablation",
        static_cast<u64>(n_rank) * static_cast<u64>(cfg.nranks),
        {{"nodes", std::to_string(nodes)},
         {"ranks_per_node", std::to_string(rpn)},
         {"intra_node_shortcut", shortcut ? "1" : "0"}},
        {{"sim_makespan_s", team.stats().makespan_s}});
  }
  return {team.stats().makespan_s, iters};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv);
  g_args = &args;
  const int nodes = static_cast<int>(args.get_int("nodes", 16));
  const int rpn = static_cast<int>(args.get_int("ranks-per-node", 16));
  const u64 model_keys = args.get_int("model-keys", u64{1} << 28);
  const u64 real_keys = args.get_int("real-keys", u64{1} << 19);

  bench::print_header(
      "Ablations over design choices",
      "Secs. III-B, V-A, V-C, VI-A1, VI-B; uniform u64, " +
          std::to_string(nodes) + " nodes x " + std::to_string(rpn) +
          " ranks");

  // (1) epsilon sweep.
  {
    Table t({"epsilon", "histogram iters", "time [s]", "vs eps=0"});
    double t0 = 0.0;
    for (double eps : {0.0, 0.01, 0.05, 0.1, 0.5}) {
      core::SortConfig scfg;
      scfg.epsilon = eps;
      const auto r = run_sort(nodes, rpn, model_keys, real_keys, scfg, true);
      if (eps == 0.0) t0 = r.time;
      t.add_row({fmt(eps, 2), std::to_string(r.iterations), fmt(r.time),
                 fmt(t0 / r.time, 2) + "x"});
    }
    std::cout << "(1) load-balance threshold epsilon:\n" << t.to_string()
              << "\n";
  }

  // (2) splitter search.
  {
    Table t({"splitter search", "histogram iters", "time [s]"});
    for (auto [name, mode] :
         {std::pair{"min/max bisection (paper)", core::HistogramMode::Dense},
          std::pair{"sampled rounds + interpolation",
                    core::HistogramMode::Hybrid}}) {
      core::SortConfig scfg;
      scfg.histogram = mode;
      const auto r = run_sort(nodes, rpn, model_keys, real_keys, scfg, true);
      t.add_row({name, std::to_string(r.iterations), fmt(r.time)});
    }
    std::cout << "(2) splitter search:\n" << t.to_string() << "\n";
  }

  // (3) PGAS intra-node shortcut.
  {
    Table t({"intra-node collectives", "time [s]"});
    for (auto [name, shortcut] :
         {std::pair{"shared-memory memcpy (PGAS)", true},
          std::pair{"through the MPI stack", false}}) {
      const auto r =
          run_sort(nodes, rpn, model_keys, real_keys, {}, shortcut);
      t.add_row({name, fmt(r.time)});
    }
    std::cout << "(3) PGAS shared-memory shortcut:\n" << t.to_string()
              << "\n";
  }

  // (4) merge strategy on the full sort.
  {
    Table t({"final merge", "time [s]"});
    for (auto strategy :
         {core::MergeStrategy::Sort, core::MergeStrategy::BinaryTree,
          core::MergeStrategy::Tournament}) {
      core::SortConfig scfg;
      scfg.merge = strategy;
      const auto r = run_sort(nodes, rpn, model_keys, real_keys, scfg, true);
      t.add_row({std::string(core::merge_name(strategy)), fmt(r.time)});
    }
    std::cout << "(4) final local merge strategy:\n" << t.to_string() << "\n";
  }

  // (5) exchange schedule (Sec. VI-E1 future work, delivered).
  {
    Table t({"exchange", "time [s]"});
    const int P = nodes * rpn;
    std::vector<std::pair<std::string, core::SortConfig>> rows;
    rows.emplace_back("ALL-TO-ALLV collective (paper)", core::SortConfig{});
    for (int k : {2, 4, P}) {
      for (bool overlap : {false, true}) {
        core::SortConfig scfg;
        scfg.exchange = core::ExchangeAlgorithm::KAry;
        scfg.exchange_k = k;
        scfg.overlap_merge = overlap;
        rows.emplace_back("k-ary k=" + std::to_string(k) +
                              (overlap ? " + merge overlap" : ""),
                          scfg);
      }
    }
    core::SortConfig hierarchical;
    hierarchical.exchange = core::ExchangeAlgorithm::Hierarchical;
    rows.emplace_back("hierarchical node leaders", hierarchical);
    for (const auto& [name, scfg] : rows) {
      const auto r = run_sort(nodes, rpn, model_keys, real_keys, scfg, true);
      t.add_row({name, fmt(r.time)});
    }
    std::cout << "(5) data exchange schedule:\n" << t.to_string();
  }
  return 0;
}
