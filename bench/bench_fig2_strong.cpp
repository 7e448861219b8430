// Fig. 2: strong scaling study, DASH (this paper's histogram sort) vs
// Charm++ (HSS reimplementation), 64-bit unsigned keys uniform in [0, 1e9],
// 16 ranks per node (the Charm++ power-of-two constraint), 1..128 nodes.
//
//  (a) median sorting time of `reps` runs with the 95% CI of the median,
//      plus speedup and parallel efficiency — the paper reports ~0.6
//      efficiency for DASH at 3500 cores with Charm++ slightly below;
//  (b) relative fraction of the algorithm phases for DASH — histogramming
//      becomes the bottleneck beyond ~2000 ranks where each rank holds
//      only ~8 MiB.
//
// Simulated seconds: the cost model charges the paper's full problem size
// (--model-keys, default 2^31 keys = 16 GiB) while each run executes a
// proportional sample (--real-keys, default 2^22) — see DESIGN.md.
#include <iostream>

#include "baselines/hss_sort.h"
#include "bench_common.h"
#include "core/histogram_sort.h"
#include "workload/distributions.h"

int main(int argc, char** argv) {
  using namespace hds;
  using runtime::Comm;
  using runtime::Team;
  const bench::Args args(argc, argv,
                         {"max-nodes", "ranks-per-node", "model-keys",
                          "real-keys", "reps", "trace", "ledger",
                          "calibration"});
  const int max_nodes = static_cast<int>(args.get_int("max-nodes", 128));
  const int rpn = static_cast<int>(args.get_int("ranks-per-node", 16));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const u64 model_keys = args.get_int("model-keys", u64{1} << 31);
  const u64 real_keys = args.get_int("real-keys", u64{1} << 20);

  bench::print_header(
      "Strong scaling: DASH histogram sort vs Charm++ HSS",
      "Fig. 2(a)+(b); uniform u64 in [0,1e9], total " +
          fmt_bytes(static_cast<double>(model_keys) * 8) + " modelled");

  struct Row {
    int nodes;
    Summary hds, hss;
    bool hss_ok = true;
    std::array<double, net::kPhaseCount> phases{};
  };
  std::vector<Row> rows;

  for (int nodes : bench::node_series(max_nodes)) {
    const int P = nodes * rpn;
    const usize n_rank = static_cast<usize>(real_keys / P);
    if (n_rank == 0) break;
    runtime::TeamConfig cfg;
    cfg.nranks = P;
    cfg.machine = net::MachineModel::supermuc_phase2(nodes, rpn);
    cfg.data_scale = static_cast<double>(model_keys) /
                     static_cast<double>(real_keys);
    cfg.trace = args.has("trace");

    Row row;
    row.nodes = nodes;

    {
      Team team(cfg);
      row.hds = bench::measure(reps, [&](int rep) {
        workload::GenConfig gen;
        gen.seed = 42 + rep;
        team.run([&](Comm& c) {
          auto local =
              workload::generate_u64(gen, c.rank(), c.size(), n_rank);
          core::sort(c, local, bench::paper_config());
        });
        for (usize p = 0; p < net::kPhaseCount; ++p)
          row.phases[p] =
              team.stats().phase_fraction(static_cast<net::Phase>(p));
        return team.stats().makespan_s;
      });
      bench::write_trace_if_requested(args, team);
      bench::write_ledger_if_requested(
          args, team, "bench_fig2_strong",
          static_cast<u64>(n_rank) * static_cast<u64>(P),
          {{"nodes", std::to_string(nodes)},
           {"ranks_per_node", std::to_string(rpn)},
           {"n_per_rank", std::to_string(n_rank)}},
          {{"sim_makespan_s", team.stats().makespan_s}});
    }
    {
      Team team(cfg);
      try {
        row.hss = bench::measure(reps, [&](int rep) {
          workload::GenConfig gen;
          gen.seed = 42 + rep;
          baselines::HssConfig hcfg;
          hcfg.seed = 7 + rep;
          team.run([&](Comm& c) {
            auto local =
                workload::generate_u64(gen, c.rank(), c.size(), n_rank);
            baselines::hss_sort(c, local, hcfg);
          });
          return team.stats().makespan_s;
        });
      } catch (const baselines::hss_timeout&) {
        row.hss_ok = false;
      }
    }
    rows.push_back(row);
    std::cerr << "  done: " << nodes << " node(s), P=" << P << "\n";
  }

  // --- Fig. 2(a) ------------------------------------------------------------
  Table fig2a({"nodes", "cores", "DASH t[s]", "DASH CI95", "Charm++ t[s]",
               "Charm++ CI95", "DASH speedup", "DASH efficiency"});
  const double t1 = rows.front().hds.median;
  const int p1 = rows.front().nodes;
  for (const Row& r : rows) {
    const double speedup = t1 / r.hds.median * p1;
    const double eff = speedup / r.nodes;
    fig2a.add_row(
        {std::to_string(r.nodes), std::to_string(r.nodes * rpn),
         fmt(r.hds.median), "[" + fmt(r.hds.ci_lo) + "," + fmt(r.hds.ci_hi) + "]",
         r.hss_ok ? fmt(r.hss.median) : "DNF",
         r.hss_ok ? "[" + fmt(r.hss.ci_lo) + "," + fmt(r.hss.ci_hi) + "]"
                  : "-",
         fmt(speedup, 2), fmt(eff, 3)});
  }
  std::cout << "Fig. 2(a) — median of " << reps << " runs:\n"
            << fig2a.to_string() << "\n";

  // --- Fig. 2(b) ------------------------------------------------------------
  Table fig2b({"nodes", "LocalSort %", "Histogram %", "Exchange %",
               "Merge %", "Other %"});
  for (const Row& r : rows) {
    std::vector<std::string> cells{std::to_string(r.nodes)};
    for (const net::Phase p :
         {net::Phase::LocalSort, net::Phase::Histogram, net::Phase::Exchange,
          net::Phase::Merge, net::Phase::Other})
      cells.push_back(fmt(100.0 * r.phases[static_cast<usize>(p)], 1));
    fig2b.add_row(std::move(cells));
  }
  std::cout << "Fig. 2(b) — DASH phase breakdown (rank-averaged):\n"
            << fig2b.to_string();
  return 0;
}
