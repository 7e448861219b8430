// Fig. 3: weak scaling study, DASH vs Charm++ HSS. Uniform u64, a fixed
// 128 MiB (2^24 keys) per rank (2 GiB per node at 16 ranks/node, the
// paper's setup), 1..128 nodes.
//
//  (a) absolute median time and weak-scaling efficiency t(1)/t(n) — the
//      paper measures 2.3 s on one node growing to 4.6 s on 128 nodes
//      (~256 GB crossing the network), Charm++ volatile in a 5-25 s band;
//  (b) phase breakdown — local sort and the ALL-TO-ALL exchange dominate;
//      the histogramming ALLREDUCE is amortized.
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
                         {"max-nodes", "ranks-per-node", "model-keys-per-rank",
                          "real-keys-per-rank", "reps", "trace", "ledger",
                          "calibration"});
  const int max_nodes = static_cast<int>(args.get_int("max-nodes", 128));
  const int rpn = static_cast<int>(args.get_int("ranks-per-node", 16));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const u64 model_per_rank = args.get_int("model-keys-per-rank", u64{1} << 24);
  const u64 real_per_rank = args.get_int("real-keys-per-rank", 2048);

  bench::print_header(
      "Weak scaling: DASH histogram sort vs Charm++ HSS",
      "Fig. 3(a)+(b); uniform u64, " +
          fmt_bytes(static_cast<double>(model_per_rank) * 8) +
          " per rank modelled");

  struct Row {
    int nodes;
    Summary hds, hss;
    bool hss_ok = true;
    std::array<double, net::kPhaseCount> phases{};
  };
  std::vector<Row> rows;

  for (int nodes : bench::node_series(max_nodes)) {
    const int P = nodes * rpn;
    runtime::TeamConfig cfg;
    cfg.nranks = P;
    cfg.machine = net::MachineModel::supermuc_phase2(nodes, rpn);
    cfg.data_scale = static_cast<double>(model_per_rank) /
                     static_cast<double>(real_per_rank);
    cfg.trace = args.has("trace");

    Row row;
    row.nodes = nodes;
    {
      Team team(cfg);
      row.hds = bench::measure(reps, [&](int rep) {
        workload::GenConfig gen;
        gen.seed = 17 + rep;
        team.run([&](Comm& c) {
          auto local = workload::generate_u64(gen, c.rank(), c.size(),
                                              real_per_rank);
          core::sort(c, local, bench::paper_config());
        });
        for (usize p = 0; p < net::kPhaseCount; ++p)
          row.phases[p] =
              team.stats().phase_fraction(static_cast<net::Phase>(p));
        return team.stats().makespan_s;
      });
      bench::write_trace_if_requested(args, team);
      bench::write_ledger_if_requested(
          args, team, "bench_fig3_weak",
          static_cast<u64>(real_per_rank) * static_cast<u64>(P),
          {{"nodes", std::to_string(nodes)},
           {"ranks_per_node", std::to_string(rpn)},
           {"real_keys_per_rank", std::to_string(real_per_rank)}},
          {{"sim_makespan_s", team.stats().makespan_s}});
    }
    {
      Team team(cfg);
      try {
        row.hss = bench::measure(reps, [&](int rep) {
          workload::GenConfig gen;
          gen.seed = 17 + rep;
          baselines::HssConfig hcfg;
          hcfg.seed = 23 + rep;
          team.run([&](Comm& c) {
            auto local = workload::generate_u64(gen, c.rank(), c.size(),
                                                real_per_rank);
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

  Table fig3a({"nodes", "cores", "DASH t[s]", "DASH CI95", "DASH efficiency",
               "Charm++ t[s]", "Charm++ CI95"});
  const double t1 = rows.front().hds.median;
  for (const Row& r : rows) {
    fig3a.add_row(
        {std::to_string(r.nodes), std::to_string(r.nodes * rpn),
         fmt(r.hds.median), "[" + fmt(r.hds.ci_lo) + "," + fmt(r.hds.ci_hi) + "]",
         fmt(t1 / r.hds.median, 3),
         r.hss_ok ? fmt(r.hss.median) : "DNF",
         r.hss_ok ? "[" + fmt(r.hss.ci_lo) + "," + fmt(r.hss.ci_hi) + "]"
                  : "-"});
  }
  std::cout << "Fig. 3(a) — median of " << reps << " runs:\n"
            << fig3a.to_string() << "\n";

  Table fig3b({"nodes", "LocalSort %", "Histogram %", "Exchange %",
               "Merge %", "Other %"});
  for (const Row& r : rows) {
    std::vector<std::string> cells{std::to_string(r.nodes)};
    for (const net::Phase p :
         {net::Phase::LocalSort, net::Phase::Histogram, net::Phase::Exchange,
          net::Phase::Merge, net::Phase::Other})
      cells.push_back(fmt(100.0 * r.phases[static_cast<usize>(p)], 1));
    fig3b.add_row(std::move(cells));
  }
  std::cout << "Fig. 3(b) — DASH phase breakdown (rank-averaged):\n"
            << fig3b.to_string();
  return 0;
}
