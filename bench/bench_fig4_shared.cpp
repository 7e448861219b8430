// Fig. 4: shared-memory strong scaling on one SuperMUC node — DASH
// (histogram sort run rank-per-core) vs Intel Parallel STL (TBB task merge
// sort) vs an OpenMP task merge sort, 5 GB of 64-bit doubles, normally
// distributed, 7..28 cores = 1..4 NUMA domains.
//
// Expected shape (Sec. VI-D): the tuned merge sort wins inside one NUMA
// domain; once data must cross NUMA boundaries, moving it exactly once
// (histogram sort's single exchange) beats the log(p)-pass merge tree.
#include <iostream>

#include "baselines/parallel_merge_sort.h"
#include "bench_common.h"
#include "core/histogram_sort.h"
#include "workload/distributions.h"

int main(int argc, char** argv) {
  using namespace hds;
  using runtime::Comm;
  using runtime::Team;
  const bench::Args args(argc, argv, {"model-keys", "real-keys", "reps"});
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const u64 model_total = args.get_int("model-keys", 671088640);  // 5 GB f64
  const u64 real_total = args.get_int("real-keys", u64{1} << 21);

  bench::print_header(
      "Shared-memory strong scaling on one node",
      "Fig. 4; 5 GB normal(0,1) doubles in [-1e6,1e6], 7..28 cores "
      "(1..4 NUMA domains)");

  Table fig4({"cores", "NUMA domains", "DASH t[s]", "PSTL t[s]",
              "OpenMP t[s]", "winner"});

  for (int domains = 1; domains <= 4; ++domains) {
    const int cores = 7 * domains;
    runtime::TeamConfig cfg;
    cfg.nranks = cores;
    cfg.machine = net::MachineModel::supermuc_node(cores, domains);
    cfg.data_scale = static_cast<double>(model_total) /
                     static_cast<double>(real_total);
    const usize n_rank = static_cast<usize>(real_total / cores);

    workload::GenConfig gen;
    gen.dist = workload::Dist::Normal;
    gen.mean = 0.0;
    gen.stddev = 1.0;

    auto run_sorter = [&](auto sorter) {
      Team team(cfg);
      return bench::measure(reps, [&](int rep) {
        workload::GenConfig g = gen;
        g.seed = 5 + rep;
        team.run([&](Comm& c) {
          auto local = workload::generate_f64(g, c.rank(), c.size(), n_rank);
          // Scale values into the paper's interval [-1e6, 1e6].
          for (auto& v : local) v *= 1e6 / 4.0;
          sorter(c, local);
        });
        return team.stats().makespan_s;
      }).median;
    };

    const double t_dash = run_sorter([](Comm& c, std::vector<double>& v) {
      core::SortConfig scfg = bench::paper_config();
      scfg.merge = core::MergeStrategy::Tournament;  // move data once
      core::sort(c, v, scfg);
    });
    const double t_pstl = run_sorter([](Comm& c, std::vector<double>& v) {
      baselines::parallel_merge_sort(c, v);
    });
    const double t_omp = run_sorter([](Comm& c, std::vector<double>& v) {
      // The OpenMP task merge sort: same structure, heavier task overhead
      // and slightly worse merge constants than the tuned TBB version.
      baselines::PMergeSortConfig mcfg;
      mcfg.task_alpha_s = 2.0e-6;
      mcfg.merge_s_per_elem = 1.1e-9;
      mcfg.sort_s_per_elem_log = 1.6e-9;
      baselines::parallel_merge_sort(c, v, mcfg);
    });

    const char* winner = (t_dash < t_pstl && t_dash < t_omp) ? "DASH"
                         : (t_pstl < t_omp)                  ? "PSTL"
                                                             : "OpenMP";
    fig4.add_row({std::to_string(cores), std::to_string(domains),
                  fmt(t_dash), fmt(t_pstl), fmt(t_omp), winner});
    std::cerr << "  done: " << cores << " cores\n";
  }

  std::cout << fig4.to_string();
  std::cout << "\nExpected crossover: PSTL leads on 1 NUMA domain; DASH "
               "leads once data crosses NUMA boundaries (paper Fig. 4).\n";
  return 0;
}
