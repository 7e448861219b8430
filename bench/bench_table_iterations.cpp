// Sec. V-A claims, as a table: the number of histogramming iterations until
// all splitters converge is bounded by the key width (one bit per round),
// is independent of the processor count, and collapses for duplicate-heavy
// inputs once ties are resolved through counts.
//
// Paper reference points: 64-bit floats converge in 60-64 iterations,
// 32-bit floats in 25-35, uniform u64 in [0,1e9] in ~30; P does not matter.
// It also sweeps the histogram modes (dense / hybrid) over
// distribution x epsilon x P cells and emits BENCH_histogram.json: per-cell
// rounds, probe volume, histogram traffic split sampled-vs-dense, and the
// histogram-phase / total simulated seconds. tools/validate_bench.py gates
// the hybrid mode's histogram-time win on the canonical cell.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "core/histogram_sort.h"
#include "core/multiselect.h"
#include "workload/distributions.h"

namespace {

using namespace hds;
using runtime::Comm;
using runtime::Team;

template <class T, class Gen>
usize median_iterations(int P, [[maybe_unused]] usize n_rank, int reps,
                        Gen generate) {
  std::vector<double> iters;
  for (int rep = 0; rep < reps; ++rep) {
    Team team({.nranks = P});
    usize it = 0;
    team.run([&](Comm& c) {
      std::vector<T> local = generate(c.rank(), P, rep);
      std::sort(local.begin(), local.end());
      std::vector<usize> targets(P - 1);
      const u64 N = c.allreduce_value<u64>(
          local.size(), [](u64 a, u64 b) { return a + b; });
      for (int b = 0; b + 1 < P; ++b)
        targets[b] = static_cast<usize>(N) * (b + 1) / P;
      const auto res = core::find_splitters(
          c, std::span<const T>(local.data(), local.size()),
          [](const T& v) { return v; }, std::span<const usize>(targets));
      if (c.rank() == 0) it = res.iterations;
    });
    iters.push_back(static_cast<double>(it));
  }
  return static_cast<usize>(median(iters));
}

// --- histogram-mode sweep (PR 10) ------------------------------------------

constexpr const char* mode_name(core::HistogramMode m) {
  switch (m) {
    case core::HistogramMode::Dense: return "dense";
    case core::HistogramMode::Hybrid: return "hybrid";
  }
  return "?";
}

struct HistCell {
  std::string dist;
  double epsilon = 0.0;
  int nranks = 0;
  core::HistogramMode mode = core::HistogramMode::Dense;
  core::SortStats stats;
  double histogram_s = 0.0;
  double makespan_s = 0.0;
};

/// One full sort of `n_rank` u64 keys per rank on a multi-node SuperMUC
/// layout (8 ranks per node — histogramming pays inter-node collective
/// latency, the regime the hybrid mode targets). Aborts on unsorted output
/// so a perf sweep can never mask a correctness break.
HistCell run_hist_cell(int P, usize n_rank, double epsilon,
                       const workload::GenConfig& gen, const std::string& dist,
                       core::HistogramMode mode, bool trace = false) {
  runtime::TeamConfig tcfg{.nranks = P, .trace = trace};
  tcfg.machine = net::MachineModel::supermuc_phase2(std::max(1, P / 8), 8);
  Team team(tcfg);
  core::SortStats got;
  team.run([&](Comm& c) {
    std::vector<u64> local =
        workload::generate_u64(gen, c.rank(), P, n_rank);
    core::SortConfig cfg;
    cfg.epsilon = epsilon;
    cfg.histogram = mode;
    const core::SortStats stats = core::sort(c, local, cfg);
    if (!core::is_globally_sorted(
            c, std::span<const u64>(local.data(), local.size()),
            [](u64 v) { return v; })) {
      std::cerr << "FATAL: histogram sweep produced unsorted output ("
                << dist << ", " << mode_name(mode) << ")\n";
      std::abort();
    }
    if (c.rank() == 0) got = stats;
  });
  HistCell cell;
  cell.dist = dist;
  cell.epsilon = epsilon;
  cell.nranks = P;
  cell.mode = mode;
  cell.stats = got;
  cell.histogram_s = team.stats().phase_seconds(net::Phase::Histogram);
  cell.makespan_s = team.stats().makespan_s;
  return cell;
}

void write_hist_json(const std::string& path,
                     const std::vector<HistCell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const HistCell& c = cells[i];
    out << "  {\"type\": \"u64\", \"dist\": \"" << c.dist
        << "\", \"epsilon\": " << c.epsilon << ", \"nranks\": " << c.nranks
        << ", \"mode\": \"" << mode_name(c.mode)
        << "\", \"iterations\": " << c.stats.histogram_iterations
        << ", \"sampled_rounds\": " << c.stats.sampled_rounds
        << ", \"probes_total\": " << c.stats.splitter_probes
        << ", \"hist_bytes_sampled\": " << c.stats.hist_bytes_sampled
        << ", \"hist_bytes_dense\": " << c.stats.hist_bytes_dense
        << ", \"histogram_s\": " << c.histogram_s
        << ", \"makespan_s\": " << c.makespan_s << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv);
  const usize n_rank = static_cast<usize>(args.get_int("keys-per-rank", 4096));
  const int reps = static_cast<int>(args.get_int("reps", 3));

  bench::print_header(
      "Splitter convergence: histogram iterations by key type and P",
      "Sec. V-A (iteration count bounded by key width, independent of P)");

  const std::vector<int> ranks = {4, 16, 64};

  struct Case {
    std::string name;
    std::string paper;
    std::function<usize(int)> run;  // P -> median iterations
  };

  workload::GenConfig uni_1e9;
  uni_1e9.hi = 1'000'000'000;
  workload::GenConfig uni_full;
  uni_full.hi = ~u64{0} >> 1;
  workload::GenConfig norm;
  norm.dist = workload::Dist::Normal;
  workload::GenConfig dup;
  dup.dist = workload::Dist::FewDistinct;
  dup.alphabet = 8;

  std::vector<Case> cases;
  cases.push_back(
      {"u64 uniform [0,1e9] (~2^30)", "~30",
       [&](int P) {
         return median_iterations<u64>(P, n_rank, reps,
                                       [&](int r, int p, int rep) {
                                         auto g = uni_1e9;
                                         g.seed = 100 + rep;
                                         return workload::generate_u64(
                                             g, r, p, n_rank);
                                       });
       }});
  cases.push_back(
      {"u64 uniform full range", "~63",
       [&](int P) {
         return median_iterations<u64>(P, n_rank, reps,
                                       [&](int r, int p, int rep) {
                                         auto g = uni_full;
                                         g.seed = 200 + rep;
                                         return workload::generate_u64(
                                             g, r, p, n_rank);
                                       });
       }});
  cases.push_back(
      {"u32 uniform full range", "~31",
       [&](int P) {
         return median_iterations<u32>(
             P, n_rank, reps, [&](int r, [[maybe_unused]] int p, int rep) {
               workload::GenConfig g;
               g.hi = 0xffffffffULL;
               g.seed = 300 + rep;
               return workload::generate_u32(g, r, p, n_rank);
             });
       }});
  cases.push_back(
      {"f64 normal(0,1)", "60-64",
       [&](int P) {
         return median_iterations<double>(
             P, n_rank, reps, [&](int r, [[maybe_unused]] int p, int rep) {
               auto g = norm;
               g.seed = 400 + rep;
               return workload::generate_f64(g, r, p, n_rank);
             });
       }});
  cases.push_back(
      {"f32 uniform [0,1)", "25-35",
       [&](int P) {
         return median_iterations<float>(
             P, n_rank, reps, [&](int r, [[maybe_unused]] int p, int rep) {
               Xoshiro256 rng(hash_mix(500 + rep, r));
               std::vector<float> v(n_rank);
               for (auto& x : v) x = static_cast<float>(rng.uniform01());
               return v;
             });
       }});
  cases.push_back(
      // Gappy key spaces still bisect down to the exact key value (~key
      // width); the ties themselves are split by counts in the exchange
      // (Alg. 4), so duplicates never block convergence.
      {"u64 few-distinct (8 values)", "key-width bounded",
       [&](int P) {
         return median_iterations<u64>(P, n_rank, reps,
                                       [&](int r, int p, int rep) {
                                         auto g = dup;
                                         g.seed = 600 + rep;
                                         return workload::generate_u64(
                                             g, r, p, n_rank);
                                       });
       }});

  if (!args.has("skip-table")) {
    Table t({"key type / distribution", "paper", "iters P=4", "iters P=16",
             "iters P=64"});
    for (const auto& c : cases) {
      std::vector<std::string> row{c.name, c.paper};
      for (int P : ranks) row.push_back(std::to_string(c.run(P)));
      t.add_row(std::move(row));
      std::cerr << "  done: " << c.name << "\n";
    }
    std::cout << t.to_string();
    std::cout << "\nNote: iteration counts must be (nearly) constant across "
                 "the P columns — the bisection depth depends on the key "
                 "range, not the processor count.\n";
  }

  // --- histogram-mode sweep: dense vs hybrid -------------------------------
  const std::string out_path =
      args.get_string("out", "BENCH_histogram.json");
  const usize grid_n = static_cast<usize>(
      args.get_int("grid-keys-per-rank", static_cast<i64>(n_rank)));
  workload::GenConfig zipf;
  zipf.dist = workload::Dist::Zipf;
  const std::vector<std::pair<std::string, workload::GenConfig>> dists = {
      {"uniform", uni_1e9}, {"zipf", zipf}, {"fewdistinct", dup}};
  const std::vector<double> epsilons = {0.0, 0.01, 0.1};
  const std::vector<int> grid_ranks = {16, 64};
  const std::vector<core::HistogramMode> modes = {
      core::HistogramMode::Dense, core::HistogramMode::Hybrid};

  std::vector<HistCell> cells;
  Table ht({"dist", "eps", "P", "mode", "iters (sampled)", "probes",
            "hist KiB s/d", "hist ms", "makespan ms"});
  for (const auto& [dname, dgen] : dists) {
    for (double eps : epsilons) {
      for (int P : grid_ranks) {
        for (core::HistogramMode m : modes) {
          auto g = dgen;
          g.seed = 42;
          HistCell c = run_hist_cell(P, grid_n, eps, g, dname, m);
          ht.add_row(
              {dname, fmt(eps, 2), std::to_string(P), mode_name(m),
               std::to_string(c.stats.histogram_iterations) + " (" +
                   std::to_string(c.stats.sampled_rounds) + ")",
               std::to_string(c.stats.splitter_probes),
               fmt(static_cast<double>(c.stats.hist_bytes_sampled) / 1024.0,
                   1) +
                   " / " +
                   fmt(static_cast<double>(c.stats.hist_bytes_dense) / 1024.0,
                       1),
               fmt(c.histogram_s * 1e3, 3),
               fmt(c.makespan_s * 1e3, 3)});
          cells.push_back(std::move(c));
        }
      }
    }
    std::cerr << "  done: histogram sweep " << dname << "\n";
  }
  std::cout << "\nHistogram-mode sweep (PR 10): hybrid must cut "
               "histogram-phase time and probe volume vs dense, never "
               "regressing the makespan.\n"
            << ht.to_string();
  write_hist_json(out_path, cells);
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells)\n";

  // Ledger for the perf-history harness: re-run the canonical gated cell
  // (uniform u64, P=16, eps=0.01, hybrid) traced, and record the sweep's
  // headline numbers as scalar cells.
  if (args.has("ledger")) {
    auto find_cell = [&](const char* mode) -> const HistCell& {
      for (const HistCell& c : cells)
        if (c.dist == "uniform" && c.epsilon == 0.01 && c.nranks == 16 &&
            std::string(mode_name(c.mode)) == mode)
          return c;
      std::cerr << "FATAL: gated histogram cell missing from sweep\n";
      std::abort();
    };
    const HistCell& dense = find_cell("dense");
    const HistCell& hybrid = find_cell("hybrid");
    auto g = uni_1e9;
    g.seed = 42;
    runtime::TeamConfig tcfg{.nranks = 16, .trace = true};
    tcfg.machine = net::MachineModel::supermuc_phase2(2, 8);
    Team team(tcfg);
    team.run([&](Comm& c) {
      std::vector<u64> local = workload::generate_u64(g, c.rank(), 16, grid_n);
      core::SortConfig cfg;
      cfg.epsilon = 0.01;
      cfg.histogram = core::HistogramMode::Hybrid;
      (void)core::sort(c, local, cfg);
    });
    bench::write_ledger_if_requested(
        args, team, "bench_table_iterations",
        static_cast<u64>(grid_n) * 16,
        {{"dist", "uniform"},
         {"epsilon", "0.01"},
         {"histogram", "hybrid"},
         {"oversample", "8"}},
        {{"sim_hist_dense_s", dense.histogram_s},
         {"sim_hist_hybrid_s", hybrid.histogram_s},
         {"sim_hist_speedup",
          hybrid.histogram_s > 0.0 ? dense.histogram_s / hybrid.histogram_s
                                   : 0.0},
         {"sim_makespan_hybrid_s", hybrid.makespan_s}});
  }
  return 0;
}
