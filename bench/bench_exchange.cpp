// Exchange study (real wall-clock): the k-ary exchange against the sort's
// own path, at P = 4. Each side runs the sort's supersteps 3 + 4 from the
// same sorted input and splitters: the reference is the default config
// (core::exchange, the pull Alltoallv, then merge_chunks under the default
// merge with the vacated input as its spare), the other the k-ary exchange
// with k in {2, 4}, with and without overlap_merge, on u64 keys and
// 64-byte records.
//
// P = 4 keeps one rank thread per core on a 4-core host: with more ranks
// than cores, host wall time measures the OS scheduler (perfbench/README.md).
// Host time is noisy, so each cell runs --pairs alternating pairs inside one
// Team: pair i times both sides back to back, the Alltoallv side first on
// even i, so slow phases of the host hit both sides alike. Each side's time
// is barrier to barrier on rank 0's wall clock, beside the thread-CPU its
// ranks spent, summed. The cells carry every pair's samples;
// tools/validate_bench.py exchange judges the k-ary claim from them with
// tools/ab_perfbench.py's own paired-sample rules. Emits BENCH_exchange.json.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace {

using namespace hds;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// 64-byte record: sort key plus 56 payload bytes, the paper's "large
/// element" regime where copy cost dominates comparison cost.
struct Rec64 {
  u64 key;
  u64 pad[7];
};

constexpr int kRanks = 4;

/// Per-pair samples of one side of a cell.
struct Side {
  std::vector<double> wall_s;  ///< rank 0's barrier-to-barrier seconds
  std::vector<double> cpu_s;   ///< thread-CPU seconds, summed over ranks
};

struct Cell {
  std::string type;
  usize n_per_rank = 0;
  int k = 0;
  bool overlap = false;
  Side alltoallv;  ///< the sort's default path
  Side kary;
  /// Per-round simulated-time attribution of rank 0's k-ary exchange: how
  /// much of each round is communication vs overlapped tail merge.
  std::vector<core::KAryRoundTrace> rounds;
};

/// Pairs whose k-ary wall time beat the Alltoallv one (ties count for
/// neither side).
usize wins(const Cell& c) {
  usize w = 0;
  for (usize i = 0; i < c.kary.wall_s.size(); ++i)
    if (c.kary.wall_s[i] < c.alltoallv.wall_s[i]) ++w;
  return w;
}

double speedup(const Cell& c) {
  const double kary = median(c.kary.wall_s);
  return kary > 0.0 ? median(c.alltoallv.wall_s) / kary : 0.0;
}

/// Runs `pairs` alternating pairs of the sort's supersteps 3 + 4 under the
/// default config and under k-ary (k, overlap), inside one Team.
template <class T, class KeyFn, class MakeFn>
void run_cell(Cell& cell, int pairs, u64 seed, KeyFn key, MakeFn make) {
  const usize n = cell.n_per_rank;
  core::SortConfig kary_cfg;
  kary_cfg.exchange = core::ExchangeAlgorithm::KAry;
  kary_cfg.exchange_k = cell.k;
  kary_cfg.overlap_merge = cell.overlap;
  const core::SortConfig configs[2] = {core::SortConfig{}, kary_cfg};
  Side* sides[2] = {&cell.alltoallv, &cell.kary};
  std::vector<double> cpu(kRanks, 0.0);  // one slot per rank and run

  runtime::Team team({.nranks = kRanks});
  team.run([&](runtime::Comm& c) {
    using UK = core::SortKeyImage<T, KeyFn>;
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<T> local(n);
    for (auto& v : local) v = make(rng);
    const auto less = [&](const T& a, const T& b) { return key(a) < key(b); };
    std::sort(local.begin(), local.end(), less);
    const std::span<const T> sorted_view(local.data(), local.size());
    std::vector<usize> targets(kRanks - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = core::find_splitters(c, sorted_view, key,
                                         std::span<const usize>(targets));

    // One side's supersteps 3 + 4 from a fresh copy of the sorted input,
    // which superstep 3 vacates into the merge's spare as in the sort.
    struct Run {
      std::vector<T> out;
      double wall_s = 0.0;
      double cpu_s = 0.0;  ///< summed over ranks; rank 0 only
    };
    const auto run_side = [&](const core::SortConfig& cfg) {
      core::SortState<T, UK> st;
      st.data = local;
      st.out_capacity = n;
      st.splitters = sp;
      st.completed = core::SuperstepId::SplittersReady;
      c.barrier();
      const double t0 = now_s();
      const double c0 = thread_cpu_s();
      core::advance_superstep(c, st, key, cfg);  // exchange
      core::advance_superstep(c, st, key, cfg);  // merge
      cpu[static_cast<usize>(c.rank())] = thread_cpu_s() - c0;
      c.barrier();
      const double wall = now_s() - t0;
      if (!std::is_sorted(st.data.begin(), st.data.end(), less) ||
          st.data.size() != n) {
        std::cerr << "FATAL: exchange+merge produced unsorted output\n";
        std::exit(1);
      }
      // Rank 0 reads the other ranks' slots after barrier 2; they write
      // them again only after the next run's first barrier.
      Run run{std::move(st.data), wall, 0.0};
      if (c.rank() == 0)
        for (double s : cpu) run.cpu_s += s;
      return run;
    };

    // Warmup: both sides once, untimed; they must agree byte for byte
    // (both are stable, so records with equal keys leave in one order).
    const Run ref = run_side(configs[0]);
    const Run got = run_side(configs[1]);
    if (std::memcmp(ref.out.data(), got.out.data(), n * sizeof(T)) != 0) {
      std::cerr << "FATAL: k-ary output differs from the Alltoallv path's\n";
      std::exit(1);
    }
    // The per-round breakdown is simulated time, so one untimed call
    // captures it.
    (void)core::exchange_kary(c, sorted_view, sp, key, cell.k, cell.overlap,
                              c.rank() == 0 ? &cell.rounds : nullptr);

    for (int i = 0; i < pairs; ++i) {
      for (int j = 0; j < 2; ++j) {
        const int side = (i % 2 == 0) ? j : 1 - j;
        const Run run = run_side(configs[side]);
        if (c.rank() == 0) {
          sides[side]->wall_s.push_back(run.wall_s);
          sides[side]->cpu_s.push_back(run.cpu_s);
        }
      }
    }
  });
}

/// "median [q1, q3]" in milliseconds, for the table.
std::string fmt_ms(const std::vector<double>& xs) {
  return fmt(median(xs) * 1e3) + " [" + fmt(percentile(xs, 25.0) * 1e3) +
         ", " + fmt(percentile(xs, 75.0) * 1e3) + "]";
}

void write_side(std::ostream& out, const char* name, const Side& s) {
  const auto list = [&](const std::vector<double>& xs) {
    out << "[";
    for (usize i = 0; i < xs.size(); ++i) out << (i ? ", " : "") << xs[i];
    out << "]";
  };
  out << ", \"" << name << "_wall_s\": ";
  list(s.wall_s);
  out << ", \"" << name << "_wall_median\": " << median(s.wall_s) << ", \""
      << name << "_wall_q1\": " << percentile(s.wall_s, 25.0) << ", \""
      << name << "_wall_q3\": " << percentile(s.wall_s, 75.0) << ", \""
      << name << "_cpu_s\": ";
  list(s.cpu_s);
  out << ", \"" << name << "_cpu_median\": " << median(s.cpu_s);
}

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out.precision(9);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"type\": \"" << c.type << "\", \"nranks\": " << kRanks
        << ", \"n_per_rank\": " << c.n_per_rank << ", \"k\": " << c.k
        << ", \"overlap\": " << (c.overlap ? "true" : "false")
        << ", \"pairs\": " << c.kary.wall_s.size();
    write_side(out, "alltoallv", c.alltoallv);
    write_side(out, "kary", c.kary);
    out << ", \"wins\": " << wins(c) << ", \"speedup\": " << speedup(c)
        << ", \"rounds\": [";
    for (usize r = 0; r < c.rounds.size(); ++r)
      out << (r ? ", " : "") << "{\"round\": " << r
          << ", \"exchange_s\": " << c.rounds[r].comm_s
          << ", \"merge_s\": " << c.rounds[r].merge_s << "}";
    out << "]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

/// One representative traced run for --trace / --ledger: u64 keys at P=16
/// through the k-ary exchange with merge overlap, executed once in a
/// trace-enabled team so the run ledger gets real slices. It measures only
/// simulated time, which does not depend on the host, so it keeps the rank
/// count and config its history cells were recorded with; the wall-clock
/// cells above stay untraced.
void run_traced_representative(const bench::Args& args, usize n, u64 seed,
                               const std::vector<Cell>& cells) {
  if (!args.has("trace") && !args.has("ledger")) return;
  constexpr int P = 16;
  constexpr int kArity = 4;
  runtime::TeamConfig tcfg;
  tcfg.nranks = P;
  tcfg.trace = true;
  runtime::Team team(tcfg);
  team.run([&](runtime::Comm& c) {
    const auto key = [](u64 v) { return v; };
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<u64> local(n);
    for (auto& v : local) v = rng();
    {
      net::PhaseScope ps(c.clock(), net::Phase::LocalSort);
      std::sort(local.begin(), local.end());
      c.charge_sort(local.size());
    }
    const std::span<const u64> sorted_view(local.data(), local.size());
    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = [&] {
      net::PhaseScope ps(c.clock(), net::Phase::Histogram);
      return core::find_splitters(c, sorted_view, key,
                                  std::span<const usize>(targets));
    }();
    net::PhaseScope ps(c.clock(), net::Phase::Exchange);
    auto ex = core::exchange_kary(c, sorted_view, sp, key, kArity,
                                  /*overlap_merge=*/true);
    if (!std::is_sorted(ex.data.begin(), ex.data.end())) {
      std::cerr << "FATAL: traced k-ary exchange produced unsorted output\n";
      std::exit(1);
    }
  });
  bench::write_trace_if_requested(args, team);

  // Headline cells for the perf history: deterministic simulated seconds
  // from the traced run (gated at >10% regression) plus the best u64 k-ary
  // cell's wall-clock speedup over the sort's Alltoallv path at P = 4
  // (recorded, warn-only — it moves with the host machine).
  std::vector<std::pair<std::string, double>> scalars = {
      {"sim_makespan_s", team.stats().makespan_s},
      {"sim_exchange_s", team.stats().phase_seconds(net::Phase::Exchange)},
      {"sim_merge_s", team.stats().phase_seconds(net::Phase::Merge)},
      {"sim_histogram_s", team.stats().phase_seconds(net::Phase::Histogram)},
  };
  double best_kary = 0.0;
  for (const Cell& cell : cells)
    if (cell.type == "u64") best_kary = std::max(best_kary, speedup(cell));
  if (best_kary > 0.0)
    scalars.emplace_back("wall_kary_best_speedup_vs_alltoallv_u64_p4",
                         best_kary);

  bench::write_ledger_if_requested(
      args, team, "bench_exchange", static_cast<u64>(n) * P,
      {{"type", "u64"},
       {"algo", "kary"},
       {"k", std::to_string(kArity)},
       {"path", "pull"},
       {"n_per_rank", std::to_string(n)},
       {"seed", std::to_string(seed)}},
      std::move(scalars));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv);
  const int pairs = static_cast<int>(args.get_int("pairs", 21));
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const usize n_u64 =
      static_cast<usize>(args.get_int("n_u64", i64{1} << 18));
  const usize n_rec =
      static_cast<usize>(args.get_int("n_rec", i64{1} << 15));
  const std::string out_path = args.get_string("out", "BENCH_exchange.json");
  if (pairs < 1) {
    std::cerr << "bench_exchange: --pairs must be >= 1\n";
    return 2;
  }

  bench::print_header(
      "Exchange study (real wall-clock)",
      "k-ary vs the sort's Alltoallv path, supersteps 3 + 4 at P = " +
          std::to_string(kRanks) + ", " + std::to_string(pairs) +
          " alternating pairs per cell; median [q1, q3] ms");

  Table table({"type", "n/rank", "k", "overlap", "alltoallv wall",
               "kary wall", "speedup", "wins", "alltoallv cpu ms",
               "kary cpu ms"});
  std::vector<Cell> cells;
  const auto u64_key = [](u64 v) { return v; };
  const auto u64_make = [](Xoshiro256& rng) { return rng(); };
  const auto rec_key = [](const Rec64& r) { return r.key; };
  const auto rec_make = [](Xoshiro256& rng) {
    Rec64 r{};
    r.key = rng();
    return r;
  };
  for (const bool rec : {false, true})
    for (int k : {2, 4})
      for (bool overlap : {false, true}) {
        Cell cell;
        cell.type = rec ? "rec64" : "u64";
        cell.n_per_rank = rec ? n_rec : n_u64;
        cell.k = k;
        cell.overlap = overlap;
        if (rec)
          run_cell<Rec64>(cell, pairs, seed, rec_key, rec_make);
        else
          run_cell<u64>(cell, pairs, seed, u64_key, u64_make);
        table.add_row({cell.type, std::to_string(cell.n_per_rank),
                       std::to_string(k), overlap ? "yes" : "no",
                       fmt_ms(cell.alltoallv.wall_s), fmt_ms(cell.kary.wall_s),
                       fmt(speedup(cell)) + "x",
                       std::to_string(wins(cell)) + "/" +
                           std::to_string(pairs),
                       fmt(median(cell.alltoallv.cpu_s) * 1e3),
                       fmt(median(cell.kary.cpu_s) * 1e3)});
        cells.push_back(std::move(cell));
      }

  std::cout << table.to_string();
  run_traced_representative(args, n_u64, seed, cells);
  write_json(out_path, cells);
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells)\n";
  return 0;
}
