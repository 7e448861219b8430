// Exchange data-path study: real wall-clock comparison of the single-copy
// pull path (core::exchange over Comm::alltoallv_into, DESIGN.md sec. 11)
// against a packed reference — compute_send_counts followed by the
// arena-staged Comm::alltoallv — for the exchange and merge supersteps, at
// P in {8, 16} on u64 keys and 64-byte records.
//
// Like bench_local_sort this measures *real* time, not simulated time: the
// two paths charge bit-identical simulated costs by construction (asserted
// in test_exchange_datapath.cpp), so the only observable difference is the
// wall-clock of the copies the data path saves. The exchange superstep and
// the merge superstep are timed separately (barrier-to-barrier on rank 0's
// clock): the merge does identical comparison-bound work on both paths, so
// folding it into one number would bury the copy delta the bench exists to
// see — the CI gate therefore reads the phase=="exchange" cells, while the
// "exchange+merge" cells document the end-to-end effect. Splitters are
// computed once per cell and reused across reps. Emits BENCH_exchange.json
// (one object per (type, P, path, phase) cell) consumed by the ci.sh perf
// gate.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "core/merge.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace {

using namespace hds;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 64-byte record: sort key plus 56 payload bytes, the paper's "large
/// element" regime where copy cost dominates comparison cost.
struct Rec64 {
  u64 key;
  u64 pad[7];
};

struct Cell {
  std::string type;
  int nranks = 0;
  std::string path;
  std::string phase;  // "exchange" | "exchange+merge"
  usize n_per_rank = 0;
  double seconds_median = 0.0;
  double speedup_vs_packed = 1.0;
  std::string algo = "alltoallv";  // "alltoallv" | "kary"
  int k = 0;                       // k-ary radix; 0 for alltoallv
  /// Per-round simulated-time attribution (k-ary cells only): how much of
  /// each round is communication vs overlapped tail merge on rank 0.
  std::vector<core::KAryRoundTrace> rounds;
};

struct Timing {
  double exchange = 0.0;  ///< median seconds, exchange superstep only
  double total = 0.0;     ///< median seconds, exchange + merge
};

/// The packed reference exchange: the pull path's send counts, moved by the
/// arena-staged collective (executor packs, receivers copy out).
template <class T, class UK>
core::ExchangeResult<T> exchange_packed(runtime::Comm& c,
                                        std::span<const T> sorted_local,
                                        const core::SplitterResult<UK>& sp) {
  net::PhaseScope phase(c.clock(), net::Phase::Exchange);
  core::ExchangeResult<T> out;
  const std::vector<usize> send =
      core::compute_send_counts(c, sorted_local.size(), sp);
  out.data = c.alltoallv(sorted_local, std::span<const usize>(send),
                         &out.recv_counts);
  return out;
}

/// `merge` names core's merge strategy for the merge superstep; nullopt
/// (the default `--merge=binary-tree`) runs bench::pairwise_merge_tree.
template <class T, class KeyFn, class MakeFn>
Timing time_exchange(int P, usize n, int reps, u64 seed, bool packed,
                     std::optional<core::MergeStrategy> merge, KeyFn key,
                     MakeFn make) {
  runtime::Team team({.nranks = P});
  std::vector<double> t_exchange, t_total;
  team.run([&](runtime::Comm& c) {
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<T> local(n);
    for (auto& v : local) v = make(rng);
    std::sort(local.begin(), local.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    const std::span<const T> sorted_view(local.data(), local.size());

    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = core::find_splitters(c, sorted_view, key,
                                         std::span<const usize>(targets));
    const auto run_exchange = [&] {
      return packed ? exchange_packed(c, sorted_view, sp)
                    : core::exchange(c, sorted_view, sp);
    };

    // Two separate rep loops rather than split timestamps in one: the merge
    // between reps perturbs allocator and cache state enough to swamp the
    // exchange delta on an oversubscribed host, so the gated exchange cells
    // are measured with nothing else in the loop.
    for (int r = 0; r <= reps; ++r) {  // rep 0 is a warmup
      c.barrier();
      const double t0 = now_s();
      auto ex = run_exchange();
      c.barrier();
      const double t1 = now_s();
      usize off = 0;
      for (const usize cnt : ex.recv_counts) {
        if (!std::is_sorted(
                ex.data.begin() + static_cast<std::ptrdiff_t>(off),
                ex.data.begin() + static_cast<std::ptrdiff_t>(off + cnt),
                            [&](const T& a, const T& b) {
                              return key(a) < key(b);
                            })) {
          std::cerr << "FATAL: exchange produced an unsorted chunk\n";
          std::exit(1);
        }
        off += cnt;
      }
      if (c.rank() == 0 && r > 0) t_exchange.push_back(t1 - t0);
    }
    std::vector<T> scratch;  // the binary tree's, kept across reps
    for (int r = 0; r <= reps; ++r) {  // rep 0 is a warmup
      c.barrier();
      const double t0 = now_s();
      auto ex = run_exchange();
      const std::span<const usize> counts(ex.recv_counts);
      if (merge)
        core::merge_chunks(c, ex.data, counts, *merge, key);
      else
        bench::pairwise_merge_tree(c, ex.data, counts, key, scratch);
      c.barrier();
      const double t1 = now_s();
      if (!std::is_sorted(ex.data.begin(), ex.data.end(),
                          [&](const T& a, const T& b) {
                            return key(a) < key(b);
                          })) {
        std::cerr << "FATAL: exchange+merge produced unsorted output\n";
        std::exit(1);
      }
      if (c.rank() == 0 && r > 0) t_total.push_back(t1 - t0);
    }
  });
  return {median(std::move(t_exchange)), median(std::move(t_total))};
}

/// The k-ary exchange with overlap returns one already-merged run; timing
/// it barrier-to-barrier therefore covers the "exchange+merge" phase. The
/// per-round simulated breakdown (communication vs overlapped merge) is
/// captured from rank 0 during the warmup rep — it is deterministic.
template <class T, class KeyFn, class MakeFn>
double time_kary(int P, usize n, int reps, u64 seed, int k, KeyFn key,
                 MakeFn make, std::vector<core::KAryRoundTrace>& trace_out) {
  runtime::Team team({.nranks = P});
  std::vector<double> t_total;
  team.run([&](runtime::Comm& c) {
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(c.rank())));
    std::vector<T> local(n);
    for (auto& v : local) v = make(rng);
    std::sort(local.begin(), local.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    const std::span<const T> sorted_view(local.data(), local.size());

    std::vector<usize> targets(static_cast<usize>(P) - 1);
    for (usize b = 0; b < targets.size(); ++b) targets[b] = (b + 1) * n;
    const auto sp = core::find_splitters(c, sorted_view, key,
                                         std::span<const usize>(targets));

    for (int r = 0; r <= reps; ++r) {  // rep 0 is a warmup
      c.barrier();
      const double t0 = now_s();
      auto ex = core::exchange_kary(
          c, sorted_view, sp, key, k, /*overlap_merge=*/true,
          (r == 0 && c.rank() == 0) ? &trace_out : nullptr);
      c.barrier();
      const double t1 = now_s();
      if (!std::is_sorted(ex.data.begin(), ex.data.end(),
                          [&](const T& a, const T& b) {
                            return key(a) < key(b);
                          })) {
        std::cerr << "FATAL: k-ary exchange produced unsorted output\n";
        std::exit(1);
      }
      if (c.rank() == 0 && r > 0) t_total.push_back(t1 - t0);
    }
  });
  return median(std::move(t_total));
}

/// One representative traced run for --trace / --ledger (satellite of the
/// observability PR): u64 keys at P=16 through the k-ary exchange
/// with merge overlap — the configuration the CI gate watches — executed
/// once in a trace-enabled team so the run ledger gets real slices. The
/// wall-clock cells above stay untraced: tracing is observational for
/// simulated time but not for the real time they measure.
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
  // from the traced run (gated at >10% regression) plus the wall-clock
  // speedups of the gate cells (recorded, warn-only — they move with the
  // host machine).
  std::vector<std::pair<std::string, double>> scalars = {
      {"sim_makespan_s", team.stats().makespan_s},
      {"sim_exchange_s", team.stats().phase_seconds(net::Phase::Exchange)},
      {"sim_merge_s", team.stats().phase_seconds(net::Phase::Merge)},
      {"sim_histogram_s", team.stats().phase_seconds(net::Phase::Histogram)},
  };
  double best_kary = 0.0;
  for (const Cell& cell : cells) {
    if (cell.type != "u64" || cell.nranks != P) continue;
    if (cell.algo == "kary")
      best_kary = std::max(best_kary, cell.speedup_vs_packed);
    else if (cell.path == "pull" && cell.phase == "exchange")
      scalars.emplace_back("wall_pull_speedup_u64_exchange",
                           cell.speedup_vs_packed);
  }
  if (best_kary > 0.0)
    scalars.emplace_back("wall_kary_best_speedup_u64", best_kary);

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

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"type\": \"" << c.type << "\", \"nranks\": " << c.nranks
        << ", \"path\": \"" << c.path << "\", \"phase\": \"" << c.phase
        << "\", \"n_per_rank\": " << c.n_per_rank
        << ", \"seconds_median\": " << c.seconds_median
        << ", \"speedup_vs_packed\": " << c.speedup_vs_packed
        << ", \"algo\": \"" << c.algo << "\", \"k\": " << c.k;
    if (!c.rounds.empty()) {
      out << ", \"rounds\": [";
      for (usize r = 0; r < c.rounds.size(); ++r)
        out << (r ? ", " : "") << "{\"round\": " << r
            << ", \"exchange_s\": " << c.rounds[r].comm_s
            << ", \"merge_s\": " << c.rounds[r].merge_s << "}";
      out << "]";
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 7));
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const usize n_u64 =
      static_cast<usize>(args.get_int("n_u64", i64{1} << 18));
  const usize n_rec =
      static_cast<usize>(args.get_int("n_rec", i64{1} << 15));
  const std::string out_path = args.get_string("out", "BENCH_exchange.json");
  const std::string merge_arg = args.get_string("merge", "binary-tree");
  std::optional<core::MergeStrategy> merge;  // binary-tree: bench-local
  if (merge_arg == "sort") merge = core::MergeStrategy::Sort;
  if (merge_arg == "tournament") merge = core::MergeStrategy::Tournament;

  bench::print_header(
      "Exchange data-path study (real wall-clock)",
      "single-copy pull vs packed alltoallv; exchange and merge supersteps, "
      "median of " +
          std::to_string(reps) + " reps, merge=" + merge_arg);

  Table table({"type", "P", "n/rank", "phase", "packed t[s]", "pull t[s]",
               "speedup"});
  std::vector<Cell> cells;

  Table kary_table({"type", "P", "n/rank", "k", "rounds", "packed t[s]",
                    "kary t[s]", "speedup"});

  // Returns the packed exchange+merge median — the baseline the k-ary
  // cells of the same (type, P, n) are gated against.
  auto run_cell = [&](const std::string& type, int P, usize n, auto key,
                      auto make) {
    using T = std::decay_t<decltype(make(std::declval<Xoshiro256&>()))>;
    const Timing packed =
        time_exchange<T>(P, n, reps, seed, /*packed=*/true, merge, key, make);
    const Timing pull = time_exchange<T>(P, n, reps, seed, /*packed=*/false,
                                         merge, key, make);
    const auto emit = [&](const std::string& phase, double t_packed,
                          double t_pull) {
      const double speedup = t_pull > 0.0 ? t_packed / t_pull : 0.0;
      Cell packed_cell;
      packed_cell.type = type;
      packed_cell.nranks = P;
      packed_cell.path = "packed";
      packed_cell.phase = phase;
      packed_cell.n_per_rank = n;
      packed_cell.seconds_median = t_packed;
      Cell pull_cell = packed_cell;
      pull_cell.path = "pull";
      pull_cell.seconds_median = t_pull;
      pull_cell.speedup_vs_packed = speedup;
      cells.push_back(std::move(packed_cell));
      cells.push_back(std::move(pull_cell));
      table.add_row({type, std::to_string(P), std::to_string(n), phase,
                     fmt(t_packed), fmt(t_pull), fmt(speedup) + "x"});
    };
    emit("exchange", packed.exchange, pull.exchange);
    emit("exchange+merge", packed.total, pull.total);
    return packed.total;
  };

  auto run_kary_cell = [&](const std::string& type, int P, usize n, int k,
                           double packed_total, auto key, auto make) {
    using T = std::decay_t<decltype(make(std::declval<Xoshiro256&>()))>;
    Cell cell;
    cell.type = type;
    cell.nranks = P;
    cell.path = "pull";
    cell.phase = "exchange+merge";
    cell.n_per_rank = n;
    cell.algo = "kary";
    cell.k = k;
    cell.seconds_median =
        time_kary<T>(P, n, reps, seed, k, key, make, cell.rounds);
    cell.speedup_vs_packed = cell.seconds_median > 0.0
                                 ? packed_total / cell.seconds_median
                                 : 0.0;
    kary_table.add_row({type, std::to_string(P), std::to_string(n),
                        std::to_string(k),
                        std::to_string(cell.rounds.size()),
                        fmt(packed_total), fmt(cell.seconds_median),
                        fmt(cell.speedup_vs_packed) + "x"});
    cells.push_back(std::move(cell));
  };

  const auto u64_key = [](u64 v) { return v; };
  const auto u64_make = [](Xoshiro256& rng) { return rng(); };
  const auto rec_key = [](const Rec64& r) { return r.key; };
  const auto rec_make = [](Xoshiro256& rng) {
    Rec64 r{};
    r.key = rng();
    return r;
  };

  for (int P : {8, 16}) {
    const double u64_packed = run_cell("u64", P, n_u64, u64_key, u64_make);
    const double rec_packed = run_cell("rec64", P, n_rec, rec_key, rec_make);
    for (int k : {2, 4, 8, P}) {
      if (k == P && P == 8) continue;  // k=8 already covers it
      run_kary_cell("u64", P, n_u64, k, u64_packed, u64_key, u64_make);
      run_kary_cell("rec64", P, n_rec, k, rec_packed, rec_key, rec_make);
    }
  }

  std::cout << table.to_string();
  std::cout << "\nk-ary interleaved exchange (overlap_merge, pull path) vs "
               "packed alltoallv exchange+merge:\n"
            << kary_table.to_string();
  run_traced_representative(args, n_u64, seed, cells);
  write_json(out_path, cells);
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells)\n";
  return 0;
}
