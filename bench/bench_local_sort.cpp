// Local-sort kernel study: real wall-clock comparison of the comparison
// kernel (std::sort) against the LSD radix kernel (core/radix_sort.h) across
// the KeyTraits-bisectable key types and a range of sizes, plus a record
// (key, payload) row exercising the pairs path of radix_sort_by_key; and
// the k-way merge kernels of superstep 4 (core/kway_merge.h), the pairwise
// merge-path kernel against the loser tree, on u64 keys and 64-byte records
// at k in {2, 4, 16, 64} and on 16-, 24- and 32-byte records at k = 4 (the
// cells kMergePathMaxBytes is set from).
//
// Unlike the figure benchmarks this measures *real* time, not simulated
// time: it exists to validate the machine-model constant
// `radix_s_per_elem_pass` and the Auto-dispatch crossover against the
// hardware CI runs on. Each cell reports the median and quartiles of its
// reps, so a change can be judged against the cell's spread. Emits a
// machine-readable JSON file (one object per (type, n, kernel) sort cell
// and per (type, k, kernel) merge cell) consumed by the ci.sh perf smoke.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/kway_merge.h"
#include "core/local_sort.h"
#include "core/radix_sort.h"

namespace {

using namespace hds;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class T>
T random_value(Xoshiro256& rng);

template <>
u32 random_value<u32>(Xoshiro256& rng) {
  return static_cast<u32>(rng());
}
template <>
u64 random_value<u64>(Xoshiro256& rng) {
  return rng();
}
template <>
i32 random_value<i32>(Xoshiro256& rng) {
  return static_cast<i32>(static_cast<u32>(rng()));
}
template <>
i64 random_value<i64>(Xoshiro256& rng) {
  return static_cast<i64>(rng());
}
template <>
float random_value<float>(Xoshiro256& rng) {
  return static_cast<float>((rng.uniform01() - 0.5) * 1e6);
}
template <>
double random_value<double>(Xoshiro256& rng) {
  return (rng.uniform01() - 0.5) * 1e9;
}

/// Wall-clock seconds of one kernel over its reps.
struct Timing {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Timing timing_of(const std::vector<double>& times) {
  return {median(times), percentile(times, 25.0), percentile(times, 75.0)};
}

struct Cell {
  std::string type;
  usize n = 0;
  std::string kernel;
  Timing seconds;
  double speedup_vs_comparison = 1.0;
};

/// One k-way merge cell: a kernel merging k sorted runs of n elements in all.
struct MergeCell {
  std::string type;
  usize bytes = 0;
  usize n = 0;
  usize k = 0;
  std::string kernel;  // "pairwise" or "loser_tree"
  Timing seconds;
  double speedup_vs_loser_tree = 1.0;
  bool chosen = false;  // merge_chunks' width rule runs this kernel
};

/// Median and quartiles of the wall-clock seconds of `fn`, run on a fresh
/// copy of `base` per rep.
template <class T, class Fn>
Timing time_kernel(const std::vector<T>& base, int reps, Fn fn) {
  std::vector<double> times;
  times.reserve(static_cast<usize>(reps) + 1);
  for (int r = 0; r <= reps; ++r) {  // rep 0 is a cache/allocator warmup
    std::vector<T> data = base;
    const double t0 = now_s();
    fn(data);
    const double t1 = now_s();
    if (!std::is_sorted(data.begin(), data.end())) {
      std::cerr << "FATAL: kernel produced unsorted output\n";
      std::exit(1);
    }
    if (r > 0) times.push_back(t1 - t0);
  }
  return timing_of(times);
}

/// "median [q1, q3]" in milliseconds, for the table.
std::string fmt_ms(const Timing& t) {
  return fmt(t.median * 1e3) + " [" + fmt(t.q1 * 1e3) + ", " +
         fmt(t.q3 * 1e3) + "]";
}

/// Adds the comparison and radix cells of one (type, n) row.
void add_row(const std::string& type, usize n, const Timing& t_cmp,
             const Timing& t_rad, Table& table, std::vector<Cell>& cells) {
  const double speedup = t_rad.median > 0.0 ? t_cmp.median / t_rad.median
                                            : 0.0;
  cells.push_back({type, n, "comparison", t_cmp, 1.0});
  cells.push_back({type, n, "radix", t_rad, speedup});
  table.add_row({type, std::to_string(n), fmt_ms(t_cmp), fmt_ms(t_rad),
                 fmt(speedup) + "x"});
}

template <class T>
void bench_type(const std::string& type, const std::vector<usize>& sizes,
                int reps, u64 seed, Table& table, std::vector<Cell>& cells) {
  for (const usize n : sizes) {
    Xoshiro256 rng(hash_mix(seed, n));
    std::vector<T> base(n);
    for (auto& v : base) v = random_value<T>(rng);

    const Timing t_cmp = time_kernel(base, reps, [](std::vector<T>& d) {
      std::sort(d.begin(), d.end());
    });
    const Timing t_rad = time_kernel(base, reps, [](std::vector<T>& d) {
      core::radix_sort_keys(d);
    });
    add_row(type, n, t_cmp, t_rad, table, cells);
  }
}

/// Record row: (u64 key, u64 payload) pairs via radix_sort_by_key — the
/// pairs path — against std::sort with the same key projection.
void bench_records(const std::vector<usize>& sizes, int reps, u64 seed,
                   Table& table, std::vector<Cell>& cells) {
  struct Rec {
    u64 key;
    u64 payload;
    bool operator<(const Rec& o) const { return key < o.key; }
  };
  for (const usize n : sizes) {
    Xoshiro256 rng(hash_mix(seed ^ 0xabcdULL, n));
    std::vector<Rec> base(n);
    for (auto& r : base) r = Rec{rng(), rng()};

    const Timing t_cmp = time_kernel(
        base, reps, [](std::vector<Rec>& d) { std::sort(d.begin(), d.end()); });
    const Timing t_rad = time_kernel(base, reps, [](std::vector<Rec>& d) {
      core::radix_sort_by_key(d, [](const Rec& r) { return r.key; });
    });
    add_row("u64x2_record", n, t_cmp, t_rad, table, cells);
  }
}

/// A record of `Bytes` bytes ordered by its leading u64 key.
template <usize Bytes>
struct MergeRec {
  u64 key;
  u64 payload[Bytes / 8 - 1];
};

template <class T>
u64 merge_key(const T& v) {
  if constexpr (std::is_same_v<T, u64>)
    return v;
  else
    return v.key;
}

/// The pairwise kernel against the loser tree on the same k sorted runs of
/// n uniform keys. Each rep copies the runs into the input buffer, then times
/// both kernels in alternating order, so host drift falls on both alike.
/// The pairwise side includes what merge_chunks adds after an even level
/// count: the copy that lands the result in the donated buffer.
template <class T>
void bench_merge(const std::string& type, usize n, usize k, int reps,
                 u64 seed, Table& table, std::vector<MergeCell>& cells) {
  Xoshiro256 rng(hash_mix(seed ^ 0x6d65ULL, n * 131 + k));
  std::vector<T> base(n);
  for (auto& v : base) {
    if constexpr (std::is_same_v<T, u64>) {
      v = rng();
    } else {
      v = T{};
      v.key = rng();
    }
  }
  const auto less = [](const T& a, const T& b) {
    return merge_key(a) < merge_key(b);
  };
  std::vector<usize> bounds{0};
  for (usize i = 0; i < k; ++i) {
    const usize end = n * (i + 1) / k;
    std::sort(base.begin() + static_cast<std::ptrdiff_t>(bounds.back()),
              base.begin() + static_cast<std::ptrdiff_t>(end), less);
    bounds.push_back(end);
  }
  std::vector<T> in(n);
  std::vector<T> out(n);
  std::vector<std::span<const T>> runs;
  for (usize i = 0; i < k; ++i)
    runs.emplace_back(in.data() + bounds[i], bounds[i + 1] - bounds[i]);
  const std::span<const std::span<const T>> all(runs);

  std::vector<double> t_pw;
  std::vector<double> t_lt;
  for (int r = 0; r <= reps; ++r) {  // rep 0 is a cache/allocator warmup
    for (int side = 0; side < 2; ++side) {
      in = base;
      const bool pairwise = (side == 0) == (r % 2 == 0);
      const double t0 = now_s();
      if (pairwise) {
        const core::PairwiseMerge pm = core::pairwise_merge(
            std::span<T>(in), std::span<T>(out), bounds, less);
        if (pm.levels % 2 == 0) std::copy(in.begin(), in.end(), out.begin());
      } else {
        core::kway_merge_into(
            std::span<T>(out), runs[0], all.subspan(1),
            [](const T& x) { return merge_key(x); }, std::less<>());
      }
      const double t1 = now_s();
      if (!std::is_sorted(out.begin(), out.end(), less)) {
        std::cerr << "FATAL: merge kernel produced unsorted output\n";
        std::exit(1);
      }
      if (r > 0) (pairwise ? t_pw : t_lt).push_back(t1 - t0);
    }
  }
  const Timing pw = timing_of(t_pw);
  const Timing lt = timing_of(t_lt);
  const double speedup = pw.median > 0.0 ? lt.median / pw.median : 0.0;
  const bool narrow = sizeof(T) <= core::kMergePathMaxBytes;
  cells.push_back({type, sizeof(T), n, k, "pairwise", pw, speedup, narrow});
  cells.push_back({type, sizeof(T), n, k, "loser_tree", lt, 1.0, !narrow});
  table.add_row({type, std::to_string(sizeof(T)), std::to_string(k),
                 fmt_ms(lt), fmt_ms(pw), fmt(speedup) + "x",
                 narrow ? "pairwise" : "loser tree"});
}

void write_timing(std::ofstream& out, const Timing& t) {
  out << "\"seconds_median\": " << t.median << ", \"seconds_q1\": " << t.q1
      << ", \"seconds_q3\": " << t.q3;
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                const std::vector<MergeCell>& merges) {
  std::ofstream out(path);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"study\": \"sort\", \"type\": \"" << c.type
        << "\", \"n\": " << c.n << ", \"kernel\": \"" << c.kernel << "\", ";
    write_timing(out, c.seconds);
    out << ", \"speedup_vs_comparison\": " << c.speedup_vs_comparison << "}"
        << (i + 1 < cells.size() + merges.size() ? "," : "") << "\n";
  }
  for (usize i = 0; i < merges.size(); ++i) {
    const MergeCell& c = merges[i];
    out << "  {\"study\": \"merge\", \"type\": \"" << c.type
        << "\", \"bytes\": " << c.bytes << ", \"n\": " << c.n
        << ", \"k\": " << c.k << ", \"kernel\": \"" << c.kernel << "\", ";
    write_timing(out, c.seconds);
    out << ", \"speedup_vs_loser_tree\": " << c.speedup_vs_loser_tree
        << ", \"chosen\": " << (c.chosen ? "true" : "false") << "}"
        << (i + 1 < merges.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv,
                         {"max_exp", "reps", "seed", "out", "ledger"});
  const int max_exp = static_cast<int>(args.get_int("max_exp", 20));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const std::string out_path =
      args.get_string("out", "BENCH_local_sort.json");

  std::vector<usize> sizes;
  for (int e : {16, 18, max_exp})
    if (e <= max_exp) sizes.push_back(usize{1} << e);
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  bench::print_header(
      "Local-sort kernel study (real wall-clock)",
      "kernel layer validation; uniform keys, median [q1, q3] of " +
          std::to_string(reps) + " reps");

  Table table({"type", "n", "std::sort t[ms]", "radix t[ms]", "speedup"});
  std::vector<Cell> cells;
  bench_type<u32>("u32", sizes, reps, seed, table, cells);
  bench_type<u64>("u64", sizes, reps, seed, table, cells);
  bench_type<i32>("i32", sizes, reps, seed, table, cells);
  bench_type<i64>("i64", sizes, reps, seed, table, cells);
  bench_type<float>("f32", sizes, reps, seed, table, cells);
  bench_type<double>("f64", sizes, reps, seed, table, cells);
  bench_records(sizes, reps, seed, table, cells);

  std::cout << table.to_string();

  // k-way merge cells: n = 2^max_exp elements in k runs, the shape of
  // bulk-u64's per-rank merge at k = 4.
  const usize merge_n = sizes.back();
  Table mtable({"type", "bytes", "k", "loser tree t[ms]", "pairwise t[ms]",
                "speedup", "merge_chunks runs"});
  std::vector<MergeCell> merges;
  for (usize k : {usize{2}, usize{4}, usize{16}, usize{64}}) {
    bench_merge<u64>("u64", merge_n, k, reps, seed, mtable, merges);
    bench_merge<MergeRec<64>>("rec64", merge_n, k, reps, seed, mtable,
                              merges);
  }
  bench_merge<MergeRec<16>>("rec16", merge_n, 4, reps, seed, mtable, merges);
  bench_merge<MergeRec<24>>("rec24", merge_n, 4, reps, seed, mtable, merges);
  bench_merge<MergeRec<32>>("rec32", merge_n, 4, reps, seed, mtable, merges);
  std::cout << "\nk-way merge kernels, n = " << merge_n
            << " (speedup = loser tree / pairwise; kMergePathMaxBytes = "
            << core::kMergePathMaxBytes << ")\n"
            << mtable.to_string();

  // Derived machine-model constant from the largest u64 run: host seconds
  // per element per modelled 8-bit digit. Full-range keys vary in all 8
  // digits, so the model charges 8 passes; the kernel's physical passes
  // (one out-of-cache split, then in-cache passes) are not what it prices.
  for (const Cell& c : cells) {
    if (c.type == "u64" && c.n == sizes.back() && c.kernel == "radix") {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3g",
                    c.seconds.median / (static_cast<double>(c.n) * 8.0));
      std::cout << "\nimplied radix_s_per_elem_pass ~ " << buf
                << " s (machine.h default: 1.2e-9)\n";
    }
  }

  // --ledger: wall-clock benches have no Team, so emit the scalar-only
  // ledger variant. Cells carry the "wall_" prefix — tools/perf_history.py
  // only warns on these (hardware-dependent), never gates.
  {
    u64 total = 0;
    std::vector<std::pair<std::string, double>> scalars;
    for (const Cell& c : cells) {
      if (c.n != sizes.back() || c.kernel != "radix") continue;
      total += c.n;
      scalars.emplace_back("wall_radix_speedup_" + c.type,
                           c.speedup_vs_comparison);
      if (c.type == "u64")  // per modelled digit, as printed above
        scalars.emplace_back(
            "wall_radix_s_per_elem_pass",
            c.seconds.median / (static_cast<double>(c.n) * 8.0));
    }
    bench::write_wallclock_ledger_if_requested(
        args, "bench_local_sort", total,
        {{"max_exp", std::to_string(max_exp)},
         {"reps", std::to_string(reps)},
         {"seed", std::to_string(seed)}},
        std::move(scalars));
  }

  write_json(out_path, cells, merges);
  std::cout << "wrote " << out_path << " (" << cells.size() + merges.size()
            << " cells)\n";
  return 0;
}
