// Shared helpers for the benchmark harness: CLI parsing, repetition with
// median/CI summaries, and the scaled-workload setup that lets the cost
// model charge the paper's full problem sizes while the process executes a
// proportional sample (see DESIGN.md, "virtual workload mode").
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "core/histogram_sort.h"
#include "net/machine.h"
#include "obs/features.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds::bench {

using hds::Args;

/// The paper's evaluated sort: SortConfig with the final merge pinned to
/// the re-sort (Sec. V-C). Its other defaults already are the paper's —
/// the ALL-TO-ALLV exchange, dense histogramming, epsilon = 0. Every bench
/// whose output is a committed snapshot or a perf-history cell starts from
/// this, so a change of SortConfig's defaults cannot move a reproduced
/// number.
inline core::SortConfig paper_config() {
  core::SortConfig cfg;
  cfg.merge = core::MergeStrategy::Sort;
  return cfg;
}

/// Paper-style measurement: `reps` measured runs, reporting the median and
/// the 95% CI of the median. The paper additionally excluded a warmup run;
/// simulated time is deterministic per seed, so a warmup would only burn
/// wall-clock — enable it explicitly when measuring real time.
template <class RunFn>
Summary measure(int reps, RunFn run, bool warmup = false) {
  if (warmup) (void)run(/*rep=*/-1);
  std::vector<double> times;
  times.reserve(reps);
  for (int r = 0; r < reps; ++r) times.push_back(run(r));
  return summarize(std::move(times));
}

/// `--trace[=out.json]` support: writes the Chrome trace of the team's most
/// recent run (benches call this once per scale point, so the file ends up
/// holding the last — largest — configuration) and prints the communication
/// matrix summary. No-op without the flag or when tracing was off.
inline void write_trace_if_requested(const Args& args,
                                     const runtime::Team& team) {
  if (!args.has("trace")) return;
  const obs::TraceReport* trace = team.trace();
  if (trace == nullptr) return;
  // A bare "--trace" parses as value "1"; fall back to a real filename.
  std::string path = args.get_string("trace", "trace.json");
  if (path == "1") path = "trace.json";
  std::ofstream out(path);
  trace->write_chrome_json(out);
  std::cerr << "  trace: " << trace->total_events() << " events ("
            << trace->nranks << " ranks) -> " << path << "\n"
            << trace->comm_matrix().summary() << "\n";
}

/// `--ledger[=out.json]` support: distill the team's most recent traced run
/// into a versioned RunLedger (obs/ledger.h), attach the fitted cost
/// features, and write it. `bench` names the producing binary; `config`
/// records the cell's knobs and `scalars` its headline numbers (the cells
/// tools/perf_history.py tracks). Also prints the differential-profiler
/// attribution table, and with `--calibration[=out.json]` exports the
/// fitted per-class constants for the tuner. No-op without the flag or
/// when tracing was off.
inline void write_ledger_if_requested(
    const Args& args, const runtime::Team& team, const std::string& bench,
    u64 total_elements,
    std::vector<std::pair<std::string, std::string>> config = {},
    std::vector<std::pair<std::string, double>> scalars = {}) {
  if (!args.has("ledger")) return;
  const obs::TraceReport* trace = team.trace();
  if (trace == nullptr) return;
  obs::RunLedger led = obs::RunLedger::from_trace(*trace, team.cost());
  led.bench = bench;
  led.total_elements = total_elements;
  led.config = std::move(config);
  led.scalars = std::move(scalars);
  obs::attach_features(led, team.cost());
  std::string path = args.get_string("ledger", "ledger.json");
  if (path == "1") path = "ledger.json";
  std::ofstream out(path);
  led.write_json(out);
  std::cerr << "  ledger: " << led.samples.size() << " op samples ("
            << led.nranks << " ranks) -> " << path << "\n";
  std::cout << obs::attribution_table(led);
  if (args.has("calibration")) {
    std::string cpath = args.get_string("calibration", "calibration.json");
    if (cpath == "1") cpath = "calibration.json";
    std::ofstream cout_(cpath);
    obs::write_calibration_json(cout_, led);
    std::cerr << "  calibration: " << led.features.fits.size()
              << " class fits -> " << cpath << "\n";
  }
}

/// Ledger variant for wall-clock benches that never build a Team
/// (bench_local_sort): machine config and per-phase data are empty, only
/// the headline scalars are recorded — still enough for the perf-history
/// comparator to track the cells.
inline void write_wallclock_ledger_if_requested(
    const Args& args, const std::string& bench, u64 total_elements,
    std::vector<std::pair<std::string, std::string>> config,
    std::vector<std::pair<std::string, double>> scalars) {
  if (!args.has("ledger")) return;
  obs::RunLedger led;
  led.bench = bench;
  led.nranks = 1;
  led.nodes = 1;
  led.ranks_per_node = 1;
  led.total_elements = total_elements;
  led.config = std::move(config);
  led.scalars = std::move(scalars);
  std::string path = args.get_string("ledger", "ledger.json");
  if (path == "1") path = "ledger.json";
  std::ofstream out(path);
  led.write_json(out);
  std::cerr << "  ledger: " << led.scalars.size() << " scalar cells -> "
            << path << "\n";
}

/// The pairwise binary merge tree of the Sec. VI-E2 merging study. It
/// lives here, not in core, because it never beats the tournament; the
/// merge study still runs it.
/// Merges the sorted runs concatenated in `data` (lengths in
/// `counts`) level by level, ping-ponging between `data` and the
/// caller-owned `scratch` (grown to data.size(), kept for reuse). Charges
/// one merge pass per level and emits the comparator calls as
/// MergeComparisons, like core::merge_chunks.
template <class T, class KeyFn>
void pairwise_merge_tree(runtime::Comm& comm, std::vector<T>& data,
                         std::span<const usize> counts, KeyFn key,
                         std::vector<T>& scratch) {
  net::PhaseScope phase(comm.clock(), net::Phase::Merge);
  const usize n = data.size();
  u64 comparisons = 0;
  auto less = [&](const T& a, const T& b) {
    ++comparisons;
    return key(a) < key(b);
  };
  std::vector<std::pair<usize, usize>> runs;  // (offset, length)
  usize off = 0;
  for (usize c : counts) {
    if (c > 0) runs.emplace_back(off, c);
    off += c;
  }
  if (runs.size() <= 1) return;  // zero or one run: already sorted
  if (scratch.size() < n) scratch.resize(n);
  // Each level halves the number of runs and touches every element once.
  std::span<T> src(data.data(), n);
  std::span<T> dst(scratch.data(), n);
  while (runs.size() > 1) {
    std::vector<std::pair<usize, usize>> next;
    usize out_off = 0;
    for (usize i = 0; i + 1 < runs.size(); i += 2) {
      const auto [o1, l1] = runs[i];
      const auto [o2, l2] = runs[i + 1];
      std::merge(src.begin() + o1, src.begin() + o1 + l1, src.begin() + o2,
                 src.begin() + o2 + l2, dst.begin() + out_off, less);
      next.emplace_back(out_off, l1 + l2);
      out_off += l1 + l2;
    }
    if (runs.size() % 2 == 1) {
      const auto [o, l] = runs.back();
      std::copy(src.begin() + o, src.begin() + o + l, dst.begin() + out_off);
      next.emplace_back(out_off, l);
    }
    comm.charge_merge_pass(n);
    runs.swap(next);
    std::swap(src, dst);
  }
  if (src.data() != data.data())
    std::copy(src.begin(), src.end(), data.begin());
  comm.metrics().add(obs::Counter::MergeComparisons, comparisons);
}

/// Node counts 1, 2, 4, ..., max (the paper's strong/weak scaling x-axis).
inline std::vector<int> node_series(int max_nodes) {
  std::vector<int> nodes;
  for (int n = 1; n <= max_nodes; n *= 2) nodes.push_back(n);
  return nodes;
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "reproduces: " << paper_ref << "\n\n";
}

}  // namespace hds::bench
