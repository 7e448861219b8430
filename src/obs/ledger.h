// RunLedger: the single versioned JSON artifact every bench and example
// emits under --ledger=FILE. One ledger captures everything a later tuning
// or regression pass needs about one run: machine constants, the run's
// configuration, per-phase simulated time, per-op-class counts / bytes /
// latencies (distilled from RankTracer slices and obs::Metrics), the
// superstep timeline, and — once attach_features ran — the derived cost
// features (fitted alpha/beta per collective class, radix and merge
// seconds-per-element).
//
// The ledger is the data source for two consumers built in this PR:
//   - the differential profiler (obs/features.h), which replays the ledger
//     against CostModel's linear surrogates and reports per-op-class model
//     error plus least-squares-fitted constants (the calibration JSON the
//     ROADMAP-4 Tuner consumes);
//   - tools/perf_history.py, which distills bench ledgers into the
//     append-only BENCH_history.jsonl and gates >10% regressions in ci.sh.
//
// Schema versioning: the top-level JSON always carries
// {"schema": "hds-run-ledger", "version": kVersion}. A field leaves only
// with the mechanism that wrote it (the overlap-residue fields went with
// the k-ary overlap merge); the keys tools/perf_history.py reads and the
// OpClass value order are frozen because committed history files persist
// them.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/cost_model.h"
#include "net/sim.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace hds::obs {

/// Totals of one op class over every rank's traced slices.
struct OpClassStats {
  u64 count = 0;        ///< slices recorded
  u64 bytes = 0;        ///< payload bytes summed over slices
  double slice_s = 0.0; ///< sum of [t0, t1] spans (includes sync wait)
  double model_s = 0.0; ///< sum of charged model costs
  double max_slice_s = 0.0;  ///< longest single slice
};

/// One fit observation: exactly one non-compute traced slice.
struct OpSample {
  OpClass cls = OpClass::None;
  u64 bytes = 0;
  double model_s = 0.0;  ///< cost the live model charged for the op
  double slice_s = 0.0;  ///< slice span including synchronization wait
};

/// Per-op-class comparison of the model's linear surrogate against the
/// least-squares fit of the run's own samples (y = charged model seconds,
/// x = payload bytes). Defined here rather than in features.h so RunLedger
/// can embed the result without a circular include.
struct ClassFit {
  OpClass cls = OpClass::None;
  usize count = 0;
  u64 bytes = 0;
  double alpha_s = 0.0;           ///< fitted latency (unclamped)
  double per_byte_s = 0.0;        ///< fitted inverse bandwidth (unclamped)
  double default_alpha_s = 0.0;   ///< CostModel probe surrogate
  double default_per_byte_s = 0.0;
  double err2_fit = 0.0;      ///< sum of squared residuals under the fit
  double err2_default = 0.0;  ///< ... under the probe surrogate
  double abs_err_fit = 0.0;       ///< sum of |residual| under the fit
  double abs_err_default = 0.0;
};

/// Derived cost features of one run — the quantities the ROADMAP-4 Tuner
/// regresses against, exported via features.h's calibration JSON.
struct CostFeatures {
  std::vector<ClassFit> fits;   ///< one row per class that had samples
  double radix_s_per_elem = 0.0;  ///< LocalSort compute seconds / element
  double merge_s_per_elem = 0.0;  ///< Merge compute seconds / element
  double total_err2_fit = 0.0;
  double total_err2_default = 0.0;
};

/// Min-t0 / max-t1 span of one phase over all ranks' events, in start
/// order — the superstep timeline of the run.
struct SuperstepSpan {
  net::Phase phase = net::Phase::Other;
  double t0 = 0.0;
  double t1 = 0.0;
};

struct RunLedger {
  static constexpr int kVersion = 1;

  std::string bench;  ///< producing binary ("quickstart", "bench_exchange")
  int nranks = 0;
  int nodes = 0;
  int ranks_per_node = 0;
  double data_scale = 1.0;
  double makespan_s = 0.0;
  u64 total_elements = 0;  ///< global element count of the sorted input

  /// Run configuration as (key, value) strings — SortConfig knobs, seeds,
  /// key type. Free-form so benches can record whatever defines the cell.
  std::vector<std::pair<std::string, std::string>> config;
  /// Machine-model constants the run was charged with.
  std::vector<std::pair<std::string, double>> machine;

  std::vector<std::array<double, net::kPhaseCount>> phase_s;  ///< per rank
  /// Compute-slice seconds per phase, summed over ranks — the numerators of
  /// the radix / merge seconds-per-element features.
  std::array<double, net::kPhaseCount> compute_phase_s{};
  std::array<OpClassStats, kOpClassCount> op_class{};
  std::vector<OpSample> samples;
  std::vector<SuperstepSpan> timeline;
  std::array<u64, kCounterCount> counters{};  ///< summed over ranks

  /// Headline cells of the producing bench (speedups, per-cell seconds) —
  /// what tools/perf_history.py tracks across commits.
  std::vector<std::pair<std::string, double>> scalars;

  CostFeatures features;
  bool has_features = false;

  /// Distill a merged trace into a ledger. Fills everything derived from
  /// the trace and the cost model; bench / config / scalars /
  /// total_elements are the caller's. Works for an enabled-but-empty trace
  /// (all tables zero, no samples).
  static RunLedger from_trace(const TraceReport& trace,
                              const net::CostModel& cost);

  /// Serialize as the versioned hds-run-ledger JSON document. Deterministic
  /// for a given ledger (fixed key order, shortest-round-trip doubles).
  void write_json(std::ostream& os) const;
};

}  // namespace hds::obs
