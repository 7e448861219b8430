// Typed per-rank counter/series registry. Algorithms emit named quantities
// (histogram iterations, exchange bytes on/off node, merge comparisons)
// through Comm::metrics() instead of growing ad-hoc fields on result
// structs; the Team owns one registry per rank and resets them each run.
// Counters are plain per-rank integers written only by the owning rank's
// thread — reading them is only defined after Team::run returns.
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace hds::obs {

enum class Counter : u8 {
  HistogramIterations = 0,  ///< splitter-refinement rounds executed
  SplitterProbes,           ///< candidate splitters evaluated across rounds
  ExchangeBytesOnNode,   ///< payload bytes sent to other ranks on this node
  ExchangeBytesOffNode,  ///< payload bytes sent to ranks on other nodes
  ExchangeElementsKept,  ///< elements whose destination is the local rank
  /// Comparator invocations of the final k-way merge. Only emitted when the
  /// k-way kernel runs (and by the bench-local binary merge tree); the
  /// re-sort's radix path does no comparisons.
  MergeComparisons,
  // Recovery counters (PR 6).
  CheckpointBytes,      ///< serialized checkpoint bytes shipped to the buddy
  CheckpointCount,      ///< superstep-boundary checkpoints taken
  SuperstepsExecuted,   ///< sort supersteps this rank actually ran
  RecoveryCount,        ///< failure-recovery rounds this rank participated in
  // Hybrid histogramming counters (PR 10).
  SampledRounds,        ///< sampled-histogram rounds of the splitter search
  SampleKeysGathered,   ///< sample keys pooled across all sampled rounds
  /// Histogram-phase control bytes moved by sampled gathers (the pooled
  /// sample blocks). Split from the dense bytes so the sampled-vs-dense
  /// traffic trade-off of the hybrid mode is directly visible per run.
  HistogramBytesSampled,
  HistogramBytesDense,  ///< histogram-phase bytes of dense count allreduces
  /// 1 on a rank whose final merge ran the k-way kernel (Tournament, or
  /// Auto's per-rank choice); summed over ranks, the count of such ranks.
  MergeKWay,
};
inline constexpr usize kCounterCount = 15;

constexpr std::string_view counter_name(Counter c) {
  switch (c) {
    case Counter::HistogramIterations: return "histogram_iterations";
    case Counter::SplitterProbes: return "splitter_probes";
    case Counter::ExchangeBytesOnNode: return "exchange_bytes_on_node";
    case Counter::ExchangeBytesOffNode: return "exchange_bytes_off_node";
    case Counter::ExchangeElementsKept: return "exchange_elements_kept";
    case Counter::MergeComparisons: return "merge_comparisons";
    case Counter::CheckpointBytes: return "checkpoint_bytes";
    case Counter::CheckpointCount: return "checkpoint_count";
    case Counter::SuperstepsExecuted: return "supersteps_executed";
    case Counter::RecoveryCount: return "recovery_count";
    case Counter::SampledRounds: return "sampled_rounds";
    case Counter::SampleKeysGathered: return "sample_keys_gathered";
    case Counter::HistogramBytesSampled: return "histogram_bytes_sampled";
    case Counter::HistogramBytesDense: return "histogram_bytes_dense";
    case Counter::MergeKWay: return "merge_kway";
  }
  return "?";
}

enum class Series : u8 {
  /// One value per histogram round: max over unresolved splitter boundaries
  /// of the relative rank error |achieved - target| / N (0.0 once every
  /// boundary is within its tolerance window). The convergence curve of
  /// the paper's Table 3.
  HistogramConvergence = 0,
  /// One value per recovery round: simulated seconds from the failure
  /// becoming visible to this rank until the survivor agreement completed.
  RecoverySeconds,
};
inline constexpr usize kSeriesCount = 2;

constexpr std::string_view series_name(Series s) {
  switch (s) {
    case Series::HistogramConvergence: return "histogram_convergence";
    case Series::RecoverySeconds: return "recovery_seconds";
  }
  return "?";
}

class Metrics {
 public:
  void add(Counter c, u64 v) { counters_[static_cast<usize>(c)] += v; }
  u64 value(Counter c) const { return counters_[static_cast<usize>(c)]; }
  const std::array<u64, kCounterCount>& counters() const { return counters_; }

  void append(Series s, double v) {
    series_[static_cast<usize>(s)].push_back(v);
  }
  std::span<const double> series(Series s) const {
    return series_[static_cast<usize>(s)];
  }

  void reset() {
    counters_.fill(0);
    for (auto& s : series_) s.clear();
  }

 private:
  std::array<u64, kCounterCount> counters_{};
  std::array<std::vector<double>, kSeriesCount> series_{};
};

}  // namespace hds::obs
