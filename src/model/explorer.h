// Bounded schedule-space explorer (DESIGN.md sec. 15).
//
// Re-execution DFS over the decision tree of a controlled scenario: run the
// scenario once under the default (lowest-enabled-rank) schedule, then for
// every decision where more than one rank was enabled, fork alternative
// prefixes and re-run. Pruning is sleep-set-style: an alternative rank r at
// decision d is explored only if r's park footprint at d conflicts with the
// footprint of the step actually taken (its resume site plus every effect
// it produced before its next park) — independent steps commute, so the
// alternative order reaches the same state. Exhaustive mode
// (ExploreConfig::exhaustive, CI's HDS_MODEL_DEEP=1) disables pruning.
//
// Every terminal state is checked against the oracles:
//   - deadlock (empty enabled set with unfinished ranks), with a wait-for
//     report naming each parked rank's site;
//   - step/run budget exhaustion (reported, not an error);
//   - undelivered messages and un-reset barriers/arenas at quiescence;
//   - determinism: byte-identical per-rank output digests and exact final
//     SimClock equality against the first completed schedule (the
//     reference) — the repository's "simulated time is a function of the
//     inputs, not the host interleaving" claim, proven over every explored
//     interleaving.
//
// The first failing run's choice sequence is kept as a replayable
// counterexample (model/schedule_file.h).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model/controlled_scheduler.h"

namespace hds::runtime {
class Comm;
struct TeamConfig;
}  // namespace hds::runtime

namespace hds::model {

/// A closed scenario the explorer can re-execute at will: P ranks running
/// `body`, which returns a digest of this rank's observable output (sorted
/// slice hash, protocol transcript hash, ...). The digest — not the raw
/// output — is what the determinism oracle compares across schedules.
struct Scenario {
  std::string name;
  int nranks = 2;
  std::function<u64(runtime::Comm&)> body;
  /// Optional TeamConfig customization run before each controlled run
  /// (recoverable mode, a fresh FaultPlan, ...). The harness overwrites
  /// nranks and the model hook afterwards, so only set auxiliary fields.
  std::function<void(runtime::TeamConfig&)> configure;
};

/// FNV-1a helper for scenario bodies building output digests.
inline u64 digest_init() { return 1469598103934665603ull; }
inline u64 digest_mix(u64 h, u64 v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

/// Outcome of one controlled run of a scenario.
struct RunOutcome {
  bool completed = false;  ///< every rank returned normally
  bool deadlock = false;
  bool budget_exhausted = false;
  bool replay_diverged = false;
  std::string error;  ///< first error message (empty if completed)
  std::string deadlock_report;
  std::vector<int> choices;
  std::vector<StepRecord> steps;
  std::vector<u64> digests;       ///< per-rank, valid when completed
  std::vector<double> final_times;  ///< per-rank SimClock, valid when completed
  usize undelivered = 0;
  std::vector<std::string> quiescence;
};

/// Execute one controlled run: forced `prefix` choices, then
/// lowest-enabled-rank. `max_steps` bounds the decisions per run.
RunOutcome run_scenario(const Scenario& s, const std::vector<int>& prefix,
                        const Mutation& mutation, usize max_steps);

struct ExploreConfig {
  usize max_runs = 256;      ///< schedules explored before giving up
  usize max_steps = 200000;  ///< decisions per run
  bool exhaustive = false;   ///< disable independence pruning (HDS_MODEL_DEEP)
  Mutation mutation{};       ///< seeded fault active on every run
};

struct ExploreReport {
  std::string scenario;
  int nranks = 0;
  usize runs = 0;             ///< schedules executed
  usize decisions = 0;        ///< total decisions across runs
  usize branch_points = 0;    ///< decisions with >1 enabled rank (first run)
  usize pruned = 0;           ///< alternatives skipped as independent
  bool budget_hit = false;    ///< frontier left unexplored at max_runs
  bool deterministic = true;  ///< all completed runs matched the reference
  std::vector<std::string> issues;  ///< oracle violations (empty = clean)
  /// Choice sequence of the first failing run (replay prefix); empty when
  /// no issue was found.
  std::vector<int> counterexample;
  std::string counterexample_kind;  ///< "deadlock", "divergence", ...
};

/// DFS over the scenario's schedule space. Stops early once an issue is
/// found (the counterexample is already in hand) or the run budget is
/// exhausted.
ExploreReport explore(const Scenario& s, const ExploreConfig& cfg);

}  // namespace hds::model
