// Quickstart: sort a distributed vector with hds.
//
// The Team models an MPI job inside one process (each rank is a thread);
// the code inside team.run() is exactly what each rank of a real PGAS/MPI
// job would execute: generate local data, call hds::core::sort, done. The
// output contract matches std::sort generalized to P partitions: every
// partition sorted, partitions ordered, and with epsilon == 0 each rank
// keeps its original element count (perfect partitioning).
//
//   ./quickstart [--ranks=8] [--keys-per-rank=100000] [--epsilon=0.0]
//               [--trace=trace.json] [--ledger=ledger.json] [--check]
//               [--exchange-k=4] [--histogram=auto|dense|hybrid]
//               [--fault=crash] [--fault-rank=1] [--fault-op=20]
//               [--fault-seed=7] [--straggle=0.5] [--drop=0.05]
//               [--recovery=restart|resume|shrink]
//               [--replay-schedule=FILE]
//
// --check runs under the hds::check happens-before race checker and exits
// non-zero if the sort produced any PGAS consistency violation.
// --ledger writes the versioned run ledger (DESIGN.md sec. 14): machine and
// sort config, per-phase and per-op-class time, and the fitted cost-model
// constants — and prints the differential-profiler attribution table
// showing where the cost model disagrees with the traced run.
// --exchange-k=K switches superstep 3 to the k-ary swap schedule (DESIGN.md
// sec. 13): ceil(log_K P) rounds of K-1 partners each, every round one
// ALL-TO-ALLV. K=2 is the hypercube schedule; K>=P, or a prime P with no
// factor <= K, runs the one round of the paper's single-alltoallv exchange,
// which is also what runs without the flag.
// --histogram selects the splitter-search strategy (DESIGN.md sec. 16):
// "dense" is the paper's probe-and-allreduce baseline, "hybrid" runs
// HSS-style sampled bracket rounds first and then dense rounds that probe
// each bracket's midpoint plus one interpolated key, and "auto" (the
// default) runs each sampled round only while the cost model prices it
// below the dense rounds it saves. All modes sort identically; they
// differ in histogram rounds and bytes. The summary prints the mode asked
// for and the sampled rounds that ran; --ledger also records each of
// Auto's decisions (its priced sampled and dense round) and the realised
// Histogram phase seconds.
// --fault=crash kills --fault-rank at its --fault-op'th communication op;
// --straggle=S delays it by S simulated seconds instead; --drop=P drops
// each message with probability P (seeded by --fault-seed). Any of these
// switches the example to core::sort_resilient with the --recovery mode
// (DESIGN.md sec. 12): "restart" re-runs from scratch, "resume" replays
// from the last checkpointed superstep boundary, "shrink" finishes
// in-flight on the survivors.
// --replay-schedule=FILE replays a model-checker counterexample (an
// hds-schedule file written by model_check --schedule-out): the named
// scenario re-runs under the controlled scheduler with the recorded rank
// choices and seeded mutation, reproducing the reported deadlock /
// protocol violation deterministically. Exits 1 if the issue reproduces,
// 0 if the schedule runs clean.
// Otherwise the exit status is 0 for a globally sorted result and 1 if the
// output is not globally sorted (or --check found a violation).
#include <fstream>
#include <iostream>

#include "check/race_detector.h"
#include "common/args.h"
#include "core/histogram_sort.h"
#include "model/scenarios.h"
#include "model/schedule_file.h"
#include "obs/features.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "runtime/fault.h"
#include "runtime/team.h"
#include "workload/distributions.h"

int main(int argc, char** argv) {
  using namespace hds;
  const Args args(argc, argv,
                  {"ranks", "keys-per-rank", "epsilon", "trace", "ledger",
                   "check", "exchange-k", "histogram", "fault", "fault-rank",
                   "fault-op", "fault-seed", "straggle", "drop", "recovery",
                   "replay-schedule"});
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const usize keys_per_rank =
      static_cast<usize>(args.get_int("keys-per-rank", 100000));
  const double epsilon = args.get_double("epsilon", 0.0);
  const std::string trace_path = args.get_string("trace", "");
  const std::string ledger_path = args.get_string("ledger", "");
  const bool check = args.has("check");
  // 0 = one round, the paper's single ALL-TO-ALLV (the default exchange)
  const int exchange_k = static_cast<int>(args.get_int("exchange-k", 0));
  if (args.has("exchange-k") && exchange_k < 2) {
    std::cerr << "--exchange-k must be >= 2\n";
    return 2;
  }
  core::HistogramMode histogram = core::HistogramMode::Auto;
  if (const std::string v = args.get_string("histogram", "auto");
      v == "dense") {
    histogram = core::HistogramMode::Dense;
  } else if (v == "hybrid") {
    histogram = core::HistogramMode::Hybrid;
  } else if (v != "auto") {
    std::cerr << "unknown --histogram value: " << v
              << " (auto|dense|hybrid)\n";
    return 2;
  }
  const std::string fault = args.get_string("fault", "");
  const int fault_rank = static_cast<int>(args.get_int("fault-rank", 1));
  const u64 fault_op = static_cast<u64>(args.get_int("fault-op", 20));
  const u64 fault_seed = static_cast<u64>(args.get_int("fault-seed", 7));
  const double straggle_s = args.get_double("straggle", 0.0);
  const double drop_p = args.get_double("drop", 0.0);
  core::RecoveryMode recovery = core::RecoveryMode::ResumeCheckpoint;
  if (const std::string v = args.get_string("recovery", "resume");
      v == "restart") {
    recovery = core::RecoveryMode::RestartFull;
  } else if (v == "shrink") {
    recovery = core::RecoveryMode::ShrinkSurvivors;
  } else if (v != "resume") {
    std::cerr << "unknown --recovery value: " << v
              << " (restart|resume|shrink)\n";
    return 2;
  }
  if (!fault.empty() && fault != "crash") {
    std::cerr << "unknown --fault value: " << fault << " (crash)\n";
    return 2;
  }
  const std::string replay_path = args.get_string("replay-schedule", "");

  if (!replay_path.empty()) {
    const auto sched = model::read_schedule(replay_path);
    if (!sched) {
      std::cerr << "could not parse schedule file: " << replay_path << "\n";
      return 2;
    }
    const model::Scenario scenario = model::find_scenario(sched->scenario);
    if (scenario.name.empty()) {
      std::cerr << "unknown scenario in schedule file: " << sched->scenario
                << "\n";
      return 2;
    }
    std::cout << "replaying " << sched->choices.size()
              << " recorded choices of scenario " << scenario.name;
    if (sched->mutation.active())
      std::cout << " with mutation "
                << model::mutation_kind_name(sched->mutation.kind)
                << " rank=" << sched->mutation.rank
                << " nth=" << sched->mutation.nth;
    std::cout << "\n";
    const model::RunOutcome out = model::run_scenario(
        scenario, sched->choices, sched->mutation, /*max_steps=*/200000);
    bool issue = false;
    if (out.deadlock) {
      issue = true;
      std::cout << out.deadlock_report << "\n";
    }
    if (!out.completed && !out.deadlock) {
      issue = true;
      std::cout << "run failed: " << out.error << "\n";
    }
    if (out.undelivered > 0) {
      issue = true;
      std::cout << out.undelivered
                << " undelivered message(s) at termination\n";
    }
    for (const auto& q : out.quiescence) {
      issue = true;
      std::cout << q << "\n";
    }
    if (out.replay_diverged)
      std::cout << "note: recorded choices diverged from the enabled set "
                   "(schedule from another build?)\n";
    if (out.completed) {
      // Divergence counterexamples reproduce as a digest difference against
      // a reference run of the same scenario — print them for comparison.
      std::cout << "per-rank output digests:";
      for (u64 d : out.digests) std::cout << " " << std::hex << d << std::dec;
      std::cout << "\n";
    }
    std::cout << (issue ? "counterexample reproduced"
                        : "schedule ran clean")
              << " (" << out.choices.size() << " decisions)\n";
    return issue ? 1 : 0;
  }

  const bool faulty = fault == "crash" || straggle_s > 0.0 || drop_p > 0.0;
  std::shared_ptr<runtime::FaultPlan> plan;
  if (faulty) {
    plan = std::make_shared<runtime::FaultPlan>(fault_seed);
    if (fault == "crash") plan->crash_rank_at_op(fault_rank, fault_op);
    if (straggle_s > 0.0)
      plan->delay_rank_at_op(fault_rank, fault_op, straggle_s);
    if (drop_p > 0.0) plan->drop_messages_with_probability(drop_p);
  }

  core::SortConfig cfg;
  cfg.epsilon = epsilon;
  cfg.histogram = histogram;
  cfg.exchange_k = exchange_k;

  runtime::TeamConfig tcfg{
      .nranks = ranks,
      .trace = !trace_path.empty() || !ledger_path.empty()};
  tcfg.check.enabled = check;
  tcfg.fault = plan;
  if (faulty) tcfg.watchdog_timeout_s = 10.0;
  runtime::Team team(tcfg);

  if (faulty) {
    // Resilient path: the whole input lives in per-rank partitions so a
    // failed attempt can restart (or the survivors can absorb a dead
    // rank's shard) from pristine state.
    std::vector<std::vector<u64>> parts(static_cast<usize>(ranks));
    workload::GenConfig gen;
    gen.seed = 2026;
    for (int r = 0; r < ranks; ++r)
      parts[static_cast<usize>(r)] =
          workload::generate_u64(gen, r, ranks, keys_per_rank);

    core::ResilienceConfig rcfg;
    rcfg.mode = recovery;
    core::ResilienceReport rep;
    try {
      (void)core::sort_resilient(team, parts, cfg, rcfg, &rep);
    } catch (const std::exception& e) {
      std::cerr << "sort_resilient gave up: " << e.what() << "\n";
      return 1;
    }

    bool sorted = true;
    u64 prev = 0;
    usize total = 0;
    for (const auto& p : parts)
      for (const u64 v : p) {
        if (total > 0 && v < prev) sorted = false;
        prev = v;
        ++total;
      }
    std::cout << "resilient sort (" << core::recovery_mode_name(recovery)
              << "): " << (sorted ? "globally sorted" : "FAILED") << ", "
              << total << " keys\n"
              << "  attempts             : " << rep.attempts << "\n"
              << "  rank failures        : " << rep.failures << "\n"
              << "  in-flight recoveries : " << rep.recoveries << "\n"
              << "  recomputed fraction  : " << rep.recomputed_fraction
              << "\n"
              << "  checkpoint bytes     : " << rep.checkpoint_bytes << "\n"
              << "  output ranks         : " << rep.final_ranks.size()
              << " of " << ranks << "\n"
              << "simulated time-to-solution: " << rep.sim_seconds_total
              << " s\n";
    return sorted ? 0 : 1;
  }

  // Per-rank results, printed by the main thread in rank order once the
  // rank threads have joined.
  struct RankSlice {
    u64 front = 0, back = 0;
    usize n = 0;
  };
  std::vector<RankSlice> slices(static_cast<usize>(ranks));
  core::SortStats stats;
  bool ok = false;
  team.run([&](runtime::Comm& comm) {
    // 1. Each rank owns a local partition — here: random 64-bit keys.
    workload::GenConfig gen;
    gen.seed = 2026;
    std::vector<u64> local =
        workload::generate_u64(gen, comm.rank(), comm.size(), keys_per_rank);

    // 2. One call sorts the distributed sequence.
    const core::SortStats mine = core::sort(comm, local, cfg);

    // 3. The local partition now holds this rank's slice of the globally
    //    sorted sequence.
    const bool sorted = core::is_globally_sorted(
        comm, std::span<const u64>(local.data(), local.size()),
        [](u64 v) { return v; });

    if (comm.rank() == 0) {
      stats = mine;
      ok = sorted;
    }
    if (!local.empty())
      slices[static_cast<usize>(comm.rank())] = {local.front(), local.back(),
                                                 local.size()};
  });

  std::cout << "sorted " << ranks << " x " << keys_per_rank
            << " keys: " << (ok ? "globally sorted" : "FAILED") << "\n"
            << "  histogram mode       : "
            << core::histogram_mode_name(histogram) << "\n"
            << "  histogram iterations : " << stats.histogram_iterations
            << " (" << stats.sampled_rounds << " sampled)\n"
            << "  splitter probes      : " << stats.splitter_probes << "\n"
            << "  histogram bytes      : " << stats.hist_bytes_sampled
            << " sampled + " << stats.hist_bytes_dense << " dense\n"
            << "  sent off-rank (r0)   : " << stats.elements_sent_off_rank
            << " of " << stats.elements_before << "\n";
  for (int r = 0; r < ranks; ++r) {
    const RankSlice& sl = slices[static_cast<usize>(r)];
    if (sl.n == 0)
      std::cout << "  rank " << r << ": [empty], n=0\n";
    else
      std::cout << "  rank " << r << ": [" << sl.front << " .. " << sl.back
                << "], n=" << sl.n << "\n";
  }
  std::cout << "simulated makespan: " << team.stats().makespan_s << " s\n";

  if (const obs::TraceReport* trace = team.trace()) {
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      trace->write_chrome_json(out);
      std::cout << "wrote Chrome trace (" << trace->total_events()
                << " events) to " << trace_path << "\n"
                << trace->comm_matrix().summary() << "\n";
    }
    if (!ledger_path.empty()) {
      obs::RunLedger led = obs::RunLedger::from_trace(*trace, team.cost());
      led.bench = "quickstart";
      led.total_elements =
          static_cast<u64>(ranks) * static_cast<u64>(keys_per_rank);
      led.config = {{"epsilon", std::to_string(epsilon)},
                    {"exchange_k", std::to_string(exchange_k)},
                    {"histogram", core::histogram_mode_name(histogram)}};
      led.scalars = {{"sim_makespan_s", team.stats().makespan_s},
                     {"sim_histogram_s", team.stats().phase_seconds(
                                             net::Phase::Histogram)}};
      for (usize i = 0; i < stats.histogram_decisions.size(); ++i) {
        const core::SampleDecision& d = stats.histogram_decisions[i];
        const std::string at = "auto_round" + std::to_string(i) + "_";
        led.scalars.emplace_back(at + "sampled_s", d.sampled_s);
        led.scalars.emplace_back(at + "dense_s", d.dense_s);
        led.scalars.emplace_back(at + "saved_rounds", d.saved_rounds);
        led.scalars.emplace_back(at + "taken", d.taken ? 1.0 : 0.0);
      }
      obs::attach_features(led, team.cost());
      std::ofstream out(ledger_path);
      led.write_json(out);
      std::cout << "wrote run ledger (" << led.samples.size()
                << " op samples) to " << ledger_path << "\n"
                << obs::attribution_table(led);
    }
  }

  if (const check::CheckReport* rep = team.check_report()) {
    std::cout << rep->summary() << "\n";
    if (!rep->clean()) return 1;
  }
  return ok ? 0 : 1;
}
