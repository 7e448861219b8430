// Recovery study (simulated time): what superstep checkpointing costs when
// nothing fails, and what each RecoveryMode pays when a rank does fail.
//
// (a) Fault-free overhead: ResumeCheckpoint (buddy checkpoints at every
//     superstep boundary, charged at the machine model's overlap residue)
//     vs RestartFull (no checkpoints) on identical inputs. The ci.sh gate
//     requires the overhead to stay under 10%.
// (b) Recovery vs restart: a rank is crashed at the begin/end of each
//     communicating superstep (histogram = splitter determination,
//     exchange) and the total simulated time-to-solution — aborted
//     attempts included — is compared across RestartFull, ResumeCheckpoint
//     and ShrinkSurvivors. The ci.sh gate requires ResumeCheckpoint to
//     beat RestartFull for crashes at or after the exchange superstep.
//
// Simulated time is deterministic per seed, so every cell is a single run.
// Emits BENCH_recovery.json consumed by the ci.sh fault-matrix stage.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/team.h"

namespace {

using namespace hds;

struct Cell {
  std::string kind;   // "overhead" | "crash"
  int nranks = 0;
  std::string crash;  // "" | "histogram-begin" | ... (crash cells)
  std::string mode;   // "plain" | RecoveryMode name
  usize n_per_rank = 0;
  double sim_seconds = 0.0;        // total simulated time-to-solution
  double vs_restart = 1.0;         // RestartFull seconds / this mode's
  double overhead_frac = 0.0;      // overhead cells: ckpt/plain - 1
  double recomputed_fraction = 0.0;
  double recover_s = 0.0;          // max detect+agree time (shrink cells)
  int attempts = 0;
  u64 checkpoint_bytes = 0;
};

std::vector<std::vector<u64>> make_input(int p, usize per_rank, u64 seed) {
  std::vector<std::vector<u64>> parts(p);
  for (int r = 0; r < p; ++r) {
    Xoshiro256 rng(hash_mix(seed, static_cast<u64>(r)));
    parts[r].resize(per_rank);
    for (auto& v : parts[r]) v = rng();
  }
  return parts;
}

struct RunResult {
  double sim_seconds = 0.0;
  core::ResilienceReport rep;
};

RunResult run_mode(int P, usize n, u64 seed, core::RecoveryMode mode,
                   std::shared_ptr<runtime::FaultPlan> plan) {
  runtime::TeamConfig cfg;
  cfg.nranks = P;
  cfg.fault = std::move(plan);
  cfg.watchdog_timeout_s = 30.0;
  runtime::Team team(cfg);
  auto parts = make_input(P, n, seed);
  core::ResilienceConfig rcfg;
  rcfg.mode = mode;
  rcfg.fault_budget = 4;
  core::ResilienceReport rep;
  (void)core::sort_resilient(team, parts, bench::paper_config(), rcfg,
                             &rep);
  return {rep.sim_seconds_total, rep};
}

/// One representative traced run for --trace / --ledger: the P=8
/// checkpointed fault-free sort (the configuration both gates depend on)
/// re-executed in a trace-enabled team. The headline scalars distilled into
/// the ledger are the deterministic simulated-time cells the perf history
/// gates: fault-free seconds and overhead per P, plus resume-vs-restart
/// for each crash point.
void run_traced_representative(const bench::Args& args, usize n, u64 seed,
                               const std::vector<Cell>& cells) {
  if (!args.has("trace") && !args.has("ledger")) return;
  constexpr int P = 8;
  runtime::TeamConfig cfg;
  cfg.nranks = P;
  cfg.watchdog_timeout_s = 30.0;
  cfg.trace = true;
  runtime::Team team(cfg);
  auto parts = make_input(P, n, seed);
  core::ResilienceConfig rcfg;
  rcfg.mode = core::RecoveryMode::ResumeCheckpoint;
  rcfg.fault_budget = 4;
  core::ResilienceReport rep;
  (void)core::sort_resilient(team, parts, bench::paper_config(), rcfg,
                             &rep);
  bench::write_trace_if_requested(args, team);

  std::vector<std::pair<std::string, double>> scalars;
  for (const Cell& c : cells) {
    const std::string p = "_P" + std::to_string(c.nranks);
    if (c.kind == "overhead" && c.mode == "plain")
      scalars.emplace_back("sim_plain_s" + p, c.sim_seconds);
    if (c.kind == "overhead" && c.mode == "checkpointed")
      scalars.emplace_back("sim_ckpt_overhead_frac" + p, c.overhead_frac);
    if (c.kind == "crash" && c.mode == "ResumeCheckpoint")
      scalars.emplace_back("sim_resume_vs_restart_" + c.crash, c.vs_restart);
  }
  bench::write_ledger_if_requested(
      args, team, "bench_recovery", static_cast<u64>(n) * P,
      {{"mode", "ResumeCheckpoint"},
       {"n_per_rank", std::to_string(n)},
       {"seed", std::to_string(seed)}},
      std::move(scalars));
}

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (usize i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"kind\": \"" << c.kind << "\", \"nranks\": " << c.nranks
        << ", \"crash\": \"" << c.crash << "\", \"mode\": \"" << c.mode
        << "\", \"n_per_rank\": " << c.n_per_rank
        << ", \"sim_seconds\": " << c.sim_seconds
        << ", \"vs_restart\": " << c.vs_restart
        << ", \"overhead_frac\": " << c.overhead_frac
        << ", \"recomputed_fraction\": " << c.recomputed_fraction
        << ", \"recover_s\": " << c.recover_s
        << ", \"attempts\": " << c.attempts
        << ", \"checkpoint_bytes\": " << c.checkpoint_bytes << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv,
                         {"n", "seed", "out", "trace", "ledger",
                          "calibration"});
  const u64 seed = static_cast<u64>(args.get_int("seed", 9));
  const usize n = static_cast<usize>(args.get_int("n", i64{1} << 17));
  const std::string out_path = args.get_string("out", "BENCH_recovery.json");

  bench::print_header(
      "Recovery study (simulated time)",
      "superstep checkpoint overhead and recovery-vs-restart for crashes at "
      "each superstep; single deterministic run per cell");

  std::vector<Cell> cells;

  // (a) Fault-free checkpoint overhead.
  Table ovh({"P", "n/rank", "plain t[s]", "ckpt t[s]", "overhead"});
  for (int P : {4, 8, 16}) {
    const RunResult plain =
        run_mode(P, n, seed, core::RecoveryMode::RestartFull, nullptr);
    const RunResult ckpt =
        run_mode(P, n, seed, core::RecoveryMode::ResumeCheckpoint, nullptr);
    const double frac = ckpt.sim_seconds / plain.sim_seconds - 1.0;
    cells.push_back({"overhead", P, "", "plain", n, plain.sim_seconds, 1.0,
                     0.0, 0.0, 0.0, plain.rep.attempts, 0});
    cells.push_back({"overhead", P, "", "checkpointed", n, ckpt.sim_seconds,
                     plain.sim_seconds / ckpt.sim_seconds, frac, 0.0, 0.0,
                     ckpt.rep.attempts, ckpt.rep.checkpoint_bytes});
    ovh.add_row({std::to_string(P), std::to_string(n),
                 fmt(plain.sim_seconds), fmt(ckpt.sim_seconds),
                 fmt(frac * 100.0) + "%"});
  }
  std::cout << ovh.to_string() << "\n";

  // (b) Crash at each communicating superstep: begin and end of the
  // histogram (splitter) and exchange phases. Merge has no communication
  // ops, so a post-exchange crash is keyed to the last exchange op.
  constexpr int P = 8;
  constexpr rank_t kVictim = 1;

  auto probe_plan = std::make_shared<runtime::FaultPlan>();
  (void)run_mode(P, n, seed, core::RecoveryMode::RestartFull, probe_plan);
  const u64 hist_ops =
      probe_plan->ops_observed_in_phase(kVictim, net::Phase::Histogram);
  const u64 ex_ops =
      probe_plan->ops_observed_in_phase(kVictim, net::Phase::Exchange);
  if (hist_ops == 0 || ex_ops == 0) {
    std::cerr << "FATAL: probe found no ops in a communicating phase\n";
    return 1;
  }

  struct CrashPoint {
    std::string name;
    net::Phase phase;
    u64 k;
  };
  const std::vector<CrashPoint> points{
      {"histogram-begin", net::Phase::Histogram, 0},
      {"histogram-end", net::Phase::Histogram, hist_ops - 1},
      {"exchange-begin", net::Phase::Exchange, 0},
      {"exchange-end", net::Phase::Exchange, ex_ops - 1},
  };

  Table tbl({"crash", "mode", "t[s]", "vs restart", "recomputed",
             "attempts"});
  for (const CrashPoint& cp : points) {
    double restart_s = 0.0;
    for (core::RecoveryMode mode :
         {core::RecoveryMode::RestartFull,
          core::RecoveryMode::ResumeCheckpoint,
          core::RecoveryMode::ShrinkSurvivors}) {
      auto plan = std::make_shared<runtime::FaultPlan>();
      plan->crash_rank_at_phase_op(kVictim, cp.phase, cp.k);
      const RunResult res = run_mode(P, n, seed, mode, plan);
      if (mode == core::RecoveryMode::RestartFull)
        restart_s = res.sim_seconds;
      double recover_s = 0.0;
      for (double s : res.rep.recovery_seconds)
        recover_s = std::max(recover_s, s);
      Cell c{"crash",
             P,
             cp.name,
             std::string(core::recovery_mode_name(mode)),
             n,
             res.sim_seconds,
             restart_s / res.sim_seconds,
             0.0,
             res.rep.recomputed_fraction,
             recover_s,
             res.rep.attempts,
             res.rep.checkpoint_bytes};
      cells.push_back(c);
      tbl.add_row({cp.name, c.mode, fmt(c.sim_seconds), fmt(c.vs_restart),
                   fmt(c.recomputed_fraction), std::to_string(c.attempts)});
    }
  }
  std::cout << tbl.to_string();

  run_traced_representative(args, n, seed, cells);
  write_json(out_path, cells);
  std::cout << "\nwrote " << cells.size() << " cells -> " << out_path
            << "\n";
  return 0;
}
