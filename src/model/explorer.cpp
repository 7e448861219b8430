#include "model/explorer.h"

#include <algorithm>
#include <sstream>

#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds::model {

RunOutcome run_scenario(const Scenario& s, const std::vector<int>& prefix,
                        const Mutation& mutation, usize max_steps) {
  ControlledScheduler::Config scfg;
  scfg.nranks = s.nranks;
  scfg.prefix = prefix;
  scfg.max_steps = max_steps;
  scfg.mutation = mutation;
  ControlledScheduler sched(std::move(scfg));

  runtime::TeamConfig tcfg;
  if (s.configure) s.configure(tcfg);
  tcfg.nranks = s.nranks;
  tcfg.model = &sched;
  runtime::Team team(tcfg);
  sched.attach(&team);

  RunOutcome out;
  std::vector<u64> digests(static_cast<usize>(s.nranks), 0);
  try {
    team.run([&](runtime::Comm& c) {
      digests[static_cast<usize>(c.rank())] = s.body(c);
    });
    out.completed = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }

  out.deadlock = sched.deadlocked();
  out.budget_exhausted = sched.budget_exhausted();
  out.replay_diverged = sched.replay_diverged();
  out.deadlock_report = sched.deadlock_report();
  out.choices = sched.choices();
  out.steps = sched.steps();
  out.undelivered = team.undelivered_messages();
  out.quiescence = team.model_quiescence_issues();
  if (out.completed) {
    out.digests = std::move(digests);
    out.final_times.resize(static_cast<usize>(s.nranks));
    for (int r = 0; r < s.nranks; ++r)
      out.final_times[static_cast<usize>(r)] = team.rank_time(r);
  }
  return out;
}

namespace {

/// True iff running `alt` (parked at `f_alt`) before the recorded step
/// could change anything: the step's resume site or any of its effects
/// conflicts with alt's park footprint. Independent steps commute — the
/// alternative order reaches the same state, so the branch is pruned.
bool dependent_with_step(const Footprint& f_alt, const StepRecord& st) {
  if (footprints_conflict(f_alt, st.resume)) return true;
  for (const Footprint& e : st.effects)
    if (footprints_conflict(f_alt, e)) return true;
  return false;
}

}  // namespace

ExploreReport explore(const Scenario& s, const ExploreConfig& cfg) {
  ExploreReport rep;
  rep.scenario = s.name;
  rep.nranks = s.nranks;

  bool have_ref = false;
  std::vector<u64> ref_digests;
  std::vector<double> ref_times;

  // Classify one run against the terminal-state oracles. Returns the issue
  // kind ("" = clean) and appends human-readable reports to rep.issues.
  auto check_run = [&](const RunOutcome& run) -> std::string {
    if (run.deadlock) {
      rep.issues.push_back(run.deadlock_report);
      return "deadlock";
    }
    if (run.budget_exhausted) {
      // Not an oracle violation: the run was cut short, nothing to check.
      return "";
    }
    if (run.replay_diverged) {
      rep.issues.push_back(
          "internal: DFS prefix was not enabled on re-execution "
          "(scenario is not schedule-deterministic at the decision level)");
      return "replay-divergence";
    }
    if (!run.completed) {
      rep.issues.push_back("run failed: " + run.error);
      return "error";
    }
    if (run.undelivered > 0) {
      std::ostringstream os;
      os << run.undelivered << " undelivered message(s) at termination";
      rep.issues.push_back(os.str());
      return "undelivered";
    }
    if (!run.quiescence.empty()) {
      for (const auto& q : run.quiescence) rep.issues.push_back(q);
      return "quiescence";
    }
    if (!have_ref) {
      ref_digests = run.digests;
      ref_times = run.final_times;
      have_ref = true;
      return "";
    }
    if (run.digests != ref_digests) {
      rep.deterministic = false;
      for (int r = 0; r < s.nranks; ++r)
        if (run.digests[static_cast<usize>(r)] !=
            ref_digests[static_cast<usize>(r)]) {
          std::ostringstream os;
          os << "output divergence on rank " << r
             << " vs reference schedule (digest " << std::hex
             << run.digests[static_cast<usize>(r)] << " != "
             << ref_digests[static_cast<usize>(r)] << ")";
          rep.issues.push_back(os.str());
          break;
        }
      return "output-divergence";
    }
    // Exact equality on purpose: simulated time must be a pure function of
    // the inputs, independent of the schedule — no epsilon.
    if (run.final_times != ref_times) {
      rep.deterministic = false;
      for (int r = 0; r < s.nranks; ++r)
        if (run.final_times[static_cast<usize>(r)] !=
            ref_times[static_cast<usize>(r)]) {
          std::ostringstream os;
          os.precision(17);
          os << "sim-time divergence on rank " << r << ": "
             << run.final_times[static_cast<usize>(r)]
             << " != " << ref_times[static_cast<usize>(r)];
          rep.issues.push_back(os.str());
          break;
        }
      return "time-divergence";
    }
    return "";
  };

  // DFS frontier of forced-choice prefixes. A child run expands only
  // decisions at or beyond its prefix length — every earlier decision's
  // alternatives were pushed when an ancestor first reached it.
  std::vector<std::vector<int>> stack;
  stack.push_back({});

  auto expand = [&](const RunOutcome& run, usize from_decision) {
    for (usize d = run.steps.size(); d-- > from_decision;) {
      const StepRecord& st = run.steps[d];
      if (st.enabled.size() <= 1) continue;
      for (usize i = 0; i < st.enabled.size(); ++i) {
        const int alt = st.enabled[i];
        if (alt == st.chosen) continue;
        if (!cfg.exhaustive && !dependent_with_step(st.parked_at[i], st)) {
          ++rep.pruned;
          continue;
        }
        std::vector<int> prefix(run.choices.begin(),
                                run.choices.begin() +
                                    static_cast<std::ptrdiff_t>(d));
        prefix.push_back(alt);
        stack.push_back(std::move(prefix));
      }
    }
  };

  while (!stack.empty()) {
    if (rep.runs >= cfg.max_runs) {
      rep.budget_hit = true;
      break;
    }
    std::vector<int> prefix = std::move(stack.back());
    stack.pop_back();

    RunOutcome run = run_scenario(s, prefix, cfg.mutation, cfg.max_steps);
    ++rep.runs;
    rep.decisions += run.choices.size();
    if (rep.runs == 1)
      for (const auto& st : run.steps)
        if (st.enabled.size() > 1) ++rep.branch_points;

    const std::string kind = check_run(run);
    if (!kind.empty()) {
      // First failure wins: its choice sequence is the replayable
      // counterexample. Stop — further schedules add nothing.
      rep.counterexample = run.choices;
      rep.counterexample_kind = kind;
      break;
    }
    expand(run, prefix.size());
  }

  return rep;
}

}  // namespace hds::model
