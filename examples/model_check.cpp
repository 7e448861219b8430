// model_check: the hds::model CI driver (DESIGN.md sec. 15).
//
// Two verifiers over the runtime's communication protocols:
//
//  1. Static schedule matcher — every sort algorithm runs once with a
//     ScheduleRecorder installed (a ghost capture: symbolic per-rank op
//     schedules, no extra payload movement), and the recorder lints the
//     capture: identical collective sequences across every communicator's
//     members and every send paired with a recv. The grid is histogram sort
//     x {alltoallv, k-ary k in {2, 3}} plus the two baseline sorts, all at
//     P = 8. A seeded collective-order swap (--matcher-negative, also run
//     by default) must FAIL the lint — it guards the matcher itself.
//
//  2. Bounded schedule-space explorer — DFS over rank interleavings of the
//     canonical scenarios (model/scenarios.h) under the controlled
//     scheduler, checking deadlock-freedom, message/arena quiescence, and
//     schedule determinism (byte-identical output digests and exact final
//     SimClock equality on every explored interleaving). Three seeded
//     protocol mutations (a dropped barrier in the mailbox protocol and in
//     a k-ary exchange round, a reordered mailbox push) must each be caught
//     with a replayable counterexample.
//
//   ./model_check                      run everything with the CI budget
//   ./model_check --explore=sort2      one scenario only
//   ./model_check --mutation=drop-barrier --explore=mailbox
//                                      one seeded mutation on one scenario
//   ./model_check --matcher            static matcher grid only
//   ./model_check --matcher-negative   the seeded swap only
//   ./model_check --deep               exhaustive (no independence pruning;
//                                      also enabled by HDS_MODEL_DEEP=1)
//   ./model_check --max-runs=N --max-steps=N
//                                      exploration budget (per scenario)
//   ./model_check --json=FILE          write the hds-model-report artifact
//                                      (tools/validate_bench.py model-report)
//   ./model_check --schedule-out=FILE  write the first counterexample as a
//                                      replayable hds-schedule file
//                                      (quickstart --replay-schedule=FILE)
//
// Exit status: 0 all verifiers passed, 1 any failure.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/hss_sort.h"
#include "baselines/parallel_merge_sort.h"
#include "core/histogram_sort.h"
#include "model/recorder.h"
#include "model/scenarios.h"
#include "model/schedule_file.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace {

using namespace hds;

struct GridCase {
  std::string name;
  int nranks;
  std::function<void(runtime::Comm&)> body;
};

std::vector<u64> grid_data(int rank, int nranks, usize n) {
  workload::GenConfig gen;
  return workload::generate_u64(gen, rank, nranks, n);
}

/// The full matcher grid: histogram sort across the exchange schedules,
/// plus the two baselines. P = 8 covers the power-of-two algorithms
/// (k-ary at k = 2, hss) and k-ary forwarding alike.
std::vector<GridCase> matcher_grid() {
  constexpr int P = 8;
  constexpr usize kPerRank = 64;
  std::vector<GridCase> cases;

  struct Ex {
    const char* name;
    int k;
  };
  const Ex exchanges[] = {{"alltoallv", 0}, {"kary-k2", 2}, {"kary-k3", 3}};
  for (const Ex& ex : exchanges) {
    core::SortConfig cfg;
    cfg.exchange_k = ex.k;
    cases.push_back({std::string("histogram-") + ex.name, P,
                     [cfg](runtime::Comm& c) {
                       auto local = grid_data(c.rank(), c.size(), kPerRank);
                       core::sort(c, local, cfg);
                     }});
  }

  cases.push_back({"baseline-hss", P, [](runtime::Comm& c) {
                     auto local = grid_data(c.rank(), c.size(), kPerRank);
                     baselines::hss_sort(c, local);
                   }});
  cases.push_back({"baseline-pmergesort", P, [](runtime::Comm& c) {
                     auto local = grid_data(c.rank(), c.size(), kPerRank);
                     baselines::parallel_merge_sort(c, local);
                   }});
  return cases;
}

/// The seeded negative: rank 0 swaps its first two collectives. The run
/// aborts with the runtime's collective_mismatch, but the ghost capture
/// happens before execution, so the matcher must still report the
/// divergence — if it passes, the matcher is broken.
GridCase negative_case() {
  return {"negative-collective-swap", 4, [](runtime::Comm& c) {
            auto add = [](u64 a, u64 b) { return a + b; };
            if (c.rank() == 0) {
              c.barrier();
              (void)c.allreduce_value<u64>(1, add);
            } else {
              (void)c.allreduce_value<u64>(1, add);
              c.barrier();
            }
          }};
}

struct MatcherResult {
  std::string name;
  std::vector<std::string> issues;
  usize ops = 0;
};

MatcherResult run_matcher_case(const GridCase& gc) {
  model::ScheduleRecorder rec;
  runtime::TeamConfig tcfg;
  tcfg.nranks = gc.nranks;
  tcfg.recorder = &rec;
  runtime::Team team(tcfg);
  try {
    team.run(gc.body);
  } catch (const std::exception&) {
    // Expected for negative cases: the runtime aborts, the capture stays.
  }
  MatcherResult r;
  r.name = gc.name;
  r.issues = rec.verify();
  r.ops = rec.ops();
  return r;
}

struct MutationSpec {
  const char* scenario;
  model::Mutation mutation;
};

/// The three seeded protocol faults and the scenario that exposes each: a
/// dropped barrier deadlocks the peers, in the mailbox protocol and inside
/// a k-ary exchange round's ALL-TO-ALLV; a reordered contended push breaks
/// per-channel FIFO (output divergence across schedules).
std::vector<MutationSpec> mutation_specs() {
  using K = model::Mutation::Kind;
  return {
      {"mailbox", {K::DropBarrier, /*rank=*/0, /*nth=*/0}},
      {"mailbox", {K::ReorderPush, /*rank=*/0, /*nth=*/0}},
      {"sort4-kary2",
       {K::DropBarrier, /*rank=*/0, model::kSort4KAry2RoundBarrier}},
  };
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\')
      os << '\\' << ch;
    else if (ch == '\n')
      os << "\\n";
    else
      os << ch;
  }
  os << '"';
}

void json_string_list(std::ostream& os, const std::vector<std::string>& v) {
  os << '[';
  for (usize i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    json_escape(os, v[i]);
  }
  os << ']';
}

void json_int_list(std::ostream& os, const std::vector<int>& v) {
  os << '[';
  for (usize i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << ']';
}

struct MutationOutcome {
  std::string scenario;
  std::string mutation;
  bool caught = false;
  std::string kind;
  usize runs = 0;
  std::vector<int> counterexample;
};

}  // namespace

int main(int argc, char** argv) {
  bool run_matcher = true;
  bool run_negative = true;
  bool run_explore = true;
  bool run_mutations = true;
  std::string only_scenario;
  std::string only_mutation;
  int mutation_rank = 0;
  int mutation_nth = 0;
  std::string json_path;
  std::string schedule_out;
  model::ExploreConfig ecfg;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded startup, no
  // concurrent setenv in this process.
  const char* deep_env = std::getenv("HDS_MODEL_DEEP");
  ecfg.exhaustive = deep_env != nullptr && std::string(deep_env) == "1";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg == "--matcher") {
      run_explore = run_mutations = false;
    } else if (arg == "--matcher-negative") {
      run_matcher = run_explore = run_mutations = false;
    } else if (arg.rfind("--explore=", 0) == 0) {
      only_scenario = val("--explore=");
      run_matcher = run_negative = false;
      if (only_mutation.empty()) run_mutations = false;
    } else if (arg.rfind("--mutation=", 0) == 0) {
      only_mutation = val("--mutation=");
      run_matcher = run_negative = run_explore = false;
      run_mutations = true;
    } else if (arg.rfind("--mutation-rank=", 0) == 0) {
      mutation_rank = std::stoi(val("--mutation-rank="));
    } else if (arg.rfind("--mutation-nth=", 0) == 0) {
      mutation_nth = std::stoi(val("--mutation-nth="));
    } else if (arg == "--deep") {
      ecfg.exhaustive = true;
    } else if (arg.rfind("--max-runs=", 0) == 0) {
      ecfg.max_runs = std::stoull(val("--max-runs="));
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      ecfg.max_steps = std::stoull(val("--max-steps="));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = val("--json=");
    } else if (arg.rfind("--schedule-out=", 0) == 0) {
      schedule_out = val("--schedule-out=");
    } else {
      std::cerr << "model_check: unknown argument " << arg << "\n";
      return 1;
    }
  }

  bool failed = false;

  // --- 1. static schedule matcher -----------------------------------------
  std::vector<MatcherResult> matcher_results;
  if (run_matcher) {
    for (const GridCase& gc : matcher_grid()) {
      MatcherResult r = run_matcher_case(gc);
      if (r.issues.empty()) {
        std::cout << "matcher OK: " << r.name << " (" << r.ops
                  << " symbolic ops)\n";
      } else {
        failed = true;
        std::cout << "matcher FAIL: " << r.name << "\n";
        for (const auto& is : r.issues) std::cout << "  " << is << "\n";
      }
      matcher_results.push_back(std::move(r));
    }
  }
  if (run_negative) {
    MatcherResult r = run_matcher_case(negative_case());
    if (r.issues.empty()) {
      failed = true;
      std::cout << "matcher-negative FAIL: seeded collective-order swap "
                   "passed the lint (matcher is blind)\n";
    } else {
      std::cout << "matcher-negative OK: swap caught: " << r.issues.front()
                << "\n";
    }
  }

  // --- 2. bounded exploration ---------------------------------------------
  std::vector<model::ExploreReport> explorations;
  if (run_explore) {
    for (const model::Scenario& s : model::all_scenarios()) {
      if (!only_scenario.empty() && s.name != only_scenario) continue;
      model::ExploreReport rep = model::explore(s, ecfg);
      explorations.push_back(rep);
      if (rep.issues.empty() && rep.deterministic) {
        std::cout << "explore OK: " << s.name << " (" << rep.runs
                  << " schedules, " << rep.branch_points
                  << " branch points, " << rep.pruned << " pruned"
                  << (rep.budget_hit ? ", budget hit" : "") << ")\n";
      } else {
        failed = true;
        std::cout << "explore FAIL: " << s.name << " ["
                  << rep.counterexample_kind << "]\n";
        for (const auto& is : rep.issues) std::cout << "  " << is << "\n";
      }
    }
    if (!only_scenario.empty() && explorations.empty()) {
      std::cerr << "model_check: unknown scenario " << only_scenario << "\n";
      return 1;
    }
  }

  // --- 3. seeded protocol mutations ---------------------------------------
  std::vector<MutationOutcome> mutations;
  if (run_mutations) {
    std::vector<MutationSpec> specs;
    if (!only_mutation.empty()) {
      model::Mutation m;
      using K = model::Mutation::Kind;
      if (only_mutation == "drop-barrier")
        m.kind = K::DropBarrier;
      else if (only_mutation == "reorder-push")
        m.kind = K::ReorderPush;
      else {
        std::cerr << "model_check: unknown mutation " << only_mutation
                  << "\n";
        return 1;
      }
      m.rank = mutation_rank;
      m.nth = mutation_nth;
      specs.push_back(
          {only_scenario.empty() ? "mailbox" : only_scenario.c_str(), m});
    } else {
      specs = mutation_specs();
    }
    for (const MutationSpec& spec : specs) {
      model::Scenario s = model::find_scenario(spec.scenario);
      if (s.name.empty()) {
        std::cerr << "model_check: unknown scenario " << spec.scenario
                  << "\n";
        return 1;
      }
      model::ExploreConfig mcfg = ecfg;
      mcfg.mutation = spec.mutation;
      model::ExploreReport rep = model::explore(s, mcfg);
      MutationOutcome out;
      out.scenario = s.name;
      out.mutation = model::mutation_kind_name(spec.mutation.kind);
      out.caught = !rep.counterexample_kind.empty();
      out.kind = rep.counterexample_kind;
      out.runs = rep.runs;
      out.counterexample = rep.counterexample;
      if (out.caught) {
        std::cout << "mutation OK: " << out.mutation << " on " << s.name
                  << " caught as " << out.kind << " (run " << rep.runs
                  << ", " << out.counterexample.size() << " steps)\n";
        if (!schedule_out.empty()) {
          model::ScheduleFile sf;
          sf.scenario = s.name;
          sf.mutation = spec.mutation;
          sf.choices = out.counterexample;
          if (model::write_schedule(schedule_out, sf))
            std::cout << "  counterexample written to " << schedule_out
                      << "\n";
          schedule_out.clear();  // keep the first (one file, one schedule)
        }
      } else {
        failed = true;
        std::cout << "mutation FAIL: " << out.mutation << " on " << s.name
                  << " survived " << rep.runs << " schedules undetected\n";
      }
      mutations.push_back(std::move(out));
    }
  }

  // --- report ---------------------------------------------------------------
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\"schema\":\"hds-model-report\",\"version\":1,\"deep\":"
       << (ecfg.exhaustive ? "true" : "false") << ",";
    usize ops = 0, failures = 0;
    for (const auto& r : matcher_results) {
      ops += r.ops;
      if (!r.issues.empty()) ++failures;
    }
    os << "\"matcher\":{\"configs\":" << matcher_results.size()
       << ",\"failures\":" << failures << ",\"ops\":" << ops
       << ",\"cases\":[";
    for (usize i = 0; i < matcher_results.size(); ++i) {
      if (i) os << ',';
      os << "{\"name\":";
      json_escape(os, matcher_results[i].name);
      os << ",\"issues\":";
      json_string_list(os, matcher_results[i].issues);
      os << '}';
    }
    os << "]},\"explorations\":[";
    for (usize i = 0; i < explorations.size(); ++i) {
      const auto& e = explorations[i];
      if (i) os << ',';
      os << "{\"scenario\":";
      json_escape(os, e.scenario);
      os << ",\"nranks\":" << e.nranks << ",\"runs\":" << e.runs
         << ",\"decisions\":" << e.decisions
         << ",\"branch_points\":" << e.branch_points
         << ",\"pruned\":" << e.pruned
         << ",\"budget_hit\":" << (e.budget_hit ? "true" : "false")
         << ",\"deterministic\":" << (e.deterministic ? "true" : "false")
         << ",\"issues\":";
      json_string_list(os, e.issues);
      os << ",\"counterexample\":";
      json_int_list(os, e.counterexample);
      os << '}';
    }
    os << "],\"mutations\":[";
    for (usize i = 0; i < mutations.size(); ++i) {
      const auto& m = mutations[i];
      if (i) os << ',';
      os << "{\"scenario\":";
      json_escape(os, m.scenario);
      os << ",\"mutation\":";
      json_escape(os, m.mutation);
      os << ",\"caught\":" << (m.caught ? "true" : "false") << ",\"kind\":";
      json_escape(os, m.kind);
      os << ",\"runs\":" << m.runs << ",\"counterexample\":";
      json_int_list(os, m.counterexample);
      os << '}';
    }
    os << "]}\n";
    std::cout << "model report written to " << json_path << "\n";
  }

  return failed ? 1 : 0;
}
