// Observability tests: the per-rank event tracer (ordering, reconciliation
// against SimClock phase sums, zero overhead when disabled), the Chrome
// trace JSON export, the communication matrix, the counter/series registry,
// and the watchdog's recent-ops ring dump.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/hss_sort.h"
#include "baselines/parallel_merge_sort.h"
#include "core/histogram_sort.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds {
namespace {

using runtime::Comm;
using runtime::Team;
using runtime::TeamConfig;

/// One traced histogram-sort run; per-rank SortStats land in `stats_out`.
void run_traced_sort(Team& team, usize keys_per_rank, u64 seed,
                     std::vector<core::SortStats>* stats_out = nullptr) {
  team.run([&](Comm& c) {
    workload::GenConfig gen;
    gen.seed = seed;
    auto local = workload::generate_u64(gen, c.rank(), c.size(),
                                        keys_per_rank);
    const core::SortStats st = core::sort(c, local);
    if (stats_out != nullptr)
      (*stats_out)[static_cast<usize>(c.rank())] = st;
  });
}

TEST(TraceEvents, MonotoneNonOverlappingPerRank) {
  TeamConfig cfg;
  cfg.nranks = 8;
  cfg.trace = true;
  Team team(cfg);
  run_traced_sort(team, 5000, 1);

  const obs::TraceReport* trace = team.trace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->nranks, 8);
  EXPECT_GT(trace->total_events(), 0u);
  for (int r = 0; r < trace->nranks; ++r) {
    const auto& evs = trace->events[static_cast<usize>(r)];
    ASSERT_FALSE(evs.empty());
    double prev_end = 0.0;
    for (const obs::TraceEvent& e : evs) {
      EXPECT_LE(e.t0, e.t1);
      // Slices are chronological and non-overlapping: ops span
      // [entry, exit] and compute slices fill the gaps between them.
      EXPECT_GE(e.t0, prev_end);
      prev_end = e.t1;
    }
    EXPECT_LE(prev_end, trace->makespan_s + 1e-12);
  }
}

TEST(TraceEvents, SlicesReconcileWithClockPhaseSeconds) {
  TeamConfig cfg;
  cfg.nranks = 8;
  cfg.trace = true;
  Team team(cfg);
  run_traced_sort(team, 5000, 2);

  const obs::TraceReport* trace = team.trace();
  ASSERT_NE(trace, nullptr);
  for (int r = 0; r < trace->nranks; ++r) {
    const auto traced = trace->traced_phase_seconds(r);
    const auto& clock = trace->clock_phase_s[static_cast<usize>(r)];
    for (usize p = 0; p < net::kPhaseCount; ++p) {
      EXPECT_NEAR(traced[p], clock[p], 1e-9 * std::max(1.0, clock[p]))
          << "rank " << r << " phase "
          << net::phase_name(static_cast<net::Phase>(p));
    }
  }
}

TEST(TraceEvents, ReportDeterministicForSameSeed) {
  auto serialize = [] {
    TeamConfig cfg;
    cfg.nranks = 8;
    cfg.trace = true;
    Team team(cfg);
    run_traced_sort(team, 4000, 7);
    std::ostringstream os;
    team.trace()->write_chrome_json(os);
    return os.str();
  };
  const std::string a = serialize();
  const std::string b = serialize();
  EXPECT_EQ(a, b);
}

TEST(TraceEvents, DisabledTracerNeverAllocatesEventStorage) {
  obs::RankTracer tracer;
  tracer.set_enabled(false);
  for (int i = 0; i < 100; ++i) {
    tracer.op_begin(obs::OpKind::Barrier, obs::OpClass::Sync,
                    net::Phase::Other, i * 1.0,
                    /*bytes=*/64, /*peer=*/-1, /*tag=*/0,
                    net::Traffic::Control);
    tracer.op_end(i * 1.0 + 0.5);
    tracer.on_advance(net::Phase::Other, i * 1.0 + 0.5, i * 1.0 + 1.0);
  }
  tracer.finalize();
  EXPECT_EQ(tracer.events_capacity(), 0u);
  EXPECT_EQ(tracer.details_capacity(), 0u);
  // The always-on watchdog ring still holds the most recent ops.
  EXPECT_EQ(tracer.ring_snapshot().size(), 16u);
}

TEST(TraceEvents, TracingDoesNotPerturbSimulatedTime) {
  auto run = [](bool trace) {
    TeamConfig cfg;
    cfg.nranks = 8;
    cfg.trace = trace;
    Team team(cfg);
    run_traced_sort(team, 5000, 3);
    std::array<double, net::kPhaseCount + 1> sums{};
    sums[net::kPhaseCount] = team.stats().makespan_s;
    for (usize p = 0; p < net::kPhaseCount; ++p)
      sums[p] = team.stats().phase_seconds(static_cast<net::Phase>(p));
    return sums;
  };
  const auto off = run(false);
  const auto on = run(true);
  for (usize i = 0; i < off.size(); ++i) EXPECT_EQ(off[i], on[i]);

  TeamConfig cfg;
  cfg.nranks = 4;
  Team untraced(cfg);
  run_traced_sort(untraced, 1000, 3);
  EXPECT_EQ(untraced.trace(), nullptr);
}

TEST(ChromeJson, MinimalSchema) {
  TeamConfig cfg;
  cfg.nranks = 4;
  cfg.trace = true;
  Team team(cfg);
  run_traced_sort(team, 2000, 5);

  std::ostringstream os;
  team.trace()->write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Metadata names every rank's track.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 3\""), std::string::npos);
  // Complete ("X") events with timestamp, duration and phase category.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"Histogram\""), std::string::npos);
  // The validation side-channel for scripts.
  EXPECT_NE(json.find("\"hds\":{\"ranks\":4"), std::string::npos);
  EXPECT_NE(json.find("\"clock_phase_seconds\":["), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"comm_matrix_bytes\":["), std::string::npos);
}

TEST(CommMatrixTest, RowSumsMatchOffRankSendVolume) {
  TeamConfig cfg;
  cfg.nranks = 8;
  cfg.machine = net::MachineModel::supermuc_phase2(/*nodes=*/2,
                                                   /*ranks_per_node=*/4);
  cfg.trace = true;
  Team team(cfg);
  std::vector<core::SortStats> stats(8);
  run_traced_sort(team, 5000, 11, &stats);

  const obs::CommMatrix m = team.trace()->comm_matrix(/*data_only=*/true);
  ASSERT_EQ(m.nranks, 8);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(m.row_sum(r),
              stats[static_cast<usize>(r)].elements_sent_off_rank *
                  sizeof(u64))
        << "rank " << r;
  }
  EXPECT_GE(m.gini(), 0.0);
  EXPECT_LE(m.gini(), 1.0);
  EXPECT_GE(m.max_over_mean(), 1.0);
  EXPECT_NE(m.summary().find("P=8"), std::string::npos);
}

TEST(CounterRegistry, MatchesSortStats) {
  TeamConfig cfg;
  cfg.nranks = 8;
  cfg.machine = net::MachineModel::supermuc_phase2(/*nodes=*/2,
                                                   /*ranks_per_node=*/4);
  Team team(cfg);
  std::vector<core::SortStats> stats(8);
  run_traced_sort(team, 5000, 13, &stats);

  for (int r = 0; r < 8; ++r) {
    const obs::Metrics& m = team.metrics(r);
    const core::SortStats& st = stats[static_cast<usize>(r)];
    EXPECT_EQ(m.value(obs::Counter::HistogramIterations),
              st.histogram_iterations);
    EXPECT_EQ(m.value(obs::Counter::SplitterProbes), st.splitter_probes);
    EXPECT_EQ(m.value(obs::Counter::ExchangeBytesOnNode) +
                  m.value(obs::Counter::ExchangeBytesOffNode),
              st.elements_sent_off_rank * sizeof(u64));
    EXPECT_EQ(m.value(obs::Counter::ExchangeElementsKept),
              st.elements_before - st.elements_sent_off_rank);
    // 2 nodes: some traffic must actually leave the node.
    EXPECT_GT(m.value(obs::Counter::ExchangeBytesOffNode), 0u);
  }
}

TEST(CounterRegistry, ConvergenceSeriesEndsResolved) {
  TeamConfig cfg;
  cfg.nranks = 8;
  Team team(cfg);
  std::vector<core::SortStats> stats(8);
  run_traced_sort(team, 5000, 17, &stats);

  const core::SortStats& st = stats[0];
  ASSERT_EQ(st.histogram_convergence.size(), st.histogram_iterations);
  ASSERT_FALSE(st.histogram_convergence.empty());
  // The final round resolves every boundary: max residual error is 0.
  EXPECT_EQ(st.histogram_convergence.back(), 0.0);
  for (double e : st.histogram_convergence) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
  // The per-rank registry carries the same curve (identical on all ranks).
  for (int r = 0; r < 8; ++r) {
    const auto series =
        team.metrics(r).series(obs::Series::HistogramConvergence);
    ASSERT_EQ(series.size(), st.histogram_convergence.size());
    for (usize i = 0; i < series.size(); ++i)
      EXPECT_EQ(series[i], st.histogram_convergence[i]);
  }
}

TEST(CounterRegistry, BaselinesAttributePhasesAwayFromOther) {
  struct Case {
    const char* name;
    void (*run)(Comm&, std::vector<u64>&);
  };
  const Case cases[] = {
      {"hss_sort",
       [](Comm& c, std::vector<u64>& v) { baselines::hss_sort(c, v); }},
      {"parallel_merge_sort",
       [](Comm& c, std::vector<u64>& v) {
         baselines::parallel_merge_sort(c, v);
       }},
  };
  for (const Case& cs : cases) {
    TeamConfig cfg;
    cfg.nranks = 8;
    Team team(cfg);
    team.run([&](Comm& c) {
      workload::GenConfig gen;
      gen.seed = 23;
      auto local = workload::generate_u64(gen, c.rank(), c.size(), 4000);
      cs.run(c, local);
    });
    EXPECT_LT(team.stats().phase_fraction(net::Phase::Other), 0.05)
        << cs.name;
  }
}

TEST(WatchdogDump, AbortDiagnosticIncludesRecentOpsRing) {
  constexpr u64 kTag = 77;
  auto plan = std::make_shared<runtime::FaultPlan>();
  plan->drop_message(0, 1, kTag);
  TeamConfig cfg;
  cfg.nranks = 2;
  cfg.fault = plan;
  cfg.watchdog_timeout_s = 0.3;
  Team team(cfg);
  try {
    team.run([&](Comm& c) {
      c.barrier();  // guarantees the ring has prior completed ops
      if (c.rank() == 0) {
        const std::vector<u64> payload{42};
        c.send(1, kTag, std::span<const u64>(payload));
      } else {
        (void)c.recv<u64>(0, kTag);
      }
      c.barrier();
    });
    FAIL() << "expected watchdog_timeout";
  } catch (const runtime::watchdog_timeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recent ops (oldest first):"), std::string::npos)
        << what;
    EXPECT_NE(what.find("Barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=" + std::to_string(kTag)), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace hds
