// RunLedger and differential-profiler tests: ledger distillation from a
// traced sort (phase / op-class / counter reconciliation, model-charge
// invariants), deterministic JSON serialization, the least-squares fit
// never losing to the probe surrogate (test-enforced round-trip), the
// calibration export's clamping, and the enabled-but-empty trace edge case
// (valid exports, zero-sum Gini guard).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/histogram_sort.h"
#include "obs/features.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "runtime/comm.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds {
namespace {

using runtime::Comm;
using runtime::Team;
using runtime::TeamConfig;

constexpr usize kKeysPerRank = 3000;

/// One traced histogram sort; the (Team, RunLedger) pair under test.
struct LedgeredRun {
  std::unique_ptr<Team> team;
  obs::RunLedger ledger;
  Team& tm() { return *team; }
};

LedgeredRun make_ledgered_sort(int P, u64 seed, core::SortConfig scfg = {}) {
  TeamConfig cfg;
  cfg.nranks = P;
  cfg.trace = true;
  LedgeredRun run{std::make_unique<Team>(cfg), {}};
  run.tm().run([&](Comm& c) {
    workload::GenConfig gen;
    gen.seed = seed;
    auto local =
        workload::generate_u64(gen, c.rank(), c.size(), kKeysPerRank);
    core::sort(c, local, scfg);
  });
  const obs::TraceReport* trace = run.tm().trace();
  EXPECT_NE(trace, nullptr);
  run.ledger = obs::RunLedger::from_trace(*trace, run.tm().cost());
  run.ledger.bench = "test";
  run.ledger.total_elements = static_cast<u64>(P) * kKeysPerRank;
  return run;
}

TEST(RunLedgerTest, DistillsTraceTotalsFaithfully) {
  const int P = 16;
  LedgeredRun run = make_ledgered_sort(P, 3);
  const obs::TraceReport& trace = *run.tm().trace();
  const obs::RunLedger& led = run.ledger;

  EXPECT_EQ(led.nranks, P);
  EXPECT_EQ(led.makespan_s, trace.makespan_s);
  ASSERT_EQ(led.phase_s.size(), static_cast<usize>(P));
  for (int r = 0; r < P; ++r)
    EXPECT_EQ(led.phase_s[static_cast<usize>(r)],
              trace.clock_phase_s[static_cast<usize>(r)]);

  // Op-class totals re-derived independently from the raw slices.
  std::array<u64, obs::kOpClassCount> count{}, bytes{};
  std::array<double, obs::kOpClassCount> slice_s{}, model_s{};
  usize samples = 0;
  for (const auto& evs : trace.events) {
    for (const obs::TraceEvent& e : evs) {
      const auto c = static_cast<usize>(e.cls);
      count[c] += 1;
      bytes[c] += e.bytes;
      slice_s[c] += e.t1 - e.t0;
      model_s[c] += e.model_s;
      if (e.cls != obs::OpClass::None && e.cls != obs::OpClass::Compute)
        ++samples;
    }
  }
  EXPECT_EQ(led.samples.size(), samples);
  ASSERT_GT(samples, 0u);
  for (usize c = 0; c < obs::kOpClassCount; ++c) {
    EXPECT_EQ(led.op_class[c].count, count[c]) << obs::op_class_name(
        static_cast<obs::OpClass>(c));
    EXPECT_EQ(led.op_class[c].bytes, bytes[c]);
    EXPECT_NEAR(led.op_class[c].slice_s, slice_s[c], 1e-12);
    EXPECT_NEAR(led.op_class[c].model_s, model_s[c], 1e-12);
  }
  // A real sort exercises the histogram allreduces and the data exchange.
  EXPECT_GT(led.op_class[static_cast<usize>(obs::OpClass::Tree)].count, 0u);
  EXPECT_GT(
      led.op_class[static_cast<usize>(obs::OpClass::Alltoall)].bytes, 0u);

  // Counters are summed over ranks.
  u64 iters = 0;
  for (int r = 0; r < P; ++r)
    iters += run.tm().metrics(r).value(obs::Counter::HistogramIterations);
  EXPECT_EQ(
      led.counters[static_cast<usize>(obs::Counter::HistogramIterations)],
      iters);

  // Timeline spans are phase-disjoint entries in start order, inside the
  // run's [0, makespan] window.
  ASSERT_FALSE(led.timeline.empty());
  double prev_t0 = -1.0;
  for (const obs::SuperstepSpan& s : led.timeline) {
    EXPECT_LE(s.t0, s.t1);
    EXPECT_GE(s.t0, prev_t0);
    EXPECT_LE(s.t1, led.makespan_s + 1e-12);
    prev_t0 = s.t0;
  }
}

TEST(RunLedgerTest, ModelChargeNeverExceedsSliceSpan) {
  LedgeredRun run = make_ledgered_sort(8, 5);
  ASSERT_FALSE(run.ledger.samples.empty());
  for (const obs::OpSample& s : run.ledger.samples) {
    EXPECT_LE(s.model_s, s.slice_s + 1e-12)
        << obs::op_class_name(s.cls) << " bytes=" << s.bytes;
    EXPECT_GE(s.model_s, 0.0);
  }
  // Receives are never charged by the model: their cost is all wait.
  for (const obs::OpSample& s : run.ledger.samples) {
    if (s.cls == obs::OpClass::Recv) {
      EXPECT_EQ(s.model_s, 0.0);
    }
  }
}

TEST(RunLedgerTest, JsonIsDeterministicAndVersioned) {
  auto serialize = [] {
    LedgeredRun run = make_ledgered_sort(8, 11);
    run.ledger.config = {{"key_type", "u64"}};
    run.ledger.scalars = {{"sim_makespan_s", run.ledger.makespan_s}};
    obs::attach_features(run.ledger, run.tm().cost());
    std::ostringstream os;
    run.ledger.write_json(os);
    return os.str();
  };
  const std::string a = serialize();
  EXPECT_EQ(a, serialize());
  EXPECT_NE(a.find("\"schema\":\"hds-run-ledger\""), std::string::npos);
  EXPECT_NE(a.find("\"version\":1"), std::string::npos);
  EXPECT_NE(a.find("\"machine\""), std::string::npos);
  EXPECT_NE(a.find("\"net_alpha_s\""), std::string::npos);
  EXPECT_NE(a.find("\"op_classes\""), std::string::npos);
  EXPECT_NE(a.find("\"samples\""), std::string::npos);
  EXPECT_NE(a.find("\"timeline\""), std::string::npos);
  EXPECT_NE(a.find("\"features\""), std::string::npos);
  EXPECT_NE(a.find("\"sim_makespan_s\""), std::string::npos);
}

// The acceptance round-trip: on a traced P=16 sort, the least-squares fit
// must not lose to the probe surrogate — per class and in total. The probe
// surrogate is itself a feasible linear predictor, so a correct fit can
// only tie or win; a regression here means the fit or the sampling broke.
TEST(DifferentialProfiler, FitReducesAttributionErrorVsDefaults) {
  LedgeredRun run = make_ledgered_sort(16, 17);
  obs::attach_features(run.ledger, run.tm().cost());
  const obs::CostFeatures& ft = run.ledger.features;
  ASSERT_GE(ft.fits.size(), 2u);  // tree + alltoall at minimum
  for (const obs::ClassFit& f : ft.fits) {
    EXPECT_LE(f.err2_fit, f.err2_default + 1e-18)
        << obs::op_class_name(f.cls);
    EXPECT_EQ(f.count,
              run.ledger.op_class[static_cast<usize>(f.cls)].count);
    EXPECT_EQ(f.bytes,
              run.ledger.op_class[static_cast<usize>(f.cls)].bytes);
    EXPECT_TRUE(std::isfinite(f.alpha_s));
    EXPECT_TRUE(std::isfinite(f.per_byte_s));
  }
  EXPECT_LE(ft.total_err2_fit, ft.total_err2_default + 1e-18);
  EXPECT_GT(ft.total_err2_default, 0.0);  // the default model is not exact

  // The attribution table reports every fitted class.
  const std::string table = obs::attribution_table(run.ledger);
  EXPECT_NE(table.find("P=16"), std::string::npos);
  for (const obs::ClassFit& f : ft.fits)
    EXPECT_NE(table.find(obs::op_class_name(f.cls)), std::string::npos);
}

TEST(DifferentialProfiler, ComputeFeaturesMatchPhaseComputeSeconds) {
  LedgeredRun run = make_ledgered_sort(8, 23);
  obs::attach_features(run.ledger, run.tm().cost());
  const obs::RunLedger& led = run.ledger;
  const double elems =
      static_cast<double>(led.total_elements) * led.data_scale;
  EXPECT_NEAR(
      led.features.radix_s_per_elem,
      led.compute_phase_s[static_cast<usize>(net::Phase::LocalSort)] / elems,
      1e-18);
  EXPECT_GT(led.features.radix_s_per_elem, 0.0);
}

TEST(DifferentialProfiler, CalibrationJsonClampsToNonNegative) {
  LedgeredRun run = make_ledgered_sort(16, 29);
  obs::attach_features(run.ledger, run.tm().cost());
  std::ostringstream os;
  obs::write_calibration_json(os, run.ledger);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"hds-calibration\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"radix_s_per_elem\":"), std::string::npos);
  // Clamping: no value may serialize as negative (exponents like "e-06"
  // are fine; a negative value would read ":-").
  EXPECT_EQ(json.find(":-"), std::string::npos)
      << "calibration must clamp fitted constants at zero:\n"
      << json;
}

// ---------------------------------------------------------------------------
// Enabled-but-empty traces: every export must stay well-formed.

TEST(EmptyTrace, ExportsAreValidAndGiniGuarded) {
  TeamConfig cfg;
  cfg.nranks = 4;
  cfg.trace = true;
  Team team(cfg);
  team.run([](Comm&) {});  // no ops, no clock advance

  const obs::TraceReport* trace = team.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->total_events(), 0u);

  // Chrome JSON: rank metadata present, zero slices, structurally closed.
  std::ostringstream os;
  trace->write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 3\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"hds\":{\"ranks\":4"), std::string::npos);
  const auto opens = std::count(json.begin(), json.end(), '{');
  const auto closes = std::count(json.begin(), json.end(), '}');
  EXPECT_EQ(opens, closes);

  // All-zero matrix: the Gini closed form must not divide by the zero sum.
  const obs::CommMatrix m = trace->comm_matrix();
  EXPECT_EQ(m.total(true), 0u);
  EXPECT_EQ(m.gini(), 0.0);
  EXPECT_FALSE(m.summary().empty());

  // The ledger of an empty run: no samples, zero tables, writable JSON,
  // and a fit pass that produces no class rows.
  obs::RunLedger led = obs::RunLedger::from_trace(*trace, team.cost());
  EXPECT_TRUE(led.samples.empty());
  EXPECT_TRUE(led.timeline.empty());
  obs::attach_features(led, team.cost());
  EXPECT_TRUE(led.features.fits.empty());
  EXPECT_EQ(led.features.total_err2_fit, 0.0);
  std::ostringstream ledger_os;
  led.write_json(ledger_os);
  EXPECT_NE(ledger_os.str().find("\"schema\":\"hds-run-ledger\""),
            std::string::npos);
  EXPECT_FALSE(obs::attribution_table(led).empty());
}

TEST(EmptyTrace, PartiallyShorterPerRankVectorsDoNotCrashExports) {
  // Defensive-export regression: a report whose per-rank vectors are
  // shorter than nranks (e.g. hand-assembled by tooling) must truncate
  // gracefully instead of reading out of bounds.
  obs::TraceReport trace;
  trace.nranks = 4;
  trace.makespan_s = 0.0;
  trace.events.resize(2);   // 2 of 4 ranks
  trace.details.resize(1);  // 1 of 4
  // clock_phase_s and metrics left empty entirely.
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"rank 3\""), std::string::npos);
  EXPECT_NE(json.find("\"clock_phase_seconds\":["), std::string::npos);
  const obs::CommMatrix m = trace.comm_matrix();
  EXPECT_EQ(m.nranks, 4);
  EXPECT_EQ(m.total(true), 0u);
  EXPECT_EQ(m.gini(), 0.0);
}

}  // namespace
}  // namespace hds
