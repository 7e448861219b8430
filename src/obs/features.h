// Differential profiler: replays a RunLedger against the CostModel's
// linearized per-class surrogates (net::CostModel::probe_*) and fits the
// run's own per-class (alpha, beta) constants by least squares over the
// ledger's samples (x = payload bytes, y = charged model seconds).
//
// The output is twofold:
//   - attribution_table(): a human-readable per-op-class table of model
//     error — count, volume, charged vs waited seconds, surrogate error vs
//     fitted error — turning the aggregate <=1e-9 reconciliation the obs
//     tests enforce into per-class attribution;
//   - write_calibration_json(): the fitted constants (clamped to >= 0) plus
//     the derived compute features, in the hds-calibration schema the
//     ROADMAP-4 Tuner consumes.
//
// The least-squares fit minimizes squared residuals over all linear
// predictors, and the probe surrogate is one such predictor — so
// total_err2_fit <= total_err2_default holds by construction, and the
// fitted-constants round-trip test (test_obs_ledger.cpp) asserts the strict
// version on a traced sort.
#pragma once

#include <iosfwd>
#include <string>

#include "net/cost_model.h"
#include "obs/ledger.h"

namespace hds::obs {

/// Fit per-class constants from `ledger.samples` and compare them against
/// the model's probe surrogates (evaluated for the ledger's P / node
/// placement). Returns one ClassFit per class that recorded samples.
CostFeatures fit_features(const RunLedger& ledger, const net::CostModel& cost);

/// fit_features + store the result into the ledger (sets has_features).
void attach_features(RunLedger& ledger, const net::CostModel& cost);

/// Render the per-op-class attribution table (requires attach_features).
std::string attribution_table(const RunLedger& ledger);

/// Emit the hds-calibration JSON document from a ledger with features
/// attached: fitted alpha/beta per class (clamped to >= 0) and radix and
/// merge seconds-per-element.
void write_calibration_json(std::ostream& os, const RunLedger& ledger);

}  // namespace hds::obs
