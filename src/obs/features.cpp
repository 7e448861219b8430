#include "obs/features.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/table.h"
#include "net/machine.h"

namespace hds::obs {

namespace {

void put(std::ostream& os, double v) { os << std::setprecision(17) << v; }

std::string sci(double v) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(3) << v;
  return os.str();
}

/// The model's linear surrogate for one op class, evaluated for the
/// ledger's rank count and node placement.
net::OpCost class_default(OpClass cls, const RunLedger& led,
                          const net::CostModel& cost) {
  const int P = std::max(led.nranks, 1);
  const int rpn = std::max(led.ranks_per_node, 1);
  const int ns = std::max(1, std::min(led.nodes, (P + rpn - 1) / rpn));
  switch (cls) {
    case OpClass::Sync: return cost.probe_sync(P, ns);
    case OpClass::Tree: return cost.probe_tree(P, ns, net::Traffic::Control);
    case OpClass::Gather:
      return cost.probe_gather(P, ns, net::Traffic::Control);
    case OpClass::Alltoall: {
      std::vector<rank_t> members(static_cast<usize>(P));
      std::iota(members.begin(), members.end(), rank_t{0});
      return cost.probe_alltoall(members, net::Traffic::Data);
    }
    case OpClass::Send:
      return cost.probe_p2p(0, static_cast<rank_t>(P - 1),
                            net::Traffic::Data);
    case OpClass::Recovery:
      return net::OpCost{cost.detect_and_agree(P), 0.0};
    case OpClass::Checkpoint: {
      // Buddy checkpoints charge the overlap residue of a neighbor p2p;
      // secant it like the probes do.
      const rank_t buddy = P > 1 ? 1 : 0;
      const double a0 = cost.checkpoint(0, buddy, 0, net::Traffic::Data);
      const double a1 =
          cost.checkpoint(0, buddy, 64 * 1024, net::Traffic::Data);
      return net::OpCost{a0, (a1 - a0) / (64.0 * 1024.0)};
    }
    case OpClass::None:
    case OpClass::Recv:
    case OpClass::Compute: return net::OpCost{};
  }
  return net::OpCost{};
}

}  // namespace

CostFeatures fit_features(const RunLedger& ledger,
                          const net::CostModel& cost) {
  CostFeatures out;

  // One least-squares pass per class: y = alpha + beta * bytes against the
  // charged model seconds. Accumulate moments first.
  struct Moments {
    usize n = 0;
    u64 bytes = 0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  };
  std::array<Moments, kOpClassCount> mom{};
  for (const OpSample& s : ledger.samples) {
    Moments& m = mom[static_cast<usize>(s.cls)];
    const auto x = static_cast<double>(s.bytes);
    m.n += 1;
    m.bytes += s.bytes;
    m.sx += x;
    m.sy += s.model_s;
    m.sxx += x * x;
    m.sxy += x * s.model_s;
  }

  for (usize c = 0; c < kOpClassCount; ++c) {
    const Moments& m = mom[c];
    if (m.n == 0) continue;
    ClassFit f;
    f.cls = static_cast<OpClass>(c);
    f.count = m.n;
    f.bytes = m.bytes;
    const double n = static_cast<double>(m.n);
    const double var = m.sxx - m.sx * m.sx / n;
    // Degenerate byte spread (all samples the same size, or n < 2): the
    // slope is unidentifiable — fall back to beta = 0, alpha = mean.
    if (m.n >= 2 && var > 0.0) {
      f.per_byte_s = (m.sxy - m.sx * m.sy / n) / var;
      f.alpha_s = (m.sy - f.per_byte_s * m.sx) / n;
    } else {
      f.per_byte_s = 0.0;
      f.alpha_s = m.sy / n;
    }
    const net::OpCost def = class_default(f.cls, ledger, cost);
    f.default_alpha_s = def.alpha_s;
    f.default_per_byte_s = def.per_byte_s;
    out.fits.push_back(f);
  }

  // Residual pass.
  for (const OpSample& s : ledger.samples) {
    for (ClassFit& f : out.fits) {
      if (f.cls != s.cls) continue;
      const auto x = static_cast<double>(s.bytes);
      const double rf = s.model_s - (f.alpha_s + f.per_byte_s * x);
      const double rd =
          s.model_s - (f.default_alpha_s + f.default_per_byte_s * x);
      f.err2_fit += rf * rf;
      f.err2_default += rd * rd;
      f.abs_err_fit += std::abs(rf);
      f.abs_err_default += std::abs(rd);
      break;
    }
  }
  for (const ClassFit& f : out.fits) {
    out.total_err2_fit += f.err2_fit;
    out.total_err2_default += f.err2_default;
  }

  // Compute features. Charges use scaled element counts, so normalize by
  // the scaled total to recover the per-element constants.
  const double scaled_elems =
      static_cast<double>(ledger.total_elements) * ledger.data_scale;
  if (scaled_elems > 0.0) {
    out.radix_s_per_elem =
        ledger.compute_phase_s[static_cast<usize>(net::Phase::LocalSort)] /
        scaled_elems;
    out.merge_s_per_elem =
        ledger.compute_phase_s[static_cast<usize>(net::Phase::Merge)] /
        scaled_elems;
  }
  return out;
}

void attach_features(RunLedger& ledger, const net::CostModel& cost) {
  ledger.features = fit_features(ledger, cost);
  ledger.has_features = true;
}

std::string attribution_table(const RunLedger& ledger) {
  Table t({"class", "ops", "bytes", "model_s", "wait_s", "alpha_fit",
           "beta_fit", "alpha_model", "beta_model", "err_model", "err_fit"});
  for (const ClassFit& f : ledger.features.fits) {
    const OpClassStats& s = ledger.op_class[static_cast<usize>(f.cls)];
    t.add_row({std::string(op_class_name(f.cls)), std::to_string(f.count),
               fmt_bytes(static_cast<double>(f.bytes)), sci(s.model_s),
               sci(s.slice_s - s.model_s), sci(f.alpha_s), sci(f.per_byte_s),
               sci(f.default_alpha_s), sci(f.default_per_byte_s),
               sci(f.abs_err_default), sci(f.abs_err_fit)});
  }
  std::ostringstream os;
  os << "differential profile (" << ledger.bench << ", P=" << ledger.nranks
     << "): model err " << sci(ledger.features.total_err2_default)
     << " -> fitted " << sci(ledger.features.total_err2_fit)
     << " (sum sq s^2)\n"
     << t.to_string();
  return os.str();
}

void write_calibration_json(std::ostream& os, const RunLedger& ledger) {
  const CostFeatures& ft = ledger.features;
  os << "{\"schema\":\"hds-calibration\",\"version\":1,\"bench\":\""
     << ledger.bench << "\",\"nranks\":" << ledger.nranks << ",\n";
  os << "\"radix_s_per_elem\":";
  put(os, ft.radix_s_per_elem);
  os << ",\"merge_s_per_elem\":";
  put(os, ft.merge_s_per_elem);
  os << ",\n\"classes\":{";
  for (usize i = 0; i < ft.fits.size(); ++i) {
    const ClassFit& f = ft.fits[i];
    if (i > 0) os << ",";
    // Constants feed the Tuner's predictor: negative latency or bandwidth
    // would be nonsense there, so clamp at the export boundary (the
    // unclamped values stay in the ledger for error accounting).
    os << "\n\"" << op_class_name(f.cls) << "\":{\"alpha_s\":";
    put(os, std::max(f.alpha_s, 0.0));
    os << ",\"per_byte_s\":";
    put(os, std::max(f.per_byte_s, 0.0));
    os << ",\"count\":" << f.count << "}";
  }
  os << "}}\n";
}

}  // namespace hds::obs
