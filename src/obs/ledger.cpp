#include "obs/ledger.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "net/machine.h"

namespace hds::obs {

namespace {

void put(std::ostream& os, double v) { os << std::setprecision(17) << v; }

void put_str(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

RunLedger RunLedger::from_trace(const TraceReport& trace,
                                const net::CostModel& cost) {
  RunLedger led;
  const net::MachineModel& m = cost.machine();
  led.nranks = trace.nranks;
  led.nodes = m.nodes;
  led.ranks_per_node = m.ranks_per_node;
  led.data_scale = cost.data_scale();
  led.makespan_s = trace.makespan_s;
  led.phase_s = trace.clock_phase_s;

  led.machine = {
      {"net_alpha_s", m.net_alpha_s},
      {"net_bandwidth_Bps", m.net_bandwidth_Bps},
      {"bisection_Bps", m.bisection_Bps},
      {"coll_stage_overhead_s", m.coll_stage_overhead_s},
      {"alltoall_efficiency", m.alltoall_efficiency},
      {"mem_alpha_s", m.mem_alpha_s},
      {"memcpy_Bps", m.memcpy_Bps},
      {"numa_Bps", m.numa_Bps},
      {"numa_fabric_Bps", m.numa_fabric_Bps},
      {"sort_s_per_elem_log", m.sort_s_per_elem_log},
      {"radix_s_per_elem_pass", m.radix_s_per_elem_pass},
      {"merge_s_per_elem", m.merge_s_per_elem},
      {"heap_merge_s_per_elem_log", m.heap_merge_s_per_elem_log},
      {"heap_merge_cache_s_per_elem", m.heap_merge_cache_s_per_elem},
      {"partition_s_per_elem", m.partition_s_per_elem},
      {"scan_s_per_elem", m.scan_s_per_elem},
      {"binsearch_s_per_step", m.binsearch_s_per_step},
      {"intra_node_shortcut", m.intra_node_shortcut ? 1.0 : 0.0},
      {"checkpoint_overlap_residue", m.checkpoint_overlap_residue},
      {"fault_detect_s", m.fault_detect_s},
      {"agree_stage_s", m.agree_stage_s},
  };

  // Per-class totals, fit samples, and the phase timeline — one pass over
  // every rank's slices. Per-rank vectors may be shorter than nranks for an
  // enabled-but-empty run; missing ranks contribute nothing.
  std::array<SuperstepSpan, net::kPhaseCount> span{};
  std::array<bool, net::kPhaseCount> seen{};
  const usize have =
      std::min(static_cast<usize>(std::max(trace.nranks, 0)),
               trace.events.size());
  for (usize r = 0; r < have; ++r) {
    for (const TraceEvent& e : trace.events[r]) {
      const auto ci = static_cast<usize>(e.cls);
      if (ci < kOpClassCount) {
        OpClassStats& s = led.op_class[ci];
        s.count += 1;
        s.bytes += e.bytes;
        s.slice_s += e.t1 - e.t0;
        s.model_s += e.model_s;
        s.max_slice_s = std::max(s.max_slice_s, e.t1 - e.t0);
      }
      if (e.cls != OpClass::None && e.cls != OpClass::Compute)
        led.samples.push_back(OpSample{e.cls, e.bytes, e.model_s,
                                       e.t1 - e.t0});
      const auto pi = static_cast<usize>(e.phase);
      if (e.op == OpKind::Compute) led.compute_phase_s[pi] += e.t1 - e.t0;
      if (!seen[pi]) {
        span[pi] = SuperstepSpan{e.phase, e.t0, e.t1};
        seen[pi] = true;
      } else {
        span[pi].t0 = std::min(span[pi].t0, e.t0);
        span[pi].t1 = std::max(span[pi].t1, e.t1);
      }
    }
  }
  for (usize p = 0; p < net::kPhaseCount; ++p)
    if (seen[p]) led.timeline.push_back(span[p]);
  std::sort(led.timeline.begin(), led.timeline.end(),
            [](const SuperstepSpan& a, const SuperstepSpan& b) {
              return a.t0 < b.t0;
            });

  const usize have_metrics =
      std::min(static_cast<usize>(std::max(trace.nranks, 0)),
               trace.metrics.size());
  for (usize r = 0; r < have_metrics; ++r) {
    for (usize c = 0; c < kCounterCount; ++c)
      led.counters[c] += trace.metrics[r].value(static_cast<Counter>(c));
  }
  return led;
}

void RunLedger::write_json(std::ostream& os) const {
  os << "{\"schema\":\"hds-run-ledger\",\"version\":" << kVersion << ",\n";
  os << "\"bench\":";
  put_str(os, bench);
  os << ",\"nranks\":" << nranks << ",\"nodes\":" << nodes
     << ",\"ranks_per_node\":" << ranks_per_node << ",\"data_scale\":";
  put(os, data_scale);
  os << ",\"makespan_s\":";
  put(os, makespan_s);
  os << ",\"total_elements\":" << total_elements << ",\n";

  os << "\"config\":{";
  for (usize i = 0; i < config.size(); ++i) {
    if (i > 0) os << ",";
    put_str(os, config[i].first);
    os << ":";
    put_str(os, config[i].second);
  }
  os << "},\n\"machine\":{";
  for (usize i = 0; i < machine.size(); ++i) {
    if (i > 0) os << ",";
    put_str(os, machine[i].first);
    os << ":";
    put(os, machine[i].second);
  }
  os << "},\n\"phases\":[";
  for (usize p = 0; p < net::kPhaseCount; ++p) {
    if (p > 0) os << ",";
    os << "\"" << net::phase_name(static_cast<net::Phase>(p)) << "\"";
  }
  os << "],\n\"phase_seconds\":[";
  for (usize r = 0; r < phase_s.size(); ++r) {
    if (r > 0) os << ",";
    os << "[";
    for (usize p = 0; p < net::kPhaseCount; ++p) {
      if (p > 0) os << ",";
      put(os, phase_s[r][p]);
    }
    os << "]";
  }
  os << "],\n\"compute_phase_seconds\":[";
  for (usize p = 0; p < net::kPhaseCount; ++p) {
    if (p > 0) os << ",";
    put(os, compute_phase_s[p]);
  }
  os << "],\n\"op_classes\":{";
  bool first = true;
  for (usize c = 0; c < kOpClassCount; ++c) {
    const OpClassStats& s = op_class[c];
    if (s.count == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\n\"" << op_class_name(static_cast<OpClass>(c))
       << "\":{\"count\":" << s.count << ",\"bytes\":" << s.bytes
       << ",\"slice_s\":";
    put(os, s.slice_s);
    os << ",\"model_s\":";
    put(os, s.model_s);
    os << ",\"max_slice_s\":";
    put(os, s.max_slice_s);
    os << "}";
  }
  os << "},\n\"samples\":[";
  for (usize i = 0; i < samples.size(); ++i) {
    if (i > 0) os << ",";
    if (i % 8 == 0) os << "\n";
    os << "[" << static_cast<u32>(samples[i].cls) << "," << samples[i].bytes
       << ",";
    put(os, samples[i].model_s);
    os << ",";
    put(os, samples[i].slice_s);
    os << "]";
  }
  os << "],\n\"timeline\":[";
  for (usize i = 0; i < timeline.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"phase\":\"" << net::phase_name(timeline[i].phase)
       << "\",\"t0\":";
    put(os, timeline[i].t0);
    os << ",\"t1\":";
    put(os, timeline[i].t1);
    os << "}";
  }
  os << "],\n\"counters\":{";
  for (usize c = 0; c < kCounterCount; ++c) {
    if (c > 0) os << ",";
    os << "\"" << counter_name(static_cast<Counter>(c))
       << "\":" << counters[c];
  }
  os << "},\n\"scalars\":{";
  for (usize i = 0; i < scalars.size(); ++i) {
    if (i > 0) os << ",";
    put_str(os, scalars[i].first);
    os << ":";
    put(os, scalars[i].second);
  }
  os << "}";
  if (has_features) {
    os << ",\n\"features\":{\"radix_s_per_elem\":";
    put(os, features.radix_s_per_elem);
    os << ",\"merge_s_per_elem\":";
    put(os, features.merge_s_per_elem);
    os << ",\"total_err2_fit\":";
    put(os, features.total_err2_fit);
    os << ",\"total_err2_default\":";
    put(os, features.total_err2_default);
    os << ",\n\"classes\":{";
    for (usize i = 0; i < features.fits.size(); ++i) {
      const ClassFit& f = features.fits[i];
      if (i > 0) os << ",";
      os << "\n\"" << op_class_name(f.cls) << "\":{\"count\":" << f.count
         << ",\"bytes\":" << f.bytes << ",\"alpha_s\":";
      put(os, f.alpha_s);
      os << ",\"per_byte_s\":";
      put(os, f.per_byte_s);
      os << ",\"default_alpha_s\":";
      put(os, f.default_alpha_s);
      os << ",\"default_per_byte_s\":";
      put(os, f.default_per_byte_s);
      os << ",\"err2_fit\":";
      put(os, f.err2_fit);
      os << ",\"err2_default\":";
      put(os, f.err2_default);
      os << ",\"abs_err_fit\":";
      put(os, f.abs_err_fit);
      os << ",\"abs_err_default\":";
      put(os, f.abs_err_default);
      os << "}";
    }
    os << "}}";
  }
  os << "}\n";
}

}  // namespace hds::obs
