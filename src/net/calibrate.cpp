#include "net/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/radix_sort.h"

namespace hds::net {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

CalibrationResult measure_host_constants(usize elements) {
  HDS_CHECK(elements >= 1024);
  CalibrationResult cal;
  Xoshiro256 rng(0xca11b8a7e);
  std::vector<u64> base(elements);
  for (auto& v : base) v = rng();
  const double n = static_cast<double>(elements);
  const double logn = std::log2(n);

  {
    auto data = base;
    const auto t0 = std::chrono::steady_clock::now();
    std::sort(data.begin(), data.end());
    cal.sort_s_per_elem_log = seconds_since(t0) / (n * logn);
  }
  {
    auto a = base;
    std::sort(a.begin(), a.begin() + elements / 2);
    std::sort(a.begin() + elements / 2, a.end());
    std::vector<u64> out(elements);
    const auto t0 = std::chrono::steady_clock::now();
    std::merge(a.begin(), a.begin() + elements / 2,
               a.begin() + elements / 2, a.end(), out.begin());
    cal.merge_s_per_elem = seconds_since(t0) / n;
  }
  {
    auto data = base;
    const u64 pivot = ~u64{0} / 2;
    const auto t0 = std::chrono::steady_clock::now();
    (void)std::partition(data.begin(), data.end(),
                         [&](u64 v) { return v < pivot; });
    cal.partition_s_per_elem = seconds_since(t0) / n;
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    u64 acc = 0;
    for (u64 v : base) acc += v;
    cal.scan_s_per_elem = seconds_since(t0) / n;
    // Keep the compiler from dropping the loop.
    if (acc == 0x123456789abcdefULL) cal.scan_s_per_elem += 1e-18;
  }
  {
    // Radix kernel: the model charges one pass per modelled 8-bit digit
    // (RadixSortStats::passes_executed, the digits that vary; all 8 for
    // full-range u64 keys), not per physical scatter of the kernel. So the
    // constant is t / (n * modelled passes) after deducting the
    // histogram-building read the cost model charges separately as a scan.
    auto data = base;
    const auto t0 = std::chrono::steady_clock::now();
    const core::RadixSortStats st = core::radix_sort_keys(data);
    const double t = seconds_since(t0);
    const double passes = static_cast<double>(
        st.passes_executed > 0 ? st.passes_executed : st.passes_planned);
    cal.radix_s_per_elem_pass =
        std::max(1e-12, (t - cal.scan_s_per_elem * n) / (n * passes));
    HDS_CHECK(std::is_sorted(data.begin(), data.end()));
  }
  {
    auto data = base;
    std::sort(data.begin(), data.end());
    const usize probes = 4096;
    u64 acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    Xoshiro256 prng(7);
    for (usize i = 0; i < probes; ++i) {
      acc += static_cast<u64>(
          std::lower_bound(data.begin(), data.end(), prng()) - data.begin());
    }
    cal.binsearch_s_per_step = seconds_since(t0) / (probes * logn);
    if (acc == 0xdeadULL) cal.binsearch_s_per_step += 1e-18;
  }
  return cal;
}

void apply_calibration(MachineModel& machine, const CalibrationResult& cal) {
  HDS_CHECK(cal.sort_s_per_elem_log > 0.0);
  machine.sort_s_per_elem_log = cal.sort_s_per_elem_log;
  // Older CalibrationResult literals may not carry a radix measurement;
  // keep the model default in that case.
  if (cal.radix_s_per_elem_pass > 0.0)
    machine.radix_s_per_elem_pass = cal.radix_s_per_elem_pass;
  machine.merge_s_per_elem = cal.merge_s_per_elem;
  machine.partition_s_per_elem = cal.partition_s_per_elem;
  machine.scan_s_per_elem = cal.scan_s_per_elem;
  machine.binsearch_s_per_step = cal.binsearch_s_per_step;
}

}  // namespace hds::net
