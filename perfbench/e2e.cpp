// End-to-end benchmark of the default hds::core::sort on a 4-rank
// runtime::Team, on both performance planes: host time (steady-clock wall
// and CLOCK_THREAD_CPUTIME_ID thread-CPU) and the simulated seconds of the
// src/net cost model. See README.md in this directory for the workloads,
// every metric and the files a run writes.
//
//   hds_e2e --workload bulk-u64 --seed 1 --seconds 30 --trace 0 --out DIR
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// additionally drives the same sort one superstep at a time through
// core::advance_superstep, with spans around each call, and reports the
// per-layer metrics. The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; its end-to-end host times are
// scaled by an in-run machine-speed yardstick (README.md, "Yardstick").
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/histogram_sort.h"
#include "net/machine.h"
#include "obs/report.h"
#include "runtime/comm.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace {

using namespace hds;

/// Ranks per Team: one per core of the 4-core build box. Never more ranks
/// than cores, or host wall time measures the OS scheduler.
constexpr int P = 4;
constexpr usize kLayers = 4;
static_assert(core::kSupersteps == kLayers,
              "the traced sort labels exactly four supersteps");
constexpr std::array<std::string_view, kLayers> kLayerName = {
    "local_sort", "histogram", "exchange", "merge"};
constexpr std::array<net::Phase, kLayers> kLayerPhase = {
    net::Phase::LocalSort, net::Phase::Histogram, net::Phase::Exchange,
    net::Phase::Merge};
/// Seed a claimed gain must also be shown on; never used while tuning.
constexpr u64 kHeldOutSeed = 2;
/// Tail percentile of sort_wall_tail_s. Fixed, so the metric means the same
/// in every run; the timed loop runs until >= 10 samples lie beyond it.
/// Higher percentiles of a ~1 ms sort on a shared VM measure hypervisor
/// steal rather than the sort.
constexpr double kTailQ = 0.90;
/// Wall and summed thread-CPU time of the machine-speed yardstick per 2^20
/// keys per rank on the build box (4-vCPU Xeon VM, low steal): the speed
/// host times are reported at.
constexpr double kYardWallRefPerMi = 0.11;
constexpr double kYardCpuRefPerMi = 0.42;

i64 wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

i64 thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<i64>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double sec(i64 ns) { return static_cast<double>(ns) / 1e9; }

/// 64-byte record of the rec64-skewed workload: a u64 key and 56 payload
/// bytes the sort must carry along untouched.
struct Rec64 {
  u64 key;
  std::array<u8, 56> payload;
};
static_assert(sizeof(Rec64) == 64);

struct RecKey {
  u64 operator()(const Rec64& r) const { return r.key; }
};

/// Hash of the whole element (every byte, not only the key), summed into an
/// order-independent checksum.
template <class T>
u64 element_hash(const T& e) {
  static_assert(sizeof(T) % sizeof(u64) == 0);
  std::array<u64, sizeof(T) / sizeof(u64)> w{};
  std::memcpy(w.data(), &e, sizeof(T));
  u64 h = 0x5eedf00dULL;
  for (u64 x : w) h = hash_mix(h, x);
  return h;
}

template <class T>
u64 checksum(const std::vector<T>& v) {
  u64 s = 0;
  for (const T& e : v) s += element_hash(e);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank q-quantile and the number of samples above its rank.
std::pair<double, usize> quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const usize k = std::max<usize>(
      1, static_cast<usize>(std::ceil(q * static_cast<double>(v.size()))));
  return {v[k - 1], v.size() - k};
}

/// Samples a tail percentile q needs so that >= 10 lie beyond it.
usize tail_floor(double q) {
  return static_cast<usize>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

/// Resident set size of this process, now and at its peak, in KiB.
struct Rss {
  u64 now = 0, peak = 0;
};

Rss rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  Rss r;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) r.now = std::stoull(line.substr(6));
    if (line.rfind("VmHWM:", 0) == 0) r.peak = std::stoull(line.substr(6));
  }
  return r;
}

/// Restart the peak (VmHWM) at the current RSS, so the next reading is the
/// peak of one sort. Where the kernel refuses, the peak stays cumulative.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Share of this VM's CPU time the hypervisor gave to other guests since
/// boot, as (steal seconds, all CPU seconds) from /proc/stat. Host wall
/// time is only comparable between runs with similar steal.
std::pair<double, double> cpu_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    u64 v = 0;
    in >> v;
    total += static_cast<double>(v);
    if (i == 7) steal = static_cast<double>(v);
  }
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return {steal / tick, total / tick};
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string_view name;
  workload::Dist dist;
  bool records;   ///< Rec64 records (sort_balanced) instead of u64 keys (sort)
  usize n_total;  ///< N, elements over all ranks
  std::array<usize, P> layout;  ///< relative input share of each rank
  int nodes;                    ///< modelled supermuc_phase2 allocation
  int ranks_per_node;
};

// Why each workload exists is recorded in README.md; in short: bulk-u64 is
// kernel-bound, hist-fewdistinct histogram- and collective-latency-bound,
// rec64-skewed exchange-bound with records and a skewed layout.
constexpr std::array<Workload, 3> kWorkloads = {{
    {"bulk-u64", workload::Dist::Uniform, false, usize{P} << 20,
     {1, 1, 1, 1}, 1, 4},
    {"hist-fewdistinct", workload::Dist::FewDistinct, false, usize{P} << 12,
     {1, 1, 1, 1}, 4, 1},
    {"rec64-skewed", workload::Dist::Zipf, true, usize{1} << 20,
     {1, 3, 5, 7}, 2, 2},
}};

struct Options {
  const Workload* w = nullptr;
  u64 seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes: N / 256
  std::string out;
};

std::array<usize, P> rank_counts(const Workload& w, usize n_total) {
  usize wsum = 0;
  for (usize x : w.layout) wsum += x;
  std::array<usize, P> n{};
  usize given = 0;
  for (int r = 0; r < P; ++r) {
    n[r] = n_total * w.layout[r] / wsum;
    given += n[r];
  }
  n[P - 1] += n_total - given;
  return n;
}

std::vector<std::vector<u64>> make_keys(const Workload& w, u64 seed,
                                        const std::array<usize, P>& n) {
  workload::GenConfig g;
  g.dist = w.dist;
  g.seed = seed;
  std::vector<std::vector<u64>> in(P);
  for (int r = 0; r < P; ++r) in[r] = workload::generate_u64(g, r, P, n[r]);
  return in;
}

std::vector<std::vector<Rec64>> make_records(const Workload& w, u64 seed,
                                             const std::array<usize, P>& n) {
  const auto keys = make_keys(w, seed, n);
  std::vector<std::vector<Rec64>> in(P);
  for (int r = 0; r < P; ++r) {
    Xoshiro256 rng(hash_mix(seed ^ 0x9a71'0ad5'e11aULL, static_cast<u64>(r)));
    in[r].resize(keys[r].size());
    for (usize i = 0; i < keys[r].size(); ++i) {
      in[r][i].key = keys[r][i];
      for (usize b = 0; b < in[r][i].payload.size(); b += 8) {
        const u64 x = rng();
        std::memcpy(in[r][i].payload.data() + b, &x, 8);
      }
    }
  }
  return in;
}

// --- measurement records -----------------------------------------------------

/// Host and simulated readings at both ends of one call on one rank. Wall is
/// read outside the CPU readings, so wall - cpu >= 0 is the time the call
/// waited (late peers, blocking in collectives).
struct Interval {
  i64 t0 = 0, t1 = 0;  ///< steady clock, ns
  i64 c0 = 0, c1 = 0;  ///< thread-CPU clock, ns
  double s0 = 0, s1 = 0;  ///< rank's SimClock, simulated s

  void begin(runtime::Comm& c) {
    t0 = wall_ns();
    c0 = thread_cpu_ns();
    s0 = c.clock().now();
  }
  void end(runtime::Comm& c) {
    s1 = c.clock().now();
    c1 = thread_cpu_ns();
    t1 = wall_ns();
  }
  i64 wall() const { return t1 - t0; }
  i64 cpu() const { return c1 - c0; }
};

/// One rank's part of one sort.
struct RankSort {
  Interval sort;  ///< traced: ends at the merge exit, so the layers tile it
  std::array<Interval, kLayers> layer{};  ///< traced runs only
  usize calls = 0;       ///< advance_superstep calls (traced runs only)
  usize merge_runs = 0;  ///< non-empty received chunks before the merge
  i64 body_t0 = 0, body_t1 = 0;  ///< rank body of Team::run, wall ns
  core::SortStats stats;
  bool sorted = false;
  u64 sum = 0;  ///< whole-element checksum of the output partition
  usize size = 0;
};

/// One timed sort as kept for the summary and the samples file.
struct Sample {
  i64 wall_ns = 0;  ///< rank 0, barrier exit before to barrier exit after
  std::array<i64, P> cpu_ns{};
  double sim_s = 0;  ///< max over ranks of SimClock at exit - at entry
  u64 peak_rss_kib = 0;  ///< process peak RSS during this sort's Team::run
  bool ok = false;
};

/// A traced sort keeps every rank's spans plus the main thread's.
struct TracedSort {
  Sample s;
  std::array<RankSort, P> rank;
  i64 run_t0 = 0, run_t1 = 0;  ///< Team::run on the main thread
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<u64>(x) == std::bit_cast<u64>(y);
         });
}

bool same_stats(const core::SortStats& a, const core::SortStats& b) {
  return a.histogram_iterations == b.histogram_iterations &&
         a.splitter_probes == b.splitter_probes &&
         a.elements_sent_off_rank == b.elements_sent_off_rank &&
         a.elements_before == b.elements_before &&
         a.elements_after == b.elements_after &&
         same_bits(a.histogram_convergence, b.histogram_convergence) &&
         a.sampled_rounds == b.sampled_rounds &&
         a.sample_keys_total == b.sample_keys_total &&
         a.hist_bytes_sampled == b.hist_bytes_sampled &&
         a.hist_bytes_dense == b.hist_bytes_dense &&
         a.round_probes == b.round_probes;
}

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`.
std::string num(double v) {
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (usize i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Fails the run (exit code 3) when a guard does not hold.
struct Guard {
  std::vector<std::string> failed;
  void check(bool ok, const std::string& what) {
    std::cout << "  guard " << (ok ? "ok    " : "FAILED") << "  " << what
              << "\n";
    if (!ok) failed.push_back(what);
  }
};

/// Sense-reversing barrier of the yardstick, kept apart from the runtime's.
class YardBarrier {
 public:
  void wait() {
    std::unique_lock lock(mu_);
    const bool sense = sense_;
    if (++waiting_ == P) {
      waiting_ = 0;
      sense_ = !sense_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return sense_ != sense; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool sense_ = false;
};

// --- the benchmark -----------------------------------------------------------

template <class T, class KeyFn>
class Bench {
 public:
  Bench(const Options& o, std::vector<std::vector<T>> inputs, KeyFn key)
      : o_(o), w_(*o.w), in_(std::move(inputs)), key_(key), work_(P) {
    for (const auto& v : in_) {
      n_ += v.size();
      in_sum_ += checksum(v);
    }
    for (int r = 0; r < P; ++r)
      expect_[r] = w_.records ? n_ / P + (static_cast<usize>(r) < n_ % P)
                              : in_[r].size();
    Xoshiro256 rng(0x7a2d);
    // As many key bytes per rank as the workload has input bytes per rank.
    const usize yard_keys = std::max<usize>(n_ * sizeof(T) / P / 8, 1024);
    yard_keys_.resize(yard_keys);
    for (u64& k : yard_keys_) k = rng() >> 32;
    for (auto& k : yard_work_) k.resize(yard_keys);
    for (auto& k : yard_tmp_) k.resize(yard_keys);
    const double mi = static_cast<double>(yard_keys) / (1 << 20);
    yard_wall_ref_ = kYardWallRefPerMi * mi;
    yard_cpu_ref_ = kYardCpuRefPerMi * mi;
  }

  int run() {
    base_rss_kib_ = rss_kib().now;
    header();
    setup(/*repeat=*/!o_.trace);
    if (!o_.trace) {
      timed_loop(o_.seconds, tail_floor(kTailQ), untraced_);
      report_end_to_end();
      write_samples("samples.csv", untraced_);
    } else {
      timed_loop(o_.seconds / 2, 10, untraced_);
      traced_loop(o_.seconds / 2);
      latency_loops();
      count_collectives();
      reference_sort();
      report_layers();
      write_samples("samples.csv", untraced_);
      write_traced_samples();
      write_spans();
    }
    write_summary();
    if (!guard_.failed.empty()) {
      std::cerr << "hds_e2e: " << guard_.failed.size()
                << " guard(s) failed; see the lines marked FAILED\n";
      return 3;
    }
    std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_
              << ", \"metrics\": " << metrics_json(final_) << "}\n";
    return 0;
  }

 private:
  runtime::TeamConfig team_config(bool trace) const {
    runtime::TeamConfig tc;
    tc.nranks = P;
    tc.machine = net::MachineModel::supermuc_phase2(w_.nodes,
                                                    w_.ranks_per_node);
    tc.trace = trace;
    return tc;
  }

  /// The public entry point this workload measures.
  core::SortStats sort_entry(runtime::Comm& c, std::vector<T>& v) const {
    if constexpr (std::is_same_v<KeyFn, core::IdentityKey>)
      return core::sort(c, v, cfg_);
    else
      return core::sort_balanced(c, v, key_, cfg_);
  }

  /// The same sort, one superstep at a time: exactly the loop
  /// core::sort_to_capacity runs (after the capacity sort_balanced derives),
  /// with an Interval around each core::advance_superstep call.
  core::SortStats traced_entry(runtime::Comm& c, std::vector<T>& v,
                               RankSort& rs) const {
    usize cap = v.size();
    if constexpr (!std::is_same_v<KeyFn, core::IdentityKey>) {
      const u64 n = c.allreduce_value<u64>(
          v.size(), [](u64 a, u64 b) { return a + b; });
      cap = static_cast<usize>(n) / P +
            (static_cast<usize>(c.rank()) < n % P ? 1 : 0);
    }
    core::SortState<T, core::SortKeyImage<T, KeyFn>> st;
    st.out_capacity = cap;
    st.data = std::move(v);
    st.stats.elements_before = st.data.size();
    while (st.completed != core::SuperstepId::Done) {
      const auto k = static_cast<usize>(st.completed);
      if (st.completed == core::SuperstepId::Exchanged)
        rs.merge_runs = static_cast<usize>(
            std::count_if(st.recv_counts.begin(), st.recv_counts.end(),
                          [](usize x) { return x > 0; }));
      rs.layer[k].begin(c);
      core::advance_superstep(c, st, key_, cfg_);
      rs.layer[k].end(c);
      ++rs.calls;
    }
    v = std::move(st.data);
    return st.stats;
  }

  /// Rank body of one timed sort: fresh input copy, barrier, the sort,
  /// barrier; then the validation, outside the timed region.
  void sort_body(runtime::Comm& c, bool traced, RankSort& rs, i64& wall) {
    const int r = c.rank();
    rs.body_t0 = wall_ns();
    std::vector<T>& v = work_[r];
    v = in_[r];
    c.barrier();
    rs.sort.begin(c);
    rs.stats = traced ? traced_entry(c, v, rs) : sort_entry(c, v);
    if (traced) {
      rs.sort.t1 = rs.layer[kLayers - 1].t1;
      rs.sort.c1 = rs.layer[kLayers - 1].c1;
      rs.sort.s1 = rs.layer[kLayers - 1].s1;
    } else {
      rs.sort.end(c);
    }
    c.barrier();
    if (r == 0) wall = wall_ns() - rs.sort.t0;
    rs.sorted = core::is_globally_sorted(
        c, std::span<const T>(v.data(), v.size()), key_);
    rs.sum = checksum(v);
    rs.size = v.size();
    if (yard_due_) yardstick(r);
    rs.body_t1 = wall_ns();
  }

  /// Machine-speed yardstick, run by every rank thread at once after some
  /// sorts. Shaped like the sort's two big supersteps: two LSD radix sorts
  /// of a fixed 32-bit-key array as large as a rank's input, each ended by a
  /// barrier of the benchmark's own. It shares no code with hds, so only
  /// the machine (steal, memory contention, clock) moves it.
  void yardstick(int r) {
    std::vector<u64>& a = yard_work_[r];
    std::vector<u64>& tmp = yard_tmp_[r];
    yard_bar_.wait();
    const i64 t0 = wall_ns();
    const i64 c0 = thread_cpu_ns();
    for (int phase = 0; phase < 2; ++phase) {
      a = yard_keys_;
      for (int shift = 0; shift < 32; shift += 8) {
        std::array<usize, 257> at{};
        for (u64 x : a) ++at[((x >> shift) & 0xff) + 1];
        for (usize d = 0; d < 256; ++d) at[d + 1] += at[d];
        for (u64 x : a) tmp[at[(x >> shift) & 0xff]++] = x;
        a.swap(tmp);
      }
      yard_bar_.wait();
    }
    yard_cpu_[r] = thread_cpu_ns() - c0;
    if (r == 0) yard_wall_ = wall_ns() - t0;
  }

  /// The four output checks; counts the sort as attempted and maybe failed.
  bool validate(const std::array<RankSort, P>& rs) {
    bool ok = true;
    usize count = 0;
    u64 sum = 0;
    for (int r = 0; r < P; ++r) {
      ok = ok && rs[r].sorted && rs[r].size == expect_[r];
      count += rs[r].size;
      sum += rs[r].sum;
    }
    ok = ok && count == n_ && sum == in_sum_;
    ++attempted_;
    if (!ok) ++failed_;
    return ok;
  }

  Sample sample_of(const std::array<RankSort, P>& rs, i64 wall, bool ok) {
    Sample s;
    s.wall_ns = wall;
    s.ok = ok;
    double s1 = 0;
    for (int r = 0; r < P; ++r) {
      s.cpu_ns[r] = rs[r].sort.cpu();
      s1 = std::max(s1, rs[r].sort.s1);
    }
    s.sim_s = s1 - rs[0].sort.s0;  // every rank leaves the barrier at s0
    return s;
  }

  /// setup_s: fresh Team through the end of its first sort, which is a
  /// Team::run holding exactly one sort (so its makespan is
  /// sim_makespan_s). With `repeat`, >= 7 fresh Teams and >= 2 s of them
  /// (at most 501); the last Team is kept for the timed loops.
  void setup(bool repeat) {
    std::vector<double> t;
    const i64 start = wall_ns();
    for (int i = 0;; ++i) {
      const bool more =
          i == 0 || (repeat && (i < 7 || (sec(wall_ns() - start) < 2.0 &&
                                          i < 501)));
      if (!more) break;
      team_.reset();
      std::array<std::vector<T>, P> v;
      for (int r = 0; r < P; ++r) v[r] = in_[r];
      std::array<core::SortStats, P> stats;
      const i64 t0 = wall_ns();
      team_ = std::make_unique<runtime::Team>(team_config(false));
      team_->run([&](runtime::Comm& c) {
        stats[c.rank()] = sort_entry(c, v[c.rank()]);
      });
      t.push_back(sec(wall_ns() - t0));
      // No collective here, so the one-sort run holds exactly the sort: the
      // global order is checked on the main thread.
      std::array<RankSort, P> rs;
      const T* prev = nullptr;
      for (int r = 0; r < P; ++r) {
        rs[r].sorted =
            core::is_locally_sorted(
                std::span<const T>(v[r].data(), v[r].size()), key_) &&
            (v[r].empty() || prev == nullptr ||
             !(key_(v[r].front()) < key_(*prev)));
        if (!v[r].empty()) prev = &v[r].back();
        rs[r].sum = checksum(v[r]);
        rs[r].size = v[r].size();
      }
      validate(rs);
      if (i == 0) {
        pure_ = team_->stats();
        ref_stats_ = stats;
        for (int r = 0; r < P; ++r) {
          ref_sum_[r] = rs[r].sum;
          const obs::Metrics& m = team_->metrics(r);
          bytes_on_node_ += m.value(obs::Counter::ExchangeBytesOnNode);
          bytes_off_node_ += m.value(obs::Counter::ExchangeBytesOffNode);
          merge_comparisons_ += m.value(obs::Counter::MergeComparisons);
        }
      } else {
        deterministic_ = deterministic_ &&
                         std::bit_cast<u64>(team_->stats().makespan_s) ==
                             std::bit_cast<u64>(pure_.makespan_s);
      }
    }
    setup_samples_ = t;
  }

  /// Closed loop with one client: one sort per Team::run, each started
  /// after the previous sort and its validation finished. Runs for
  /// `seconds` and at least `min_sorts` sorts.
  void timed_loop(double seconds, usize min_sorts, std::vector<Sample>& out) {
    // Sample storage is allocated and touched before the loop, so it does
    // not show up in peak_rss_mib.
    constexpr usize kMaxSorts = 50000;
    out.assign(kMaxSorts, Sample{});
    usize n = 0;
    const auto [steal0, cpu0] = cpu_steal_s();
    const i64 start = wall_ns();
    double yard_total = 0;
    while (n < kMaxSorts &&
           (n < min_sorts || sec(wall_ns() - start) < seconds)) {
      yard_due_ = yard_total < 0.15 * sec(wall_ns() - start) || n == 0;
      std::array<RankSort, P> rs;
      i64 wall = 0;
      reset_peak_rss();
      team_->run([&](runtime::Comm& c) {
        sort_body(c, false, rs[c.rank()], wall);
      });
      out[n] = sample_of(rs, wall, validate(rs));
      out[n++].peak_rss_kib = rss_kib().peak;
      if (yard_due_) {
        i64 cpu = 0;
        for (i64 x : yard_cpu_) cpu += x;
        yard_wall_s_.push_back(sec(yard_wall_));
        yard_cpu_s_.push_back(sec(cpu));
        yard_total += sec(yard_wall_);
      }
    }
    yard_due_ = false;
    out.resize(n);
    const auto [steal1, cpu1] = cpu_steal_s();
    steal_frac_ = cpu1 > cpu0 ? (steal1 - steal0) / (cpu1 - cpu0) : 0.0;
  }

  void traced_loop(double seconds) {
    constexpr usize kMaxTraced = 1000;
    traced_.reserve(kMaxTraced);
    const i64 start = wall_ns();
    while (traced_.size() < kMaxTraced &&
           (traced_.size() < 10 || sec(wall_ns() - start) < seconds)) {
      TracedSort& ts = traced_.emplace_back();
      i64 wall = 0;
      ts.run_t0 = wall_ns();
      team_->run([&](runtime::Comm& c) {
        sort_body(c, true, ts.rank[c.rank()], wall);
      });
      ts.run_t1 = wall_ns();
      ts.s = sample_of(ts.rank, wall, validate(ts.rank));
    }
    // One traced Team::run holding exactly one sort, for the makespan.
    std::array<std::vector<T>, P> v;
    for (int r = 0; r < P; ++r) v[r] = in_[r];
    std::array<RankSort, P> rs;
    team_->run([&](runtime::Comm& c) {
      traced_entry(c, v[c.rank()], rs[c.rank()]);
    });
    traced_makespan_ = team_->stats().makespan_s;
    traced_phase_ = team_->stats().phase_s;
  }

  /// Median latency of back-to-back barrier() and allreduce_value<u64>()
  /// calls on rank 0, after the sorts.
  void latency_loops() {
    const usize n = o_.tiny ? 200 : 5000;
    std::vector<double> bar(n), red(n);
    team_->run([&](runtime::Comm& c) {
      for (int i = 0; i < 100; ++i) c.barrier();
      if (c.rank() == 0) loop_span_[0].begin(c);
      for (usize i = 0; i < n; ++i) {
        const i64 t0 = wall_ns();
        c.barrier();
        if (c.rank() == 0) bar[i] = sec(wall_ns() - t0);
      }
      if (c.rank() == 0) {
        loop_span_[0].end(c);
        loop_span_[1].begin(c);
      }
      for (usize i = 0; i < n; ++i) {
        const i64 t0 = wall_ns();
        c.allreduce_value<u64>(static_cast<u64>(i),
                               [](u64 a, u64 b) { return a + b; });
        if (c.rank() == 0) red[i] = sec(wall_ns() - t0);
      }
      if (c.rank() == 0) loop_span_[1].end(c);
    });
    barrier_us_ = median(bar) * 1e6;
    allreduce_us_ = median(red) * 1e6;
  }

  /// Collective ops of one sort, from the obs op classes of one extra sort
  /// run with TeamConfig::trace on.
  void count_collectives() {
    runtime::Team t(team_config(true));
    std::array<std::vector<T>, P> v;
    for (int r = 0; r < P; ++r) v[r] = in_[r];
    t.run([&](runtime::Comm& c) { sort_entry(c, v[c.rank()]); });
    for (const obs::TraceEvent& e : t.trace()->events[0])
      if (e.cls == obs::OpClass::Sync || e.cls == obs::OpClass::Tree ||
          e.cls == obs::OpClass::Gather || e.cls == obs::OpClass::Alltoall)
        ++collectives_;
  }

  /// One thread std::sort over the whole N by key: the plain
  /// single-threaded baseline.
  void reference_sort() {
    std::vector<T> all;
    all.reserve(n_);
    std::vector<double> t;
    const i64 start = wall_ns();
    while (t.size() < 3 || (sec(wall_ns() - start) < 1.0 && t.size() < 1001)) {
      all.clear();
      for (const auto& v : in_) all.insert(all.end(), v.begin(), v.end());
      const i64 t0 = wall_ns();
      std::sort(all.begin(), all.end(),
                [&](const T& a, const T& b) { return key_(a) < key_(b); });
      t.push_back(sec(wall_ns() - t0));
    }
    seq_sort_s_ = median(t);
  }

  // --- output ----------------------------------------------------------------

  std::string machine() const {
    return "supermuc_phase2(" + std::to_string(w_.nodes) + ", " +
           std::to_string(w_.ranks_per_node) + ")";
  }

  std::string tail_name() const {
    return "p" + num(std::round(kTailQ * 1000.0) / 10.0);
  }

  void header() const {
    std::cout << "hds_e2e  workload " << w_.name << "  seed " << o_.seed
              << " (held out for claims: " << kHeldOutSeed << ")  P=" << P
              << "  machine " << machine() << "  N=" << n_ << " x "
              << sizeof(T) << " B  trace " << o_.trace
              << (o_.tiny ? "  [tiny]" : "") << "\n";
  }

  /// Print a metric; `gated` ones also go into the JSON result.
  void emit(const std::string& name, double v, const std::string& unit,
            const std::string& note = "", bool gated = true) {
    (gated ? final_ : ungated_).push_back({name, v, unit});
    std::cout << "  " << name
              << std::string(name.size() < 30 ? 30 - name.size() : 1, ' ')
              << num(v) << " " << unit
              << (note.empty() ? "" : "  (" + note + ")") << "\n";
  }

  void report_end_to_end() {
    std::vector<double> wall, cpu, rss;
    double wall_sum = 0;
    for (const Sample& s : untraced_) {
      rss.push_back(static_cast<double>(s.peak_rss_kib - base_rss_kib_) /
                    1024.0);
      wall.push_back(sec(s.wall_ns));
      wall_sum += sec(s.wall_ns);
      double c = 0;
      for (i64 x : s.cpu_ns) c += sec(x);
      cpu.push_back(c);
    }
    const auto [tail, beyond] = quantile(wall, kTailQ);
    const std::string sorts = std::to_string(untraced_.size()) + " sorts";
    // Host times are reported at the yardstick's reference speed (README.md,
    // "Yardstick"): wall times scaled by its wall, thread-CPU by its CPU.
    const double fw = yard_wall_ref_ / median(yard_wall_s_);
    const double fc = yard_cpu_ref_ / median(yard_cpu_s_);
    auto raw = [](double v) { return "raw " + num(v) + "; "; };
    const double keys =
        static_cast<double>(n_) * static_cast<double>(untraced_.size()) /
        wall_sum;
    emit("keys_per_s", keys / fw, "keys/s", raw(keys) + "mean over " + sorts);
    emit("sort_wall_p50_s", median(wall) * fw, "s",
         raw(median(wall)) + "median of " + sorts);
    // Not in BENCHMARK.json: steal moves it more than the yardstick tracks.
    emit("sort_wall_tail_s", tail * fw, "s",
         raw(tail) + tail_name() + " of " + sorts + ", " +
             std::to_string(beyond) + " beyond it; not gated",
         /*gated=*/false);
    emit("sort_cpu_s", median(cpu) * fc, "s",
         raw(median(cpu)) + "thread-CPU summed over ranks");
    emit("sim_makespan_s", pure_.makespan_s, "sim_s",
         "one-sort Team::run, deterministic per seed");
    emit("setup_s", median(setup_samples_) * fw, "s",
         raw(median(setup_samples_)) + "median of " +
             std::to_string(setup_samples_.size()) + " fresh Teams");
    emit("peak_rss_mib", median(rss), "MiB",
         "median over sorts of the peak over the generated inputs");
    std::cout << "  yardstick                     wall "
              << num(median(yard_wall_s_)) << " s, thread-CPU "
              << num(median(yard_cpu_s_)) << " s (median of "
              << yard_wall_s_.size() << "; reference " << num(yard_wall_ref_)
              << " s, " << num(yard_cpu_ref_) << " s)\n"
              << "  host steal during the sorts   " << num(steal_frac_)
              << " of CPU time (other guests; /proc/stat)\n";
    const double ff = static_cast<double>(failed_) /
                      static_cast<double>(std::max<usize>(attempted_, 1));
    std::cout << "  failed_frac                   " << num(ff) << " ratio  ("
              << failed_ << " of " << attempted_
              << " sorts failed validation)\n";
    guard_.check(deterministic_,
                 "sim_makespan_s identical across the fresh Teams");
  }

  /// Per-sort derived values of one traced sort.
  struct Derived {
    std::array<i64, kLayers> crit{}, busy{}, wait{};
    i64 span = 0, sort_cpu = 0, run_overhead = 0;
    bool tiled = true;  ///< four calls, crit values sum exactly to the span
  };

  Derived derive(const TracedSort& ts) const {
    Derived d;
    i64 prev = 0, body = 0;
    for (int r = 0; r < P; ++r) {
      prev = std::max(prev, ts.rank[r].sort.t0);
      body = std::max(body, ts.rank[r].body_t1 - ts.rank[r].body_t0);
      d.sort_cpu += ts.rank[r].sort.cpu();
      d.tiled = d.tiled && ts.rank[r].calls == kLayers;
    }
    const i64 start = prev;
    for (usize k = 0; k < kLayers; ++k) {
      i64 exit = 0;
      for (int r = 0; r < P; ++r) {
        const Interval& iv = ts.rank[r].layer[k];
        exit = std::max(exit, iv.t1);
        d.busy[k] += iv.cpu();
        d.wait[k] += iv.wall() - iv.cpu();
      }
      d.crit[k] = exit - prev;
      prev = exit;
    }
    i64 span_end = 0;
    for (int r = 0; r < P; ++r)
      span_end = std::max(span_end, ts.rank[r].sort.t1);
    d.span = span_end - start;
    i64 crit_sum = 0;
    for (i64 c : d.crit) crit_sum += c;
    d.tiled = d.tiled && crit_sum == d.span;
    d.run_overhead = (ts.run_t1 - ts.run_t0) - body;
    return d;
  }

  void report_layers() {
    std::vector<Derived> ds;
    for (const TracedSort& ts : traced_) ds.push_back(derive(ts));
    auto med = [&](auto f) {
      std::vector<double> v;
      for (const Derived& d : ds) v.push_back(f(d));
      return median(v);
    };
    std::array<double, kLayers> busy{}, crit{}, wait{}, sim{};
    for (usize k = 0; k < kLayers; ++k) {
      busy[k] = med([&](const Derived& d) { return sec(d.busy[k]); });
      crit[k] = med([&](const Derived& d) { return sec(d.crit[k]); });
      wait[k] = med([&](const Derived& d) { return sec(d.wait[k]); });
      sim[k] = pure_.phase_seconds(kLayerPhase[k]);
    }
    const double span = med([](const Derived& d) { return sec(d.span); });
    const double sort_cpu =
        med([](const Derived& d) { return sec(d.sort_cpu); });
    const core::SortStats& st = ref_stats_[0];
    const double nd = static_cast<double>(n_);
    const double rounds = static_cast<double>(st.histogram_iterations);
    const double bytes_off_rank =
        static_cast<double>(bytes_on_node_ + bytes_off_node_);
    auto traced_wall = [&] {
      std::vector<double> v;
      for (const TracedSort& ts : traced_) v.push_back(sec(ts.s.wall_ns));
      return median(v);
    };
    std::vector<double> uw;
    for (const Sample& s : untraced_) uw.push_back(sec(s.wall_ns));
    const double untraced_p50 = median(uw);
    double merge_runs = 0;
    for (int r = 0; r < P; ++r)
      merge_runs += static_cast<double>(traced_[0].rank[r].merge_runs);
    merge_runs /= P;

    std::cout << "  per-layer metrics (median over " << traced_.size()
              << " traced sorts; sim from the one-sort run):\n";
    emit("local_sort.busy_s", busy[0], "s");
    emit("local_sort.crit_s", crit[0], "s");
    emit("local_sort.ns_per_key", busy[0] / nd * 1e9, "ns");
    emit("local_sort.sim_s", sim[0], "sim_s");
    emit("local_sort.model_host_ratio", sim[0] / (busy[0] / P), "ratio");
    emit("histogram.busy_s", busy[1], "s");
    emit("histogram.crit_s", crit[1], "s");
    emit("histogram.wait_s", wait[1], "s");
    emit("histogram.rounds", rounds, "count");
    emit("histogram.probes", static_cast<double>(st.splitter_probes), "count");
    emit("histogram.probes_per_boundary",
         static_cast<double>(st.splitter_probes) / (P - 1), "ratio");
    emit("histogram.bytes",
         static_cast<double>(st.hist_bytes_dense + st.hist_bytes_sampled), "B");
    emit("histogram.round_us", rounds > 0 ? crit[1] / rounds * 1e6 : 0.0, "us");
    emit("histogram.sim_s", sim[1], "sim_s");
    emit("exchange.busy_s", busy[2], "s");
    emit("exchange.crit_s", crit[2], "s");
    emit("exchange.wait_s", wait[2], "s");
    emit("exchange.bytes_off_rank", bytes_off_rank, "B");
    emit("exchange.bytes_off_node", static_cast<double>(bytes_off_node_), "B");
    emit("exchange.GBps", bytes_off_rank / crit[2] * 1e-9, "GB/s");
    emit("exchange.sim_s", sim[2], "sim_s");
    emit("merge.busy_s", busy[3], "s");
    emit("merge.crit_s", crit[3], "s");
    emit("merge.ns_per_key", busy[3] / nd * 1e9, "ns");
    emit("merge.runs", merge_runs, "count");
    emit("merge.comparisons", static_cast<double>(merge_comparisons_), "count");
    emit("merge.sim_s", sim[3], "sim_s");
    emit("merge.model_host_ratio", sim[3] / (busy[3] / P), "ratio");
    emit("runtime.wait_frac", med([](const Derived& d) {
           i64 w = 0;
           for (i64 x : d.wait) w += x;
           return static_cast<double>(w) / (P * static_cast<double>(d.span));
         }),
         "ratio");
    emit("runtime.barrier_us", barrier_us_, "us");
    emit("runtime.allreduce_us", allreduce_us_, "us");
    emit("runtime.collectives", static_cast<double>(collectives_), "count");
    emit("runtime.run_overhead_s",
         med([](const Derived& d) { return sec(d.run_overhead); }), "s");
    emit("reference.seq_sort_s", seq_sort_s_, "s");
    emit("reference.speedup", seq_sort_s_ / untraced_p50, "ratio");
    emit("trace.overhead_frac", traced_wall() / untraced_p50 - 1.0, "ratio");

    std::cout << "  model vs host (host = busy per rank; flagged outside "
                 "[1/1.5, 1.5]):\n";
    for (usize k = 0; k < kLayers; ++k) {
      const double host = busy[k] / P;
      const double ratio = sim[k] / host;
      const bool gap = ratio < 1 / 1.5 || ratio > 1.5;
      std::cout << "    " << kLayerName[k]
                << std::string(12 - kLayerName[k].size(), ' ') << "sim "
                << num(sim[k]) << " s  host " << num(host) << " s  ratio "
                << num(ratio) << (gap ? "  <-- model/host gap" : "") << "\n";
    }

    // Drift guard: the traced sort must stay exactly core::sort.
    bool stats_ok = true, sum_ok = true, sim_ok = true, tiled = true;
    i64 busy_total = 0, cpu_total = 0;
    for (usize i = 0; i < traced_.size(); ++i) {
      const TracedSort& ts = traced_[i];
      for (int r = 0; r < P; ++r) {
        stats_ok = stats_ok && same_stats(ts.rank[r].stats, ref_stats_[r]);
        sum_ok = sum_ok && ts.rank[r].sum == ref_sum_[r];
      }
      sim_ok = sim_ok && std::bit_cast<u64>(ts.s.sim_s) ==
                             std::bit_cast<u64>(untraced_[0].sim_s);
      tiled = tiled && ds[i].tiled;
      for (i64 b : ds[i].busy) busy_total += b;
      cpu_total += ds[i].sort_cpu;
    }
    for (const Sample& s : untraced_)
      sim_ok = sim_ok && std::bit_cast<u64>(s.sim_s) ==
                             std::bit_cast<u64>(untraced_[0].sim_s);
    const double coverage =
        static_cast<double>(busy_total) / static_cast<double>(cpu_total);
    guard_.check(std::bit_cast<u64>(traced_makespan_) ==
                         std::bit_cast<u64>(pure_.makespan_s) &&
                     traced_phase_ == pure_.phase_s,
                 "traced one-sort makespan and phases == core::sort's, bit "
                 "for bit");
    guard_.check(sim_ok, "per-sort simulated time equal in every traced and "
                         "untraced sort");
    guard_.check(stats_ok, "SortStats of every traced sort == core::sort's");
    guard_.check(sum_ok, "per-rank output checksum of every traced sort == "
                         "core::sort's");
    guard_.check(tiled, "four superstep calls per rank; crit_s sum exactly "
                        "to the sort span");
    guard_.check(coverage >= 0.95, "layer busy time covers " + num(coverage) +
                                       " of the traced sort CPU (>= 0.95)");
    if (!o_.tiny) stress_checks(busy, crit, sim, span, sort_cpu);
  }

  /// Does the workload stress what it claims to? (README.md)
  void stress_checks(const std::array<double, kLayers>& busy,
                     const std::array<double, kLayers>& crit,
                     const std::array<double, kLayers>& sim, double span,
                     double sort_cpu) {
    if (w_.name == "bulk-u64")
      guard_.check((busy[0] + busy[3]) / sort_cpu >= 0.8,
                   "bulk-u64: local sort + merge are " +
                       num((busy[0] + busy[3]) / sort_cpu) +
                       " of sort CPU (>= 0.8)");
    if (w_.name == "hist-fewdistinct") {
      guard_.check(crit[1] / span >= 0.5,
                   "hist-fewdistinct: histogram is " + num(crit[1] / span) +
                       " of the sort span (>= 0.5)");
      guard_.check(sim[1] / pure_.makespan_s >= 0.9,
                   "hist-fewdistinct: histogram is " +
                       num(sim[1] / pure_.makespan_s) +
                       " of the simulated makespan (>= 0.9)");
    }
    if (w_.name == "rec64-skewed")
      guard_.check(sim[2] == *std::max_element(sim.begin(), sim.end()),
                   "rec64-skewed: exchange is the largest simulated phase");
  }

  std::filesystem::path out_path(const std::string& file) const {
    return std::filesystem::path(o_.out) / file;
  }

  void write_samples(const std::string& file,
                     const std::vector<Sample>& ss) const {
    std::ofstream f(out_path(file));
    f << "sort,wall_ns";
    for (int r = 0; r < P; ++r) f << ",cpu_ns_r" << r;
    f << ",sim_s,peak_rss_kib,ok\n";
    for (usize i = 0; i < ss.size(); ++i) {
      f << i << "," << ss[i].wall_ns;
      for (i64 c : ss[i].cpu_ns) f << "," << c;
      f << "," << num(ss[i].sim_s) << "," << ss[i].peak_rss_kib << ","
        << ss[i].ok << "\n";
    }
    std::ofstream s(out_path("setup.csv"));
    s << "team,setup_s\n";
    for (usize i = 0; i < setup_samples_.size(); ++i)
      s << i << "," << num(setup_samples_[i]) << "\n";
  }

  void write_traced_samples() const {
    std::ofstream f(out_path("traced_samples.csv"));
    f << "sort,wall_ns,span_ns,sort_cpu_ns,run_overhead_ns";
    for (std::string_view l : kLayerName)
      f << "," << l << "_crit_ns," << l << "_busy_ns," << l << "_wait_ns";
    f << "\n";
    for (usize i = 0; i < traced_.size(); ++i) {
      const Derived d = derive(traced_[i]);
      f << i << "," << traced_[i].s.wall_ns << "," << d.span << ","
        << d.sort_cpu << "," << d.run_overhead;
      for (usize k = 0; k < kLayers; ++k)
        f << "," << d.crit[k] << "," << d.busy[k] << "," << d.wait[k];
      f << "\n";
    }
  }

  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one track
  /// per rank plus the main thread (tid 100); args carry the span id, its
  /// parent, the sort id, thread-CPU and the SimClock at entry and exit.
  void write_spans() const {
    std::ofstream f(out_path("spans.json"));
    const i64 origin = traced_.empty() ? 0 : traced_[0].run_t0;
    bool first = true;
    auto span = [&](std::string_view name, int tid, long sort, long id,
                    long parent, i64 t0, i64 t1, i64 cpu, double s0,
                    double s1) {
      f << (first ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
        << ",\"ts\":" << num(static_cast<double>(t0 - origin) * 1e-3)
        << ",\"dur\":" << num(static_cast<double>(t1 - t0) * 1e-3)
        << ",\"args\":{\"id\":" << id << ",\"parent\":" << parent
        << ",\"sort\":" << sort << ",\"cpu_us\":"
        << num(static_cast<double>(cpu) * 1e-3) << ",\"sim0\":" << num(s0)
        << ",\"sim1\":" << num(s1) << "}}";
      first = false;
    };
    f << "{\"traceEvents\":[\n";
    constexpr long kPerSort = 1 + P * (1 + kLayers);
    for (usize i = 0; i < traced_.size(); ++i) {
      const TracedSort& ts = traced_[i];
      const long id = static_cast<long>(i) * kPerSort;
      span("team_run", 100, static_cast<long>(i), id, -1, ts.run_t0,
           ts.run_t1, 0, 0, 0);
      for (int r = 0; r < P; ++r) {
        const RankSort& rs = ts.rank[r];
        const long sid = id + 1 + r * (1 + static_cast<long>(kLayers));
        span("sort", r, static_cast<long>(i), sid, id, rs.sort.t0, rs.sort.t1,
             rs.sort.cpu(), rs.sort.s0, rs.sort.s1);
        for (usize k = 0; k < kLayers; ++k) {
          const Interval& iv = rs.layer[k];
          span(kLayerName[k], r, static_cast<long>(i),
               sid + 1 + static_cast<long>(k), sid, iv.t0, iv.t1, iv.cpu(),
               iv.s0, iv.s1);
        }
      }
    }
    const long next = static_cast<long>(traced_.size()) * kPerSort;
    span("barrier_loop", 0, -1, next, -1, loop_span_[0].t0, loop_span_[0].t1,
         loop_span_[0].cpu(), loop_span_[0].s0, loop_span_[0].s1);
    span("allreduce_loop", 0, -1, next + 1, -1, loop_span_[1].t0,
         loop_span_[1].t1, loop_span_[1].cpu(), loop_span_[1].s0,
         loop_span_[1].s1);
    f << "\n]}\n";
  }

  void write_summary() const {
    std::ofstream f(out_path("summary.json"));
    f << "{\"workload\": \"" << w_.name << "\", \"seed\": " << o_.seed
      << ", \"held_out_seed\": " << kHeldOutSeed << ", \"trace\": " << o_.trace
      << ", \"tiny\": " << o_.tiny << ", \"ranks\": " << P
      << ", \"machine\": \"" << machine() << "\", \"n\": " << n_
      << ", \"element_bytes\": " << sizeof(T) << ", \"tail_percentile\": \""
      << tail_name() << "\", \"sorts\": " << untraced_.size()
      << ", \"traced_sorts\": " << traced_.size()
      << ", \"setups\": " << setup_samples_.size()
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"failed_frac\": "
      << num(static_cast<double>(failed_) /
             static_cast<double>(std::max<usize>(attempted_, 1)))
      << ", \"host_steal_frac\": " << num(steal_frac_)
      << ", \"yardstick\": {\"wall_s\": " << num(median(yard_wall_s_))
      << ", \"cpu_s\": " << num(median(yard_cpu_s_))
      << ", \"samples\": " << yard_wall_s_.size()
      << ", \"keys_per_rank\": " << yard_keys_.size()
      << ", \"wall_ref_s\": " << num(yard_wall_ref_)
      << ", \"cpu_ref_s\": " << num(yard_cpu_ref_) << "}"
      << ", \"guards_failed\": " << guard_.failed.size()
      << ", \"metrics\": " << metrics_json(final_)
      << ", \"ungated\": " << metrics_json(ungated_) << "}\n";
  }

  const Options& o_;
  const Workload& w_;
  const std::vector<std::vector<T>> in_;
  const KeyFn key_;
  const core::SortConfig cfg_{};  ///< the default config: epsilon = 0
  std::vector<std::vector<T>> work_;
  usize n_ = 0;
  u64 in_sum_ = 0;
  u64 base_rss_kib_ = 0;  ///< after the inputs are generated
  std::array<usize, P> expect_{};

  std::unique_ptr<runtime::Team> team_;
  std::vector<double> setup_samples_;
  std::vector<Sample> untraced_;
  std::vector<TracedSort> traced_;
  usize attempted_ = 0, failed_ = 0;

  // The one-sort run of the first fresh Team: simulated plane and counts.
  net::TeamStats pure_{};
  bool deterministic_ = true;
  std::array<core::SortStats, P> ref_stats_{};
  std::array<u64, P> ref_sum_{};
  u64 bytes_on_node_ = 0, bytes_off_node_ = 0, merge_comparisons_ = 0;

  double traced_makespan_ = 0;
  std::array<double, net::kPhaseCount> traced_phase_{};
  std::array<Interval, 2> loop_span_{};
  double barrier_us_ = 0, allreduce_us_ = 0, seq_sort_s_ = 0;
  usize collectives_ = 0;
  double steal_frac_ = 0;
  YardBarrier yard_bar_;
  std::vector<u64> yard_keys_;
  std::array<std::vector<u64>, P> yard_work_, yard_tmp_;
  bool yard_due_ = false;
  std::array<i64, P> yard_cpu_{};
  i64 yard_wall_ = 0;
  std::vector<double> yard_wall_s_, yard_cpu_s_;
  double yard_wall_ref_ = 0, yard_cpu_ref_ = 0;
  std::vector<Metric> final_, ungated_;
  Guard guard_;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hds_e2e: " << why
            << "\nusage: hds_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR [--tiny]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == v) o.w = &w;
      if (o.w == nullptr) usage("unknown workload " + v);
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.w == nullptr) usage("--workload is required");
  if (o.out.empty()) usage("--out is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    std::filesystem::create_directories(o.out);
    const Workload& w = *o.w;
    const auto n = rank_counts(w, o.tiny ? w.n_total / 256 : w.n_total);
    if (w.records) {
      Bench<Rec64, RecKey> b(o, make_records(w, o.seed, n), RecKey{});
      return b.run();
    }
    Bench<u64, core::IdentityKey> b(o, make_keys(w, o.seed, n),
                                    core::IdentityKey{});
    return b.run();
  } catch (const std::exception& e) {
    std::cerr << "hds_e2e: " << e.what() << "\n";
    return 1;
  }
}
