// hds::core::sort — the distributed histogram sort (Sec. V), end to end:
//
//   1. Local Sort      fast shared-memory sort of the local partition
//   2. Splitting       distributed multiselection by histogramming (Alg. 2+3)
//   3. Data Exchange   permutation matrix + single ALL-TO-ALLV (Alg. 4)
//   4. Local Merge     merge of the received sorted chunks (Sec. V-C)
//
// Output invariant: each rank's partition is sorted, no element on rank i
// exceeds any element on rank i+1, and with epsilon == 0 every rank ends up
// with exactly as many elements as it contributed (perfect partitioning /
// in-place condition). With epsilon > 0 each boundary may deviate by
// N*eps/(2P), so partition sizes stay within N(1+eps)/P.
//
// No assumptions are made about key distribution, duplicate keys, rank
// count, or partition density — empty local partitions (sparse inputs) are
// supported throughout.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/exchange.h"
#include "core/key_traits.h"
#include "core/local_sort.h"
#include "core/merge.h"
#include "core/multiselect.h"
#include "core/selection.h"
#include "core/superstep.h"
#include "runtime/checkpoint.h"
#include "runtime/comm.h"

namespace hds::core {

/// How superstep 3 moves the data.
enum class ExchangeAlgorithm : u8 {
  Alltoallv,  ///< single collective ALL-TO-ALLV (the paper's evaluated path)
  KAry,  ///< tunable k-ary swap schedule (DESIGN.md sec. 13): store-and-
         ///< forward in ceil(log_k P) rounds of k-1 group partners each,
         ///< spanning the hypercube (k = 2, Sec. VI-E1's log2(P) rounds for
         ///< small N/P) to direct exchange (k >= P); any rank count; with
         ///< overlap_merge, round r-1's arrivals are tail-merged while
         ///< round r's payload copies are in flight
};

struct SortConfig {
  /// Load-balance threshold epsilon (Def. 1); 0 = perfect partitioning.
  double epsilon = 0.0;
  MergeStrategy merge = MergeStrategy::Sort;
  /// Histogramming strategy of the splitter search (PR 10): Dense is the
  /// paper's probe-and-allreduce baseline; Hybrid runs HSS-style sampled
  /// rounds first and interpolates dense probes from the sampled CDF. Both
  /// modes produce identical sorted output.
  HistogramMode histogram = HistogramMode::Dense;
  /// Oversampling factor of the sampled rounds (Hybrid only): each rank
  /// contributes ~(oversample + 2) * sqrt(#boundaries in segment)
  /// systematically sampled keys per search segment per round.
  usize oversample = 8;
  ExchangeAlgorithm exchange = ExchangeAlgorithm::Alltoallv;
  /// With ExchangeAlgorithm::KAry: per-round group size ("radix") of the
  /// swap schedule. 2 gives the hypercube's log2(P) rounds of one partner;
  /// >= P collapses to a single direct-exchange round; values in between
  /// trade rounds (latency, forwarding traffic) against partners per round
  /// and merge fan-in. See kary_round_factors for non-k-smooth P.
  int exchange_k = 4;
  /// With ExchangeAlgorithm::KAry: merge received chunks on arrival instead
  /// of in superstep 4, overlapping the merge with the remaining
  /// communication rounds (charged against the round's p2p window via
  /// CostModel::overlapped_merge).
  bool overlap_merge = false;
};

/// The unsigned key image type the splitter search runs over, for a given
/// element type and key projection.
template <class T, class KeyFn>
using SortKeyImage = typename KeyTraits<
    std::decay_t<decltype(std::declval<KeyFn>()(std::declval<T>()))>>::
    uint_type;

/// Superstep 1 (Start -> LocalSorted): fast shared-memory sort of the
/// local partition.
template <class T, class UK, class KeyFn>
void superstep_local_sort(runtime::Comm& comm, SortState<T, UK>& st,
                          KeyFn key) {
  net::PhaseScope phase(comm.clock(), net::Phase::LocalSort);
  local_sort(comm, st.data, key);
}

/// Superstep 2 (LocalSorted -> SplittersReady): exchange capacities, build
/// the target ranks (Def. 3), and run the distributed multiselection.
template <class T, class UK, class KeyFn>
void superstep_splitters(runtime::Comm& comm, SortState<T, UK>& st,
                         KeyFn key, const SortConfig& cfg) {
  // Targets: prefix sums of the output capacities (Def. 3). Recomputed
  // here rather than carried in SortState so a resumed-or-shrunken run
  // derives them from the current communicator and capacities.
  std::vector<usize> targets;
  {
    net::PhaseScope phase(comm.clock(), net::Phase::Histogram);
    const u64 mine_in = st.data.size();
    const u64 mine_out = st.out_capacity;
    std::vector<u64> in_caps(comm.size()), out_caps(comm.size());
    comm.allgather(&mine_in, 1, in_caps.data());
    comm.allgather(&mine_out, 1, out_caps.data());
    u64 n_in = 0, n_out = 0;
    for (int r = 0; r < comm.size(); ++r) {
      n_in += in_caps[r];
      n_out += out_caps[r];
    }
    HDS_CHECK_MSG(n_in == n_out,
                  "output capacities (" << n_out
                                        << ") must sum to the global size ("
                                        << n_in << ")");
    targets.resize(comm.size() - 1);
    u64 acc = 0;
    for (int r = 0; r + 1 < comm.size(); ++r) {
      acc += out_caps[r];
      targets[r] = acc;
    }
  }

  MultiselectConfig mcfg;
  mcfg.epsilon = cfg.epsilon;
  mcfg.histogram = cfg.histogram;
  mcfg.oversample = cfg.oversample;
  st.splitters = find_splitters(
      comm, std::span<const T>(st.data.data(), st.data.size()), key,
      std::span<const usize>(targets), mcfg);
  st.stats.histogram_iterations = st.splitters.iterations;
  st.stats.splitter_probes = st.splitters.probes_total;
  st.stats.histogram_convergence = st.splitters.convergence;
  st.stats.sampled_rounds = st.splitters.sampled_rounds;
  st.stats.sample_keys_total = st.splitters.sample_keys_total;
  st.stats.hist_bytes_sampled = st.splitters.hist_bytes_sampled;
  st.stats.hist_bytes_dense = st.splitters.hist_bytes_dense;
  st.stats.round_probes = st.splitters.round_probes;
}

/// Superstep 3 (SplittersReady -> Exchanged): permutation matrix + data
/// exchange. st.data becomes the received chunk concatenation.
template <class T, class UK, class KeyFn>
void superstep_exchange(runtime::Comm& comm, SortState<T, UK>& st,
                        KeyFn key, const SortConfig& cfg) {
  const std::span<const T> sorted_view(st.data.data(), st.data.size());
  ExchangeResult<T> ex;
  switch (cfg.exchange) {
    case ExchangeAlgorithm::KAry:
      ex = exchange_kary(comm, sorted_view, st.splitters, key,
                         cfg.exchange_k, cfg.overlap_merge);
      break;
    case ExchangeAlgorithm::Alltoallv:
      ex = exchange(comm, sorted_view, st.splitters);
      break;
  }
  st.stats.elements_sent_off_rank = ex.elements_sent_off_rank;
  st.data = std::move(ex.data);
  st.recv_counts = std::move(ex.recv_counts);
}

/// Superstep 4 (Exchanged -> Done): local merge of the received chunks.
template <class T, class UK, class KeyFn>
void superstep_merge(runtime::Comm& comm, SortState<T, UK>& st, KeyFn key,
                     const SortConfig& cfg) {
  merge_chunks(comm, st.data, std::span<const usize>(st.recv_counts),
               cfg.merge, key);
  st.recv_counts.clear();
  st.stats.elements_after = st.data.size();
}

/// Run the next superstep of `st` and advance the state machine. With a
/// CheckpointStore, the new boundary state is serialized and replicated to
/// the buddy rank (Done is not checkpointed — the output is committed).
/// With store == nullptr no extra communication op or charge is issued, so
/// simulated times are bit-identical to the pre-state-machine sort.
template <class T, class UK, class KeyFn>
void advance_superstep(runtime::Comm& comm, SortState<T, UK>& st, KeyFn key,
                       const SortConfig& cfg,
                       runtime::CheckpointStore* store = nullptr) {
  switch (st.completed) {
    case SuperstepId::Start:
      superstep_local_sort(comm, st, key);
      st.completed = SuperstepId::LocalSorted;
      break;
    case SuperstepId::LocalSorted:
      superstep_splitters(comm, st, key, cfg);
      st.completed = SuperstepId::SplittersReady;
      break;
    case SuperstepId::SplittersReady:
      superstep_exchange(comm, st, key, cfg);
      st.completed = SuperstepId::Exchanged;
      break;
    case SuperstepId::Exchanged:
      superstep_merge(comm, st, key, cfg);
      st.completed = SuperstepId::Done;
      break;
    case SuperstepId::Done:
      return;
  }
  comm.metrics().add(obs::Counter::SuperstepsExecuted, 1);
  if (store != nullptr && st.completed != SuperstepId::Done)
    comm.checkpoint_to_buddy(*store, static_cast<u64>(st.completed),
                             detail::serialize_state(st));
}

/// Sort a distributed vector by a key projection with an explicit output
/// capacity per rank (`out_capacity` = this rank's share; capacities must
/// globally sum to N). This is the general entry point: the std::sort-like
/// overloads below derive capacities from the input distribution (the
/// paper's perfect-partitioning contract), while passing explicit
/// capacities rebalances arbitrary (e.g. sparse) inputs in the same single
/// data movement — the conclusion's sparse-matrix use case.
///
/// With a CheckpointStore the state is additionally checkpointed at every
/// superstep boundary (including the raw input at Start), enabling
/// RecoveryMode::ResumeCheckpoint / ShrinkSurvivors in sort_resilient.
template <class T, class KeyFn>
SortStats sort_to_capacity(runtime::Comm& comm, std::vector<T>& local,
                           KeyFn key, usize out_capacity,
                           const SortConfig& cfg = {},
                           runtime::CheckpointStore* store = nullptr) {
  using UK = SortKeyImage<T, KeyFn>;
  SortState<T, UK> st;
  st.out_capacity = out_capacity;
  st.data = std::move(local);
  st.stats.elements_before = st.data.size();
  if (store != nullptr)
    comm.checkpoint_to_buddy(*store, static_cast<u64>(SuperstepId::Start),
                             detail::serialize_state(st));
  while (st.completed != SuperstepId::Done)
    advance_superstep(comm, st, key, cfg, store);
  local = std::move(st.data);
  return st.stats;
}

/// Sort a distributed vector by a key projection; the output distribution
/// equals the input distribution (perfect partitioning when epsilon == 0).
template <class T, class KeyFn>
SortStats sort_by_key(runtime::Comm& comm, std::vector<T>& local, KeyFn key,
                      const SortConfig& cfg = {}) {
  return sort_to_capacity(comm, local, key, local.size(), cfg);
}

/// Sort a distributed vector of keys directly (std::sort-like entry point).
template <class T>
SortStats sort(runtime::Comm& comm, std::vector<T>& local,
               const SortConfig& cfg = {}) {
  return sort_by_key(comm, local, IdentityKey{}, cfg);
}

/// Sort and rebalance in one data movement: every rank ends with an even
/// share N/P (first N mod P ranks get one extra).
template <class T, class KeyFn>
SortStats sort_balanced(runtime::Comm& comm, std::vector<T>& local,
                        KeyFn key, const SortConfig& cfg = {}) {
  const u64 n = comm.allreduce_value<u64>(
      local.size(), [](u64 a, u64 b) { return a + b; });
  const usize base = static_cast<usize>(n) / comm.size();
  const usize extra = static_cast<usize>(n) % comm.size();
  const usize mine = base + (static_cast<usize>(comm.rank()) < extra ? 1 : 0);
  return sort_to_capacity(comm, local, key, mine, cfg);
}

namespace detail {

/// Rank-aggregated stats of one sort_resilient call: sums over ranks for
/// element counts, max over ranks for iteration / probe / byte counts, and
/// the (globally identical) convergence and probe series copied once.
inline SortStats aggregate_rank_stats(std::span<const SortStats> per_rank) {
  SortStats agg;
  for (const SortStats& s : per_rank) {
    agg.histogram_iterations =
        std::max(agg.histogram_iterations, s.histogram_iterations);
    agg.splitter_probes = std::max(agg.splitter_probes, s.splitter_probes);
    agg.elements_sent_off_rank += s.elements_sent_off_rank;
    agg.elements_before += s.elements_before;
    agg.elements_after += s.elements_after;
    if (agg.histogram_convergence.empty())
      agg.histogram_convergence = s.histogram_convergence;
    agg.sampled_rounds = std::max(agg.sampled_rounds, s.sampled_rounds);
    agg.sample_keys_total =
        std::max(agg.sample_keys_total, s.sample_keys_total);
    agg.hist_bytes_sampled =
        std::max(agg.hist_bytes_sampled, s.hist_bytes_sampled);
    agg.hist_bytes_dense = std::max(agg.hist_bytes_dense, s.hist_bytes_dense);
    if (agg.round_probes.empty()) agg.round_probes = s.round_probes;
  }
  return agg;
}

}  // namespace detail

/// Distributed nth_element: the value of 0-based global rank k, via the
/// weighted-median selection of Alg. 1 (dash::nth_element). Reorders
/// `local`.
template <class T>
T nth_element(runtime::Comm& comm, std::span<T> local, usize k) {
  return dselect(comm, local, k);
}

/// Verification helper (collective): does the distributed sequence satisfy
/// the global sort invariant? Each rank checks local sortedness and that its
/// maximum does not exceed the next non-empty rank's minimum.
template <class T, class KeyFn>
bool is_globally_sorted(runtime::Comm& comm, std::span<const T> local,
                        KeyFn key) {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  const bool local_ok = is_locally_sorted(local, key);

  struct Edge {
    K min, max;
    u8 has;
  };
  Edge mine{};
  mine.has = local.empty() ? 0 : 1;
  if (mine.has) {
    mine.min = key(local.front());
    mine.max = key(local.back());
  }
  std::vector<Edge> edges(comm.size());
  comm.allgather(&mine, 1, edges.data());

  bool ok = local_ok;
  K prev_max{};
  bool have_prev = false;
  for (const Edge& e : edges) {
    if (!e.has) continue;
    if (have_prev && e.min < prev_max) ok = false;
    prev_max = e.max;
    have_prev = true;
  }
  const u8 all =
      comm.allreduce_value<u8>(ok ? 1 : 0, [](u8 a, u8 b) -> u8 { return a & b; });
  return all != 0;
}

// --- failure recovery --------------------------------------------------------

/// How sort_resilient reacts to a rank failure.
enum class RecoveryMode : u8 {
  /// Discard the attempt and re-run from the caller's input on the full
  /// team (no checkpointing overhead).
  RestartFull,
  /// Checkpoint every superstep boundary; after a failure, re-run on the
  /// same rank count resuming from the last boundary every rank can
  /// restore — only the interrupted superstep is replayed.
  ResumeCheckpoint,
  /// Recover in-flight (requires no re-run): survivors agree on the
  /// shrunken team, absorb the dead ranks' checkpointed shards, and finish
  /// the sort on P-1 ranks with rebalanced output capacities.
  ShrinkSurvivors,
};

constexpr std::string_view recovery_mode_name(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::RestartFull:
      return "RestartFull";
    case RecoveryMode::ResumeCheckpoint:
      return "ResumeCheckpoint";
    case RecoveryMode::ShrinkSurvivors:
      return "ShrinkSurvivors";
  }
  return "?";
}

struct ResilienceConfig {
  RecoveryMode mode = RecoveryMode::RestartFull;
  /// Rank failures tolerated before the sort gives up and rethrows.
  int fault_budget = 3;
};

/// What recovery actually cost, aggregated over every attempt of one
/// sort_resilient call (metrics-derived; see obs/metrics.h).
struct ResilienceReport {
  int attempts = 0;       ///< Team::run attempts used
  usize failures = 0;     ///< rank failures absorbed or retried through
  u64 recoveries = 0;     ///< in-flight survivor agreements (ShrinkSurvivors)
  usize supersteps_executed = 0;  ///< summed over ranks and attempts
  usize supersteps_minimum = 0;   ///< fault-free floor: kSupersteps * P
  /// (supersteps_executed - supersteps_minimum) / supersteps_minimum: 0 for
  /// a fault-free run; < 1.0 whenever recovery beat a full re-execution.
  double recomputed_fraction = 0.0;
  u64 checkpoint_bytes = 0;  ///< total bytes replicated to buddies
  /// Simulated time-to-solution: attempt makespans summed, aborted
  /// attempts included (their clocks stop at the failure).
  double sim_seconds_total = 0.0;
  /// Simulated seconds from each survivor noticing a failure to agreement
  /// completion (one entry per survivor per agreement).
  std::vector<double> recovery_seconds;
  /// Ranks holding output partitions (all of them, or the survivors).
  std::vector<rank_t> final_ranks;
};

namespace detail {

/// ResilienceReport::recomputed_fraction from the superstep counts, clamped
/// at 0: an attempt that dies early executes fewer supersteps than the
/// fault-free floor, which is no recomputation at all.
inline double recomputed_fraction(const ResilienceReport& rep) {
  if (rep.supersteps_minimum == 0) return 0.0;
  const double executed = static_cast<double>(rep.supersteps_executed);
  const double minimum = static_cast<double>(rep.supersteps_minimum);
  return std::max(0.0, (executed - minimum) / minimum);
}

/// Restore a survivor's SortState after a shrink agreement: every survivor
/// marks the dead ranks' memory lost, picks the deepest superstep boundary
/// every original rank can still serve (clamped to LocalSorted — splitter
/// and exchange state are bound to the old rank count), reloads its own
/// boundary state, absorbs its slice of each dead rank's checkpointed
/// shard, and rebalances the output capacities over the survivors. Throws
/// (plain runtime_error, unrecoverable for this attempt) when a dead
/// rank's checkpoint is gone because its buddy died too.
template <class T, class UK, class KeyFn>
SortState<T, UK> shrink_restore(runtime::Comm& c,
                                runtime::CheckpointStore& store, KeyFn key) {
  const int Q = c.size();
  const int P = store.nranks();
  std::vector<rank_t> dead;
  for (rank_t r = 0; r < static_cast<rank_t>(P); ++r) {
    bool live = false;
    for (int i = 0; i < Q; ++i)
      if (c.world_rank_of(i) == r) live = true;
    if (!live) dead.push_back(r);
  }
  // Each survivor marks every dead rank itself (idempotent, thread-safe)
  // before reading availability, so its own view is final.
  for (rank_t d : dead) store.mark_lost(d);

  i64 common = std::numeric_limits<i64>::max();
  for (rank_t r = 0; r < static_cast<rank_t>(P); ++r)
    common = std::min(common, store.latest_step(r));
  if (common < 0)
    throw std::runtime_error(
        "hds: shrink recovery impossible — a failed rank has no surviving "
        "checkpoint (owner and buddy both failed, or it died before its "
        "first checkpoint)");
  const u64 resume =
      std::min(static_cast<u64>(common),
               static_cast<u64>(SuperstepId::LocalSorted));

  auto own = c.fetch_checkpoint(store, c.world_rank(), resume);
  HDS_CHECK_MSG(own.has_value(),
                "survivor checkpoint missing at resume boundary " << resume);
  auto st = deserialize_state<T, UK>(own->bytes);
  const bool sorted = st.completed != SuperstepId::Start;

  for (rank_t d : dead) {
    auto blob = c.fetch_checkpoint(store, d, resume);
    if (!blob)
      throw std::runtime_error(
          "hds: shrink recovery impossible — failed rank's checkpoint lost "
          "(its buddy failed too)");
    auto dead_st = deserialize_state<T, UK>(blob->bytes);
    const auto& shard = dead_st.data;
    // Survivor i absorbs the i-th contiguous slice of the dead shard. At a
    // sorted boundary the slices are sorted runs, merged in; at Start the
    // raw slice is appended and the local-sort superstep handles it.
    const usize n = shard.size();
    const usize i = static_cast<usize>(c.rank());
    const usize lo = n * i / static_cast<usize>(Q);
    const usize hi = n * (i + 1) / static_cast<usize>(Q);
    if (hi > lo) {
      const usize old = st.data.size();
      st.data.insert(st.data.end(), shard.begin() + static_cast<std::ptrdiff_t>(lo),
                     shard.begin() + static_cast<std::ptrdiff_t>(hi));
      if (sorted) {
        std::inplace_merge(
            st.data.begin(),
            st.data.begin() + static_cast<std::ptrdiff_t>(old),
            st.data.end(),
            [&](const T& a, const T& b) { return key(a) < key(b); });
        c.charge_merge_pass(st.data.size());
      }
    }
  }

  // Rebalance the output over the survivors: even shares of N (the
  // load-balance-after-shrink move, PAPERS.md arxiv 1611.00463).
  const u64 n = c.allreduce_value<u64>(static_cast<u64>(st.data.size()),
                                       [](u64 a, u64 b) { return a + b; });
  const usize base = static_cast<usize>(n) / static_cast<usize>(Q);
  const usize extra = static_cast<usize>(n) % static_cast<usize>(Q);
  st.out_capacity = base + (static_cast<usize>(c.rank()) < extra ? 1 : 0);
  st.completed = static_cast<SuperstepId>(resume);
  st.splitters = {};
  st.recv_counts.clear();
  return st;
}

}  // namespace detail

/// Resilient end-to-end sort: runs the full histogram sort on `team` and
/// recovers from rank failures (e.g. an injected crash, see runtime/fault.h)
/// as `rcfg.mode` says. Every attempt starts from a fresh copy of the
/// caller's input, and the global sort invariant is verified collectively
/// before the output is committed; a violated invariant fails the attempt.
/// The caller's input partitions are preserved until success; on success they
/// are replaced by the sorted output — under ShrinkSurvivors the failed
/// ranks' entries come back empty and the survivors hold rebalanced even
/// shares, in rank order, so the concatenation over all P entries is still
/// the globally sorted sequence. Rethrows the last error once more than
/// `rcfg.fault_budget` failures have been spent. Returns rank-aggregated
/// stats (detail::aggregate_rank_stats).
template <class T, class KeyFn>
SortStats sort_resilient(runtime::Team& team,
                         std::vector<std::vector<T>>& partitions, KeyFn key,
                         const SortConfig& cfg, const ResilienceConfig& rcfg,
                         ResilienceReport* report = nullptr) {
  using UK = SortKeyImage<T, KeyFn>;
  const int P = team.size();
  HDS_CHECK_MSG(partitions.size() == static_cast<usize>(P),
                "sort_resilient: need one input partition per rank ("
                    << partitions.size() << " given, team size " << P << ")");
  HDS_CHECK(rcfg.fault_budget >= 0);

  ResilienceReport rep;
  rep.supersteps_minimum = kSupersteps * static_cast<usize>(P);

  runtime::CheckpointStore store(P);
  std::vector<std::vector<T>> work(partitions.size());
  std::vector<SortStats> per_rank(partitions.size());
  const bool use_ckpt = rcfg.mode != RecoveryMode::RestartFull;
  const bool shrink = rcfg.mode == RecoveryMode::ShrinkSurvivors;

  // Restore the team's failure semantics on every exit path.
  struct RecoverableGuard {
    runtime::Team& t;
    bool prev;
    ~RecoverableGuard() { t.set_recoverable(prev); }
  } guard{team, team.config().recoverable};
  team.set_recoverable(shrink);

  auto collect_run_metrics = [&] {
    for (int r = 0; r < P; ++r) {
      const obs::Metrics& m = team.metrics(r);
      rep.supersteps_executed += m.value(obs::Counter::SuperstepsExecuted);
      rep.checkpoint_bytes += m.value(obs::Counter::CheckpointBytes);
      for (double v : m.series(obs::Series::RecoverySeconds))
        rep.recovery_seconds.push_back(v);
    }
    rep.recoveries += team.recovery_rounds();
    rep.failures += team.failures().size();
    rep.sim_seconds_total += team.stats().makespan_s;
  };

  // One attempt body. RestartFull and ResumeCheckpoint run it on the full
  // team; ShrinkSurvivors additionally recovers in-flight inside it.
  auto fn = [&](runtime::Comm& world) {
    const int wr = world.rank();
    runtime::Comm c = world;
    SortState<T, UK> st;
    bool fresh = true;

    if (use_ckpt && !shrink) {
      // Resume boundary: the deepest superstep every rank can restore
      // (checkpoints are boundary-complete prefixes, so agreement on the
      // minimum suffices). -1 = someone lost everything -> fresh restart.
      const i64 mine = store.latest_step(wr);
      const i64 common = c.allreduce_value<i64>(
          mine, [](i64 a, i64 b) { return std::min(a, b); });
      if (common >= 0) {
        auto blob =
            c.fetch_checkpoint(store, wr, static_cast<u64>(common));
        HDS_CHECK_MSG(blob.has_value(),
                      "resume checkpoint vanished between agreement and "
                      "restore");
        st = detail::deserialize_state<T, UK>(blob->bytes);
        fresh = false;
      }
    }

    for (;;) {
      try {
        if (fresh) {
          st = SortState<T, UK>{};
          st.out_capacity = work[wr].size();
          st.data = std::move(work[wr]);
          st.stats.elements_before = st.data.size();
          if (use_ckpt)
            c.checkpoint_to_buddy(store,
                                  static_cast<u64>(SuperstepId::Start),
                                  detail::serialize_state(st));
          fresh = false;
        }
        while (st.completed != SuperstepId::Done)
          advance_superstep(c, st, key, cfg, use_ckpt ? &store : nullptr);
        HDS_CHECK_MSG(
            is_globally_sorted(
                c, std::span<const T>(st.data.data(), st.data.size()), key),
            "sort_resilient: output violates the global sort invariant");
        break;
      } catch (const runtime::team_aborted&) {
        if (!shrink) throw;
        if (static_cast<int>(c.team().failures().size()) > rcfg.fault_budget)
          throw;  // budget exhausted: let the run fail
        c = c.recover_survivors();  // throws team_aborted if unrecoverable
        st = detail::shrink_restore<T, UK>(c, store, key);
      }
    }
    per_rank[wr] = st.stats;
    work[wr] = std::move(st.data);
  };

  int failures_spent = 0;
  for (;;) {
    ++rep.attempts;
    work = partitions;
    per_rank.assign(partitions.size(), SortStats{});
    if (shrink) store.clear();  // in-flight recovery only; attempts restart
    try {
      team.run(fn);
      collect_run_metrics();
      break;
    } catch (...) {
      collect_run_metrics();
      const int new_failures =
          std::max(1, static_cast<int>(team.failures().size()));
      failures_spent += new_failures;
      if (failures_spent > rcfg.fault_budget) {
        if (report) {
          rep.recomputed_fraction = detail::recomputed_fraction(rep);
          *report = rep;
        }
        throw;
      }
      // The failed ranks' memory is gone: drop their primaries (and the
      // replicas they held) so the next attempt restores from buddies.
      for (rank_t f : team.failures()) store.mark_lost(f);
    }
  }

  rep.final_ranks.clear();
  const std::vector<rank_t> failed = team.failures();
  for (rank_t r = 0; r < static_cast<rank_t>(P); ++r)
    if (std::find(failed.begin(), failed.end(), r) == failed.end())
      rep.final_ranks.push_back(r);
  rep.recomputed_fraction = detail::recomputed_fraction(rep);

  partitions = std::move(work);
  if (report) *report = rep;
  return detail::aggregate_rank_stats(per_rank);
}

/// Key-less convenience overload of the recovery-mode sort_resilient.
template <class T>
SortStats sort_resilient(runtime::Team& team,
                         std::vector<std::vector<T>>& partitions,
                         const SortConfig& cfg, const ResilienceConfig& rcfg,
                         ResilienceReport* report = nullptr) {
  return sort_resilient(team, partitions, IdentityKey{}, cfg, rcfg, report);
}

}  // namespace hds::core
