// Comm: per-rank communicator handle, the interface every algorithm in this
// repository is written against (the moral equivalent of an MPI
// communicator).
//
// Collective protocol (two barriers, double-buffered arenas):
//   1. each rank publishes (pointer, size, clock) into the arena of the
//      current parity and waits at barrier #1;
//   2. the lowest member rank ("root executor") builds the result bytes in
//      the shared arena, computes the modelled collective cost and the
//      common exit time max(entry clocks) + cost;
//   3. barrier #2, then every rank copies its slice out and fast-forwards
//      its SimClock to the exit time.
// Caller-owned input buffers are only dereferenced between the two barriers,
// so callers may reuse them immediately after the collective returns. Arena
// parity alternates; a slot of parity e cannot be republished before every
// rank finished reading epoch e's result (publication at round k+2 is gated
// by barrier #2 of round k+1).
#pragma once

#include <cmath>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "check/race_detector.h"
#include "model/recorder.h"
#include "common/error.h"
#include "net/cost_model.h"
#include "net/sim.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/checkpoint.h"
#include "runtime/fault.h"
#include "runtime/team.h"

namespace hds::runtime {

namespace detail {
// The op vocabulary lives in obs/events.h so the tracer, fault plans, and
// the watchdog dump share one id space; these aliases keep the runtime's
// historical spelling working.
using OpId = obs::OpKind;

constexpr std::string_view op_name(OpId op) { return obs::op_kind_name(op); }
}  // namespace detail

class Comm {
 public:
  Comm(Team* team, detail::CommState* state, int idx)
      : team_(team), state_(state), idx_(idx) {}

  int rank() const { return idx_; }
  int size() const { return static_cast<int>(state_->members.size()); }
  bool is_root() const { return idx_ == 0; }
  rank_t world_rank() const { return state_->members[idx_]; }
  rank_t world_rank_of(int r) const { return state_->members.at(r); }

  net::SimClock& clock() { return team_->clocks_[world_rank()]; }
  const net::CostModel& cost() const { return team_->cost_; }
  /// Distinct nodes the members occupy: the span collectives are priced
  /// over (CostModel's nodes_spanned).
  int nodes() const { return state_->nodes_spanned; }
  const net::MachineModel& machine() const { return cost().machine(); }
  Team& team() { return *team_; }
  /// This rank's counter/series registry (see obs/metrics.h). Written only
  /// by the owning rank's thread; read after Team::run via Team::metrics.
  obs::Metrics& metrics() {
    return team_->metrics_[static_cast<usize>(world_rank())];
  }
  /// The PGAS happens-before checker of a checked run (TeamConfig::check);
  /// nullptr otherwise. Distributed containers report their one-sided
  /// accesses through this (see runtime/global_vector.h).
  check::RaceDetector* checker() const { return team_->race_detector(); }

  // --- computation charges --------------------------------------------------
  void charge_seconds(double s) { clock().advance(s); }
  void charge_sort(usize n) { clock().advance(cost().sort(n)); }
  /// Radix kernel: `passes` executed scatter passes, `pairs` on the record
  /// path (CostModel::radix_sort).
  void charge_radix_sort(usize n, usize passes, bool pairs = false) {
    clock().advance(cost().radix_sort(n, passes, pairs));
  }
  void charge_merge_pass(usize n) { clock().advance(cost().merge_pass(n)); }
  void charge_kway_merge(usize n, usize k) {
    clock().advance(cost().kway_heap_merge(n, k));
  }
  void charge_partition(usize n) { clock().advance(cost().partition(n)); }
  void charge_scan(usize n) { clock().advance(cost().linear_scan(n)); }
  void charge_binary_search(usize n, usize probes) {
    clock().advance(cost().binary_search(n, probes));
  }
  /// Ascending probes answered by one narrowing forward sweep
  /// (core::batched_counts).
  void charge_batched_search(usize n, usize probes) {
    clock().advance(cost().batched_search(n, probes));
  }
  /// Control-plane computation charges: sizes that do NOT grow with the
  /// modelled data volume (splitter vectors, sample pools, permutation
  /// rows) must not be multiplied by data_scale.
  void charge_control_sort(usize n) {
    clock().advance(cost().control_sort(n));
  }
  void charge_control_scan(usize n) {
    clock().advance(cost().control_scan(n));
  }

  // --- collectives ------------------------------------------------------------

  void barrier() {
    auto& ep = collective(detail::OpId::Barrier, obs::OpClass::Sync, nullptr,
                          0, [&](detail::EpochArena& a) {
                            zero_out(a);
                            return cost().barrier(size(), nodes());
                          });
    finish(ep);
  }

  /// Broadcast n elements from `root` into every rank's `data`.
  template <class T>
  void broadcast(T* data, usize n, int root) {
    check_trivial<T>();
    const usize bytes = n * sizeof(T);
    auto& ep = collective(
        detail::OpId::Broadcast, obs::OpClass::Tree,
        idx_ == root ? data : nullptr, bytes,
        [&](detail::EpochArena& a) {
          a.result.resize(bytes);
          const auto& src = a.slots[root];
          HDS_CHECK_MSG(src.bytes == bytes, "broadcast size mismatch");
          if (bytes > 0) std::memcpy(a.result.data(), src.in, bytes);
          fill_out(a, 0, bytes);
          return cost().broadcast(size(), nodes(), bytes,
                                  net::Traffic::Control);
        },
        world_rank_of(root), net::Traffic::Control, /*hb_root=*/root);
    if (bytes > 0) std::memcpy(data, ep.result.data(), bytes);
    finish(ep);
  }

  /// Element-wise all-reduce of n elements with a binary op.
  template <class T, class Op>
  void allreduce(const T* in, T* out, usize n, Op op,
                 net::Traffic traffic = net::Traffic::Control) {
    check_trivial<T>();
    const usize bytes = n * sizeof(T);
    auto& ep = collective(
        detail::OpId::Allreduce, obs::OpClass::Tree, in, bytes,
        [&](detail::EpochArena& a) {
          a.result.resize(bytes);
          T* acc = reinterpret_cast<T*>(a.result.data());
          if (bytes > 0) std::memcpy(acc, a.slots[0].in, bytes);
          for (int r = 1; r < size(); ++r) {
            HDS_CHECK_MSG(a.slots[r].bytes == bytes,
                          "allreduce size mismatch");
            const T* src = static_cast<const T*>(a.slots[r].in);
            for (usize i = 0; i < n; ++i) acc[i] = op(acc[i], src[i]);
          }
          fill_out(a, 0, bytes);
          return cost().allreduce(size(), nodes(), bytes, traffic);
        });
    if (bytes > 0) std::memcpy(out, ep.result.data(), bytes);
    finish(ep);
  }

  template <class T, class Op>
  T allreduce_value(T v, Op op) {
    T out{};
    allreduce(&v, &out, 1, op);
    return out;
  }

  /// Gather n elements from each rank; out must hold n * size() elements,
  /// ordered by member rank.
  template <class T>
  void allgather(const T* in, usize n, T* out) {
    check_trivial<T>();
    const usize bytes = n * sizeof(T);
    auto& ep = collective(
        detail::OpId::Allgather, obs::OpClass::Gather, in, bytes,
        [&](detail::EpochArena& a) {
          a.result.resize(bytes * size());
          for (int r = 0; r < size(); ++r) {
            HDS_CHECK_MSG(a.slots[r].bytes == bytes,
                          "allgather size mismatch");
            if (bytes > 0)
              std::memcpy(a.result.data() + bytes * r, a.slots[r].in, bytes);
          }
          fill_out(a, 0, bytes * size());
          return cost().allgather(size(), nodes(), bytes,
                                  net::Traffic::Control);
        });
    if (!ep.result.empty())
      std::memcpy(out, ep.result.data(), ep.result.size());
    finish(ep);
  }

  /// Variable-size allgather. Returns the concatenation in member order;
  /// if `counts` is non-null it receives each member's element count.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> in,
                            std::vector<usize>* counts = nullptr) {
    check_trivial<T>();
    auto& ep = collective(
        detail::OpId::Allgatherv, obs::OpClass::Gather, in.data(),
        in.size() * sizeof(T), [&](detail::EpochArena& a) {
          usize total = 0;
          usize max_bytes = 0;
          for (int r = 0; r < size(); ++r) {
            total += a.slots[r].bytes;
            max_bytes = std::max(max_bytes, a.slots[r].bytes);
          }
          a.result.resize(total);
          usize off = 0;
          for (int r = 0; r < size(); ++r) {
            if (a.slots[r].bytes > 0)
              std::memcpy(a.result.data() + off, a.slots[r].in,
                          a.slots[r].bytes);
            off += a.slots[r].bytes;
          }
          fill_out(a, 0, total);
          // A ring/dissemination allgatherv is gated by the largest single
          // contribution per round, not the mean: charge max_bytes.
          return cost().allgather(size(), nodes(), max_bytes,
                                  net::Traffic::Control);
        });
    std::vector<T> out(ep.result.size() / sizeof(T));
    if (!ep.result.empty())
      std::memcpy(out.data(), ep.result.data(), ep.result.size());
    if (counts) {
      counts->resize(size());
      for (int r = 0; r < size(); ++r)
        (*counts)[r] = ep.slots[r].bytes / sizeof(T);
    }
    finish(ep);
    return out;
  }

  /// Sparse sampled-histogram gather (sampled rounds of the splitter
  /// search): semantically an allgatherv of each rank's sample block, but
  /// charged as CostModel::sample_gather — the allgatherv wire cost plus
  /// the machine's fixed per-sampled-round overhead — and published under
  /// its own OpKind::SampleGather so the ledger, fault plans and the
  /// checkers can tell sampled rounds from the dense refinement's
  /// collectives. Every member reads the blocks where their owners
  /// published them, as the pull ALL-TO-ALLV does: `decode(r, block)` runs
  /// once per member r in member order, before the op completes, so no
  /// rank holds a copy of the gathered pool.
  template <class T, class DecodeFn>
  void sample_gatherv(std::span<const T> in, DecodeFn&& decode) {
    check_trivial<T>();
    auto& ep = collective_pull(
        detail::OpId::SampleGather, obs::OpClass::Gather, in.data(),
        in.size() * sizeof(T), /*counts=*/nullptr, SendOrder{},
        [&](detail::EpochArena& a) {
          // A ring/dissemination allgatherv is gated by the largest single
          // contribution per round, not the mean.
          usize max_bytes = 0;
          for (const auto& slot : a.slots)
            max_bytes = std::max(max_bytes, slot.bytes);
          return cost().sample_gather(size(), nodes(), max_bytes);
        },
        [&](detail::EpochArena& a) {
          const auto op = static_cast<u32>(detail::OpId::SampleGather);
          for (const auto& slot : a.slots)
            if (slot.op_id != op) return;  // mismatch: the root aborts
          for (int r = 0; r < size(); ++r)
            decode(r, std::span<const T>(static_cast<const T*>(a.slots[r].in),
                                         a.slots[r].bytes / sizeof(T)));
        },
        net::Traffic::Control);
    finish(ep);
  }

  /// Gather variable-size contributions at `root` (member index). Non-root
  /// ranks get an empty vector.
  template <class T>
  std::vector<T> gatherv(std::span<const T> in, int root,
                         std::vector<usize>* counts = nullptr) {
    check_trivial<T>();
    auto& ep = collective(
        detail::OpId::Gatherv, obs::OpClass::Gather, in.data(),
        in.size() * sizeof(T),
        [&](detail::EpochArena& a) {
          usize total = 0;
          for (int r = 0; r < size(); ++r) total += a.slots[r].bytes;
          a.result.resize(total);
          usize off = 0;
          for (int r = 0; r < size(); ++r) {
            if (a.slots[r].bytes > 0)
              std::memcpy(a.result.data() + off, a.slots[r].in,
                          a.slots[r].bytes);
            off += a.slots[r].bytes;
          }
          for (int r = 0; r < size(); ++r) {
            a.out_off[r] = 0;
            a.out_len[r] = (r == root) ? total : 0;
          }
          return cost().allgather(size(), nodes(),
                                  total / std::max(1, size()),
                                  net::Traffic::Control) /
                 2.0;  // gather is one tree direction of an allgather
        },
        /*peer=*/-1, net::Traffic::Control, /*hb_root=*/root);
    std::vector<T> out(ep.out_len[idx_] / sizeof(T));
    if (!out.empty())
      std::memcpy(out.data(), ep.result.data() + ep.out_off[idx_],
                  ep.out_len[idx_]);
    if (counts && idx_ == root) {
      counts->resize(size());
      for (int r = 0; r < size(); ++r)
        (*counts)[r] = ep.slots[r].bytes / sizeof(T);
    }
    finish(ep);
    return out;
  }

  /// Regular all-to-all: rank r's in[d*n .. d*n+n) goes to rank d; out is
  /// laid out symmetrically by source rank.
  template <class T>
  void alltoall(const T* in, usize n, T* out,
                net::Traffic traffic = net::Traffic::Control) {
    check_trivial<T>();
    const usize block = n * sizeof(T);
    const usize bytes = block * size();
    auto& ep = collective(
        detail::OpId::Alltoall, obs::OpClass::Alltoall, in, bytes,
        [&](detail::EpochArena& a) {
          a.result.resize(bytes * size());
          for (int src = 0; src < size(); ++src) {
            HDS_CHECK_MSG(a.slots[src].bytes == bytes,
                          "alltoall size mismatch");
            const auto* base = static_cast<const std::byte*>(a.slots[src].in);
            for (int dst = 0; dst < size(); ++dst) {
              if (block > 0)
                std::memcpy(a.result.data() + (usize(dst) * size() + src) * block,
                            base + usize(dst) * block, block);
            }
          }
          for (int r = 0; r < size(); ++r) {
            a.out_off[r] = usize(r) * bytes;
            a.out_len[r] = bytes;
          }
          return cost().alltoall(size(), nodes(), block, traffic);
        },
        /*peer=*/-1, traffic);
    if (bytes > 0)
      std::memcpy(out, ep.result.data() + ep.out_off[idx_], bytes);
    if (tracer().enabled() && block > 0)
      for (int d = 0; d < size(); ++d)
        tracer().op_detail(world_rank_of(d), block);
    finish(ep);
  }

  /// Irregular personalized exchange (the paper's ALL-TO-ALLV), the
  /// runtime's only one. `send_counts[d]` elements of `data` (contiguous,
  /// in destination order) go to member d; `dst` receives the incoming
  /// elements ordered by source rank and `recv_counts` the per-source
  /// counts. Every rank publishes its data, counts and `order`; between the
  /// barriers each receiver reserves a vector once for its incoming total
  /// (so it is never value-initialized), appends every source's slice in
  /// rank order, copied exactly once out of the sender's published span —
  /// contiguously from a source that published no order, element by
  /// element through the source's order from one that did — and moves it
  /// into `dst`. With an `order`, this rank sends data[order.index(0)],
  /// data[order.index(1)], ... instead of `data` as it lies; the copy mode
  /// is the sender's, read from its slot, so ranks that send in order and
  /// ranks that send through an order mix freely. `dst` must not alias
  /// `data`.
  template <class T>
  void alltoallv_into(std::span<const T> data,
                      std::span<const usize> send_counts, std::vector<T>& dst,
                      std::vector<usize>& recv_counts, SendOrder order = {},
                      net::Traffic traffic = net::Traffic::Data) {
    check_trivial<T>();
    HDS_CHECK(send_counts.size() == static_cast<usize>(size()));
    usize total_send = 0;
    for (usize c : send_counts) total_send += c;
    HDS_CHECK_MSG(total_send == data.size(),
                  "alltoallv_into: send counts (" << total_send
                      << ") != data size (" << data.size() << ")");

    auto& ep = collective_pull(
        detail::OpId::Alltoallv, obs::OpClass::Alltoall, data.data(),
        data.size() * sizeof(T), send_counts.data(), order,
        [&](detail::EpochArena& a) {
          // Executor: cost only — the payload moves via member pulls.
          const int P = size();
          auto& matrix = a.cost_matrix;
          matrix.resize(usize(P) * P);
          for (int src = 0; src < P; ++src)
            for (int dst_rank = 0; dst_rank < P; ++dst_rank)
              matrix[usize(src) * P + dst_rank] =
                  a.slots[src].counts[dst_rank] * sizeof(T);
          return cost().alltoallv(state_->members, matrix, traffic);
        },
        [&](detail::EpochArena& a) {
          const int P = size();
          const auto op = static_cast<u32>(detail::OpId::Alltoallv);
          recv_counts.resize(static_cast<usize>(P));
          usize total = 0;
          for (int src = 0; src < P; ++src) {
            // Mismatched collective: this slot's counts pointer is not
            // ours to read; bail and let the root abort the team.
            if (a.slots[src].op_id != op) return;
            recv_counts[src] = a.slots[src].counts[idx_];
            total += recv_counts[src];
          }
          // Filled as a local and moved out: appending element by element
          // to `dst`, which lives in the caller's frame, made the gather
          // loop slower (DESIGN.md sec. 11).
          std::vector<T> out;
          out.reserve(total);
          for (int src = 0; src < P; ++src) {
            const usize c = recv_counts[src];
            if (c == 0) continue;
            usize skip = 0;  // sender's elements bound for members < us
            for (int d = 0; d < idx_; ++d) skip += a.slots[src].counts[d];
            const T* in = static_cast<const T*>(a.slots[src].in);
            const SendOrder& by = a.slots[src].order;
            if (by.first == nullptr) {
              out.insert(out.end(), in + skip, in + skip + c);
              continue;
            }
            // The order reads records at random: touching the record
            // kGatherAhead places ahead overlaps its cache and TLB misses
            // with the copies in between.
            const usize end = skip + c;
            for (usize j = skip; j < end; ++j) {
              if (j + kGatherAhead < end) {
                const auto* ahead = reinterpret_cast<const char*>(
                    in + by.index(j + kGatherAhead));
                __builtin_prefetch(ahead);
                __builtin_prefetch(ahead + sizeof(T) - 1);
              }
              out.push_back(in[by.index(j)]);
            }
          }
          dst = std::move(out);
        },
        traffic);
    if (tracer().enabled())
      for (int d = 0; d < size(); ++d)
        if (send_counts[static_cast<usize>(d)] > 0)
          tracer().op_detail(world_rank_of(d),
                             send_counts[static_cast<usize>(d)] * sizeof(T));
    finish(ep);
  }

  // --- point-to-point --------------------------------------------------------

  template <class T>
  void send(int dst, u64 tag, std::span<const T> data,
            net::Traffic traffic = net::Traffic::Data) {
    check_trivial<T>();
    const rank_t dw = world_rank_of(dst);
    note_op(detail::OpId::Send, obs::OpClass::Send, data.size() * sizeof(T),
            dw, tag, traffic);
    const double dt =
        cost().p2p(world_rank(), dw, data.size() * sizeof(T), traffic);
    tracer().op_model(dt);
    clock().advance(dt);  // synchronous send: sender busy for the transfer
    deliver(dw, tag, data);
    tracer().op_end(clock().now());
  }

  /// Transfer without any simulated-time charge. For modelled baselines
  /// whose cost is accounted analytically (e.g. the TBB merge-sort stand-in)
  /// — never use this for algorithms whose cost the experiments measure.
  /// Traced as Traffic::Control so it stays out of the data comm matrix.
  template <class T>
  void send_uncharged(int dst, u64 tag, std::span<const T> data) {
    check_trivial<T>();
    const rank_t dw = world_rank_of(dst);
    note_op(detail::OpId::Send, obs::OpClass::Send, data.size() * sizeof(T),
            dw, tag, net::Traffic::Control);
    deliver(dw, tag, data);
    tracer().op_end(clock().now());
  }

  template <class T>
  std::vector<T> recv(int src, u64 tag) {
    check_trivial<T>();
    const rank_t sw = world_rank_of(src);
    note_op(detail::OpId::Recv, obs::OpClass::Recv, 0, sw, tag);
    Message msg;
    {
      detail::SiteScope site(progress(), detail::WaitSite::MailboxRecv,
                             static_cast<u64>(sw), tag);
      msg = team_->mailboxes_[world_rank()]->pop(sw, tag);
    }
    if (auto* rd = team_->race_detector()) rd->on_recv(world_rank(), msg.hb_vc);
    clock().sync_to(std::max(clock().now(), msg.arrival_s));
    std::vector<T> out(msg.data.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), msg.data.data(), msg.data.size());
    tracer().op_bytes(msg.data.size());
    tracer().op_end(clock().now());
    return out;
  }

  // --- failure recovery ------------------------------------------------------

  /// Survivor-side recovery entry point (requires TeamConfig::recoverable).
  /// Call after catching team_aborted: blocks in the agreement rendezvous
  /// until every surviving rank arrives and every failed rank's thread has
  /// exited, then returns a fresh communicator over the survivor set (this
  /// communicator — and every other pre-failure Comm — must not be used
  /// again). The SimClock is fast-forwarded to the common recovery time:
  /// max survivor clock + the modelled detection/agreement cost. Throws
  /// team_aborted if the run is beyond recovery (a non-failure error was
  /// recorded, or a rank returned without joining the rendezvous).
  Comm recover_survivors() {
    note_op(detail::OpId::Agree, obs::OpClass::Recovery);
    const double t0 = clock().now();
    Team::RecoveryOutcome out;
    {
      detail::SiteScope site(progress(), detail::WaitSite::Recovery);
      out = team_->recover(world_rank());
    }
    tracer().op_model(
        cost().detect_and_agree(static_cast<int>(out.state->members.size())));
    clock().sync_to(std::max(clock().now(), out.sync_time));
    metrics().add(obs::Counter::RecoveryCount, 1);
    // Time-to-recover, per survivor: from this rank noticing the failure
    // (unwinding into the rendezvous) to agreement completion.
    metrics().append(obs::Series::RecoverySeconds, clock().now() - t0);
    tracer().op_end(clock().now());
    int idx = 0;
    for (usize i = 0; i < out.state->members.size(); ++i)
      if (out.state->members[i] == world_rank()) idx = static_cast<int>(i);
    return Comm(team_, out.state, idx);
  }

  /// Superstep-boundary checkpoint: replicate this rank's serialized sort
  /// state to its buddy (the next member, cyclically). The transfer is
  /// charged at the machine's checkpoint_overlap_residue of the raw p2p
  /// cost — checkpointing overlaps the next superstep's compute except for
  /// that residue — and the bytes are surfaced in obs::Metrics.
  void checkpoint_to_buddy(CheckpointStore& store, u64 superstep,
                           std::vector<std::byte> bytes) {
    const rank_t bw = world_rank_of((idx_ + 1) % size());
    const u64 n = bytes.size();
    note_op(detail::OpId::Checkpoint, obs::OpClass::Checkpoint, n, bw,
            /*tag=*/superstep, net::Traffic::Data);
    const double dt = cost().checkpoint(world_rank(), bw, n, net::Traffic::Data);
    tracer().op_model(dt);
    clock().advance(dt);
    metrics().add(obs::Counter::CheckpointBytes, n);
    metrics().add(obs::Counter::CheckpointCount, 1);
    store.save(world_rank(), bw, superstep, std::move(bytes));
    tracer().op_end(clock().now());
  }

  /// Fetch a checkpoint during recovery. Charges the full p2p transfer when
  /// the surviving copy lives on another rank (restores sit on the critical
  /// path — no overlap discount); a locally-served primary is free. Returns
  /// nullopt if no copy survived (owner and buddy both failed).
  std::optional<CheckpointBlob> fetch_checkpoint(CheckpointStore& store,
                                                 rank_t owner_world,
                                                 u64 step) {
    auto blob = store.load(owner_world, step);
    if (!blob) return blob;
    const u64 n = blob->bytes.size();
    note_op(detail::OpId::Checkpoint, obs::OpClass::Checkpoint, n,
            blob->holder, /*tag=*/step, net::Traffic::Data);
    if (blob->holder != world_rank()) {
      const double dt =
          cost().p2p(blob->holder, world_rank(), n, net::Traffic::Data);
      tracer().op_model(dt);
      clock().advance(dt);
    }
    tracer().op_end(clock().now());
    return blob;
  }

 private:
  template <class T>
  static void check_trivial() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "hds collectives transport trivially copyable types only");
  }

  /// Enqueue a message at the destination's mailbox, honoring the fault
  /// plan: the message may be dropped (lost on the wire) or arrive late.
  template <class T>
  void deliver(rank_t dst_world, u64 tag, std::span<const T> data) {
    double extra_delay_s = 0.0;
    if (FaultPlan* fp = team_->fault_plan()) {
      if (!fp->on_send(world_rank(), dst_world, tag, &extra_delay_s))
        return;  // dropped: sender proceeds, receiver never sees it
    }
    Message msg;
    msg.src = world_rank();
    msg.tag = tag;
    msg.arrival_s = clock().now() + extra_delay_s;
    msg.data.resize(data.size() * sizeof(T));
    if (!msg.data.empty())
      std::memcpy(msg.data.data(), data.data(), msg.data.size());
    // Pairwise happens-before edge: the message carries the sender's
    // vector clock; the receiver joins it on delivery. (A dropped message
    // never reaches this point and publishes no edge.)
    if (auto* rd = team_->race_detector()) rd->on_send(world_rank(), msg.hb_vc);
    team_->mailboxes_[dst_world]->push(std::move(msg));
  }

  void zero_out(detail::EpochArena& a) {
    a.result.clear();
    fill_out(a, 0, 0);
  }

  void fill_out(detail::EpochArena& a, usize off, usize len) {
    for (int r = 0; r < size(); ++r) {
      a.out_off[r] = off;
      a.out_len[r] = len;
    }
  }

  /// Progress ledger of this rank (owned by the enclosing Team, read by the
  /// watchdog).
  detail::ProgressState& progress() {
    return team_->progress_[world_rank()];
  }

  /// This rank's tracer (owned by the enclosing Team; always present, the
  /// full event buffers are only populated when TeamConfig::trace is set).
  obs::RankTracer& tracer() {
    return *team_->tracers_[static_cast<usize>(world_rank())];
  }

  /// Book-keeping common to every communication op: update the progress
  /// ledger (watchdog), open a trace event, and consult the fault plan,
  /// which may crash this rank (rank_failed) or straggle its SimClock.
  /// The tracer opens before the fault hook so an injected straggler delay
  /// is attributed to the op it stalls.
  void note_op(detail::OpId op, obs::OpClass cls, u64 bytes = 0, i32 peer = -1,
               u64 tag = 0, net::Traffic traffic = net::Traffic::Control) {
    auto& ps = progress();
    ps.last_op.store(static_cast<u32>(op), std::memory_order_relaxed);
    ps.sim_clock.store(clock().now(), std::memory_order_relaxed);
    ps.ops.fetch_add(1, std::memory_order_relaxed);
    // Static-matcher tap (hds::model): record the symbolic op before any
    // payload moves, so the per-rank schedules survive a
    // collective_mismatch abort and the matcher can lint them afterwards.
    if (auto* rec = team_->cfg_.recorder)
      rec->note_op(world_rank(), state_->members, op, cls, peer, tag);
    tracer().op_begin(op, cls, clock().phase(), clock().now(), bytes, peer,
                      tag, traffic);
    if (FaultPlan* fp = team_->fault_plan()) {
      try {
        fp->on_op(world_rank(), static_cast<u32>(op), clock());
      } catch (const rank_failed&) {
        // Poison the team before the victim unwinds, so peers see the
        // failure at their next blocking op.
        team_->note_rank_failure(world_rank());
        throw;
      }
    }
  }

  /// Release-mode guard, run by the root executor between the barriers:
  /// every member must have entered the same collective this round. A
  /// mismatch (one rank in allreduce while another is in barrier) is a
  /// programming error that would silently corrupt data or deadlock under
  /// MPI; here it aborts the team with a structured report naming the
  /// participating ranks and their attempted ops.
  void check_matching_ops(const detail::EpochArena& ep, detail::OpId op) {
    bool mismatch = false;
    for (const auto& s : ep.slots)
      if (s.op_id != static_cast<u32>(op)) mismatch = true;
    if (!mismatch) return;
    std::ostringstream os;
    os << "collective mismatch on communicator of size " << size()
       << ": members entered different collectives in the same round —";
    for (int r = 0; r < size(); ++r)
      os << "\n  rank " << r << " (world " << world_rank_of(r) << "): "
         << detail::op_name(static_cast<detail::OpId>(ep.slots[r].op_id));
    throw collective_mismatch(os.str());
  }

  /// The generic two-barrier collective. `root_fn` runs on member 0 between
  /// the barriers and must populate result/out_off/out_len and return the
  /// modelled cost in seconds.
  /// `hb_root` is the member index whose contribution rooted collectives
  /// (Broadcast/Gatherv) pivot on; the race checker derives the op's
  /// logical happens-before shape from it (-1 for symmetric ops).
  template <class RootFn>
  detail::EpochArena& collective(detail::OpId op, obs::OpClass cls,
                                 const void* in, usize bytes,
                                 RootFn&& root_fn, i32 peer = -1,
                                 net::Traffic traffic = net::Traffic::Control,
                                 int hb_root = -1) {
    note_op(op, cls, bytes, peer, /*tag=*/0, traffic);
    auto& ep = state_->epochs[round_++ & 1u];
    auto& slot = ep.slots[idx_];
    slot.in = in;
    slot.bytes = bytes;
    slot.counts = nullptr;
    slot.order = {};
    slot.clock = clock().now();
    slot.op_id = static_cast<u32>(op);
    {
      detail::SiteScope site(progress(), detail::WaitSite::Barrier);
      state_->barrier.wait();
    }
    if (idx_ == 0) {
      check_matching_ops(ep, op);
      // Happens-before publication: the executor drives the whole logical
      // transaction while every member is parked between the two barriers.
      if (auto* rd = team_->race_detector())
        rd->on_collective(state_, op, state_->members, hb_root);
      double entry = 0.0;
      for (const auto& s : ep.slots) entry = std::max(entry, s.clock);
      ep.model_cost = root_fn(ep);
      ep.sync_time = entry + ep.model_cost;
    }
    {
      detail::SiteScope site(progress(), detail::WaitSite::Barrier);
      state_->barrier.wait();
    }
    return ep;
  }

  /// Pull-mode two-barrier collective: same protocol as collective(), but
  /// every member additionally runs `member_fn` between the barriers —
  /// copying its incoming blocks directly out of the other members'
  /// published spans, so the payload is touched exactly once and the copy
  /// work is spread over all ranks instead of serialized on the executor.
  /// `root_fn` only computes the modelled cost here (it must not touch the
  /// arena result). `member_fn` runs concurrently with the root's
  /// mismatch check, so it must verify each slot's op_id before
  /// dereferencing op-specific fields and bail out on a mismatch (the root
  /// aborts the team right after). ep.sync_time is only read after barrier
  /// #2 (in finish()), so the root's write does not race with member pulls.
  template <class RootFn, class MemberFn>
  detail::EpochArena& collective_pull(detail::OpId op, obs::OpClass cls,
                                      const void* in, usize bytes,
                                      const usize* counts, SendOrder order,
                                      RootFn&& root_fn, MemberFn&& member_fn,
                                      net::Traffic traffic) {
    note_op(op, cls, bytes, /*peer=*/-1, /*tag=*/0, traffic);
    auto& ep = state_->epochs[round_++ & 1u];
    auto& slot = ep.slots[idx_];
    slot.in = in;
    slot.bytes = bytes;
    slot.counts = counts;
    slot.order = order;
    slot.clock = clock().now();
    slot.op_id = static_cast<u32>(op);
    {
      detail::SiteScope site(progress(), detail::WaitSite::Barrier);
      state_->barrier.wait();
    }
    if (idx_ == 0) {
      check_matching_ops(ep, op);
      if (auto* rd = team_->race_detector())
        rd->on_collective(state_, op, state_->members, /*hb_root=*/-1);
      double entry = 0.0;
      for (const auto& s : ep.slots) entry = std::max(entry, s.clock);
      ep.model_cost = root_fn(ep);
      ep.sync_time = entry + ep.model_cost;
    }
    try {
      member_fn(ep);
    } catch (...) {
      // Peers may still be pulling from this rank's published span, which
      // unwinding would free under them: arrive at barrier #2 first so
      // every member is done with the buffers, then propagate. A failure
      // of the barrier itself (team abort) must not mask the original
      // error.
      try {
        detail::SiteScope site(progress(), detail::WaitSite::Barrier);
        state_->barrier.wait();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
      throw;
    }
    {
      detail::SiteScope site(progress(), detail::WaitSite::Barrier);
      state_->barrier.wait();
    }
    return ep;
  }

  /// Records a gathering receiver fetches ahead of the one it copies. 32
  /// beat 8 and 16 with four receivers gathering 64-byte records at once.
  static constexpr usize kGatherAhead = 32;

  /// Common epilogue: fast-forward the clock to the collective exit time
  /// and close the op's trace event at it. ep.model_cost is safe to read
  /// here for the same reason sync_time is: barrier #2 ordered the root's
  /// write before every member's finish.
  void finish(detail::EpochArena& ep) {
    tracer().op_model(ep.model_cost);
    clock().sync_to(ep.sync_time);
    tracer().op_end(clock().now());
  }

  Team* team_;
  detail::CommState* state_;
  int idx_;
  u64 round_ = 0;
};

}  // namespace hds::runtime
