// Canonical model-checking scenarios (DESIGN.md sec. 15).
//
// One registry shared by examples/model_check (the CI driver),
// examples/quickstart --replay-schedule (counterexample replay) and
// tests/test_model.cpp, so a schedule file recorded by any of them replays
// against the identical closed system. Each scenario is deterministic by
// construction modulo the schedule: inputs derive from (rank, nranks) via
// seeded generators, so the explorer's determinism oracle is meaningful.
//
//   sort2 / sort3        full histogram sort, alltoallv exchange, P = 2 / 3
//   sort2-kary2          full histogram sort, k-ary exchange with k = 2 (the
//                        hypercube schedule), P = 2
//   mailbox              P = 4 ack-window protocol: three senders each push
//                        two same-channel messages with a blocking ack
//                        between them, so channel-queue contention (and the
//                        reorder-push mutation's trigger point) depends on
//                        the schedule
//   borrow               P = 4 borrowed-payload loans: rank 0 lends its
//                        buffer to every peer and must wait each token
//   recovery             P = 4 recoverable run: rank 2 crashes mid-round,
//                        survivors rendezvous in recover_survivors() and
//                        finish on the shrunk team
#pragma once

#include <string>
#include <vector>

#include "core/histogram_sort.h"
#include "model/explorer.h"
#include "runtime/comm.h"
#include "runtime/fault.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::model {

inline u64 digest_values(const std::vector<u64>& v) {
  u64 h = digest_init();
  for (u64 x : v) h = digest_mix(h, x);
  return h;
}

/// Full histogram sort at P ranks with the given config; digest = sorted
/// output bytes, so any schedule-dependent exchange or merge shows up.
inline Scenario sort_scenario(std::string name, int nranks,
                              core::SortConfig cfg, usize keys_per_rank) {
  Scenario s;
  s.name = std::move(name);
  s.nranks = nranks;
  s.body = [nranks, cfg, keys_per_rank](runtime::Comm& c) {
    workload::GenConfig gen;
    auto local =
        workload::generate_u64(gen, c.rank(), nranks, keys_per_rank);
    core::sort(c, local, cfg);
    return digest_values(local);
  };
  return s;
}

/// P = 4 mailbox micro-protocol. Every sender s in {1, 2, 3} pushes two
/// messages on its (s, tag) channel to rank 0, with a blocking ack between
/// them — so whether the second push finds the first still queued depends
/// on the schedule. The digest is the receiver's pop order: per-channel
/// FIFO makes it schedule-independent, which is exactly what the
/// reorder-push mutation breaks.
inline Scenario mailbox_scenario() {
  constexpr u64 kMsg = 11, kAck = 12;
  Scenario s;
  s.name = "mailbox";
  s.nranks = 4;
  s.body = [](runtime::Comm& c) -> u64 {
    if (c.rank() == 0) {
      std::vector<u64> seen;
      for (int src = 1; src < 4; ++src) {
        const u64 ack = 100 + static_cast<u64>(src);
        c.send<u64>(src, kAck, std::span<const u64>(&ack, 1));
      }
      for (int src = 1; src < 4; ++src)
        for (int i = 0; i < 2; ++i)
          for (u64 v : c.recv<u64>(src, kMsg)) seen.push_back(v);
      c.barrier();
      return digest_values(seen);
    }
    const u64 first = static_cast<u64>(c.rank()) * 10 + 1;
    const u64 second = static_cast<u64>(c.rank()) * 10 + 2;
    c.send<u64>(0, kMsg, std::span<const u64>(&first, 1));
    const auto ack = c.recv<u64>(0, kAck);  // blocks: contention point
    c.send<u64>(0, kMsg, std::span<const u64>(&second, 1));
    c.barrier();
    return digest_values(ack);
  };
  return s;
}

/// P = 4 borrowed-payload micro-protocol: rank 0 lends its send buffer to
/// every peer and must explicitly wait each token before the epoch closes
/// (the loan discipline the skip-borrow-wait mutation violates).
inline Scenario borrow_scenario() {
  constexpr u64 kTag = 7;
  Scenario s;
  s.name = "borrow";
  s.nranks = 4;
  s.body = [](runtime::Comm& c) -> u64 {
    if (c.rank() == 0) {
      std::vector<u64> payload(8);
      for (usize i = 0; i < payload.size(); ++i) payload[i] = 1000 + i;
      for (int dst = 1; dst < 4; ++dst) {
        auto token = c.send_borrowed<u64>(
            dst, kTag, std::span<const u64>(payload.data(), payload.size()));
        token.wait();
      }
      c.barrier();
      return digest_values(payload);
    }
    const auto got = c.recv<u64>(0, kTag);
    c.barrier();
    return digest_values(got);
  };
  return s;
}

/// P = 4 recoverable run: rank 2 crashes at its third communication op
/// (mid allreduce round), survivors unwind into the recover_survivors()
/// rendezvous (WaitSite::Recovery under the controlled scheduler) and
/// finish one round on the shrunk communicator.
inline Scenario recovery_scenario() {
  Scenario s;
  s.name = "recovery";
  s.nranks = 4;
  s.configure = [](runtime::TeamConfig& cfg) {
    cfg.recoverable = true;
    auto plan = std::make_shared<runtime::FaultPlan>();
    plan->crash_rank_at_op(/*rank=*/2, /*k=*/3);
    cfg.fault = std::move(plan);
  };
  s.body = [](runtime::Comm& c) -> u64 {
    u64 h = digest_init();
    auto add = [](u64 a, u64 b) { return a + b; };
    try {
      for (int round = 0; round < 3; ++round) {
        h = digest_mix(
            h, c.allreduce_value<u64>(static_cast<u64>(c.rank()) + 1, add));
        c.barrier();
      }
      return h;
    } catch (const runtime::team_aborted&) {
      runtime::Comm shrunk = c.recover_survivors();
      return digest_mix(h, shrunk.allreduce_value<u64>(
                               static_cast<u64>(shrunk.rank()) + 1, add));
    }
  };
  return s;
}

/// The registry quickstart --replay-schedule and model_check --explore
/// resolve names against. Sort scenarios use few keys per rank: the
/// schedule space, not the data volume, is what the explorer probes.
inline std::vector<Scenario> all_scenarios() {
  core::SortConfig plain;
  core::SortConfig kary2;
  kary2.exchange = core::ExchangeAlgorithm::KAry;
  kary2.exchange_k = 2;
  return {
      sort_scenario("sort2", 2, plain, 48),
      sort_scenario("sort3", 3, plain, 48),
      sort_scenario("sort2-kary2", 2, kary2, 48),
      mailbox_scenario(),
      borrow_scenario(),
      recovery_scenario(),
  };
}

/// nullopt-free lookup: returns an empty-name Scenario when unknown.
inline Scenario find_scenario(const std::string& name) {
  for (Scenario& s : all_scenarios())
    if (s.name == name) return s;
  return Scenario{};
}

}  // namespace hds::model
