// Sec. VI-E2: the parallel k-way merging study. Merge 16 GB of 32-bit keys
// (modelled; equal-size uniformly distributed chunks, the paper's setup)
// on one SuperMUC node, sweeping the number of threads and the number of
// chunks, for three strategies:
//
//   binary-merge  — OpenMP-task-style pairwise merge tree
//                   (bench::pairwise_merge_tree, one merge pass per level),
//   tournament    — GNU-parallel-style loser-tree k-way merge
//                   (merge_chunks' Tournament, priced as a loser tree),
//   re-sort       — task-parallel sort of the concatenation (PSTL stand-in).
//
// The table is simulated time. On the host both merge columns run core's
// pairwise merge-path kernel, which u32 keys take (core/kway_merge.h).
//
// Expected shape: two threads already help for few large chunks; many
// threads on many small chunks degrade (cache misses, cross-NUMA traffic);
// re-sorting outperforms merging in that regime — the observation that made
// the paper's implementation use a sort as its final "merge".
#include <iostream>

#include "baselines/parallel_merge_sort.h"
#include "bench_common.h"
#include "core/merge.h"
#include "workload/distributions.h"

namespace {

using namespace hds;
using runtime::Comm;
using runtime::Team;

/// Thread-parallel k-way merge on a Team: each rank merges its share of the
/// chunks with the local merge `merge(comm, data, counts)`, then a pairwise
/// tree combines rank results (handoffs charged as intra-node traffic).
/// Returns simulated seconds.
template <class MergeFn>
double parallel_merge(int threads, usize chunks, usize n_real,
                      double data_scale, int numa_domains, MergeFn merge) {
  runtime::TeamConfig cfg;
  cfg.nranks = threads;
  cfg.machine = net::MachineModel::supermuc_node(
      std::max(threads, numa_domains), numa_domains);
  cfg.machine.ranks_per_node = threads;
  cfg.data_scale = data_scale;
  Team team(cfg);

  team.run([&](Comm& c) {
    // This rank's share of the chunks (block distribution).
    const usize per = chunks / threads;
    const usize extra = chunks % threads;
    const usize mine =
        per + (static_cast<usize>(c.rank()) < extra ? 1 : 0);
    const usize chunk_len = n_real / chunks;
    workload::GenConfig gen;
    gen.seed = 3;
    std::vector<u32> data;
    std::vector<usize> counts;
    for (usize k = 0; k < mine; ++k) {
      auto chunk = workload::generate_u32(gen, static_cast<int>(k),
                                          static_cast<int>(chunks + 1),
                                          chunk_len);
      std::sort(chunk.begin(), chunk.end());
      data.insert(data.end(), chunk.begin(), chunk.end());
      counts.push_back(chunk.size());
    }
    merge(c, data, std::span<const usize>(counts));
    // Cache/DRAM contention of merging many small chunks (the Sec. VI-E2
    // "drastic performance degradation due to a high fraction of cache
    // misses"): in the co-merging libraries the study measured (GNU
    // parallel, OpenMP tasks) every thread touches ~`chunks` run streams;
    // past ~64 streams extractions miss, and the more threads stream from
    // DRAM concurrently the closer each element gets to full miss latency.
    if (chunks > 64) {
      const double excess =
          std::log2(static_cast<double>(chunks) / 64.0);
      const double thread_factor =
          std::clamp(static_cast<double>(threads) / 28.0, 0.15, 1.0);
      c.charge_seconds(18e-9 * excess * thread_factor *
                       c.cost().scaled(data.size()));
    }

    // Pairwise combine across ranks.
    for (int l = 1; static_cast<u64>(1ULL << l) <= next_pow2(static_cast<u64>(threads)); ++l) {
      const int step = 1 << l;
      const int half = step / 2;
      if (c.rank() % step == half) {
        c.send(c.rank() - half, l, std::span<const u32>(data));
        data.clear();
        data.shrink_to_fit();
      } else if (c.rank() % step == 0 && c.rank() + half < threads) {
        const auto theirs = c.recv<u32>(c.rank() + half, l);
        std::vector<u32> merged(data.size() + theirs.size());
        std::merge(data.begin(), data.end(), theirs.begin(), theirs.end(),
                   merged.begin());
        // Co-merge: the 2^l threads whose runs meet here split the merge by
        // merge-path partitioning (as GNU parallel / TBB do), so the
        // charged critical path is merged/2^l, not the serial merge.
        c.charge_merge_pass(std::max<usize>(1, merged.size() >> l));
        data = std::move(merged);
      }
    }
  });
  return team.stats().makespan_s;
}

/// Task-parallel re-sort of the concatenation (the paper's winner).
double parallel_resort(int threads, usize n_real, double data_scale,
                       int numa_domains) {
  runtime::TeamConfig cfg;
  cfg.nranks = threads;
  cfg.machine = net::MachineModel::supermuc_node(
      std::max(threads, numa_domains), numa_domains);
  cfg.machine.ranks_per_node = threads;
  cfg.data_scale = data_scale;
  Team team(cfg);
  team.run([&](Comm& c) {
    workload::GenConfig gen;
    gen.seed = 3;
    auto local = workload::generate_u32(gen, c.rank(), threads,
                                        n_real / threads);
    baselines::parallel_merge_sort(c, local);
  });
  return team.stats().makespan_s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hds;
  const bench::Args args(argc, argv, {"model-keys", "real-keys"});
  const u64 model_keys = args.get_int("model-keys", u64{4} << 30);  // 16 GB
  const u64 real_keys = args.get_int("real-keys", u64{1} << 21);
  const double scale = static_cast<double>(model_keys) /
                       static_cast<double>(real_keys);
  const int numa_domains = 4;
  const auto key = [](u32 v) { return v; };

  bench::print_header(
      "Parallel k-way merging study",
      "Sec. VI-E2; " + fmt_bytes(static_cast<double>(model_keys) * 4) +
          " of u32 keys (modelled), one SuperMUC node, threads x chunks");

  Table t({"threads", "chunks", "binary-merge t[s]", "tournament t[s]",
           "re-sort t[s]", "best"});
  for (int threads : {1, 2, 4, 8, 16, 28}) {
    for (usize chunks : {usize{2}, usize{16}, usize{128}, usize{1024}}) {
      if (chunks < static_cast<usize>(threads)) continue;
      const double bin = parallel_merge(
          threads, chunks, real_keys, scale, numa_domains,
          [&](Comm& c, std::vector<u32>& data, std::span<const usize> counts) {
            std::vector<u32> scratch;
            bench::pairwise_merge_tree(c, data, counts, key, scratch);
          });
      const double tour = parallel_merge(
          threads, chunks, real_keys, scale, numa_domains,
          [&](Comm& c, std::vector<u32>& data, std::span<const usize> counts) {
            core::merge_chunks(c, data, counts,
                               core::MergeStrategy::Tournament, key);
          });
      const double sortt =
          parallel_resort(threads, real_keys, scale, numa_domains);
      const char* best = (bin <= tour && bin <= sortt) ? "binary"
                         : (tour <= sortt)             ? "tournament"
                                                       : "re-sort";
      t.add_row({std::to_string(threads), std::to_string(chunks), fmt(bin),
                 fmt(tour), fmt(sortt), best});
    }
    std::cerr << "  done: " << threads << " threads\n";
  }
  std::cout << t.to_string();
  std::cout << "\nExpected: merging wins for few large chunks; the "
               "task-parallel re-sort wins for many small chunks on many "
               "threads (Sec. VI-E2).\n";
  return 0;
}
