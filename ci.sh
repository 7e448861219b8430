#!/usr/bin/env bash
# CI entry point: lint + build + test across the configurations that matter
# for this repo:
#   - repo-specific lint (tools/lint_hds.py) and clang-tidy (when installed)
#   - the optimized config the benchmarks use
#   - ThreadSanitizer, because the runtime is std::thread-based (one OS
#     thread per simulated rank plus a watchdog) and data races would
#     otherwise only surface as flaky collectives
#   - AddressSanitizer + UndefinedBehaviorSanitizer, because the exchange
#     and kernel paths do manual buffer arithmetic TSan does not check
#   - the hds::check happens-before wall: histogram sort and both
#     baselines must run violation-free at P in {4, 8, 16} (the ctest
#     suite covers this; the smoke below exercises the CLI path too)
#
# Usage: ./ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

# --- lint wall (cheap; fail before any compile) ------------------------------
echo "=== lint: tools/lint_hds.py ==="
python3 tools/lint_hds.py
# The A/B runner's verdict logic (gain / worse / unresolved / no change) on
# synthetic samples; runs no benchmark.
python3 tools/ab_perfbench.py --selftest

run_config() {
  local name="$1"; shift
  local dir="build-ci-${name}"
  echo "=== ${name}: configure ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_config relwithdebinfo \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHDS_WERROR=ON

# clang-tidy needs the compile database from the configure above. The CI
# image is gcc-only; when clang-tidy is absent the stage degrades to a
# notice rather than silently passing (the .clang-tidy profile is still
# exercised on any machine that has the tool).
echo "=== lint: clang-tidy ==="
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p build-ci-relwithdebinfo -quiet "$(pwd)/src/.*"
elif command -v clang-tidy >/dev/null 2>&1; then
  find src \( -name '*.cpp' -o -name '*.h' \) -print0 |
    xargs -0 -n 8 -P "${JOBS}" clang-tidy -p build-ci-relwithdebinfo --quiet
else
  echo "clang-tidy not installed; skipping (profile: .clang-tidy)"
fi

# Perf smoke: the radix kernel must beat std::sort on uniform u64 at
# n = 2^20 on whatever hardware CI runs on — this is the wall-clock claim
# the Auto crossover is built on. tools/validate_bench.py checks the JSON
# shape and applies the gate; the ledger feeds the perf-history stage below.
echo "=== perf smoke: bench_local_sort ==="
(cd build-ci-relwithdebinfo &&
  ./bench/bench_local_sort --max_exp=20 --reps=3 \
    --out=BENCH_local_sort.json --ledger=LEDGER_local_sort.json)
python3 tools/validate_bench.py local_sort \
  build-ci-relwithdebinfo/BENCH_local_sort.json

# Perf gate: the single-copy pull path must beat the packed path by >= 1.3x
# on the u64 P=16 exchange superstep (DESIGN.md sec. 11 — the copy-count
# argument this PR's data path is built on), and the best k-ary interleaved
# exchange must beat packed-alltoallv-plus-merge by >= 1.3x on the combined
# u64 P=16 exchange+merge supersteps (DESIGN.md sec. 13 — fewer copies and
# a single merge pass). The plain exchange+merge path cells are validated
# for shape but not gated: the merge does identical work on both paths, so
# its wall-clock only dilutes the copy delta.
echo "=== perf gate: bench_exchange ==="
(cd build-ci-relwithdebinfo &&
  ./bench/bench_exchange --reps=7 \
    --out=BENCH_exchange.json --ledger=LEDGER_exchange.json)
python3 tools/validate_bench.py exchange \
  build-ci-relwithdebinfo/BENCH_exchange.json

# Perf gate: hybrid sampled histogramming (DESIGN.md sec. 16) must cut the
# histogram-phase simulated time by >= 1.2x AND the probe volume vs the
# dense baseline on the canonical uniform u64 P=16 eps=0.01 cell, may
# never regress the end-to-end makespan by more than 5% in any sweep cell
# (all distributions x epsilons x P), and must resolve every few-distinct
# cell in <= 8 histogram rounds. The sweep's headline numbers feed the
# perf-history stage through LEDGER_histogram.json.
echo "=== perf gate: bench_table_iterations histogram sweep ==="
(cd build-ci-relwithdebinfo &&
  ./bench/bench_table_iterations --skip-table \
    --out=BENCH_histogram.json --ledger=LEDGER_histogram.json)
python3 tools/validate_bench.py histogram \
  build-ci-relwithdebinfo/BENCH_histogram.json
# The sweep is deterministic simulated time, so the regenerated file must
# match the committed snapshot byte for byte: any drift is a change to a
# reproduced number and must be committed deliberately.
if ! cmp build-ci-relwithdebinfo/BENCH_histogram.json BENCH_histogram.json; then
  echo "histogram snapshot FAIL: build-ci-relwithdebinfo/BENCH_histogram.json" \
    "differs from the committed BENCH_histogram.json; if the change is" \
    "intended, regenerate the file (bench_table_iterations --skip-table" \
    "--out=BENCH_histogram.json) and commit it" >&2
  exit 1
fi

# Trace smoke: a traced quickstart run must produce Chrome trace JSON whose
# per-rank slice durations reconcile exactly (<= 1e-9 relative) with the
# SimClock phase sums the runtime reports — the invariant the obs layer is
# built on (DESIGN.md sec. 9).
echo "=== trace smoke: quickstart --trace ==="
(cd build-ci-relwithdebinfo &&
  ./examples/quickstart --ranks=8 --keys-per-rank=20000 \
    --trace=trace_smoke.json >/dev/null)
python3 tools/validate_bench.py trace \
  build-ci-relwithdebinfo/trace_smoke.json

# Check smoke: the quickstart under the happens-before checker must report
# zero PGAS consistency violations at every CI rank count (the ctest suite
# additionally covers both baselines and the mutation tests that prove the
# checker notices elided barriers/fences).
echo "=== check smoke: quickstart --check ==="
for p in 4 8 16; do
  (cd build-ci-relwithdebinfo &&
    ./examples/quickstart --ranks="${p}" --keys-per-rank=5000 --check |
      tail -1)
done

# Model check (DESIGN.md sec. 15): the static schedule matcher over the
# histogram sort's exchange schedules and the two baselines (plus the seeded
# collective-order swap that must FAIL the lint), then bounded
# schedule-space exploration of the histogram sort at P in {2, 3} and the
# mailbox/borrow/recovery micro-protocols at P = 4 — deadlock-freedom,
# quiescence, and byte-identical output + exact sim-time determinism over
# every explored interleaving — and the three seeded protocol mutations,
# each of which must be caught with a replayable counterexample. The
# report artifact is schema-gated by validate_bench.py. HDS_MODEL_DEEP=1
# switches exploration to exhaustive (no independence pruning) with a
# larger budget — hours, not minutes; the default budget is the CI gate.
echo "=== model check: static matcher + bounded exploration ==="
if [ "${HDS_MODEL_DEEP:-0}" = "1" ]; then
  (cd build-ci-relwithdebinfo &&
    ./examples/model_check --deep --max-runs=4096 \
      --json=model_report.json --schedule-out=model_counterexample.schedule)
else
  (cd build-ci-relwithdebinfo &&
    ./examples/model_check --max-runs=256 \
      --json=model_report.json --schedule-out=model_counterexample.schedule)
fi
python3 tools/validate_bench.py model-report \
  build-ci-relwithdebinfo/model_report.json
# The counterexample written for a seeded mutation must replay: quickstart
# re-runs the recorded schedule and exits 1 when the issue reproduces.
if (cd build-ci-relwithdebinfo &&
  ./examples/quickstart \
    --replay-schedule=model_counterexample.schedule); then
  echo "model check FAIL: counterexample schedule replayed clean" >&2
  exit 1
else
  echo "model check OK: counterexample reproduces under replay"
fi

# Fault matrix: every RecoveryMode must complete a correct sort through a
# crash, a straggler and a lossy network at P in {4, 8, 16} (quickstart's
# resilient path drives core::sort_resilient end-to-end; the crash schedule
# lands in the splitter/exchange supersteps, drops exercise the
# watchdog-driven retry path). quickstart exits non-zero if the output is
# not globally sorted or the fault budget is exhausted.
echo "=== fault matrix: quickstart --fault x --recovery ==="
for p in 4 8 16; do
  for mode in restart resume shrink; do
    echo "--- P=${p} mode=${mode}: crash / straggler / drop ---"
    (cd build-ci-relwithdebinfo &&
      ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
        --fault=crash --fault-rank=1 --fault-op=12 \
        --recovery="${mode}" | head -1)
    (cd build-ci-relwithdebinfo &&
      ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
        --straggle=0.25 --fault-rank=2 --fault-op=6 \
        --recovery="${mode}" | head -1)
    (cd build-ci-relwithdebinfo &&
      ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
        --drop=0.01 --fault-seed=11 --recovery="${mode}" | head -1)
  done
  # After a shrink the configured exchange runs on the P-1 survivors (3, 7
  # and 15 ranks): the k-ary schedule on a subteam, prime for P = 4 and 8.
  echo "--- P=${p} exchange-k=4 mode=shrink: crash ---"
  (cd build-ci-relwithdebinfo &&
    ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
      --fault=crash --fault-rank=1 --fault-op=12 \
      --exchange-k=4 --recovery=shrink | head -1)
done

# Recovery gate: BENCH_recovery.json must validate, fault-free checkpoint
# overhead must stay under 10%, and ResumeCheckpoint must beat RestartFull
# in total simulated time-to-solution for crashes at or after the exchange
# superstep (DESIGN.md sec. 12 — the point of checkpointing at all).
echo "=== recovery gate: bench_recovery ==="
(cd build-ci-relwithdebinfo &&
  ./bench/bench_recovery --out=BENCH_recovery.json \
    --ledger=LEDGER_recovery.json)
python3 tools/validate_bench.py recovery \
  build-ci-relwithdebinfo/BENCH_recovery.json
# Deterministic simulated time again: the regenerated file must match the
# committed snapshot byte for byte.
if ! cmp build-ci-relwithdebinfo/BENCH_recovery.json BENCH_recovery.json; then
  echo "recovery snapshot FAIL: build-ci-relwithdebinfo/BENCH_recovery.json" \
    "differs from the committed BENCH_recovery.json; if the change is" \
    "intended, regenerate the file (bench_recovery" \
    "--out=BENCH_recovery.json) and commit it" >&2
  exit 1
fi

# Paper tables: every reproduced figure and table (EXPERIMENTS.md) is
# deterministic simulated time, so the concatenated default-flag stdout of
# the seven paper benches must match the committed BENCH_paper.txt byte for
# byte (about 3.5 min on a 4-vCPU VM). They run in a subdirectory because
# bench_table_iterations also writes its BENCH_histogram.json to the cwd.
echo "=== paper tables: BENCH_paper.txt ==="
mkdir -p build-ci-relwithdebinfo/paper
(cd build-ci-relwithdebinfo/paper &&
  for b in bench_fig2_strong bench_fig3_weak bench_fig4_shared \
    bench_merge_study bench_ablation bench_table1_machine \
    bench_table_iterations; do
    "../bench/${b}"
  done >BENCH_paper.txt)
if ! cmp build-ci-relwithdebinfo/paper/BENCH_paper.txt BENCH_paper.txt; then
  echo "paper tables FAIL: build-ci-relwithdebinfo/paper/BENCH_paper.txt" \
    "differs from the committed BENCH_paper.txt; if the change is" \
    "intended, regenerate the file (the seven benches above, default" \
    "flags, stdout concatenated in that order) and commit it" >&2
  exit 1
fi

# Perf history: validate the run ledgers the benches above emitted, then
# compare their scalar cells against the committed BENCH_history.jsonl
# baseline. Deterministic simulated-time cells (sim_*) gate at 10%;
# wall-clock cells (wall_*) warn only — they vary with host load. To
# accept an intentional change, re-baseline with
#   python3 tools/perf_history.py distill --history BENCH_history.jsonl \
#     --commit "$(git rev-parse --short HEAD)" <ledgers...>
# and commit the appended records (append-only: history is never rewritten).
echo "=== perf history: ledgers vs BENCH_history.jsonl ==="
python3 tools/validate_bench.py ledger \
  build-ci-relwithdebinfo/LEDGER_local_sort.json \
  build-ci-relwithdebinfo/LEDGER_exchange.json \
  build-ci-relwithdebinfo/LEDGER_histogram.json \
  build-ci-relwithdebinfo/LEDGER_recovery.json
python3 tools/perf_history.py check --history BENCH_history.jsonl \
  build-ci-relwithdebinfo/LEDGER_local_sort.json \
  build-ci-relwithdebinfo/LEDGER_exchange.json \
  build-ci-relwithdebinfo/LEDGER_histogram.json \
  build-ci-relwithdebinfo/LEDGER_recovery.json

# End-to-end benchmark smoke: perfbench/ builds its own binary against the
# core API (SortConfig, SortStats, the superstep state machine), which no
# configuration above compiles. smoke_test.py builds it, runs every workload
# twice per trace mode at tiny sizes, and checks that each metric
# BENCHMARK.json names is emitted and that simulated numbers repeat exactly.
echo "=== perfbench smoke: perfbench/smoke_test.py ==="
python3 perfbench/smoke_test.py

# TSan wants debug info and no aggressive inlining to produce usable
# reports; RelWithDebInfo (-O2 -g) is the supported sweet spot. Benchmarks
# are excluded — they only add build time and measure nothing under TSan.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" run_config tsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHDS_SANITIZE=thread \
  -DHDS_BUILD_BENCH=OFF -DHDS_BUILD_EXAMPLES=OFF

# ASan catches the heap errors TSan does not look for (the exchange paths
# splice spans out of reusable buffers); UBSan catches signed overflow and
# bad shifts in the radix/bits code. Same RelWithDebInfo reasoning as TSan.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
  run_config asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHDS_SANITIZE=address \
  -DHDS_BUILD_BENCH=OFF -DHDS_BUILD_EXAMPLES=OFF

UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  run_config ubsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHDS_SANITIZE=undefined \
  -DHDS_BUILD_BENCH=OFF -DHDS_BUILD_EXAMPLES=OFF

echo "=== CI: all configurations passed ==="
