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
# The lint wall and the four build-and-ctest configurations stop the script
# at their first failure. Every later stage runs through `gate`, which
# records a failure and goes on; the script then exits non-zero and names
# each failed gate.
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

# The sanitizer configs run next: they are the only walls that check the
# kernels' buffer arithmetic and shifts. Like the config above, a failing
# build or ctest here stops the script at once; the gates after them do not.
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

# --- gates -----------------------------------------------------------------
# Every stage below runs through `gate`: a failing stage is recorded and the
# script goes on, so one red gate does not hide the verdicts of the stages
# after it; the script still exits non-zero at the end, naming each failed
# gate. Stage functions run with errexit suspended (they are called from an
# `if`), so each chains its steps with && or returns 1 explicitly.
B=build-ci-relwithdebinfo
FAILED=()
gate() {
  local name="$1"; shift
  echo "=== ${name} ==="
  if ! "$@"; then
    echo "GATE FAILED: ${name}" >&2
    FAILED+=("${name}")
  fi
}

# The regenerated snapshot `built` must match the committed `committed` byte
# for byte: deterministic simulated time, so any drift is a change to a
# reproduced number and must be committed deliberately (`how` says how).
snapshot_matches() {
  local built="$1" committed="$2" how="$3"
  cmp "${built}" "${committed}" && return 0
  echo "snapshot FAIL: ${built} differs from the committed ${committed};" \
    "if the change is intended, regenerate the file (${how}) and commit" \
    "it" >&2
  return 1
}

# clang-tidy needs the compile database from the configure above. The CI
# image is gcc-only; when clang-tidy is absent the stage degrades to a
# notice rather than silently passing (the .clang-tidy profile is still
# exercised on any machine that has the tool).
clang_tidy() {
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${B}" -quiet "$(pwd)/src/.*"
  elif command -v clang-tidy >/dev/null 2>&1; then
    find src \( -name '*.cpp' -o -name '*.h' \) -print0 |
      xargs -0 -n 8 -P "${JOBS}" clang-tidy -p "${B}" --quiet
  else
    echo "clang-tidy not installed; skipping (profile: .clang-tidy)"
  fi
}
gate "lint: clang-tidy" clang_tidy

# Perf smoke: the radix kernel must beat std::sort on uniform u64 at
# n = 2^20 on whatever hardware CI runs on — this is the wall-clock claim
# the Auto crossover is built on. tools/validate_bench.py checks the JSON
# shape and applies the gate; the ledger feeds the perf-history stage below.
local_sort_smoke() {
  (cd "${B}" &&
    ./bench/bench_local_sort --max_exp=20 --reps=3 \
      --out=BENCH_local_sort.json --ledger=LEDGER_local_sort.json) &&
    python3 tools/validate_bench.py local_sort "${B}/BENCH_local_sort.json"
}
gate "perf smoke: bench_local_sort" local_sort_smoke

# Perf gate (DESIGN.md sec. 13): some u64 k-ary exchange cell must beat the
# sort's own path — the pull Alltoallv plus the default merge, supersteps
# 3 + 4 — by >= 1.3x in wall-clock time at P = 4 (one rank thread per core
# on a 4-core host), as a paired gain over 21 alternating pairs judged by
# tools/ab_perfbench.py's verdict rule. It is expected to stay red: every
# k-ary round is an Alltoallv of its own, so k = 2 moves each element
# twice and packs it once per hop, and k = 4 is one round at P = 4, the
# sort's own path (an A/A control). The traced representative feeds the
# perf-history stage through LEDGER_exchange.json either way.
exchange_gate() {
  (cd "${B}" &&
    ./bench/bench_exchange --pairs=21 \
      --out=BENCH_exchange.json --ledger=LEDGER_exchange.json) &&
    python3 tools/validate_bench.py exchange "${B}/BENCH_exchange.json"
}
gate "perf gate: bench_exchange" exchange_gate

# Perf gate: hybrid sampled histogramming (DESIGN.md sec. 16) must cut the
# histogram-phase simulated time by >= 1.2x AND the probe volume vs the
# dense baseline on the canonical uniform u64 P=16 eps=0.01 cell, may
# never regress the end-to-end makespan by more than 5% in any sweep cell
# (all distributions x epsilons x P, every cell multi-node), and must
# resolve every few-distinct cell in <= 8 histogram rounds. Auto, the
# default, must stay within 5% of the better of dense and hybrid in every
# cell, and every hybrid or auto sampled round must pool at most
# 2 * P * (kOversample + 2) keys. The sweep's headline numbers feed the
# perf-history stage through LEDGER_histogram.json.
histogram_gate() {
  (cd "${B}" &&
    ./bench/bench_table_iterations --skip-table \
      --out=BENCH_histogram.json --ledger=LEDGER_histogram.json) &&
    python3 tools/validate_bench.py histogram "${B}/BENCH_histogram.json"
}
gate "perf gate: bench_table_iterations histogram sweep" histogram_gate
gate "histogram snapshot: BENCH_histogram.json" snapshot_matches \
  "${B}/BENCH_histogram.json" BENCH_histogram.json \
  "bench_table_iterations --skip-table --out=BENCH_histogram.json"

# Trace smoke: a traced quickstart run must produce Chrome trace JSON whose
# per-rank slice durations reconcile exactly (<= 1e-9 relative) with the
# SimClock phase sums the runtime reports — the invariant the obs layer is
# built on (DESIGN.md sec. 9).
trace_smoke() {
  (cd "${B}" &&
    ./examples/quickstart --ranks=8 --keys-per-rank=20000 \
      --trace=trace_smoke.json >/dev/null) &&
    python3 tools/validate_bench.py trace "${B}/trace_smoke.json"
}
gate "trace smoke: quickstart --trace" trace_smoke

# Check smoke: the quickstart under the happens-before checker must report
# zero PGAS consistency violations at every CI rank count (the ctest suite
# additionally covers both baselines and the mutation tests that prove the
# checker notices elided barriers/fences).
check_smoke() {
  local p
  for p in 4 8 16; do
    (cd "${B}" &&
      ./examples/quickstart --ranks="${p}" --keys-per-rank=5000 --check |
        tail -1) || return 1
  done
}
gate "check smoke: quickstart --check" check_smoke

# Model check (DESIGN.md sec. 15): the static schedule matcher over the
# histogram sort's exchange schedules and the two baselines (plus the seeded
# collective-order swap that must FAIL the lint), then bounded
# schedule-space exploration of the histogram sort at P in {2, 3}, its k-ary
# exchange at P = 4 (k = 2, two rounds) and the mailbox and recovery
# micro-protocols at P = 4 — deadlock-freedom, quiescence, and
# byte-identical output + exact sim-time determinism over every explored
# interleaving — and the three seeded protocol mutations (a dropped barrier
# in the mailbox protocol and in a k-ary round, a reordered mailbox push),
# each of which must be caught with a replayable counterexample. The
# report artifact is schema-gated by validate_bench.py. HDS_MODEL_DEEP=1
# switches exploration to exhaustive (no independence pruning) with a
# larger budget — hours, not minutes; the default budget is the CI gate.
model_check() {
  local budget=(--max-runs=256)
  [ "${HDS_MODEL_DEEP:-0}" = "1" ] && budget=(--deep --max-runs=4096)
  (cd "${B}" &&
    ./examples/model_check "${budget[@]}" \
      --json=model_report.json --schedule-out=model_counterexample.schedule) &&
    python3 tools/validate_bench.py model-report "${B}/model_report.json" ||
    return 1
  # The counterexample written for a seeded mutation must replay: quickstart
  # re-runs the recorded schedule and exits 1 when the failure reproduces.
  if (cd "${B}" &&
    ./examples/quickstart --replay-schedule=model_counterexample.schedule); then
    echo "model check FAIL: counterexample schedule replayed clean" >&2
    return 1
  fi
  echo "model check OK: counterexample reproduces under replay"
}
gate "model check: static matcher + bounded exploration" model_check

# Fault matrix: every RecoveryMode must complete a correct sort through a
# crash, a straggler and a lossy network at P in {4, 8, 16} (quickstart's
# resilient path drives core::sort_resilient end-to-end; the crash schedule
# lands in the splitter/exchange supersteps, drops exercise the
# watchdog-driven retry path). quickstart exits non-zero if the output is
# not globally sorted or the fault budget is exhausted.
fault_matrix() {
  local p mode
  for p in 4 8 16; do
    for mode in restart resume shrink; do
      echo "--- P=${p} mode=${mode}: crash / straggler / drop ---"
      (cd "${B}" &&
        ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
          --fault=crash --fault-rank=1 --fault-op=12 \
          --recovery="${mode}" | head -1) || return 1
      (cd "${B}" &&
        ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
          --straggle=0.25 --fault-rank=2 --fault-op=6 \
          --recovery="${mode}" | head -1) || return 1
      (cd "${B}" &&
        ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
          --drop=0.01 --fault-seed=11 --recovery="${mode}" | head -1) ||
        return 1
    done
    # After a shrink the configured exchange runs on the P-1 survivors (3, 7
    # and 15 ranks): --exchange-k only picks the schedule (no merge
    # overlap), and the prime subteams of P = 4 and 8 run one round, so
    # only P = 16's 15 survivors forward through two ({3, 5}).
    echo "--- P=${p} exchange-k=4 mode=shrink: crash ---"
    (cd "${B}" &&
      ./examples/quickstart --ranks="${p}" --keys-per-rank=4000 \
        --fault=crash --fault-rank=1 --fault-op=12 \
        --exchange-k=4 --recovery=shrink | head -1) || return 1
  done
}
gate "fault matrix: quickstart --fault x --recovery" fault_matrix

# Recovery gate: BENCH_recovery.json must validate, fault-free checkpoint
# overhead must stay under 10%, and ResumeCheckpoint must beat RestartFull
# in total simulated time-to-solution for crashes at or after the exchange
# superstep (DESIGN.md sec. 12 — the point of checkpointing at all).
recovery_gate() {
  (cd "${B}" &&
    ./bench/bench_recovery --out=BENCH_recovery.json \
      --ledger=LEDGER_recovery.json) &&
    python3 tools/validate_bench.py recovery "${B}/BENCH_recovery.json"
}
gate "recovery gate: bench_recovery" recovery_gate
gate "recovery snapshot: BENCH_recovery.json" snapshot_matches \
  "${B}/BENCH_recovery.json" BENCH_recovery.json \
  "bench_recovery --out=BENCH_recovery.json"

# Paper tables: every reproduced figure and table (EXPERIMENTS.md) is
# deterministic simulated time, so the concatenated default-flag stdout of
# the seven paper benches must match the committed BENCH_paper.txt byte for
# byte (about 3.5 min on a 4-vCPU VM). They run in a subdirectory because
# bench_table_iterations also writes its BENCH_histogram.json to the cwd.
paper_tables() {
  mkdir -p "${B}/paper" &&
    (cd "${B}/paper" &&
      for b in bench_fig2_strong bench_fig3_weak bench_fig4_shared \
        bench_merge_study bench_ablation bench_table1_machine \
        bench_table_iterations; do
        "../bench/${b}" || exit 1
      done >BENCH_paper.txt) &&
    snapshot_matches "${B}/paper/BENCH_paper.txt" BENCH_paper.txt \
      "the seven benches above, default flags, stdout concatenated in that order"
}
gate "paper tables: BENCH_paper.txt" paper_tables

# Perf history: validate the run ledgers the benches above emitted, then
# compare their scalar cells against the committed BENCH_history.jsonl
# baseline. Deterministic simulated-time cells (sim_*) gate at 10%;
# wall-clock cells (wall_*) warn only — they vary with host load. To
# accept an intentional change, re-baseline with
#   python3 tools/perf_history.py distill --history BENCH_history.jsonl \
#     --commit "$(git rev-parse --short HEAD)" <ledgers...>
# and commit the appended records (append-only: history is never rewritten).
LEDGERS=("${B}/LEDGER_local_sort.json" "${B}/LEDGER_exchange.json"
  "${B}/LEDGER_histogram.json" "${B}/LEDGER_recovery.json")
gate "perf history: ledgers" \
  python3 tools/validate_bench.py ledger "${LEDGERS[@]}"
gate "perf history: ledgers vs BENCH_history.jsonl" \
  python3 tools/perf_history.py check --history BENCH_history.jsonl \
  "${LEDGERS[@]}"

# End-to-end benchmark smoke: perfbench/ builds its own binary against the
# core API (SortConfig, SortStats, the superstep state machine), which no
# configuration above compiles. smoke_test.py builds it, runs every workload
# twice per trace mode at tiny sizes, and checks that each metric
# BENCHMARK.json names is emitted and that simulated numbers repeat exactly.
gate "perfbench smoke: perfbench/smoke_test.py" \
  python3 perfbench/smoke_test.py

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "=== CI: ${#FAILED[@]} gate(s) failed ===" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "=== CI: all configurations passed ==="
