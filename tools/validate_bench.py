#!/usr/bin/env python3
"""Validate and gate the machine-readable artifacts the benches emit.

One entry point replaces the inline python blocks ci.sh used to carry:

    validate_bench.py local_sort BENCH_local_sort.json
    validate_bench.py exchange   BENCH_exchange.json
    validate_bench.py recovery   BENCH_recovery.json
    validate_bench.py histogram  BENCH_histogram.json
    validate_bench.py ledger     ledger.json [ledger2.json ...]
    validate_bench.py model-report model_report.json
    validate_bench.py trace      trace.json

Kinds and their gates (unchanged from the historical ci.sh heredocs):
  local_sort  cell shape incl. each cell's spread (q1 <= median <= q3 over
              its reps); the radix kernel must beat std::sort on uniform
              u64 at n = 2^20 (the wall-clock claim behind Auto dispatch).
  exchange    cell shape incl. paired samples, quartiles, wins, thread-CPU
              and per-round k-ary breakdowns; some u64 k-ary cell must beat
              the sort's Alltoallv path (exchange + merge supersteps, P=4)
              by >= 1.3x as a paired gain, judged by tools/ab_perfbench.py's
              verdict() on the cell's alternating pairs.
  recovery    cell shape; fault-free checkpoint overhead <= 10% at
              P in {4, 8, 16}; ResumeCheckpoint beats RestartFull for
              crashes at or after the exchange superstep.
  histogram   cell shape of the PR 10 histogram-mode sweep
              (BENCH_histogram.json); every (dist, epsilon, P) cell
              carries both modes, dense and hybrid; hybrid must cut
              histogram-phase sim time >= 1.2x AND probe volume vs dense on
              the canonical uniform u64 P=16 eps=0.01 cell, may never
              regress the makespan by > 5% in any cell, and must resolve
              every fewdistinct cell in <= 8 rounds (its dense rounds snap
              the brackets onto real keys, so key gaps cost no rounds).
  ledger      hds-run-ledger schema check: versioned header, op-class /
              sample / feature cross-consistency, and the fit never losing
              to the probe surrogate (err2_fit <= err2_default).
  model-report  hds-model-report schema check (examples/model_check --json):
              the static matcher saw no schedule mismatches, every
              exploration ran clean and deterministic (byte-identical
              output, exact sim-time equality across interleavings), and
              every seeded protocol mutation was caught with a replayable
              counterexample.
  trace       Chrome trace JSON of a traced run (quickstart --trace): one
              slice track per rank, known phase categories, and per-rank
              slice durations reconciling with the SimClock phase sums to
              <= 1e-9 relative.

Exit status: 0 OK, 1 gate failure or malformed artifact, 2 usage error.
No dependencies beyond the standard library and tools/ab_perfbench.py.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_perfbench import paired, verdict  # noqa: E402


def fail(msg: str) -> None:
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def load(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_local_sort(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    for c in cells:
        for k in ("type", "n", "kernel", "seconds_median", "seconds_q1",
                  "seconds_q3", "speedup_vs_comparison"):
            require(k in c, f"missing field {k}: {c}")
        require(0.0 < c["seconds_q1"] <= c["seconds_median"] <=
                c["seconds_q3"], f"quartiles out of order: {c}")
    target = [c for c in cells
              if c["type"] == "u64" and c["n"] == 1 << 20 and
              c["kernel"] == "radix"]
    require(bool(target), "no u64 radix cell at n=2^20")
    speedup = target[0]["speedup_vs_comparison"]
    require(speedup > 1.0,
            f"radix lost to std::sort on u64 at 2^20: {speedup}x")
    print(f"perf smoke OK: radix {speedup:.2f}x faster than std::sort "
          "(u64, n=2^20)")


# The k-ary claim (DESIGN.md sec. 13): some u64 k-ary cell beats the sort's
# Alltoallv path by this factor in wall-clock time, as a paired gain.
KARY_SPEEDUP_BOUND = 1.3


def check_exchange(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    for c in cells:
        for k in ("type", "nranks", "n_per_rank", "k", "overlap", "pairs",
                  "wins", "speedup", "rounds"):
            require(k in c, f"missing field {k}: {c}")
        require(c["k"] >= 2 and c["pairs"] >= 10, str(c))
        for side in ("alltoallv", "kary"):
            for k in ("wall_s", "wall_median", "wall_q1", "wall_q3", "cpu_s",
                      "cpu_median"):
                require(f"{side}_{k}" in c, f"missing field {side}_{k}: {c}")
            require(len(c[f"{side}_wall_s"]) == c["pairs"] and
                    len(c[f"{side}_cpu_s"]) == c["pairs"],
                    f"{side} samples do not match pairs: {c}")
            require(0.0 < c[f"{side}_wall_q1"] <= c[f"{side}_wall_median"]
                    <= c[f"{side}_wall_q3"], f"quartiles out of order: {c}")
            require(c[f"{side}_cpu_median"] > 0.0, str(c))
        p = paired(c["alltoallv_wall_s"], c["kary_wall_s"], "lower")
        require(p["wins"] == c["wins"],
                f"wins {c['wins']} but the samples give {p['wins']}: {c}")
        require(bool(c["rounds"]),
                f"kary cell missing per-round breakdown: {c}")
        for r in c["rounds"]:
            require(r["exchange_s"] >= 0.0 and r["merge_s"] >= 0.0, str(c))
    u64 = [c for c in cells if c["type"] == "u64"]
    require(bool(u64), "no u64 cells")
    rows = []
    for c in u64:
        v = verdict(c["alltoallv_wall_s"], c["kary_wall_s"], "lower",
                    KARY_SPEEDUP_BOUND - 1.0)
        speedup = 1.0 / v["ratio"] if v["ratio"] > 0.0 else 0.0
        ok = v["verdict"] == "gain" and speedup >= KARY_SPEEDUP_BOUND
        rows.append((ok, speedup, c, v))
        print(f"  u64 P={c['nranks']} k={c['k']} "
              f"overlap={'yes' if c['overlap'] else 'no'}: {speedup:.2f}x "
              f"vs Alltoallv, {v['wins']}/{v['pairs']} wins, verdict "
              f"{v['verdict']}, thread-CPU "
              f"{c['kary_cpu_median'] / c['alltoallv_cpu_median']:.2f}x")
    ok, speedup, best, v = max(rows, key=lambda row: (row[0], row[1]))
    require(ok,
            f"best k-ary (k={best['k']}, overlap={best['overlap']}) only "
            f"{speedup:.2f}x vs the sort's Alltoallv path on u64 "
            f"P={best['nranks']} exchange+merge ({v['wins']}/{v['pairs']} "
            f"wins, verdict {v['verdict']}; needs a gain of >= "
            f"{KARY_SPEEDUP_BOUND}x)")
    print(f"perf gate OK: k-ary k={best['k']} {speedup:.2f}x faster than the "
          f"sort's Alltoallv path (u64, P={best['nranks']}, exchange+merge "
          f"supersteps, {v['wins']}/{v['pairs']} wins)")


def check_recovery(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    for c in cells:
        for k in ("kind", "nranks", "crash", "mode", "n_per_rank",
                  "sim_seconds", "vs_restart", "overhead_frac",
                  "recomputed_fraction", "recover_s", "attempts",
                  "checkpoint_bytes"):
            require(k in c, f"missing field {k}: {c}")
        require(c["kind"] in ("overhead", "crash"), str(c))
        require(c["sim_seconds"] > 0.0, str(c))
    ovh = [c for c in cells
           if c["kind"] == "overhead" and c["mode"] == "checkpointed"]
    require(len(ovh) == 3, "expected overhead cells at P in {4, 8, 16}")
    for c in ovh:
        require(c["overhead_frac"] <= 0.10,
                f"checkpoint overhead {c['overhead_frac']:.1%} > 10% "
                f"at P={c['nranks']}")
    for crash in ("exchange-begin", "exchange-end"):
        resume = [c for c in cells if c["kind"] == "crash"
                  and c["crash"] == crash and
                  c["mode"] == "ResumeCheckpoint"]
        require(bool(resume), f"no ResumeCheckpoint cell for {crash}")
        require(resume[0]["vs_restart"] > 1.0,
                f"resume did not beat restart at {crash}: "
                f"{resume[0]['vs_restart']:.2f}x")
        require(resume[0]["recomputed_fraction"] < 1.0, str(resume[0]))
    print("recovery gate OK: overhead <= 10% at P in {4,8,16}, resume "
          "beats restart at/after the exchange superstep")


def check_histogram(path: str) -> None:
    cells = load(path)
    require(isinstance(cells, list) and bool(cells),
            f"{path}: empty or malformed JSON")
    by_cell: dict[tuple, dict[str, dict]] = {}
    for c in cells:
        for k in ("type", "dist", "epsilon", "nranks", "mode", "iterations",
                  "sampled_rounds", "probes_total", "hist_bytes_sampled",
                  "hist_bytes_dense", "histogram_s", "makespan_s"):
            require(k in c, f"missing field {k}: {c}")
        require(c["mode"] in ("dense", "hybrid"), str(c))
        require(c["histogram_s"] > 0.0 and c["makespan_s"] > 0.0, str(c))
        require(c["iterations"] >= 1, str(c))
        if c["mode"] == "dense":
            require(c["sampled_rounds"] == 0 and
                    c["hist_bytes_sampled"] == 0,
                    f"dense cell with sampled traffic: {c}")
        by_cell.setdefault(
            (c["dist"], c["epsilon"], c["nranks"]), {})[c["mode"]] = c
    for key, modes in by_cell.items():
        require(set(modes) == {"dense", "hybrid"},
                f"cell {key} missing modes: has {sorted(modes)}")
        dense, hybrid = modes["dense"], modes["hybrid"]
        ratio = hybrid["makespan_s"] / dense["makespan_s"]
        require(ratio <= 1.05,
                f"hybrid regresses makespan {ratio:.2f}x at {key}")
        if key[0] == "fewdistinct":
            require(hybrid["iterations"] <= 8,
                    f"hybrid took {hybrid['iterations']} rounds at {key} "
                    "(> 8)")
    gated = by_cell.get(("uniform", 0.01, 16))
    require(gated is not None, "no uniform eps=0.01 P=16 cell")
    dense, hybrid = gated["dense"], gated["hybrid"]
    speedup = dense["histogram_s"] / hybrid["histogram_s"]
    require(speedup >= 1.2,
            f"hybrid histogram phase only {speedup:.2f}x vs dense on "
            "uniform u64 P=16 eps=0.01 (< 1.2x)")
    require(hybrid["probes_total"] < dense["probes_total"],
            f"hybrid probed {hybrid['probes_total']} candidates vs dense "
            f"{dense['probes_total']} on the gated cell")
    print(f"perf gate OK: hybrid histogram phase {speedup:.2f}x faster than "
          f"dense (u64 uniform, P=16, eps=0.01; probes "
          f"{hybrid['probes_total']} vs {dense['probes_total']}), makespan "
          f"within 5% on all {len(by_cell)} cells, fewdistinct in <= 8 "
          "rounds")


def check_ledger(path: str) -> None:
    led = load(path)
    require(isinstance(led, dict), f"{path}: not a JSON object")
    require(led.get("schema") == "hds-run-ledger",
            f"{path}: schema is {led.get('schema')!r}")
    require(led.get("version") == 1, f"{path}: unknown ledger version")
    for k in ("bench", "nranks", "makespan_s", "config", "machine",
              "phases", "phase_seconds", "op_classes", "samples",
              "timeline", "counters", "scalars"):
        require(k in led, f"{path}: missing key {k!r}")
    P = led["nranks"]
    require(isinstance(P, int) and P >= 1, f"{path}: bad nranks {P}")
    require(len(led["phase_seconds"]) in (0, P),
            f"{path}: phase_seconds has {len(led['phase_seconds'])} rows "
            f"for {P} ranks")
    nsamples = 0
    for name, st in led["op_classes"].items():
        for k in ("count", "bytes", "slice_s", "model_s", "max_slice_s"):
            require(k in st, f"{path}: op class {name} missing {k}")
        require(st["count"] > 0, f"{path}: op class {name} with count 0")
        # model charge never exceeds the slice span it was recorded in
        require(st["model_s"] <= st["slice_s"] + 1e-9,
                f"{path}: {name} model_s {st['model_s']} > slice_s "
                f"{st['slice_s']}")
        if name not in ("compute", "none"):
            nsamples += st["count"]
    require(len(led["samples"]) == nsamples,
            f"{path}: {len(led['samples'])} samples but op classes total "
            f"{nsamples}")
    for s in led["samples"]:
        require(len(s) == 4, f"{path}: malformed sample {s}")
    if "features" in led:
        ft = led["features"]
        require(ft["total_err2_fit"] <= ft["total_err2_default"] + 1e-18,
                f"{path}: fit lost to the probe surrogate "
                f"({ft['total_err2_fit']} > {ft['total_err2_default']})")
        for name, f in ft["classes"].items():
            require(f["err2_fit"] <= f["err2_default"] + 1e-18,
                    f"{path}: class {name} fit lost to the surrogate")
    print(f"ledger OK: {path} ({led['bench']}, P={P}, "
          f"{len(led['samples'])} samples, "
          f"{len(led['scalars'])} scalar cells)")


def check_model_report(path: str) -> None:
    rep = load(path)
    require(isinstance(rep, dict), f"{path}: not a JSON object")
    require(rep.get("schema") == "hds-model-report",
            f"{path}: schema is {rep.get('schema')!r}")
    require(rep.get("version") == 1, f"{path}: unknown model-report version")
    for k in ("matcher", "explorations", "mutations"):
        require(k in rep, f"{path}: missing key {k!r}")

    mt = rep["matcher"]
    for k in ("configs", "failures", "ops", "loans_opened", "loans_waited"):
        require(k in mt, f"{path}: matcher missing {k!r}")
    require(mt["configs"] >= 1, f"{path}: matcher ran no configurations")
    require(mt["failures"] == 0,
            f"{path}: static matcher found {mt['failures']} schedule "
            "mismatch(es)")
    require(mt["loans_waited"] == mt["loans_opened"],
            f"{path}: {mt['loans_opened'] - mt['loans_waited']} loan(s) "
            "not explicitly waited")

    require(len(rep["explorations"]) >= 1, f"{path}: no explorations")
    for ex in rep["explorations"]:
        for k in ("scenario", "nranks", "runs", "decisions", "deterministic",
                  "issues", "counterexample"):
            require(k in ex, f"{path}: exploration missing {k!r}")
        name = ex["scenario"]
        require(ex["runs"] >= 1, f"{path}: {name}: no runs executed")
        require(ex["deterministic"] is True,
                f"{path}: {name}: output/sim-time diverged across schedules")
        require(ex["issues"] == [],
                f"{path}: {name}: oracle violations: {ex['issues']}")

    require(len(rep["mutations"]) >= 3,
            f"{path}: only {len(rep['mutations'])} seeded mutation(s) "
            "exercised (need >= 3)")
    for mu in rep["mutations"]:
        for k in ("scenario", "mutation", "caught", "kind", "counterexample"):
            require(k in mu, f"{path}: mutation entry missing {k!r}")
        require(mu["caught"] is True,
                f"{path}: seeded mutation {mu['mutation']!r} on "
                f"{mu['scenario']!r} was NOT caught by the explorer")
        require(len(mu["counterexample"]) > 0,
                f"{path}: mutation {mu['mutation']!r} caught without a "
                "replayable counterexample")
    print(f"model-report OK: {path} (matcher configs={mt['configs']}, "
          f"{len(rep['explorations'])} exploration(s), "
          f"{len(rep['mutations'])} mutation(s) caught)")


def check_trace(path: str) -> None:
    d = load(path)
    require(isinstance(d, dict) and "hds" in d and "traceEvents" in d,
            f"{path}: not an hds Chrome trace")
    hds = d["hds"]
    P = hds["ranks"]
    phases = hds["phases"]
    slices = [e for e in d["traceEvents"] if e.get("ph") == "X"]
    require(bool(slices), f"{path}: no complete events in trace")
    require({e["tid"] for e in slices} == set(range(P)),
            f"{path}: missing rank tracks")
    require({e["cat"] for e in slices} <= set(phases),
            f"{path}: unknown phase category")
    sums = [dict.fromkeys(phases, 0.0) for _ in range(P)]
    for e in slices:
        sums[e["tid"]][e["cat"]] += e["dur"] / 1e6
    worst = 0.0
    for r in range(P):
        for p, name in enumerate(phases):
            clock = hds["clock_phase_seconds"][r][p]
            err = abs(sums[r][name] - clock) / max(1.0, abs(clock))
            worst = max(worst, err)
    require(worst <= 1e-9, f"{path}: trace/clock mismatch: rel err {worst}")
    print(f"trace OK: {path} ({len(slices)} slices over {P} ranks, "
          f"worst reconciliation error {worst:.2e})")


KINDS = {
    "local_sort": check_local_sort,
    "exchange": check_exchange,
    "recovery": check_recovery,
    "histogram": check_histogram,
    "ledger": check_ledger,
    "model-report": check_model_report,
    "trace": check_trace,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in KINDS:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[2:]:
        KINDS[argv[1]](path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
