#!/usr/bin/env python3
"""Alternating-pairs A/B runner for the end-to-end benchmark.

    ab_perfbench.py --base DIR --change DIR --workload W [--seed S]
                    [--pairs 10] [--seconds 30] [--trace 0|1] [--json OUT]
    ab_perfbench.py --selftest

DIR is the root of a checkout (e.g. a clone of the parent commit and the
working tree). Each pair runs both trees' own perfbench/run.py once with the
same workload, seed and run length, alternating which side goes first. For
every end-to-end metric BENCHMARK.json lists, it prints each side's median
and quartiles, change/base, the pairs the change won (ties count for
neither) and a verdict by the rule of a paired claim:

  gain        the change wins >= 9/10 of the pairs and the medians differ
              by more than the base's interquartile distance;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the spread of either side (interquartile distance over
              median) is wider than the bound, and not every change run
              beats every base run;
  no change   anything else.

It also prints failed/attempted sorts per side.

With --trace 1 both sides run traced (perfbench's --trace 1) and the table
pairs the per-layer metrics BENCHMARK.json lists instead: each side's median
and quartiles, change/base and the pairs the change won. Those metrics carry
no bound, so they get no verdict; they show which layer moved, on the same
alternating pairs as the end-to-end claim.

It reads only BENCHMARK.json and perfbench/ of the two trees (the base's
BENCHMARK.json defines the metrics and bounds). --selftest checks the verdict
logic and the per-layer table on synthetic samples and runs nothing.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(xs: list[float]) -> dict:
    return {"q1": quantile(xs, 0.25), "median": quantile(xs, 0.5),
            "q3": quantile(xs, 0.75)}


def paired(base: list[float], change: list[float], better: str) -> dict:
    """Quartiles of each side, change/base of the medians and the pairs the
    change won (base[i] ran beside change[i]; ties count for neither)."""
    sign = 1.0 if better == "higher" else -1.0
    b, c = summarize(base), summarize(change)
    wins = sum(1 for x, y in zip(base, change) if sign * (y - x) > 0)
    ratio = c["median"] / b["median"] if b["median"] else float("nan")
    return {"base": b, "change": c, "ratio": ratio, "wins": wins,
            "pairs": len(base)}


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Compare paired samples (base[i] ran beside change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    p = paired(base, change, better)
    b, c, wins, pairs = p["base"], p["change"], p["wins"], p["pairs"]
    diff = sign * (c["median"] - b["median"])  # > 0: the change is better
    base_iqr = b["q3"] - b["q1"]
    worse_by = -diff / abs(b["median"]) if b["median"] else 0.0
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (b, c))
    dominates = min(sign * y for y in change) > max(sign * x for x in base)
    if wins * 10 >= 9 * pairs and diff > base_iqr:
        v = "gain"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not dominates:
        v = "unresolved"
    else:
        v = "no change"
    return {**p, "spread": spread, "verdict": v}


def run_side(tree: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           repr(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"ab_perfbench: {' '.join(cmd)} failed (exit "
                 f"{p.returncode})")
    return json.loads(lines[-1])


def fmt(x: float) -> str:
    return f"{x:.6g}"


def report(metrics: list[dict], results: dict) -> list[dict]:
    """One row per metric. A metric with a bound (end-to-end) gets a
    verdict; a per-layer metric has no bound and gets none."""
    rows = []
    width = max([16] + [len(m["name"]) for m in metrics])
    print(f"{'metric':<{width}} {'base median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} {'chg/base':>8} {'wins':>6}  "
          "verdict")
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        v = (verdict(base, change, m["better"], m["bound"]) if "bound" in m
             else paired(base, change, m["better"]))
        b, c = v["base"], v["change"]
        cells = [f"{fmt(s['median'])} [{fmt(s['q1'])}, {fmt(s['q3'])}]"
                 for s in (b, c)]
        print(f"{name:<{width}} {cells[0]:<40} {cells[1]:<40} "
              f"{v['ratio']:>8.4f} {str(v['wins']) + '/' + str(v['pairs']):>6}  "
              f"{v.get('verdict', '-')}")
        rows.append({"metric": name, "unit": m["unit"], "better": m["better"],
                     "bound": m.get("bound"), "base_samples": base,
                     "change_samples": change, **v})
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: failed/attempted {failed}/{attempted}")
    return rows


def selftest() -> None:
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    cases = [
        # (change samples, better, bound, expected verdict)
        ([x * 1.25 for x in base], "higher", 0.25, "gain"),
        ([x * 0.8 for x in base], "lower", 0.25, "gain"),
        ([x * 0.7 for x in base], "higher", 0.25, "worse"),
        ([x * 1.3 for x in base], "lower", 0.25, "worse"),
        (list(base), "higher", 0.25, "no change"),
        ([x * 1.01 for x in base], "higher", 0.25, "no change"),
        # 8/10 wins and a clear median gain: not enough pairs for a claim.
        ([x * 1.2 if i >= 2 else x * 0.99 for i, x in enumerate(base)],
         "higher", 0.25, "no change"),
        # Spread wider than the bound without domination: unresolved.
        ([5.0, 15.0, 6.0, 14.0, 10.0, 8.0, 12.0, 4.0, 16.0, 10.0],
         "higher", 0.25, "unresolved"),
    ]
    for change, better, bound, want in cases:
        got = verdict(base, change, better, bound)["verdict"]
        if got != want:
            sys.exit(f"ab_perfbench selftest FAIL: {better} {change} -> "
                     f"{got}, want {want}")
    # Deterministic metrics (zero spread) still register a gain.
    if verdict([2.0] * 10, [1.0] * 10, "lower", 0.05)["verdict"] != "gain":
        sys.exit("ab_perfbench selftest FAIL: constant samples")
    # Ties count for neither side.
    if verdict([1.0] * 10, [1.0] * 10, "lower", 0.05)["wins"] != 0:
        sys.exit("ab_perfbench selftest FAIL: ties counted as wins")
    # Per-layer table: paired quartiles, ratio and wins, and no verdict even
    # where an end-to-end bound would call the change worse.
    layers = [{"name": "local_sort.crit_s", "unit": "s", "better": "lower"},
              {"name": "exchange.GBps", "unit": "GB/s", "better": "higher"},
              {"name": "histogram.rounds", "unit": "count",
               "better": "lower"}]
    crit_b = [0.020, 0.021, 0.022, 0.021]
    crit_c = [0.010, 0.023, 0.011, 0.009]
    results = {"base": [], "change": []}
    for i in range(4):
        for side, crit, gbps in (("base", crit_b[i], 8.0),
                                 ("change", crit_c[i], 4.0)):
            results[side].append({"failed": 0, "attempted": 1, "metrics": {
                "local_sort.crit_s": {"value": crit},
                "exchange.GBps": {"value": gbps},
                "histogram.rounds": {"value": 10}}})
    with contextlib.redirect_stdout(io.StringIO()):
        rows = {r["metric"]: r for r in report(layers, results)}
    crit = rows["local_sort.crit_s"]
    if (crit["wins"], crit["pairs"]) != (3, 4) or "verdict" in crit:
        sys.exit(f"ab_perfbench selftest FAIL: per-layer row {crit}")
    if abs(crit["base"]["median"] - 0.021) > 1e-12 or \
            abs(crit["ratio"] - crit["change"]["median"] / 0.021) > 1e-12:
        sys.exit(f"ab_perfbench selftest FAIL: per-layer quartiles {crit}")
    gbps = rows["exchange.GBps"]
    if gbps["wins"] != 0 or gbps["ratio"] != 0.5 or "verdict" in gbps:
        sys.exit(f"ab_perfbench selftest FAIL: per-layer row {gbps}")
    rounds = rows["histogram.rounds"]
    if rounds["wins"] != 0 or rounds["ratio"] != 1.0:
        sys.exit(f"ab_perfbench selftest FAIL: per-layer row {rounds}")
    print("ab_perfbench selftest OK")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return
    if not (args.base and args.change and args.workload) or args.pairs < 1:
        ap.error("--base, --change, --workload and --pairs >= 1 are required")

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        metrics = json.load(f)["per_layer" if args.trace else "end_to_end"]
    results: dict = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            tree = args.base if side == "base" else args.change
            res = run_side(tree, args.workload, args.seed, args.seconds,
                           args.trace)
            results[side].append(res)
            shown = metrics if not args.trace else [
                m for m in metrics if m["name"].endswith(".crit_s")]
            print(f"pair {i + 1}/{args.pairs} {side}: " + ", ".join(
                f"{m['name']}={fmt(res['metrics'][m['name']]['value'])}"
                for m in shown), flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s {'traced ' if args.trace else ''}runs")
    rows = report(metrics, results)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "pairs": args.pairs, "seconds": args.seconds,
                       "trace": args.trace, "metrics": rows,
                       "failed": {s: sum(r["failed"] for r in results[s])
                                  for s in results},
                       "attempted": {s: sum(r["attempted"]
                                            for r in results[s])
                                     for s in results}}, f, indent=1)


if __name__ == "__main__":
    main()
