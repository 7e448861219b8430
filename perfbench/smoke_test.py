#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny input sizes.

    python3 perfbench/smoke_test.py

For every workload and for --trace 0 and 1, runs hds_e2e twice with the
same seed and checks that
  - every metric BENCHMARK.json names for that mode is emitted, with its unit
    (and, with --trace 0, sort_wall_tail_s among the ungated ones);
  - no sort failed validation (failed_frac is 0);
  - sim_makespan_s and every count (units sim_s, count, B) repeat exactly.
hds_e2e's own guards (traced run == core::sort) run in every traced run.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build() and the paths of this directory)

EXACT_UNITS = ("sim_s", "count", "B")
SEED = 7


def invoke(program, workload, trace, attempt):
    out = os.path.join(run.RESULTS, f"smoke-{workload}-trace{trace}-{attempt}")
    p = subprocess.run(
        [program, "--workload", workload, "--seed", str(SEED), "--seconds",
         "0.5", "--trace", str(trace), "--out", out, "--tiny"],
        capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace {trace}: exit {p.returncode}\n"
                 + p.stdout + p.stderr)
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    if summary["failed_frac"] != 0 or (
            trace == 0 and
            summary["ungated"].get("sort_wall_tail_s", {}).get("unit") != "s"):
        sys.exit(f"FAIL {workload} trace {trace}: summary.json {summary}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    program = run.build()
    for workload in run.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            a = invoke(program, workload, trace, 1)
            b = invoke(program, workload, trace, 2)
            where = f"{workload} trace {trace}"
            for res in (a, b):
                if not res["correct"] or res["failed"] != 0:
                    sys.exit(f"FAIL {where}: {res['failed']} of "
                             f"{res['attempted']} sorts failed validation")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                want = {m["name"]: m["unit"] for m in listed}
                if got != want:
                    sys.exit(f"FAIL {where}: metrics/units differ from "
                             f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            for name, m in a["metrics"].items():
                if m["unit"] in EXACT_UNITS and \
                        m["value"] != b["metrics"][name]["value"]:
                    sys.exit(f"FAIL {where}: {name} differs across runs of "
                             f"one seed: {m['value']} vs "
                             f"{b['metrics'][name]['value']}")
            print(f"ok   {where}: {len(a['metrics'])} metrics, "
                  f"{a['attempted'] + b['attempted']} sorts validated")
    print("smoke test passed")


if __name__ == "__main__":
    main()
