"""Steadiness report: N runs per workload, each with its own seed.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] \
        [--first-seed 100] [--save runs.json] [--against earlier.json]

For every end-to-end metric of ``BENCHMARK.json`` it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median.  A metric is flagged ``WIDE`` when its spread
exceeds its bound (``setup_s`` is exempt, as in the acceptance rule) and
``loose`` when it exceeds a third of the bound, the margin to aim for.
With ``--against``, each median is also compared with the same
metric's median in an earlier ``--save`` file and flagged ``DRIFT``
when it is worse by more than the bound.  Exits 1 when anything is
flagged ``WIDE`` or ``DRIFT`` or a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    earlier = (
        json.loads(pathlib.Path(args.against).read_text())
        if args.against else {}
    )
    values: dict[str, dict[str, list[float]]] = {}
    bad = False
    for workload in args.workloads.split(","):
        values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            result = run_once(
                workload, args.first_seed + i, spec["run_seconds"]
            )
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + i}: not correct")
                bad = True
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':16s} {'median':>10s} {'Q1':>10s} {'Q3':>10s}"
              f" {'spread':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bound and name != "setup_s":
                flag, bad = "WIDE", True
            elif spread > bound / 3:
                flag = "loose"
            before = earlier.get(workload, {}).get(name)
            if before:
                old = statistics.median(before)
                worse = (
                    (median - old) / old if metric["better"] == "lower"
                    else (old - median) / old
                )
                if worse > bound:
                    flag, bad = f"DRIFT {worse:+.1%}", True
            print(f"  {name:16s} {median:10.4g} {q1:10.4g} {q3:10.4g}"
                  f" {spread:7.1%} {bound:6.0%} {flag}")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(values, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
