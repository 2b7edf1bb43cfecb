#!/usr/bin/env python3
"""A/B performance gate: this checkout against the merge-base of BASE.

    python scripts/perf_ab.py BASE

Checks out ``git merge-base BASE HEAD`` into a temporary worktree
(``.perf_ab/``) and runs every workload of ``BENCHMARK.json`` on both
sides, each side with its own ``perfbench/run.py`` from its own
checkout root.  Per workload: one discarded warm-up run per side, then
``PAIRS`` alternating base/head pairs of ``run_seconds`` each, then one
``--trace 1 --seed 1`` run per side for the per-layer deltas.  Both
sides run in one job on one machine, so no baseline recorded elsewhere
is involved.

Verdicts, per workload:

* an end-to-end metric FAILs when the head median is worse than the
  base median by more than the metric's ``bound`` and the base's own
  spread (IQR / median) is within that bound; it is UNRESOLVED
  (printed, not failed) when the spread is wider, unless every head run
  is better than every base run;
* any run that is not ``correct``, or a head ``failed / attempted``
  share above the base's, FAILs;
* a traced layer self-time the base spends at least ``MIN_LAYER_S`` in
  FAILs when the head takes more than ``WALL_TOLERANCE`` times as long;
  each wall is printed with its call count on both sides (a wall that
  moves with its calls is more work, not slower work); counts and the
  other per-layer metrics are printed, not gated.

When ``perfbench/`` or ``BENCHMARK.json`` differ between the two sides
the benchmark itself changed: the script says so and exits 0 without
comparing.  Exit status 1 when any verdict is FAIL, else 0.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKTREE = ROOT / ".perf_ab"
#: alternating base/head pairs per workload, after one warm-up per side
PAIRS = 5
#: a traced layer may take at most this many times the base's self-time
WALL_TOLERANCE = 2.5
#: layers the base spends less time in are too short to time once
MIN_LAYER_S = 0.010
#: per-layer seconds that are whole-run walls or residuals, not layers
NOT_LAYERS = frozenset({
    "traced_wall_s", "untraced_wall_s", "trace_overhead_s",
    "unattributed_s", "serve.client_gap_s",
})


@dataclasses.dataclass(frozen=True)
class Verdict:
    verdict: str  # PASS, FAIL, UNRESOLVED or "-" (printed, not gated)
    subject: str
    detail: str


def _worse(value: float, base: float, better: str) -> float:
    """How much worse ``value`` is than ``base``, relative to ``base``."""
    change = (value - base) / base
    return change if better == "lower" else -change


def _end_to_end(metric: dict, base: list[float],
                head: list[float]) -> Verdict:
    bound, better = metric["bound"], metric["better"]
    base_med, head_med = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    spread = (q3 - q1) / base_med
    worse = _worse(head_med, base_med, better)
    won = sum(_worse(h, b, better) < 0 for b, h in zip(base, head))
    all_better = all(_worse(h, b, better) < 0 for b in base for h in head)
    if spread > bound and not all_better:
        verdict = "UNRESOLVED"
    elif worse > bound:
        verdict = "FAIL"
    else:
        verdict = "PASS"
    return Verdict(verdict, metric["name"], (
        f"base {base_med:.4g} head {head_med:.4g} (head "
        f"{'worse' if worse > 0 else 'better'} by {abs(worse):.1%}), "
        f"base IQR {q3 - q1:.4g} ({spread:.1%}, bound {bound:.0%}), "
        f"head won {won}/{len(base)}"
    ))


def _calls_of(wall: str, counts: set[str]) -> str | None:
    """The count metric saying how many calls the traced wall ``wall``
    covers, if ``counts`` has one: ``kernels.ldg_assign.s`` →
    ``kernels.ldg_assign.calls``, ``datasets.load_s`` →
    ``datasets.loads``, ``graph.text_size_s`` →
    ``graph.text_size_calls``, ``charge.self_s`` → ``charge.calls``."""
    stem, group = wall[:-2], wall.rsplit(".", 1)[0]
    for name in (f"{stem}.calls", f"{stem}s", f"{stem}_calls",
                 f"{group}.calls"):
        if name in counts:
            return name
    return None


def _layer(metric: dict, base: float, head: float,
           calls: tuple[float, float] | None = None) -> Verdict:
    name = metric["name"]
    detail = f"base {base:.4g} head {head:.4g} {metric['unit']}"
    if calls is not None:
        detail += f", calls {calls[0]:g} vs {calls[1]:g}"
    gated = (metric["unit"] == "s" and name not in NOT_LAYERS
             and base >= MIN_LAYER_S)
    if not gated:
        return Verdict("-", name, detail)
    detail += f" (x{head / base:.2f}, tolerance x{WALL_TOLERANCE})"
    return Verdict(
        "FAIL" if head > base * WALL_TOLERANCE else "PASS", name, detail
    )


def judge(bench: dict, base: list[dict], head: list[dict],
          base_traced: dict, head_traced: dict) -> list[Verdict]:
    """Every verdict for one workload.

    ``base`` and ``head`` are the paired untraced results in run order,
    ``base_traced`` and ``head_traced`` one traced result per side; each
    is the JSON object ``perfbench/run.py`` prints last.
    """
    verdicts = []
    runs = [*base, *head, base_traced, head_traced]
    incorrect = sum(run["correct"] is not True for run in runs)
    verdicts.append(Verdict(
        "FAIL" if incorrect else "PASS", "correct",
        f"{len(runs) - incorrect}/{len(runs)} runs correct",
    ))

    def share(side: list[dict]) -> float:
        attempted = sum(run["attempted"] for run in side)
        return sum(run["failed"] for run in side) / max(attempted, 1)

    base_share = share([*base, base_traced])
    head_share = share([*head, head_traced])
    verdicts.append(Verdict(
        "FAIL" if head_share > base_share else "PASS", "failed share",
        f"base {base_share:.4g} head {head_share:.4g}",
    ))
    if incorrect:
        return verdicts  # a run that crashed printed no metrics
    for metric in bench["end_to_end"]:
        name = metric["name"]
        verdicts.append(_end_to_end(
            metric,
            [run["metrics"][name]["value"] for run in base],
            [run["metrics"][name]["value"] for run in head],
        ))

    def traced(name: str) -> tuple[float, float]:
        return (base_traced["metrics"][name]["value"],
                head_traced["metrics"][name]["value"])

    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    for metric in bench["per_layer"]:
        b, h = traced(metric["name"])
        if not (b or h):
            continue
        calls = (_calls_of(metric["name"], counts)
                 if metric["unit"] == "s" else None)
        verdicts.append(_layer(metric, b, h, calls and traced(calls)))
    return verdicts


def run_perfbench(bench: dict, root: pathlib.Path, workload: str, *,
                  seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``; a run that exits
    nonzero or prints no result counts as not correct."""
    proc = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def _remove_worktree() -> None:
    if WORKTREE.exists():
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(WORKTREE)], cwd=ROOT, capture_output=True)
        shutil.rmtree(WORKTREE, ignore_errors=True)
    _git("worktree", "prune")


def compare(bench: dict, base_root: pathlib.Path) -> list[str]:
    """Run every workload on both sides, print the verdicts and return
    the failures."""
    sides = {"base": base_root, "head": ROOT}
    failures = []
    for entry in bench["workloads"]:
        workload = entry["name"]
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for root in sides.values():  # warm-up, discarded
            run_perfbench(bench, root, workload, seed=1, trace=0)
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_perfbench(
                    bench, sides[side], workload, seed=pair + 1, trace=0,
                ))
        traced = {
            side: run_perfbench(bench, root, workload, seed=1, trace=1)
            for side, root in sides.items()
        }
        print(f"{workload}:")
        for v in judge(bench, runs["base"], runs["head"],
                       traced["base"], traced["head"]):
            print(f"  {v.verdict:<10} {v.subject:<32} {v.detail}")
            if v.verdict == "FAIL":
                failures.append(f"{workload} {v.subject}")
        sys.stdout.flush()
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    merge_base = _git("merge-base", argv[0], "HEAD")
    changed = subprocess.run(
        ["git", "diff", "--quiet", merge_base, "--",
         "perfbench", "BENCHMARK.json"], cwd=ROOT,
    ).returncode
    if changed:
        print(f"perf_ab: perfbench/ or BENCHMARK.json differ from "
              f"{merge_base[:12]}; a benchmark change is measured fresh, "
              "not compared")
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"perf_ab: base {merge_base[:12]}, head {ROOT}, {PAIRS} pairs "
          f"of {bench['run_seconds']} s per workload")
    _remove_worktree()
    _git("worktree", "add", "--detach", str(WORKTREE), merge_base)
    try:
        failures = compare(bench, WORKTREE)
    finally:
        _remove_worktree()
    if failures:
        print(f"perf_ab: {len(failures)} failure(s): " + "; ".join(failures))
        return 1
    print("perf_ab: no regression found")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
