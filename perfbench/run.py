"""The repository's benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` they
are its ``per_layer`` metrics, from a traced run.  The line before it
records the environment (``nproc``, Python, numpy, kernel backend).

Each workload runs in a fresh process (``child.py``).  ``setup_s`` is
the median over ``SETUP_SAMPLES`` set-ups, each in its own process.
Datasets are cached in ``.perfbench_state/datasets`` (the program's
``REPRO_CACHE_DIR``), never in the home directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = (
    "cold-benchmark", "scaling-sweep", "serve-whatif", "parallel-benchmark",
)
#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: wall-clock limits per child process, inside the 180 s a run may take
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 110


class ChildFailed(Exception):
    pass


def run_child(argv: list[str], env: dict, timeout: float,
              out: pathlib.Path) -> dict:
    """Run ``child.py`` in its own process group and return its result.

    The group is killed on a timeout, so a server the child started
    cannot outlive it.
    """
    out.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv,
         "--t0", repr(t0), "--out", str(out)],
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"child exceeded {timeout} s") from None
    if proc.returncode != 0 or not out.is_file():
        raise ChildFailed(f"child exited with {proc.returncode}")
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    state = root / ".perfbench_state"
    state.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        REPRO_CACHE_DIR=str(state / "datasets"),
        REPRO_DATASET_CACHE="1",
        PYTHONHASHSEED="0",
    )
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--state", str(state)]
    out = state / f"result-{os.getpid()}.json"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(
                    [*common, "--setup-only"], env, SETUP_TIMEOUT_S, out
                )["setup_s"])
        result = run_child(common, env, RUN_TIMEOUT_S, out)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        out.unlink(missing_ok=True)
    setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups))

    if args.trace:
        # a layer the workload never reaches reads 0
        section = "per_layer"
        measured = {m["name"]: 0.0 for m in spec[section]} | measured
    else:
        section = "end_to_end"
    metrics = {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
        for m in spec[section]
    }
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("# env " + json.dumps(
        dict(result["env"], workload=args.workload, seed=args.seed,
             setup_samples=[round(s, 4) for s in setups],
             **result.get("info", {})),
        sort_keys=True,
    ))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
