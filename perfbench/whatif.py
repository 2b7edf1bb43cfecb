"""The serve-whatif workload: a closed loop against ``graphbench serve``.

The server runs in its own process (``python -m repro serve --workers
1``).  ``nproc`` clients in this process each send their next request
only after the previous answer arrived, on one-shot connections.  The
mix is seeded: 19 of every 20 requests repeat one of 24 hot cells,
which setup has already asked once, so they are answer-cache hits; the
20th is a fresh cell (25-50 modeled workers) over traces setup
recorded, so it computes.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

HOT_PLATFORMS = (
    "hadoop", "yarn", "stratosphere", "giraph", "graphlab", "neo4j",
)
HOT_ALGORITHMS = ("bfs", "conn")
HOT_DATASETS = ("amazon", "kgs")
FRESH_WORKERS = range(25, 51)
#: one request in this many is a fresh cell
FRESH_EVERY = 20
#: fresh cells per round: every hot (platform, algorithm, dataset) once
ROUND = len(HOT_PLATFORMS) * len(HOT_ALGORITHMS) * len(HOT_DATASETS)
#: a pass, the unit a run repeats, is this many whole rounds
ROUNDS_PER_PASS = 3
PASS_REQUESTS = ROUNDS_PER_PASS * ROUND * FRESH_EVERY
#: served answers re-computed with ``Runner.run`` after the run
IDENTITY_SAMPLES = 4


def _cell(platform, algorithm, dataset, workers=20) -> dict:
    return {"platform": platform, "algorithm": algorithm,
            "dataset": dataset, "num_workers": workers}


HOT_CELLS = [
    _cell(p, a, d)
    for p in HOT_PLATFORMS for a in HOT_ALGORITHMS for d in HOT_DATASETS
]


class Schedule:
    """The seeded request sequence: ``next()`` gives ``(cell, fresh)``."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        # A round asks every hot cell again on one modeled cluster size.
        # Misses form clusters (GraphLab's greedy partitioning costs
        # hundreds of milliseconds, a cell whose partition another
        # platform or algorithm built first costs a few), and a miss's
        # cost grows with the cluster size.  So the order within a round
        # is fixed, and the seed only orders the rounds inside each pass:
        # pass k always asks the same cells, and its p99 lands on the
        # same kind of miss whatever the seed.
        sizes = list(FRESH_WORKERS)
        self.fresh = [
            _cell(p, a, d, workers)
            for i in range(0, len(sizes), ROUNDS_PER_PASS)
            for workers in self.rng.sample(
                sizes[i:i + ROUNDS_PER_PASS],
                len(sizes[i:i + ROUNDS_PER_PASS]),
            )
            for p in HOT_PLATFORMS for a in HOT_ALGORITHMS
            for d in HOT_DATASETS
        ]
        self.index = 0

    def next(self) -> tuple[dict, bool]:
        self.index += 1
        if self.index % FRESH_EVERY == 0:
            fresh_index = self.index // FRESH_EVERY - 1
            if fresh_index >= len(self.fresh):
                raise RuntimeError("the fresh-cell list is exhausted")
            return self.fresh[fresh_index], True
        return self.rng.choice(HOT_CELLS), False


async def _request(port: int, method: str, path: str,
                   body: bytes = b"") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), payload


class Outcome:
    """Client-side record of every request in one pass."""

    def __init__(self) -> None:
        self.latency_s: list[float] = []
        self.cached: list[bool] = []
        self.fresh: list[bool] = []
        self.statuses: list[int] = []
        self.wall_s = 0.0
        #: (cell, envelope) of the first few answers of each kind
        self.samples: list[tuple[dict, dict]] = []

    @property
    def ok(self) -> int:
        return sum(1 for s in self.statuses if s == 200)


class ServeWhatIf:
    """Owns the server process and the closed-loop clients."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.clients = len(os.sched_getaffinity(0))
        self.schedule = Schedule(seed)
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.hot_envelopes: list[dict] = []

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        """Start the server and ask every hot cell once."""
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        self.hot_envelopes = asyncio.run(self._warm())

    async def _warm(self) -> list[dict]:
        envelopes = []
        for cell in HOT_CELLS:
            status, payload = await _request(
                self.port, "POST", "/v1/predict", json.dumps(cell).encode()
            )
            if status != 200:
                raise RuntimeError(f"warm-up {cell} answered {status}")
            envelopes.append(json.loads(payload))
        return envelopes

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    # -- load --------------------------------------------------------------
    def run(self, requests: int, clients: int | None = None) -> Outcome:
        """One closed-loop pass of ``requests`` requests from
        ``clients`` clients (default ``nproc``)."""
        return asyncio.run(self._run(requests, clients or self.clients))

    async def _run(self, requests: int, clients: int) -> Outcome:
        out = Outcome()
        issued = 0
        start = time.perf_counter()
        sample_counts = {True: 0, False: 0}

        async def client() -> None:
            nonlocal issued
            while issued < requests:
                issued += 1
                cell, fresh = self.schedule.next()
                body = json.dumps(cell).encode()
                t0 = time.perf_counter()
                try:
                    status, payload = await _request(
                        self.port, "POST", "/v1/predict", body
                    )
                except (OSError, ValueError, IndexError):
                    status, payload = 0, b""
                latency = time.perf_counter() - t0
                envelope = json.loads(payload) if status == 200 else None
                out.latency_s.append(latency)
                out.statuses.append(status)
                out.fresh.append(fresh)
                out.cached.append(bool(envelope and envelope["cached"]))
                if envelope is not None and (
                    sample_counts[fresh] < IDENTITY_SAMPLES // 2
                ):
                    sample_counts[fresh] += 1
                    out.samples.append((cell, envelope))

        await asyncio.gather(*(client() for _ in range(clients)))
        out.wall_s = time.perf_counter() - start
        return out

    def scrape(self) -> dict[str, float]:
        """``/metrics`` as ``{sample name: value}``."""
        status, payload = asyncio.run(_request(self.port, "GET", "/metrics"))
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        samples = {}
        for line in payload.decode().splitlines():
            if not line or line.startswith("#") or "{" in line:
                continue
            name, value = line.rsplit(None, 1)
            samples[name] = float(value)
        return samples


def identity_problems(samples, scale: float = 1.0) -> list[str]:
    """Served answers that differ from a direct ``Runner.run(spec)``."""
    from repro.api import PredictRequest, PredictResponse, canonical_json
    from repro.core.runner import Runner

    runner = Runner(scale=scale)
    problems = []
    for cell, envelope in samples:
        direct = PredictResponse.from_record(
            runner.run(PredictRequest(**cell).to_run_spec())
        )
        if canonical_json(envelope["result"]) != direct.to_json():
            problems.append(f"served answer for {cell} differs from Runner.run")
    return problems
