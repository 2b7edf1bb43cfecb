"""Serving-layer load benchmark: open-loop traffic against a live
``graphbench serve`` instance.

Drives a real :class:`~repro.serve.app.GraphbenchServer` (ephemeral
port, actual sockets) with an open-loop arrival process — requests
launch on a fixed schedule whether or not earlier ones finished, the
honest way to measure a service (closed-loop clients hide queueing by
slowing down with the server).  The request mix is bursty and
repetitive on purpose: bursts of identical cells exercise coalescing,
recurring cells exercise the answer cache, and the residue exercises
the batch path.

Reported per worker count (default ``{1, 4}``; ``--quick`` runs one
2-worker profile for CI):

* p50/p99 latency overall and p99 of the **warm path** (answer-cache
  hits);
* answer-cache hit rate and coalescing ratio;
* throughput (completed requests per second) and shed/error counts;
* ``identical`` — the served answer is byte-identical to a direct
  ``Runner.run(spec)`` (a correctness flag, never skipped).

Run standalone:  python benchmarks/bench_serve_load.py [--quick]
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time

from repro.api import PredictRequest, PredictResponse, canonical_json
from repro.core.runner import Runner
from repro.core.report import render_table
from repro.serve import GraphbenchServer

#: the recurring what-if cells clients keep asking about
CELLS = (
    {"platform": "giraph", "algorithm": "bfs", "dataset": "amazon"},
    {"platform": "graphlab", "algorithm": "bfs", "dataset": "amazon"},
    {"platform": "neo4j", "algorithm": "bfs", "dataset": "amazon"},
    {"platform": "giraph", "algorithm": "bfs", "dataset": "kgs"},
    {"platform": "graphlab", "algorithm": "conn", "dataset": "kgs"},
    {"platform": "neo4j", "algorithm": "conn", "dataset": "kgs"},
)
#: consecutive requests per cell (bursts drive coalescing)
BURST = 4


async def _post_predict(
    port: int, cell: dict
) -> tuple[int, float, dict | None]:
    """(status, latency_seconds, envelope) for one predict call."""
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(cell).encode()
    writer.write(
        (
            f"POST /v1/predict HTTP/1.1\r\n"
            f"Host: bench\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    latency = time.perf_counter() - started
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    envelope = json.loads(payload) if status == 200 else None
    return status, latency, envelope


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[max(0, int(q * 100) - 1)]


async def _load_profile(
    *, workers: int, num_requests: int, interarrival: float
) -> dict:
    """One open-loop run against a fresh server."""
    server = GraphbenchServer(workers=workers, max_pending=256)
    await server.start()
    try:
        async def one(index: int):
            await asyncio.sleep(index * interarrival)
            cell = CELLS[(index // BURST) % len(CELLS)]
            return await _post_predict(server.port, cell)

        wall_start = time.perf_counter()
        outcomes = await asyncio.gather(
            *[one(i) for i in range(num_requests)]
        )
        wall = time.perf_counter() - wall_start
        # one final query per cell: all warm by now, and the last one
        # is the identity sample
        warm_sample = None
        for cell in CELLS:
            status, _, envelope = await _post_predict(server.port, cell)
            assert status == 200 and envelope["cached"], (
                "post-storm query must be a warm hit"
            )
            warm_sample = (cell, envelope)
        stats = server.batcher.stats()
        admission = server.admission.stats()
    finally:
        await server.aclose()

    ok = [(lat, env) for status, lat, env in outcomes if status == 200]
    latencies = sorted(lat for lat, _ in ok)
    warm = sorted(lat for lat, env in ok if env["cached"])
    return {
        "workers": workers,
        "requests": num_requests,
        "completed": len(ok),
        "rejected": sum(1 for s, _, _ in outcomes if s == 429),
        "errors": sum(1 for s, _, _ in outcomes if s >= 500),
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(len(ok) / wall, 1) if wall > 0 else 0.0,
        "p50_seconds": round(_quantile(latencies, 0.50), 4),
        "p99_seconds": round(_quantile(latencies, 0.99), 4),
        "warm_hits": len(warm),
        "warm_p99_seconds": round(_quantile(warm, 0.99), 4),
        "cache_hit_rate": round(stats["answer_cache"]["hit_rate"], 3),
        "coalescing_ratio": round(stats["coalescing_ratio"], 3),
        "coalesced": stats["coalesced"],
        "batches": stats["batches"],
        "admitted": admission["admitted"],
        "warm_sample": warm_sample,
    }


def _identity_check(profile: dict) -> bool:
    """The served warm answer matches a direct library run, byte for
    byte (the acceptance criterion behind the whole API layer)."""
    cell, envelope = profile.pop("warm_sample")
    direct = PredictResponse.from_record(
        Runner().run(PredictRequest(**cell).to_run_spec())
    )
    return canonical_json(envelope["result"]) == direct.to_json()


def measure_serve_load(*, quick: bool = False) -> tuple[dict, str]:
    """Serve-load data for the benchmark and the CI smoke."""
    if quick:
        worker_counts: tuple[int, ...] = (2,)
        num_requests, interarrival = 48, 0.01
    else:
        worker_counts = (1, 4)
        num_requests, interarrival = 120, 0.008
    profiles = []
    identical = True
    for workers in worker_counts:
        profile = asyncio.run(_load_profile(
            workers=workers,
            num_requests=num_requests,
            interarrival=interarrival,
        ))
        identical = identical and _identity_check(profile)
        profiles.append(profile)
    data = {
        "cells": len(CELLS),
        "burst": BURST,
        "profiles": profiles,
        # gate surface: the first profile's warm-path p99 (lowest
        # worker count), plus the byte-identity verdict
        "warm_p99_seconds": profiles[0]["warm_p99_seconds"],
        "identical": identical,
    }
    rows = [
        [
            p["workers"], p["completed"], p["rejected"],
            f"{p['throughput_rps']:.0f}/s",
            f"{p['p50_seconds'] * 1e3:.1f}ms",
            f"{p['p99_seconds'] * 1e3:.1f}ms",
            f"{p['warm_p99_seconds'] * 1e3:.1f}ms",
            f"{p['cache_hit_rate'] * 100:.0f}%",
            f"{p['coalescing_ratio'] * 100:.0f}%",
        ]
        for p in profiles
    ]
    text = render_table(
        ["workers", "ok", "shed", "rps", "p50", "p99", "warm p99",
         "hit rate", "coalesced"],
        rows,
        title=(
            f"Serve load: open-loop, {num_requests} requests over "
            f"{len(CELLS)} cells (identity: "
            f"{'ok' if identical else 'BROKEN'})"
        ),
    )
    return data, text


def test_serve_load(benchmark):
    from benchmarks.conftest import run_once

    data, _ = run_once(benchmark, measure_serve_load)
    assert data["identical"], "served answer diverged from Runner.run"
    for profile in data["profiles"]:
        assert profile["errors"] == 0
        assert profile["completed"] > 0
        # The two redundancy layers trade off: slow cold dispatch means
        # repeats coalesce, fast dispatch means they hit the cache —
        # together they must absorb most of the repetitive mix.
        assert (
            profile["cache_hit_rate"] + profile["coalescing_ratio"] > 0.5
        ), "cache + coalescing must absorb the repetitive mix"
        assert profile["batches"] >= 1
    # the warm path answers from memory; even a loaded CI box finishes
    # a cache hit in well under a second
    assert data["warm_p99_seconds"] < 0.25


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    data, text = measure_serve_load(quick=quick)
    print(text)
    if not data["identical"]:
        print("FAIL: served answers are not byte-identical to Runner.run")
        return 1
    if any(p["errors"] for p in data["profiles"]):
        print("FAIL: server answered 5xx under load")
        return 1
    print("serve load: identity holds, no 5xx")
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
