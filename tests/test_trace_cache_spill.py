"""Spill files are checked before they are unpickled.

A ``TraceCache`` spill file holds the sha256 of its pickled payload, a
newline and the payload.  A truncated or corrupted file in the shared
spill directory must be a miss — the trace is recorded again, byte for
byte the same — and never reach ``pickle``; the rejection is counted.
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.algorithms.base import get_algorithm
from repro.core.trace_cache import TraceCache
from repro.datasets import load_dataset
from repro.datasets.registry import resolve_scale

SCALE = resolve_scale("tiny")


def _record(cache: TraceCache):
    graph = load_dataset("amazon", scale=SCALE)
    trace, _ = cache.get_or_record(
        get_algorithm("bfs"), graph, dataset="amazon", scale=SCALE, params={}
    )
    return trace


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _flip_payload_byte(data: bytes) -> bytes:
    i = len(data) - 7
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def _flip_digest_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


def test_spilled_trace_is_served_from_disk(tmp_path):
    original = _record(TraceCache(spill_dir=tmp_path))
    cache = TraceCache(spill_dir=tmp_path)
    trace = _record(cache)
    assert (cache.misses, cache.disk_hits, cache.disk_rejects) == (0, 1, 0)
    assert pickle.dumps(trace) == pickle.dumps(original)


@pytest.mark.parametrize(
    "corrupt", [_truncate, _flip_payload_byte, _flip_digest_byte],
    ids=["truncated", "payload-byte-flipped", "digest-byte-flipped"],
)
def test_corrupt_spill_file_is_recomputed(tmp_path, corrupt):
    original = _record(TraceCache(spill_dir=tmp_path))
    (path,) = tmp_path.glob("*.trace.pkl")
    path.write_bytes(corrupt(path.read_bytes()))

    cache = TraceCache(spill_dir=tmp_path)
    with obs.observed() as session:
        trace = _record(cache)
        counters = dict(session.metrics.counters)
    assert (cache.misses, cache.disk_hits, cache.disk_rejects) == (1, 0, 1)
    assert counters["trace_cache.disk_rejects"] == 1
    assert pickle.dumps(trace) == pickle.dumps(original)

    # the recording replaced the bad file: the next process hits it
    again = TraceCache(spill_dir=tmp_path)
    _record(again)
    assert (again.misses, again.disk_hits, again.disk_rejects) == (0, 1, 0)
