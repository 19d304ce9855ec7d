"""Concurrency stress tests of the lineage cache (Section 4.1).

The cache must stay consistent under many threads hammering the
acquire/fulfill/abort protocol with overlapping keys, eviction pressure,
and evicted-entry re-admission.
"""

import threading

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.config import LimaConfig as C
from repro.data.values import MatrixValue
from repro.lineage.item import LineageItem
from repro.reuse.cache import LineageCache


def key(tag):
    return LineageItem("tsmm", [LineageItem("input", (), str(tag))])


class TestCacheStress:
    def test_many_threads_same_keys(self):
        cache = LineageCache(C.hybrid().with_(memory_budget=1 << 24,
                                              spill=False))
        n_keys, n_threads, per_thread = 12, 8, 60
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(per_thread):
                tag = int(rng.integers(0, n_keys))
                k = key(tag)
                status, payload = cache.acquire(k)
                if status == "hit":
                    value = payload.value.data
                    if value[0, 0] != float(tag):
                        errors.append(("corrupt", tag, value[0, 0]))
                elif status == "wait":
                    out = cache.wait_for(payload, timeout=30)
                    if out is not None and out.value.data[0, 0] != tag:
                        errors.append(("corrupt-wait", tag))
                else:  # reserved: compute and fulfill
                    value = MatrixValue(np.full((64, 64), float(tag)))
                    cache.fulfill(k, value, k, 0.01)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors[:5]

    def test_eviction_under_concurrency(self):
        # budget fits only a handful of entries: concurrent put/probe with
        # constant eviction must neither corrupt values nor deadlock
        cache = LineageCache(C.hybrid().with_(memory_budget=6 * 64 * 64 * 8,
                                              spill=False))
        stop = threading.Event()
        errors = []

        def churner(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                tag = int(rng.integers(0, 40))
                k = key(tag)
                hit = cache.probe(k, count=False)
                if hit is not None:
                    if hit.value.data[0, 0] != float(tag):
                        errors.append(("corrupt", tag))
                else:
                    cache.put(k, MatrixValue(
                        np.full((64, 64), float(tag))), k, 0.01)

        threads = [threading.Thread(target=churner, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        import time
        time.sleep(1.5)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert cache.total_size <= 6 * 64 * 64 * 8

    def test_abort_storm(self):
        cache = LineageCache(C.hybrid())
        k = key("storm")
        done = []

        def aborter():
            for _ in range(200):
                status, payload = cache.acquire(k)
                if status == "reserved":
                    cache.abort(k)
                elif status == "wait":
                    cache.wait_for(payload, timeout=10)
            done.append(True)

        threads = [threading.Thread(target=aborter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(done) == 4

    def test_parallel_sessions_share_nothing(self, small_x):
        """Independent sessions have independent caches; concurrent runs
        of heavy pipelines stay correct."""
        results = {}

        def run_session(tag):
            sess = LimaSession(LimaConfig.hybrid(), seed=tag)
            out = sess.run("G = t(X) %*% X; out = sum(G);",
                           inputs={"X": small_x}, seed=tag)
            results[tag] = out.get("out")

        threads = [threading.Thread(target=run_session, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        values = list(results.values())
        assert len(values) == 4
        assert all(np.isclose(v, values[0]) for v in values)
