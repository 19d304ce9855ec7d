"""Differential execution of one program under the configuration lattice.

Every configuration runs the program **twice** in one session (the second
run exercises cross-invocation reuse, where the cache is hot) and each
run's outputs are compared against a no-reuse base reference:

* configurations without partial reuse must reproduce the base results
  **bit-identically** (LIMA's Section 3–4 claim);
* partial-reuse compensation plans reassociate floating-point reductions,
  so configurations with ``reuse_partial`` are compared within the
  repo-wide ``rtol=atol=1e-9`` tolerance (matching
  ``tests/test_equivalence.py``), and printed output numerically.

On top of output equivalence the executor asserts the cache-statistics
invariants that hold by construction of the acquire/fulfill protocol:

* ``hits + misses <= probes`` (an acquire that parks on a placeholder
  counts a probe but resolves to a hit — or to nothing, on abort — later);
* ``probes - hits - misses <= placeholder_waits``;
* ``partial_hits <= partial_probes``;
* the unified memory manager never sits above its budget at quiescence
  unless it explicitly degraded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.api import LimaSession
from repro.config import LimaConfig

#: tolerance for configurations whose compensation plans reassociate FP
RTOL = 1e-9
ATOL = 1e-9

#: name -> config factory; ``base`` is implicit (the reference run)
CONFIG_LATTICE: dict = {
    "lt": LimaConfig.lt,
    "ltd": LimaConfig.ltd,
    "full": LimaConfig.full,
    "multilevel": LimaConfig.multilevel,
    "hybrid": LimaConfig.hybrid,
    "ca": LimaConfig.ca,
    "fusion": lambda: LimaConfig.hybrid().with_(fusion=True),
    "parfor-seq": lambda: LimaConfig.full().with_(parfor_workers=1),
    "parfor-4": lambda: LimaConfig.hybrid().with_(parfor_workers=4),
    "tight": lambda: LimaConfig.full().with_(memory_budget=64 * 1024),
    "chaos-spill": lambda: LimaConfig.full().with_(
        memory_budget=64 * 1024,
        fault_specs=("spill.read:corrupt:rate=0.3,seed=7",)),
    "verify": lambda: LimaConfig.hybrid().with_(verify_reuse=1.0),
    # two concurrent service sessions share one reuse cache; both must
    # still match the sequential base reference (the executor recognizes
    # the "service-concurrent-N" name pattern and routes through Service)
    "service-concurrent-2": LimaConfig.hybrid,
}

_SERVICE_CONFIG = re.compile(r"^service-concurrent-(\d+)$")


@dataclass
class DifferentialFailure:
    """One divergence between a configuration and the base reference."""

    config: str
    kind: str       # error | base-error | output | stdout | stats
    detail: str
    error_type: str | None = None

    @property
    def signature(self) -> tuple:
        """What the minimizer must preserve while shrinking."""
        return (self.config, self.kind, self.error_type)

    def __str__(self) -> str:
        return f"[{self.config}] {self.kind}: {self.detail}"


def run_differential(source: str, outputs: list[str],
                     configs: dict | None = None,
                     seed: int = 1234, runs: int = 2):
    """Run ``source`` under the lattice; first divergence or ``None``.

    ``outputs`` names the variables compared against the base reference;
    ``seed`` is the session seed shared by every configuration so any
    residual system-seed dependence is identical across the lattice.
    """
    configs = CONFIG_LATTICE if configs is None else configs
    try:
        reference = _run_once(LimaConfig.base(), source, outputs, seed)
    except Exception as exc:  # the generator promises base always runs
        return DifferentialFailure(
            "base", "base-error", f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__)
    for name, factory in configs.items():
        config = factory()
        exact = not config.reuse_partial
        concurrent = _SERVICE_CONFIG.match(name)
        if concurrent is not None:
            failure = _run_service(name, config, source, outputs, seed,
                                   reference, exact,
                                   sessions=int(concurrent.group(1)))
            if failure is not None:
                return failure
            continue
        session = LimaSession(config, seed=seed)
        try:
            for round_no in range(runs):
                result = session.run(source, inputs={}, seed=seed)
                got = {o: result.get(o) for o in outputs}
                failure = _compare_outputs(name, round_no, reference,
                                           got, exact)
                if failure is None and round_no == 0:
                    failure = _compare_stdout(name, reference["stdout"],
                                              result.stdout, exact)
                if failure is None:
                    failure = _check_stats(name, session)
                if failure is not None:
                    return failure
        except Exception as exc:
            return DifferentialFailure(
                name, "error", f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__)
    return None


def _run_service(name, config, source, outputs, seed, reference, exact,
                 sessions=2):
    """Run ``sessions`` concurrent service sessions over one shared
    cache; every session's outputs must match the base reference."""
    from repro.service.service import Service
    service = Service(config, workers=max(2, sessions), seed=seed)
    try:
        handles = [service.submit(source, seed=seed)
                   for _ in range(sessions)]
        for handle in handles:
            result = handle.result(timeout=300)
            got = {o: result.get(o) for o in outputs}
            failure = _compare_outputs(name, 0, reference, got, exact)
            if failure is None:
                failure = _compare_stdout(name, reference["stdout"],
                                          result.stdout, exact)
            if failure is not None:
                failure.detail = (f"session {handle.session_id}: "
                                  + failure.detail)
                return failure
        if service.cache is not None and service.cache.open_placeholders():
            return DifferentialFailure(
                name, "stats",
                f"{len(service.cache.open_placeholders())} placeholder(s) "
                "left open after all sessions drained")
    except Exception as exc:
        return DifferentialFailure(
            name, "error", f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__)
    finally:
        service.shutdown()
    return None


def _run_once(config: LimaConfig, source: str, outputs: list[str],
              seed: int) -> dict:
    session = LimaSession(config, seed=seed)
    result = session.run(source, inputs={}, seed=seed)
    return {"values": {o: result.get(o) for o in outputs},
            "stdout": list(result.stdout)}


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def values_equal(a, b, exact: bool) -> bool:
    """Equivalence of two exported values under the comparison mode."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)
                and all(values_equal(x, y, exact) for x, y in zip(a, b)))
    aa, bb = np.asarray(a), np.asarray(b)
    # a boolean never equals a number, not even within tolerance
    if aa.shape != bb.shape or (aa.dtype == bool) != (bb.dtype == bool):
        return False
    if exact:
        return aa.dtype == bb.dtype and aa.tobytes() == bb.tobytes()
    return bool(np.allclose(aa, bb, rtol=RTOL, atol=ATOL, equal_nan=True))


def _compare_outputs(name, round_no, reference, got, exact):
    for var, expected in reference["values"].items():
        actual = got[var]
        if not values_equal(expected, actual, exact):
            return DifferentialFailure(
                name, "output",
                f"run {round_no + 1}: variable {var!r} diverges "
                f"(exact={exact}): base={_fmt(expected)} "
                f"vs {_fmt(actual)}")
    return None


_NUMBER = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf|-inf")


def _compare_stdout(name, expected, actual, exact):
    if exact:
        if expected != actual:
            return DifferentialFailure(
                name, "stdout",
                f"stdout diverges: base={expected!r} vs {actual!r}")
        return None
    # partial configs may print the same numbers with different last
    # digits: compare the non-numeric skeleton exactly and every embedded
    # number within tolerance
    if len(expected) != len(actual):
        return DifferentialFailure(
            name, "stdout",
            f"stdout line count {len(actual)} != base {len(expected)}")
    for e_line, a_line in zip(expected, actual):
        if _NUMBER.sub("#", e_line) != _NUMBER.sub("#", a_line):
            return DifferentialFailure(
                name, "stdout",
                f"stdout diverges: base={e_line!r} vs {a_line!r}")
        e_nums = [float(t) for t in _NUMBER.findall(e_line)]
        a_nums = [float(t) for t in _NUMBER.findall(a_line)]
        if not np.allclose(e_nums, a_nums, rtol=1e-6, atol=1e-6,
                           equal_nan=True):
            return DifferentialFailure(
                name, "stdout",
                f"stdout numbers diverge: base={e_line!r} vs {a_line!r}")
    return None


def _check_stats(name, session):
    stats = session.stats
    if stats.hits + stats.misses > stats.probes:
        return DifferentialFailure(
            name, "stats",
            f"hits({stats.hits}) + misses({stats.misses}) > "
            f"probes({stats.probes})")
    gap = stats.probes - stats.hits - stats.misses
    if gap > stats.placeholder_waits:
        return DifferentialFailure(
            name, "stats",
            f"probe gap {gap} exceeds placeholder_waits"
            f"({stats.placeholder_waits})")
    if stats.partial_hits > stats.partial_probes:
        return DifferentialFailure(
            name, "stats",
            f"partial_hits({stats.partial_hits}) > "
            f"partial_probes({stats.partial_probes})")
    memory = session.memory
    if (memory is not None and not memory.degraded
            and memory.total > memory.budget):
        return DifferentialFailure(
            name, "stats",
            f"memory total {memory.total} exceeds budget {memory.budget} "
            "without degradation")
    return None


def _fmt(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."
