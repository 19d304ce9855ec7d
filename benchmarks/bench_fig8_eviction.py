"""Figure 8: cache eviction policies.

* Fig. 8(a) — a pipeline with phases P1, P2, P3: P1 is a loop of expensive
  matrix multiplies with no reuse (fills the cache), P2 a nested loop of
  inexpensive additions with reuse per outer iteration, P3 repeats P1 with
  fewer iterations.  LRU reuses P2 by evicting P1's results and therefore
  misses in P3; Cost&Size first evicts the cheap additions, but their
  misses raise their score so they get re-admitted and reused — and P3's
  matrix multiplies all hit (the paper's narrative for Fig. 8a).
* Fig. 8(b) — a mini-batch pipeline (preprocessed batches reused across
  epochs; DAG-Height wins, LRU pushes batches out within an epoch) and the
  stepLm pipeline (reuse at the end of deep lineage; LRU wins over
  DAG-Height).  Cost&Size is robust on both, hence the default.
"""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession

try:
    from benchmarks.conftest import bench_cold
except ModuleNotFoundError:  # standalone: python benchmarks/bench_fig8_...
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from benchmarks.conftest import bench_cold

#: sized so phase P1's multiplies *just* fit (Fig. 8a), forcing the
#: policies to choose between them and phase P2's cheap additions
_BUDGET = 280 * 1024 * 1024
#: small budget for the Fig. 8(b) pipelines
_BUDGET_8B = 48 * 1024 * 1024


_POLICY_MAP = {
    "Base": "Base", "LRU": "lru", "C&S": "costsize",
    "DAG-Height": "dagheight", "Infinite": "Infinite",
}


def policy_factory(name, budget=_BUDGET):
    def factory():
        if name == "Base":
            return LimaConfig.base()
        if name == "Infinite":
            return LimaConfig.hybrid().with_(memory_budget=1 << 40)
        return LimaConfig.hybrid().with_(eviction_policy=_POLICY_MAP[name],
                                         memory_budget=budget, spill=False)
    return factory


# ---------------------------------------------------------------------------
# Fig 8(a): three-phase pipeline
# ---------------------------------------------------------------------------

PHASES_SCRIPT = """
# P1: expensive matrix multiplies, each distinct (fills the cache)
s = 0;
for (i in 1:12) {
  M = round(X * i) %*% Y;
  s = s + sum(M);
}
# P2: nested loop of inexpensive additions (on a small slice) with reuse
# per outer iteration — enough entries to displace P1 under LRU
Xs = X[1:500, ];
for (o in 1:8) {
  for (i in 1:50) {
    A = Xs + i;
    s = s + as.scalar(A[1, 1]);
  }
}
# P3: same multiplies as P1, fewer iterations (reuse potential)
for (i in 1:8) {
  M = round(X * i) %*% Y;
  s = s + sum(M);
}
"""


@pytest.fixture(scope="module")
def phases_data():
    rng = np.random.default_rng(4)
    return {"X": rng.standard_normal((2_000, 600)),
            "Y": rng.standard_normal((600, 600))}


@pytest.mark.parametrize("policy", ["Base", "LRU", "C&S", "Infinite"])
def test_fig8a_phases(benchmark, phases_data, policy):
    benchmark.group = "fig8a phases"
    benchmark.extra_info["figure"] = "8a"
    bench_cold(benchmark, policy_factory(policy), PHASES_SCRIPT,
               phases_data)


def test_fig8a_cs_reuses_p3(phases_data):
    """C&S keeps (or re-admits) the P1 multiplies and hits in P3."""
    sess = LimaSession(policy_factory("C&S")(), seed=7)
    sess.run(PHASES_SCRIPT, inputs=phases_data, seed=7)
    assert sess.stats.hits >= 70  # P2 reuse (7x10) + P3 multiplies


# ---------------------------------------------------------------------------
# Fig 8(b): mini-batch vs stepLm pipelines
# ---------------------------------------------------------------------------

MINIBATCH_SCRIPT = """
iters = as.integer(floor(nrow(X) / 512));
loss = 0;
for (ep in 1:4) {
  for (k in 1:iters) {
    beg = (k - 1) * 512 + 1;
    fin = k * 512;
    Xb = scaleAndShift(X[beg:fin, ]);
    G = t(Xb) %*% Xb;
    loss = loss + sum(G) / nrow(G);
  }
}
"""

# multi-round forward selection: the feature matrix Xs grows per round,
# so the reusable tsmm(Xs)/t(Xs) sit at the *end of deep lineage chains*
# — LRU retains them (recently used), DAG-Height evicts them first
STEPLM_SCRIPT = """
N = nrow(X);
Xs = X;
best = 0;
for (round in 1:4) {
  XtX = t(Xs) %*% Xs;
  Xty = t(Xs) %*% y;
  for (c in 1:10) {
    col = C[, (round - 1) * 10 + c];
    Z = cbind(Xs, col);
    A = t(Z) %*% Z;
    b = rbind(Xty, t(col) %*% y);
    beta = solve(A + diag(matrix(0.001, nrow(A), 1)), b);
    best = max(best, sum(beta));
  }
  Xs = cbind(Xs, C[, round * 10]);
}
"""


@pytest.fixture(scope="module")
def minibatch_data():
    return {"X": np.random.default_rng(5).standard_normal((8_192, 400))}


@pytest.fixture(scope="module")
def steplm_data():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4_000, 300))
    return {"X": x,
            "y": x @ rng.standard_normal((300, 1)),
            "C": rng.standard_normal((4_000, 40))}


@pytest.mark.parametrize("policy",
                         ["Base", "LRU", "C&S", "DAG-Height", "Infinite"])
def test_fig8b_minibatch(benchmark, minibatch_data, policy):
    benchmark.group = "fig8b mini-batch"
    benchmark.extra_info["figure"] = "8b"
    bench_cold(benchmark, policy_factory(policy, _BUDGET_8B),
               MINIBATCH_SCRIPT, minibatch_data)


@pytest.mark.parametrize("policy",
                         ["Base", "LRU", "C&S", "DAG-Height", "Infinite"])
def test_fig8b_steplm(benchmark, steplm_data, policy):
    benchmark.group = "fig8b stepLm"
    benchmark.extra_info["figure"] = "8b"
    bench_cold(benchmark, policy_factory(policy, _BUDGET_8B),
               STEPLM_SCRIPT, steplm_data)


def test_fig8b_policies_agree_numerically(minibatch_data):
    values = {}
    for policy in ("Base", "LRU", "C&S", "DAG-Height"):
        sess = LimaSession(policy_factory(policy, _BUDGET_8B)(), seed=7)
        values[policy] = sess.run(MINIBATCH_SCRIPT, inputs=minibatch_data,
                                  seed=7).get("loss")
    base = values.pop("Base")
    for policy, value in values.items():
        np.testing.assert_allclose(value, base, rtol=1e-9,
                                   err_msg=policy)


# ---------------------------------------------------------------------------
# standalone mode: policy comparison (Table 1)
#
#   python benchmarks/bench_fig8_eviction.py --quick
#
# Quick mode shrinks the phases pipeline and exits non-zero when Cost&Size
# misses its reuse floor or runs more than 100 pressure events (one
# scoring pass per admit instead of per pressure episode) — a cheap CI
# regression gate for the eviction engine.
# ---------------------------------------------------------------------------

_QUICK_BUDGET = 1024 * 1024


def _quick_data():
    rng = np.random.default_rng(4)
    return {"X": rng.standard_normal((80, 80)),
            "Y": rng.standard_normal((80, 80))}


def _quick_script():
    # same three-phase shape, sliced for the 80-row quick input
    return PHASES_SCRIPT.replace("X[1:500, ]", "X[1:40, ]")


def _report_session(label, sess):
    stats = sess.stats
    print(f"  {label:<28} hits={stats.hits:<5} misses={stats.misses:<5} "
          f"evict_del={stats.evictions_deleted} "
          f"spilled={stats.evictions_spilled} restores={stats.restores}")
    if sess.memory is not None:
        print(f"  {'':<28} {sess.memory.describe()}")
    return stats.hits


def run_standalone(quick=True):
    if quick:
        script, data, budget = _quick_script(), _quick_data(), _QUICK_BUDGET
    else:
        script, data, budget = (PHASES_SCRIPT,
                                {k: v for k, v in _phases_full().items()},
                                _BUDGET)
    failures = []

    print(f"fig8 phases pipeline (budget={budget >> 10} KiB, "
          f"{'quick' if quick else 'full'} mode)")
    print("policy comparison (Table 1):")
    policy_hits = {}
    for policy in ("LRU", "DAG-Height", "C&S"):
        cfg = LimaConfig.hybrid().with_(eviction_policy=_POLICY_MAP[policy],
                                        memory_budget=budget)
        sess = LimaSession(cfg, seed=7)
        sess.run(script, inputs=data, seed=7)
        policy_hits[policy] = _report_session(policy, sess)
    if quick and policy_hits["C&S"] < 300:
        failures.append(
            f"C&S reuse floor missed: {policy_hits['C&S']} hits < 300 "
            "(expected P2 re-admission + P3 multiply hits)")
    # C&S ran last, so sess is its session; evicting to the low-water
    # mark makes one scoring pass serve many admits
    pressure = sess.memory.stats.pressure_events
    if quick and pressure > 100:
        failures.append(
            f"C&S pressure ceiling exceeded: {pressure} events > 100 "
            "(eviction stops at the budget instead of the low-water mark)")

    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


def _phases_full():
    rng = np.random.default_rng(4)
    return {"X": rng.standard_normal((2_000, 600)),
            "Y": rng.standard_normal((600, 600))}


# ---------------------------------------------------------------------------
# chaos mode: --inject-fault POINT:KIND[:rate=R,seed=S,times=N]
#
#   python benchmarks/bench_fig8_eviction.py --quick \
#       --inject-fault spill.read:corrupt:rate=0.2
#
# Runs a spill-heavy workload twice — fault-free, then with the given
# faults armed — and exits non-zero unless the faulted run produced a
# bit-identical result with nonzero recoveries.  The workload restores
# from disk often enough that a rate=0.2 fault at the default seed fires
# many times.
# ---------------------------------------------------------------------------

CHAOS_SCRIPT = """
s = 0;
for (r in 1:5) {
  for (i in 1:10) {
    M = (X * i) %*% Y;
    s = s + sum(M);
  }
}
out = s;
"""


def _chaos_config(**kwargs):
    # lru + a huge configured bandwidth keep every spill decision
    # deterministic (costsize scores use measured wall time)
    return LimaConfig.full().with_(
        memory_budget=2 * 1024 * 1024, eviction_policy="lru",
        disk_bandwidth=1e15, **kwargs)


def run_chaos(specs):
    import os

    # the fault-free baseline must actually be fault-free, even when the
    # process inherits a chaos environment
    os.environ.pop("LIMA_INJECT_FAULT", None)
    rng = np.random.default_rng(99)
    data = {"X": rng.standard_normal((200, 100)),
            "Y": rng.standard_normal((100, 200))}
    failures = []

    print(f"chaos gate: {', '.join(specs)}")
    clean = LimaSession(_chaos_config(), seed=5)
    clean_out = clean.run(CHAOS_SCRIPT, inputs=data, seed=5).get("out")
    print(f"  {'fault-free':<12} out={clean_out!r} "
          f"spilled={clean.stats.evictions_spilled} "
          f"restores={clean.stats.restores}")
    if clean.stats.restores == 0:
        failures.append("chaos gate is vacuous: the fault-free run never "
                        "restored from disk — re-size the workload")

    chaos = LimaSession(_chaos_config(fault_specs=tuple(specs)), seed=5)
    chaos_out = chaos.run(CHAOS_SCRIPT, inputs=data, seed=5).get("out")
    stats = chaos.resilience.stats
    print(f"  {'injected':<12} out={chaos_out!r}")
    print(f"  {stats}")
    if chaos_out != clean_out:
        failures.append(f"faulted result diverged: {chaos_out!r} != "
                        f"{clean_out!r}")
    if stats.faults_injected == 0:
        failures.append("no faults fired: the spec never triggered — "
                        "raise the rate or re-size the workload")
    if stats.recoveries == 0:
        failures.append("faults fired but nothing was recovered")
    if stats.entries_lost:
        failures.append(f"{stats.entries_lost} cache entr(y/ies) lost — "
                        "lineage recovery failed")
    if chaos.memory.degraded:
        failures.append("memory manager degraded during the chaos run")

    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Fig. 8 eviction: policy comparison and chaos gate")
    parser.add_argument("--quick", action="store_true",
                        help="small data, asserted regression gates")
    parser.add_argument("--inject-fault", action="append", default=[],
                        metavar="POINT:KIND[:rate=R,seed=S,times=N]",
                        help="also run the chaos gate with these faults "
                             "armed (repeatable)")
    _args = parser.parse_args()
    _rc = run_standalone(quick=_args.quick)
    if _args.inject_fault:
        _rc = run_chaos(_args.inject_fault) or _rc
    raise SystemExit(_rc)
