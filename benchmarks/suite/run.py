"""Measure one workload in this process (the ``BENCHMARK.json`` command).

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (and writes ``out/trace_NAME.json``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details (sample
counts, raw walls, environment) go to ``out/detail_NAME_trace{0,1}.json``.
Exits non-zero when any unit failed.  ``python -m benchmarks.suite`` runs
the whole set through this file, one child process per workload.
"""

import os
import sys
import time

_START = time.perf_counter()

# one BLAS thread: the workloads' own threads are the only parallelism,
# and kernel times do not depend on what else the machine is doing
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
OUT = os.path.join(SUITE, "out")


def pin_allocator() -> None:
    """Keep freed heap memory in the process (glibc; a no-op elsewhere).

    By default glibc moves its mmap threshold with the sizes it has seen
    freed, so whether a 32 MB intermediate is page-faulted in afresh or
    recycled from the heap depends on allocation history: the same cold
    gridSearch unit under LIMA takes anywhere from 0.36 s to 0.71 s.  A
    fixed threshold and no trimming give the steady state of a long-lived
    process (0.21 s), and the discarded warm-up round is what faults the
    heap in.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: its maximum
    mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD


pin_allocator()
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"benchmarks/suite measures the program under {ROOT}/src/repro, which is missing")
# the script's own directory must not shadow top-level module names
sys.path[0] = ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse     # noqa: E402
import json         # noqa: E402
import shutil       # noqa: E402
import warnings     # noqa: E402

from benchmarks.suite import harness                            # noqa: E402
from benchmarks.suite.metrics import END_TO_END, PER_LAYER      # noqa: E402
from benchmarks.suite.workloads import all_workloads            # noqa: E402


def main(argv=None) -> int:
    workloads = all_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size: checks the result schema, no perf meaning")
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - _START

    # spill directories and archives stay inside the checkout
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    # sigmoid(-a) saturating to 0 through exp(a) = inf is what the kernel means
    warnings.filterwarnings("ignore", message="overflow encountered in exp")
    workload = workloads[args.workload]()
    try:
        if args.trace:
            metrics, tally, detail = harness.measure_layers(
                workload, args.seed, args.seconds, args.smoke, scratch,
                os.path.join(OUT, f"trace_{args.workload}.json"))
            specs = PER_LAYER
        else:
            metrics, tally, detail = harness.measure_end_to_end(
                workload, args.seed, args.seconds, args.smoke, import_s)
            specs = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for error in tally.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in specs},
    }
    detail.update(workload=args.workload, trace=args.trace, smoke=args.smoke,
                  environment=harness.environment(args.seed), result=result)
    with open(os.path.join(OUT, f"detail_{args.workload}_trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    samples = detail.get("samples", {})
    for spec in specs:
        count = f" n={samples[spec.name]}" if spec.name in samples else ""
        print(f"{args.workload:18s} {spec.name:32s} {metrics[spec.name]:16.6f} {spec.unit}{count}")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
