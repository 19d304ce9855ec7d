"""Run the whole benchmark: every workload, both passes, one report.

    PYTHONPATH=src python -m benchmarks.suite [--workload NAME] [--seed N]
        [--seconds S] [--no-trace] [--smoke] [--check-repeat]

Each workload runs in child processes of its own through ``run.py`` (one
process = one load generator): an untraced pass for the end-to-end
metrics, then the traced pass for the per-layer metrics, which also
writes ``out/trace_<workload>.json``.  Every metric is printed by name
with its unit and sample count and the report goes to ``out/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

from benchmarks.suite.metrics import (END_TO_END, PER_LAYER, SCRIPT_WORKLOADS,
                                      WORKLOADS, benchmark_json)

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
OUT = os.path.join(SUITE, "out")
RUN = os.path.join("benchmarks", "suite", "run.py")


def declared() -> dict:
    """``BENCHMARK.json``, checked against the names this package measures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        found = json.load(fh)
    expected = benchmark_json(found["command"], found["paths"], found["run_seconds"])
    if found != expected:
        keys = [k for k in expected if found.get(k) != expected[k]]
        sys.exit(f"BENCHMARK.json disagrees with benchmarks/suite/metrics.py on {keys}")
    return found


def run_pass(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{name} (trace {trace}) printed no result; exit code {done.returncode}")
    print("\n".join(lines[:-1]))    # the child's metric table, without the JSON line
    with open(os.path.join(OUT, f"detail_{name}_trace{trace}.json")) as fh:
        return json.load(fh)


def run_set(names, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    report = {}
    for name in names:
        passes = [run_pass(name, seed, seconds, 0, smoke)]
        if trace:
            passes.append(run_pass(name, seed, seconds, 1, smoke))
        report[name] = {
            "environment": passes[0]["environment"],
            "attempted": sum(d["result"]["attempted"] for d in passes),
            "failed": sum(d["result"]["failed"] for d in passes),
            "end_to_end": passes[0]["result"]["metrics"],
            "samples": passes[0]["samples"],
            "rounds": passes[0]["rounds"],
            "per_layer": passes[1]["result"]["metrics"] if trace else {},
            "layer_self_s": passes[1]["layer_self_s"] if trace else {},
        }
    return report


def schema_errors(report: dict, trace: bool) -> list[str]:
    """What ``--smoke`` validates: names, units, finite numbers."""
    errors = []
    for name, entry in report.items():
        for kind, specs in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            got = entry[kind]
            if kind == "per_layer" and not trace:
                continue
            if list(got) != [m.name for m in specs]:
                errors.append(f"{name}: {kind} names differ from metrics.py")
            for spec in specs:
                value = got.get(spec.name, {})
                if value.get("unit") != spec.unit \
                        or not isinstance(value.get("value"), (int, float)) \
                        or not math.isfinite(value["value"]):
                    errors.append(f"{name}: {spec.name} = {value}")
        if entry["attempted"] < 1:
            errors.append(f"{name}: nothing attempted")
    return errors


def compare(first: dict, second: dict) -> dict:
    """``--check-repeat``: end-to-end within bounds, exact counters equal."""
    rows, agree = [], True
    for name in first:
        for spec in END_TO_END:
            a = first[name]["end_to_end"][spec.name]["value"]
            b = second[name]["end_to_end"][spec.name]["value"]
            worse = (b - a) / a if spec.better == "lower" else (a - b) / a
            ok = abs(worse) <= spec.bound
            rows.append({"workload": name, "metric": spec.name, "first": a, "second": b,
                         "relative_change": worse, "bound": spec.bound, "ok": ok})
            agree &= ok
        if first[name]["failed"] != second[name]["failed"]:
            rows.append({"workload": name, "metric": "failed", "ok": False,
                         "first": first[name]["failed"], "second": second[name]["failed"]})
            agree = False
        if name not in SCRIPT_WORKLOADS or not first[name]["per_layer"]:
            continue
        for spec in PER_LAYER:
            if not spec.exact:
                continue
            a = first[name]["per_layer"][spec.name]["value"]
            b = second[name]["per_layer"][spec.name]["value"]
            rows.append({"workload": name, "metric": spec.name, "first": a, "second": b,
                         "exact": True, "ok": a == b})
            agree &= a == b
    return {"agree": agree, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per pass (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", action=argparse.BooleanOptionalAction, default=True,
                        help="also run the traced pass for the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size in < 30 s; validates the result schema only")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice and compare against the bounds")
    args = parser.parse_args(argv)
    spec = declared()
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else \
        (1.0 if args.smoke else float(spec["run_seconds"]))
    os.makedirs(OUT, exist_ok=True)

    report = run_set(names, args.seed, seconds, args.trace, args.smoke)
    with open(os.path.join(OUT, "result.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
                   "workloads": report}, fh, indent=1)
    failed = sum(entry["failed"] for entry in report.values())
    attempted = sum(entry["attempted"] for entry in report.values())
    print(f"failed_share = {failed / attempted:.6f} ({failed} of {attempted})")
    status = 1 if failed else 0
    if args.smoke:
        errors = schema_errors(report, args.trace)
        for error in errors:
            print(f"SCHEMA {error}", file=sys.stderr)
        status = status or (1 if errors else 0)
    if args.check_repeat:
        again = run_set(names, args.seed, seconds, args.trace, args.smoke)
        verdict = compare(report, again)
        with open(os.path.join(OUT, "repeat.json"), "w") as fh:
            json.dump(verdict, fh, indent=1)
        for row in verdict["rows"]:
            if not row["ok"]:
                print(f"REPEAT {row}", file=sys.stderr)
        print(f"check-repeat: {'agree' if verdict['agree'] else 'DISAGREE'}")
        status = status or (0 if verdict["agree"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
