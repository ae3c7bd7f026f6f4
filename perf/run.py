#!/usr/bin/env python3
"""The performance ledger: one command, five workloads, every layer.

    python perf/run.py                      every workload untraced, then traced
    python perf/run.py --workload sim_wan   the same, one workload
    python perf/run.py --aa                 untraced suite twice, PASS/FAIL per bound
    python perf/run.py --layers-only        the standalone layer drives alone
    python perf/run.py --record FILE        suite at --seed and --seed+1, as JSON

    python perf/run.py --workload W --seed N --seconds S --trace 0|1

is one *run* (what the benchmark driver calls): it prints each metric by
name with its unit and kind, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The suite modes start one fresh process per run, so
``peak_rss_mb`` belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
for path in (str(ROOT / "src"), str(PERF_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

DEFAULT_SEED = 11


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one run -----------------------------------------------------------------


def metric_rows(report) -> List[str]:
    rows = [f"{'metric':<58} {'value':>14} {'unit':<9}{'kind':<9} {'q1':>12} {'q3':>12} {'n':>3}"]
    for name, m in report.metrics.items():
        rows.append(
            f"{name:<58} {m.value:>14.4f} {m.unit:<9}{m.kind:<9} "
            f"{m.q1:>12.4f} {m.q3:>12.4f} {m.n:>3}"
        )
    return rows


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool):
    """One run, checked against BENCHMARK.json: every metric it declares for
    this trace mode, in its declared unit, and none it does not declare."""
    import workloads

    declared = load_contract()["per_layer" if trace else "end_to_end"]
    report = workloads.run(
        workload, seed, seconds, trace, workloads.QUICK if quick else workloads.FULL
    )
    metrics = {}
    for spec in declared:
        name = spec["name"]
        m = report.metrics.get(name)
        if m is None:
            if not name.startswith(workloads.idle_prefixes(workload)):
                raise SystemExit(f"error: {workload} did not measure {name}")
            m = workloads.single(0.0, spec["unit"], "work")
        if m.unit != spec["unit"]:
            raise SystemExit(
                f"error: {name} measured in {m.unit}, declared in {spec['unit']}"
            )
        metrics[name] = m
    undeclared = sorted(set(report.metrics) - set(metrics))
    if undeclared:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {undeclared}")
    report.metrics = metrics
    return report


def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    report = measure(workload, seed, seconds, trace, quick)
    metrics = report.metrics
    print(f"# {workload}  seed {seed}  {seconds:g} s  trace {int(trace)}")
    for note in report.notes:
        print(f"# {note}")
    print("\n".join(metric_rows(report)))
    fail_share = report.failed / report.attempted
    print(f"{'fail_share':<58} {fail_share:>14.4f} {'fraction':<9}{'work':<9} "
          f"({report.failed} of {report.attempted} multicasts; checkers "
          f"{'passed' if report.correct else 'FAILED'})")
    detail = {name: m._asdict() for name, m in metrics.items()}
    print("#detail " + json.dumps(detail))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {n: {"value": m.value, "unit": m.unit} for n, m in metrics.items()},
    }))
    return 0


# -- suites: one fresh process per run -----------------------------------------


def spawn_run(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> Dict[str, Any]:
    """Run one workload in its own process; echo its table, return its numbers."""
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("#detail "):
        print(proc.stdout, end="")
        raise SystemExit(f"error: run of {workload} failed (exit {proc.returncode})")
    print("\n".join(lines[:-2]), end="\n\n", flush=True)
    result = json.loads(lines[-1])
    # The contract line carries value and unit; the line before it adds
    # kind, quartiles and sample count.
    result["metrics"] = json.loads(lines[-2][len("#detail "):])
    return result


def run_suite(names, seed, seconds, quick, traced=True) -> Dict[str, Any]:
    """``{workload: {"end_to_end": run, "per_layer": run}}``."""
    out: Dict[str, Any] = {}
    for name in names:
        out[name] = {"end_to_end": spawn_run(name, seed, seconds, False, quick)}
    if traced:
        for name in names:
            out[name]["per_layer"] = spawn_run(name, seed, seconds, True, quick)
    return out


def fail_share(run: Dict[str, Any]) -> float:
    return run["failed"] / run["attempted"]


def suite_ok(suite: Dict[str, Any]) -> bool:
    return all(
        run["correct"] and run["failed"] == 0
        for runs in suite.values() for run in runs.values()
    )


def run_aa(names, seed, seconds, quick) -> int:
    """Same code, same seed, twice: does each metric hold its own bound?"""
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    first = run_suite(names, seed, seconds, quick, traced=False)
    second = run_suite(names, seed, seconds, quick, traced=False)
    print(f"{'workload':<14} {'metric':<12} {'kind':<9} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>7}  verdict")
    failures = 0
    for name in names:
        a, b = first[name]["end_to_end"], second[name]["end_to_end"]
        rows = [
            (metric, ma["kind"], ma["value"], b["metrics"][metric]["value"])
            for metric, ma in a["metrics"].items()
        ]
        rows.append(("fail_share", "work", fail_share(a), fail_share(b)))
        for metric, kind, va, vb in rows:
            diff = abs(vb - va) / va if va else abs(vb - va)
            # Modelled values and counts of a seeded run repeat exactly.
            bound = bounds[metric] if kind == "wall" else 0.0
            ok = diff <= bound
            failures += not ok
            print(f"{name:<14} {metric:<12} {kind:<9} {va:>12.4f} {vb:>12.4f} "
                  f"{diff:>7.2%} {bound:>7.0%}  {'PASS' if ok else 'FAIL'}")
    ok = failures == 0 and suite_ok(first) and suite_ok(second)
    print(f"A/A: {'PASS' if ok else 'FAIL'} ({failures} pairs outside their bound)")
    return 0 if ok else 1


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(path: str, names, seed, seconds, quick) -> int:
    """Write the suite at ``seed`` and the end-to-end runs at ``seed + 1``."""
    suite = run_suite(names, seed, seconds, quick)
    second = run_suite(names, seed + 1, seconds, quick, traced=False)
    with open(path, "w") as fh:
        json.dump({
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "run_seconds": seconds,
            "seed": seed,
            "workloads": suite,
            "second_seed": {"seed": seed + 1, "workloads": second},
        }, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if suite_ok(suite) and suite_ok(second) else 1


def layers_only(seed: int, quick: bool) -> int:
    import layers
    import workloads

    scale = workloads.QUICK if quick else workloads.FULL
    drives = layers.run_layer_drives(seed, scale.queue_entries, scale.profiled_msgs)
    for name, (value, unit, kind) in drives.items():
        print(f"{name:<58} {value:>14.4f} {unit:<9}{kind}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="make exactly one run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="tiny operation counts (the smoke test's scale)")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--layers-only", action="store_true")
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: the program under test is not here ({exc}); run from a "
              "checkout that has src/repro", file=sys.stderr)
        return 2
    seconds = 1 if args.quick else args.seconds
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    chosen = [args.workload] if args.workload else names
    if args.layers_only:
        return layers_only(args.seed, args.quick)
    if args.aa:
        return run_aa(chosen, args.seed, seconds, args.quick)
    if args.record:
        return record(args.record, chosen, args.seed, seconds, args.quick)
    return 0 if suite_ok(run_suite(chosen, args.seed, seconds, args.quick)) else 1


if __name__ == "__main__":
    sys.exit(main())
