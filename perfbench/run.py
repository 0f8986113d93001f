#!/usr/bin/env python3
"""portho benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload verify_all|ortho_queries|constructions|all
                             [--seed N] [--seconds T] [--trace 0|1]

Run from the repository root. Each workload runs in its own fresh process
(perfbench/worker.py) with BLAS pinned to one thread, one closed-loop caller:
the next operation starts when the previous one returns. Before it, the
set-up probe runs in fresh processes several times and its median is
`setup_s`.

With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json;
with --trace 1 they are the per-layer ones, from a run that wraps portho's
public functions from outside (perfbench/tracing.py). The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every answer passed its oracle.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify_all", "ortho_queries", "constructions")
SETUP_PROBES = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _call_worker(argv: list, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, timeout),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(argv)} printed nothing")
    return json.loads(lines[-1])


def environment(root: str) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "portho", "*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def run_workload(root: str, spec: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Returns (result object for the last line, diagnostics)."""
    t0 = time.perf_counter()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = {}
    if not trace:
        setups = [
            _call_worker(["setup", "--workload", workload], DEADLINE_S - (time.perf_counter() - t0))["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        values["setup_s"] = statistics.median(setups)
    out = _call_worker(
        ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        DEADLINE_S - (time.perf_counter() - t0),
    )
    values.update(out["metrics"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    attempted, failed = out["attempted"], out["failed"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    diag = dict(out["diagnostics"], workload=workload, seed=seed, trace=trace,
                error_ratio=failed / max(1, attempted), errors=out["errors"])
    return result, diag


def _print_report(result: dict, diag: dict) -> None:
    print(f"# workload {diag['workload']}  seed {diag['seed']}  trace {diag['trace']}")
    for name, m in result["metrics"].items():
        print(f"{name:<56} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_ratio':<56} {diag['error_ratio']:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for err in diag.pop("errors"):
        print(f"error: {err}", file=sys.stderr)
    print("diagnostics " + json.dumps(diag))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "portho", "__init__.py")):
            raise BenchError(f"no portho sources under {root}/src; run from the repository root")
        with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        print("environment " + json.dumps(environment(root)))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            result, diag = run_workload(root, spec, workload, args.seed, seconds, args.trace)
            _print_report(result, diag)
            results.append(result)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
