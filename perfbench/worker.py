"""One workload run in a fresh process; prints one JSON object on stdout.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py run --workload NAME --seed S --seconds T --trace 0|1

`setup` times what a fresh process pays before its first query: importing
portho, `default_families()` and parsing the workload's space specs.
`run` generates the inputs from the seed, warms up, then repeats the
workload's rounds until T seconds have passed, checking every answer after
each round. With --trace 1 it alternates untraced and traced rounds and
reports per-layer figures.

Host speed. Other tenants slow a shared host by up to half, for stretches
from under a second to minutes, and CPU time slows with wall time. So the
reference loop below runs right before and after every round (and after each
set-up), and every time is scaled by REFERENCE_S / (its reference time):
times are reported at the speed of a host that runs the loop in REFERENCE_S.
The loop is fixed code that touches no portho, so a faster program cannot
make it faster. Raw times are in the diagnostics.

Meant to be started by run.py, which pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")
POOL_ROUNDS = 96  # distinct input rounds; more than one run uses, so no input repeats
LAYER_ROUNDS = 4  # traced rounds the per-layer figures average over (verify_all: 1)
REFERENCE_S = 0.005  # nominal reference-loop time the reported times are scaled to


def _import_portho():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import portho

    if not os.path.abspath(portho.__file__).startswith(src + os.sep):
        raise SystemExit(f"portho imported from {portho.__file__}, not from {src}")
    return portho


def reference_loop() -> float:
    """A fixed loop of the kind portho spends its time in (interpreted
    Python around small numpy calls, a little dense linear algebra) that
    touches no portho code. Takes about 5 ms on a 2-core sandbox."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.arange(8.0)
    M = np.eye(6) + 0.1
    acc = 0.0
    for i in range(400):
        y = x * 0.5 + i
        acc += float(np.abs(y).max()) + float(np.sum(y * y) ** 0.5)
        d = {"a": i, "b": acc}
        acc += d["a"] * 1e-9
        if i % 20 == 0:
            T = M.copy()
            for k in range(5):
                T[k] -= T[k, k] * 0.01 * T[k + 1]
            acc += float(np.linalg.eigvalsh(T)[0])
    return time.perf_counter() - t0


def setup(workload: str) -> dict:
    sys.path.insert(0, HERE)
    from families import WORKLOAD_FAMILIES, spec_text

    texts = [spec_text(n) for n in WORKLOAD_FAMILIES[workload]]
    t0 = time.perf_counter()
    portho = _import_portho()
    import portho.cli

    portho.default_families()
    for text in texts:
        portho.cli.parse_space_spec(text)
    raw = time.perf_counter() - t0
    ref = statistics.median(reference_loop() for _ in range(3))
    return {"setup_s": raw * REFERENCE_S / ref, "raw_setup_s": raw}


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_vals) - 1, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[k]


@dataclass
class Round:
    wall_s: float  # raw
    scale: float  # REFERENCE_S / reference-loop time around this round
    n_ops: int
    latencies: list  # raw seconds per operation; verify_all: per suite

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale


class Runner:
    """Runs rounds of one workload and checks every answer after each round.

    Each round takes fresh inputs (verify_all: a fresh seed), from a pool
    generated before timing, so no input repeats within a run.
    """

    def __init__(self, workload: str, seed: int, scale: float):
        import workloads as W

        self.W = W
        self.workload = workload
        self.geos = W.geometries(workload)
        self.spaces = W.spaces(workload)
        self.pool = [W.build(workload, seed, self.geos, scale, r) for r in range(POOL_ROUNDS)]
        self.next_round = 0
        self.out_path = os.path.join(OUT_DIR, f"verify_all-{os.getpid()}.json")
        self.attempted = 0
        self.errors = []
        self.tracer = None  # set while a traced round runs

    def warm_up(self):
        W = self.W
        if self.workload == "verify_all":
            W.run_op(W.Op("verify_all", "defaults", None, (0, 2)), self.spaces, self.out_path)
            return
        ops = self.pool[-1]
        for op in ops[: max(1, len(ops) // 10)]:
            W.run_op(op, self.spaces, self.out_path)

    def round(self) -> Round:
        """Run one round's ops back to back, then check every answer."""
        W = self.W
        ops = self.pool[self.next_round % len(self.pool)]
        self.next_round += 1
        clock = time.perf_counter
        results, lat = [], []
        ref_before = reference_loop()
        t_round = clock()
        for op in ops:
            if self.tracer:
                self.tracer.op_id += 1
            t0 = clock()
            try:
                res = W.run_op(op, self.spaces, self.out_path)
            except Exception as exc:  # a raising operation is a failed one
                res = exc
            lat.append(clock() - t0)
            results.append(res)
        wall = clock() - t_round
        scale = REFERENCE_S / (0.5 * (ref_before + reference_loop()))
        if self.workload == "verify_all":
            res = results[0]
            res = (repr(res), None) if isinstance(res, Exception) else W.read_verify_reports(res, self.out_path)
            n_ops = W.op_count(ops[0], res)
            self.errors += W.check_verify(ops[0], res)
            self.attempted += n_ops
            # the program's own per-suite times stand in for op latencies
            return Round(wall, scale, n_ops, [r["elapsed_ms"] / 1e3 for r in res[1] or ()])
        for op, res in zip(ops, results):
            if isinstance(res, Exception):
                self.errors.append(f"{op.kind} on {op.family} raised {res!r}")
                continue
            err = W.check(op, res, self.geos)
            if err:
                self.errors.append(f"{op.kind} on {op.family}: {err}")
        self.attempted += len(ops)
        return Round(wall, scale, len(ops), lat)


def end_to_end(rounds: list, workload: str) -> dict:
    if workload == "verify_all":
        # one latency per suite, its median over the rounds: suite times
        # differ a hundredfold, so a percentile of the pooled times would
        # sit between two suites and jump from one to the other
        n = max(len(r.latencies) for r in rounds)
        lat = sorted(statistics.median(r.latencies[i] * r.scale for r in rounds if len(r.latencies) == n)
                     for i in range(n))
    else:
        lat = sorted(t * r.scale for r in rounds for t in r.latencies)
    lat = lat or [0.0]  # no reports at all; the run is already marked failed
    return {
        "wall_s": statistics.median(r.scaled_wall_s for r in rounds),
        "ops_per_s": statistics.median(r.n_ops / r.scaled_wall_s for r in rounds),
        "op_p50_ms": _percentile(lat, 0.50) * 1e3,
        "op_p99_ms": _percentile(lat, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_latency_samples": len(lat),
    }


def run(args) -> dict:
    import numpy as np

    os.makedirs(OUT_DIR, exist_ok=True)
    portho = _import_portho()
    runner = Runner(args.workload, args.seed, args.scale)
    # the input pool is the benchmark's own data; keep it out of the
    # program's garbage collections
    gc.collect()
    gc.freeze()
    ref_start = reference_loop()
    runner.warm_up()
    t_start = time.perf_counter()
    rounds = []
    if not args.trace:
        while time.perf_counter() - t_start < args.seconds or len(rounds) < 2:
            rounds.append(runner.round())
        metrics = end_to_end(rounds, args.workload)
        diag = {"latency_samples": metrics.pop("_latency_samples")}
    else:
        from tracing import Tracer

        tracer = Tracer()
        traced = []
        n_layer = 1 if args.workload == "verify_all" else LAYER_ROUNDS
        while time.perf_counter() - t_start < args.seconds or len(traced) < n_layer:
            rounds.append(runner.round())
            if len(traced) == n_layer:
                # per-layer figures cover the same first traced rounds in
                # every run of a seed, so their counts repeat exactly
                layers, suite_s = tracer.layer_metrics(), dict(tracer.suite_s)
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.round())
            finally:
                runner.tracer = None
                tracer.uninstall()
        if len(traced) == n_layer:
            layers, suite_s = tracer.layer_metrics(), dict(tracer.suite_s)
        per_round = (".calls", ".self_s", ".rows", ".non_optimal")
        metrics = {k: v / n_layer if k.endswith(per_round) else v for k, v in layers.items()}
        for suite in portho.SUITE_IDS:
            metrics[f"harness.suite.{suite}.s"] = suite_s.get(suite, 0.0) / n_layer
        t_untraced = statistics.median(r.scaled_wall_s for r in rounds)
        t_traced = statistics.median(r.scaled_wall_s for r in traced)
        metrics["trace.overhead_s"] = t_traced - t_untraced
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz"))
        diag = {"traced_rounds": len(traced), "spans": len(tracer.start),
                "untraced_wall_s": t_untraced, "traced_wall_s": t_traced}
    ref_end = reference_loop()
    if os.path.exists(runner.out_path):
        os.remove(runner.out_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    diag.update(
        rounds=len(rounds), ops_per_round=rounds[0].n_ops,
        raw_median_round_s=statistics.median(r.wall_s for r in rounds),
        median_round_scale=statistics.median(r.scale for r in rounds),
        ref_loop_start_s=ref_start, ref_loop_end_s=ref_end,
        numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
    )
    return {"diagnostics": diag, "attempted": runner.attempted, "failed": len(runner.errors),
            "errors": runner.errors[:20], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink the round (self-test)")
    args = ap.parse_args()
    result = setup(args.workload) if args.mode == "setup" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
