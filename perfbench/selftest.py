#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of each workload (worker.py with a shrunken round) must finish
   with no failed operation.
2. Every oracle must flag a deliberately wrong answer: a flipped verdict, a
   scaled functional, a perturbed u1, a missing crust, a failed suite. A
   checker that checks nothing cannot pass this.
3. The tracer must count calls, keep self time within wall time, and put
   every original function back when it is removed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from run import WORKLOADS, _child_env  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def tiny_runs() -> None:
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "run", "--workload", workload,
             "--seed", "7", "--seconds", "0", "--scale", "0.05"],
            env=_child_env(), capture_output=True, text=True, timeout=170,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        expect(out.get("attempted", 0) > 0 and out.get("failed") == 0,
               f"tiny {workload} run: {out.get('failed')} failed of {out.get('attempted')} {out.get('errors')}")


def _mutations(op, res):
    """Wrong answers derived from a right one."""
    rep = dataclasses.replace
    if op.kind == "ortho":
        yield "flipped verdict", rep(res, verdict="not_orthogonal" if res.is_orthogonal else "orthogonal")
    elif op.kind in ("support", "positive_support"):
        yield "functional scaled by 1.1", rep(res, functional=1.1 * res.functional)
        yield "attained value off", rep(res, attained_value=res.attained_value + 0.1)
        if op.kind == "positive_support":
            f = res.functional.copy()
            f[np.argmax(np.abs(f))] *= -1.0
            yield "functional leaves the dual cone", rep(res, functional=f)
    elif op.kind == "crust":
        if res is not None:
            yield "crust withheld", None
            yield "crust shifted", rep(res, functional=res.functional + 0.1)
            yield "partner not orthogonal", rep(res, partner_orthogonal=False)
    elif op.kind in ("opt_decompose", "dual_decompose"):
        yield "u1 perturbed", rep(res, u1=res.u1 + 0.01)
        yield "both parts shifted", rep(res, u1=res.u1 + 0.5, u2=res.u2 + 0.5)
        yield "status failed", rep(res, status="failed")
        yield "aggregate misreported", rep(res, norm_aggregate=res.norm_aggregate * 1.1 + 0.1)


def oracle_mutations() -> None:
    for workload in ("ortho_queries", "constructions"):
        geos = W.geometries(workload)
        spaces = W.spaces(workload)
        ops = W.build(workload, 7, geos, scale=0.25)
        seen = {}
        rejected = []
        for op in ops:
            res = W.run_op(op, spaces, "")
            if W.check(op, res, geos) is not None:
                rejected.append(f"{op.kind} on {op.family}")
            for what, bad in _mutations(op, res):
                key = (op.kind, op.family, what)
                flagged = W.check(op, bad, geos) is not None
                seen[key] = seen.get(key, False) or flagged
        expect(not rejected, f"{workload}: all {len(ops)} right answers accepted {rejected}")
        for (kind, fam, what), flagged in sorted(seen.items()):
            expect(flagged, f"{kind} on {fam}: oracle flags '{what}'")
        if workload != "constructions":
            continue
        # an invented crust needs an interior element
        crust_ops = [op for op in ops if op.kind == "crust" and not geos[op.family].on_boundary(op.args[0])]
        expect(bool(crust_ops), "interior crust inputs exist")
        for op in crust_ops[:3]:
            e = geos[op.family].unit
            fake = W.P.CrustResult(e / float(e @ e), np.zeros_like(e), True)
            expect(W.check(op, fake, geos) is not None, f"crust on {op.family}: oracle flags an invented crust")

    op = W.Op("verify_all", "defaults", None, (7, 2))
    path = os.path.join(ROOT, ".perfbench", "selftest-verify.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    good = W.read_verify_reports(W.run_op(op, {}, path), path)
    os.remove(path)
    expect(W.check_verify(op, good) == [], "verify_all: right answer accepted")
    rc, reports = good
    bad_pass = [dict(r) for r in reports]
    bad_pass[3]["passes"] -= 1
    bad_cx = [dict(r) for r in reports]
    bad_cx[5]["counterexamples"] = [{"location": "x"}]
    bad_empty = [dict(r) for r in reports]
    bad_empty[0]["samples"] = bad_empty[0]["passes"] = 0
    for what, bad in (("exit code 1", (1, reports)), ("a report missing", (0, reports[:-1])),
                      ("a failed sample", (0, bad_pass)), ("a counterexample", (0, bad_cx)),
                      ("a suite with no samples", (0, bad_empty)), ("no output", (0, None))):
        expect(bool(W.check_verify(op, bad)), f"verify_all: oracle flags {what}")


def tracer_roundtrip() -> None:
    import portho

    originals = {(m, f): getattr(sys.modules[f"portho.{m}"], f) for m, f in TRACED}
    geos = W.geometries("constructions")
    spaces = W.spaces("constructions")
    ops = W.build("constructions", 3, geos, scale=0.05)
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        for op in ops:
            tracer.op_id += 1
            W.run_op(op, spaces, "")
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    m = tracer.layer_metrics()
    expect(m["linalg.solve_lp.calls"] > 0 and m["spaces.norm.calls"] > 0, "tracer counts calls")
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    expect(0.0 < total_self <= wall, f"self time {total_self:.4f} s within wall {wall:.4f} s")
    expect(all(s >= -1e-9 for k, s in m.items() if k.endswith(".self_s")), "self times are nonnegative")
    restored = all(getattr(sys.modules[f"portho.{m_}"], f) is fn for (m_, f), fn in originals.items())
    expect(restored and portho.norm is originals[("spaces", "norm")], "uninstall restores every function")
    parents = set(tracer.parent) - {-1}
    expect(all(0 <= p < len(tracer.start) for p in parents), "every parent span exists")


def main() -> int:
    tiny_runs()
    oracle_mutations()
    tracer_roundtrip()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
