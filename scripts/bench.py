#!/usr/bin/env python3
"""Time single grid decisions of the p-orthogonality decider.

For every default family and every exponent p in {1, 1.5, 2, inf}, one fixed
seeded pair is decided by `p_orthogonal_numeric` (primal) and by
`dual_p_orthogonal_numeric` (dual). Each (family, p, side) is warmed up
with WARMUP decisions; then each of REPEATS rounds times one decision of
each in turn with `time.perf_counter`, so a change in host load during the
run reaches all of them alike. The figure is the median over the rounds, in
microseconds per decision. BLAS is pinned to one thread unless the
environment already sets it.

The figures land under `runs[LABEL]` of the output JSON, next to any runs
already there, with the commit of the measured source, the Python and numpy
versions, `nproc` and the line count of the measured `portho` package (the
commit ends in "-dirty" when the checkout has uncommitted changes). To
compare two commits, run the script once per checkout with the `portho` of
that checkout first on the path and a label per run:

    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH_4.json
"""

import argparse
import functools
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import portho  # noqa: E402
from portho import dual_p_orthogonal_numeric, p_orthogonal_numeric  # noqa: E402
from portho.harness import default_families  # noqa: E402

EXPONENTS = (1.0, 1.5, 2.0, math.inf)
SIDES = (("primal", p_orthogonal_numeric), ("dual", dual_p_orthogonal_numeric))
WARMUP = 20
REPEATS = 301
SEED = 0  # the pair of the i-th family (sorted by name) is drawn from SEED + i


def _pair(space, seed: int):
    x, y = np.random.default_rng(seed).normal(size=(2, space.dim))
    if space.norm.kind == "spectral":
        d = space.cone.side
        x, y = ((v.reshape(d, d) + v.reshape(d, d).T).ravel() for v in (x, y))
    return x, y


def _source_commit(package_dir: pathlib.Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(package_dir), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def measure() -> dict:
    package_dir = pathlib.Path(portho.__file__).resolve().parent
    cases = []
    for i, (name, space) in enumerate(sorted(default_families().items())):
        x, y = _pair(space, SEED + i)
        for side, decide in SIDES:
            for p in EXPONENTS:
                key = (name, side, "inf" if math.isinf(p) else f"{p:g}")
                cases.append((key, functools.partial(decide, space, x, y, p)))
    for _, decide in cases:
        for _ in range(WARMUP):
            decide()
    times = {key: [] for key, _ in cases}
    for _ in range(REPEATS):
        for key, decide in cases:
            t0 = time.perf_counter()
            decide()
            times[key].append(time.perf_counter() - t0)
    decisions = {}
    for (name, side, p), ts in times.items():
        decisions.setdefault(name, {}).setdefault(side, {})[p] = round(statistics.median(ts) * 1e6, 1)
    return {
        "commit": _source_commit(package_dir),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in package_dir.glob("*.py")),
        "warmup": WARMUP,
        "repeats": REPEATS,
        "seed": SEED,
        "us_per_decision": decisions,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="change", help="key of this run under runs")
    ap.add_argument("--out", default="BENCH_4.json")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("bench", "single grid decisions per default family, p and side")
    doc.setdefault("unit", "us per decision (median over repeats)")
    doc.setdefault("runs", {})[args.label] = measure()
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, sides in doc["runs"][args.label]["us_per_decision"].items():
        for side, by_p in sides.items():
            print(f"{name:12s} {side:6s} " + "  ".join(f"p={p}: {us:8.1f} us" for p, us in by_p.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
