#!/usr/bin/env python3
"""Time single calls of five layers, the grid decider, the batched norms,
the eigensolver, the constructions and the LP solver, and the suites of
`portho verify all`.

Decider slice: for every default family and every exponent p in
{1, 1.5, 2, inf}, one fixed seeded pair is decided by
`p_orthogonal_numeric` (primal) and by `dual_p_orthogonal_numeric` (dual).

Norm slice (table `us_per_batch`): `batch_norms` and `batch_dual_norms` of
every default family on fixed seeded rows, at three row counts: 1 (the
`norm` / `dual_norm` calls), DECIDER_ROWS (the default k grid: the block the
grid decider hands the row oracle at finite p) and 2^15 / dim (the most rows
one block of the decider may hold, `ortho._BLOCK_ENTRIES` entries). The key
under each family is the row count.

Eigen slice (table `us_per_eigen`): `eigen_sym` on a fixed seeded symmetric
matrix of each side in EIGEN_SIDES.

Construction slice (table `us_per_lp_call`): public calls, each on a fixed
seeded input. On the default families these are the calls that solved LPs
before the lattice-cone closed forms, kept under the same keys so that runs
of either code compare per call: `support_functional`, `positive_support`,
`crust_probe` (a cone element on the boundary and one inside),
`opt_decompose` at p = 1 and p = inf, and `dual_one_orth_decompose`. On the
non-simplicial pentagon cone in R^3: `cone_contains` (a point inside, one
outside), one LP each, and `support_functional`, `positive_support` and
`crust_probe` under the order-unit (`ou_ray5`) and base (`base_ray5`)
norms. Under the order-unit norm these take the facet closed form and solve
no LP beyond their membership checks; under the base norm the support
functional and positive support still solve LPs.

Solver slice (table `us_per_solve`): `solve_lp` on fixed seeded LPs of
3 x 5, 8 x 16, 16 x 32 and 32 x 64 (rows x variables), independent of any
caller.

Every case is warmed up with WARMUP calls; then each of REPEATS rounds times
one call of each case in turn with `time.perf_counter`, so a change in host
load during the run reaches all of them alike. BLAS is pinned to one thread
unless the environment already sets it.

Suite slice (table `ms_per_suite`): `run_suite` of each of the 22 suites
on its default family at seed SEED and VERIFY_SAMPLES samples, as
`portho verify all --samples 50` runs them. After one warm-up round,
VERIFY_ROUNDS rounds each run every suite once in turn; `verify_all_ms` is
the median of the rounds' totals.

Host speed. A fixed reference loop that calls no portho code
(`reference_loop`) runs before the first round and after every round of
either slice. Each time of a round is scaled by REFERENCE_US over the mean
of the two loop times around it, so the figures read at the speed of a host
that runs the loop in REFERENCE_US, and a slowdown of the host between
rounds or runs cancels out. Each figure is the median over the rounds of the
scaled times, in microseconds per call (milliseconds for the suite slice);
the medians of the raw times are under `raw`, and the median loop time
under `reference_us`.

The figures land under `runs[LABEL]` of the output JSON, next to any runs
already there, with the commit of the measured source, the Python and numpy
versions, `nproc` and the line count of the measured `portho` package (the
commit ends in "-dirty" when the checkout has uncommitted changes). To
compare two commits, run the script once per checkout with the `portho` of
that checkout first on the path and a label per run:

    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH_10.json
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
from portho import (  # noqa: E402
    cone_contains,
    LpProblem,
    OrthoConfig,
    base_space,
    crust_probe,
    dual_one_orth_decompose,
    dual_p_orthogonal_numeric,
    eigen_sym,
    opt_decompose,
    order_unit_space,
    p_orthogonal_numeric,
    positive_support,
    ray_cone,
    solve_lp,
    support_functional,
)
from portho.harness import (  # noqa: E402
    DEFAULT_FAMILY,
    SUITE_IDS,
    default_families,
    run_suite,
    sample_cone,
)
from portho.spaces import batch_dual_norms, batch_norms  # noqa: E402

EXPONENTS = (1.0, 1.5, 2.0, math.inf)
SIDES = (("primal", p_orthogonal_numeric), ("dual", dual_p_orthogonal_numeric))
ORACLES = (("batch_norms", batch_norms), ("batch_dual_norms", batch_dual_norms))
WARMUP = 20
REPEATS = 301
# the pair of the i-th family (sorted by name) is drawn from SEED + i; the
# construction slice draws its default-family inputs from one generator
# seeded with SEED, its pentagon inputs from SEED + 1 and the solver slice
# its LPs from SEED + 2, the norm slice its rows from SEED + 3 and the eigen
# slice its matrices from SEED + 4
SEED = 0
VERIFY_SAMPLES = 50  # samples per suite, as perfbench's verify_all workload
VERIFY_ROUNDS = 15  # timed rounds of the suite slice, each running all 22 suites

# the non-simplicial ray cone of the pentagon cases: five rays in R^3, with
# the order unit (and base functional) (0, 0, 1)
PENTAGON = np.array(
    [[1.0, 0.0, 1.0], [0.3, 1.0, 1.0], [-0.8, 0.6, 1.0], [-0.8, -0.6, 1.0], [0.3, -1.0, 1.0]]
)
PENTAGON_UNIT = np.array([0.0, 0.0, 1.0])
LP_SIZES = ((3, 5), (8, 16), (16, 32), (32, 64))  # rows x variables
DECIDER_ROWS = len(OrthoConfig().k_grid)  # the default k grid: 35 scalars
BLOCK_ENTRIES = 2**15  # the most entries one block of the grid decider holds
EIGEN_SIDES = (2, 4, 8, 16, 32)
REFERENCE_US = 1600.0  # nominal reference-loop time the figures are scaled to
# default families on which each call solved an LP before the lattice-cone
# closed forms (the others took closed forms, eigendecompositions or
# reported "unsupported")
SUPPORT_FAMILIES = ("base_8", "polyray_4", "sup_8")
ORDER_UNIT_FAMILIES = ("polyray_4", "sup_8")  # positive_support, crust_probe, dual split
DECOMPOSE = ((1.0, ("base_8", "lp1_8", "polyray_4")), (math.inf, ("polyray_4", "sup_8")))


def reference_loop() -> float:
    """Seconds taken by a fixed loop of the kind portho spends its time in
    (interpreted Python around small numpy calls, a little dense linear
    algebra) that calls no portho code, so that no change to portho can
    make it faster. About 1.6 ms on a 2-core host (Python 3.11, numpy 2.4)."""
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 16)
    M = np.eye(8) + 0.05
    acc = 0.0
    for i in range(200):
        y = x * 0.25 + i
        acc += float(np.abs(y).max()) + float(np.sum(y * y) ** 0.5)
        if i % 10 == 0:
            acc += float(np.linalg.eigvalsh(M + i * 1e-3)[0]) + float(np.linalg.solve(M, x[:8])[0])
    return time.perf_counter() - t0


def _rounds(cases, rounds: int):
    """Times one call of each case per round, for `rounds` rounds, with the
    reference loop before the first round and after every round. Returns
    each case's times in seconds, raw and scaled to the nominal reference
    time, and the loop's times."""
    refs = [reference_loop()]
    raw = {key: [] for key, _ in cases}
    for _ in range(rounds):
        for key, call in cases:
            t0 = time.perf_counter()
            call()
            raw[key].append(time.perf_counter() - t0)
        refs.append(reference_loop())
    scale = [REFERENCE_US * 1e-6 / (0.5 * (a + b)) for a, b in zip(refs, refs[1:])]
    scaled = {key: [t * c for t, c in zip(ts, scale)] for key, ts in raw.items()}
    return raw, scaled, refs


def _rows(space, rng, n: int) -> np.ndarray:
    """n normal rows, symmetrized as matrices on a spectral space."""
    W = rng.normal(size=(n, space.dim))
    if space.norm.kind == "spectral":
        d = space.cone.side
        M = W.reshape(n, d, d)
        W = (M + M.transpose(0, 2, 1)).reshape(n, -1)
    return W


def _pair(space, seed: int):
    return tuple(_rows(space, np.random.default_rng(seed), 2))


def _source_commit(package_dir: pathlib.Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(package_dir), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _p_key(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _decision_cases():
    for i, (name, space) in enumerate(sorted(default_families().items())):
        x, y = _pair(space, SEED + i)
        for side, decide in SIDES:
            for p in EXPONENTS:
                key = ("us_per_decision", name, side, _p_key(p))
                yield key, functools.partial(decide, space, x, y, p)


def _norm_cases():
    rng = np.random.default_rng(SEED + 3)
    for name, space in sorted(default_families().items()):
        for n in (1, DECIDER_ROWS, BLOCK_ENTRIES // space.dim):
            W = _rows(space, rng, n)
            for oracle, fn in ORACLES:
                yield ("us_per_batch", oracle, name, str(n)), functools.partial(fn, space, W)


def _eigen_cases():
    rng = np.random.default_rng(SEED + 4)
    for side in EIGEN_SIDES:
        A = rng.normal(size=(side, side))
        yield ("us_per_eigen", "eigen_sym", str(side), "-"), functools.partial(
            eigen_sym, A + A.T)


def _lp_cases():
    rng = np.random.default_rng(SEED)
    families = default_families()
    pentagon = ray_cone(PENTAGON)
    inside = PENTAGON.T @ rng.exponential(size=len(PENTAGON))
    outside = np.array([0.0, 0.0, -1.0]) + 0.1 * rng.normal(size=3)
    yield ("us_per_lp_call", "cone_contains", "pentagon", "inside"), functools.partial(
        cone_contains, pentagon, inside)
    yield ("us_per_lp_call", "cone_contains", "pentagon", "outside"), functools.partial(
        cone_contains, pentagon, outside)
    yield from _pentagon_cases(pentagon)
    for name in SUPPORT_FAMILIES:
        space = families[name]
        yield ("us_per_lp_call", "support_functional", name, "-"), functools.partial(
            support_functional, space, rng.normal(size=space.dim))
    for name in ORDER_UNIT_FAMILIES:
        space = families[name]
        interior = sample_cone(space, rng)
        B = space.cone.coefficient_basis[0]
        boundary = B @ (rng.exponential(size=B.shape[1]) * (np.arange(B.shape[1]) > 0))  # a_0 = 0
        yield ("us_per_lp_call", "positive_support", name, "-"), functools.partial(
            positive_support, space, interior)
        yield ("us_per_lp_call", "crust_probe", name, "boundary"), functools.partial(
            crust_probe, space, boundary)
        yield ("us_per_lp_call", "crust_probe", name, "interior"), functools.partial(
            crust_probe, space, interior)
        yield ("us_per_lp_call", "dual_one_orth_decompose", name, "-"), functools.partial(
            dual_one_orth_decompose, space, rng.normal(size=space.dim))
    for p, names in DECOMPOSE:
        for name in names:
            yield ("us_per_lp_call", "opt_decompose", name, _p_key(p)), functools.partial(
                opt_decompose, families[name], rng.normal(size=families[name].dim), p)


def _pentagon_cases(pentagon):
    rng = np.random.default_rng(SEED + 1)
    spaces = {
        "ou_ray5": order_unit_space(pentagon, PENTAGON_UNIT),
        "base_ray5": base_space(pentagon, PENTAGON_UNIT),
    }
    boundary = PENTAGON[:2].T @ rng.uniform(0.2, 1.5, size=2)  # on the facet of rays 0 and 1
    interior = PENTAGON.T @ rng.uniform(0.2, 1.5, size=len(PENTAGON))
    for name, space in spaces.items():
        yield ("us_per_lp_call", "support_functional", name, "-"), functools.partial(
            support_functional, space, rng.normal(size=3))
        yield ("us_per_lp_call", "positive_support", name, "-"), functools.partial(
            positive_support, space, interior)
    for case, u in (("boundary", boundary), ("interior", interior)):
        yield ("us_per_lp_call", "crust_probe", "ou_ray5", case), functools.partial(
            crust_probe, spaces["ou_ray5"], u)


def _solver_cases():
    """Bounded feasible LPs: a quarter of the rows (at least one) equalities
    with normal entries, the rest inequalities with positive entries, both
    met by a fixed point x0 >= 0 with slack on the inequalities."""
    rng = np.random.default_rng(SEED + 2)
    for rows, n in LP_SIZES:
        n_eq = max(1, rows // 4)
        x0 = rng.uniform(0.0, 1.0, size=n)
        eq = rng.normal(size=(n_eq, n))
        ineq = rng.uniform(0.1, 1.0, size=(rows - n_eq, n))
        problem = LpProblem(
            objective=rng.normal(size=n), eq=eq, eq_rhs=eq @ x0,
            ineq=ineq, ineq_rhs=ineq @ x0 + rng.uniform(0.1, 1.0, size=rows - n_eq),
        )
        yield ("us_per_solve", "solve_lp", f"{rows}x{n}", "-"), functools.partial(solve_lp, problem)


def _measure_suites():
    """Per suite, the median scaled and raw ms over VERIFY_ROUNDS rounds
    (after one warm-up round); the medians of the rounds' scaled and raw
    totals; and the reference loop's times."""
    calls = [
        (s, functools.partial(run_suite, s, samples=VERIFY_SAMPLES, seed=SEED)) for s in SUITE_IDS
    ]
    for _, call in calls:
        call()
    raw, scaled, refs = _rounds(calls, VERIFY_ROUNDS)
    out = []
    for times in (scaled, raw):
        totals = [sum(ts[i] for ts in times.values()) for i in range(VERIFY_ROUNDS)]
        per_suite = {
            s: {DEFAULT_FAMILY[s]: round(statistics.median(ts) * 1e3, 2)} for s, ts in times.items()
        }
        out.append((per_suite, round(statistics.median(totals) * 1e3, 1)))
    return out, refs


def measure() -> dict:
    package_dir = pathlib.Path(portho.__file__).resolve().parent
    cases = [
        *_decision_cases(), *_norm_cases(), *_eigen_cases(), *_lp_cases(), *_solver_cases()
    ]
    for _, call in cases:
        for _ in range(WARMUP):
            call()
    for _ in range(WARMUP):
        reference_loop()
    raw, scaled, refs = _rounds(cases, REPEATS)
    run = {
        "commit": _source_commit(package_dir),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in package_dir.glob("*.py")),
        "warmup": WARMUP,
        "repeats": REPEATS,
        "seed": SEED,
        "verify_samples": VERIFY_SAMPLES,
        "verify_rounds": VERIFY_ROUNDS,
        "reference_nominal_us": REFERENCE_US,
    }
    for doc, times in ((run, scaled), (run.setdefault("raw", {}), raw)):
        for (table, name, a, b), ts in times.items():
            doc.setdefault(table, {}).setdefault(name, {}).setdefault(a, {})[b] = round(
                statistics.median(ts) * 1e6, 1)
    ((run["ms_per_suite"], run["verify_all_ms"]),
     (run["raw"]["ms_per_suite"], run["raw"]["verify_all_ms"])), suite_refs = _measure_suites()
    run["reference_us"] = round(statistics.median(refs + suite_refs) * 1e6, 1)
    return run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="change", help="key of this run under runs")
    ap.add_argument("--out", default="BENCH_10.json")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault(
        "bench",
        "single grid decisions, batched norms, eigendecompositions, constructions, LP solves"
        " and verify-all suites",
    )
    doc.setdefault(
        "unit",
        "us per call (median over repeats) at the nominal reference-loop speed; ms for"
        " ms_per_suite and verify_all_ms; raw medians under raw",
    )
    doc.setdefault("runs", {})[args.label] = run = measure()
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for table in ("us_per_decision", "us_per_batch", "us_per_eigen", "us_per_lp_call", "us_per_solve"):
        for name, by_a in run[table].items():
            for a, by_b in by_a.items():
                cells = "  ".join(f"{b}: {us:8.1f} us" for b, us in by_b.items())
                print(f"{name:24s} {a:10s} {cells}")
    for suite, by_family in run["ms_per_suite"].items():
        for family, ms in by_family.items():
            print(f"{suite:26s} {family:10s} {ms:8.2f} ms")
    print(f"{'verify all (sum of suites)':37s} {run['verify_all_ms']:8.1f} ms")
    print(f"{'reference loop (median, raw)':37s} {run['reference_us']:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
