#!/usr/bin/env python3
"""Time single calls of five layers, the deciders, the batched norms,
the eigensolver, the constructions and the LP solver, and the suites of
`portho verify all`.

Decider slice: for every default family and every exponent p in
{1, 1.5, 2, inf}, one fixed seeded pair is decided on the grid by
`p_orthogonal_numeric` in the norm (primal) and with dual=True in the dual
norm (dual), and by `p_orthogonal`, exact where it can be, in the norm
(primal_route) and with dual=True in the dual norm (dual_route). The
random pair is not orthogonal, so on the exact route it times the test and
the witness of its "not_orthogonal" (the residual at six scalars, with no
grid). Under "<family>:split" the same sides
decide the positive and negative parts of the pair's first vector by its
cone coefficients (`decomp.coefficient_parts`; by its dual coefficients on
the dual sides), which are orthogonal at the exponent of the norm they are
decided in: the space's own, or its conjugate on the dual sides.

Between-caps slice (table `us_per_decision`, family `base_between_caps`):
`p_orthogonal` at p in {1, 1.5, inf} under the base norm of
`tests/data/base_between_caps.json` (primal_route: the solver form, one LP
per row; dual_route: a max-ratio form over the generators), on a fixed
seeded pair and, under "base_between_caps:generators", on the generators 0
and 2, which are 1-orthogonal. A decision there took up to 0.2 s on the
grid, so these cases are timed in CAPS_ROUNDS rounds after one warm-up
call each, with the reference loop around every round as below.

Norm slice (table `us_per_batch`): `batch_norms` and `batch_dual_norms` of
every default family on fixed seeded rows, at three row counts: 1 (the
`norm` / `dual_norm` calls), DECIDER_ROWS (x, y and the rows x + k y of
the k grid `ortho.K_GRID`: the one block the grid decider hands the row
oracle at finite p) and 2^15 / dim (the most rows one block of the decider
may hold, `ortho._BLOCK_ENTRIES` entries). The key under each family is
the row count.

Eigen slice (table `us_per_eigen`): `eigen_sym` on a fixed seeded matrix
of each side in EIGEN_SIDES, symmetric bit for bit (key "-"), and on the
same matrix with one off-diagonal entry moved by one ulp (key
"ulp_asymmetric"), which times the slow path of the symmetry validation
(`linalg.check_symmetric`) that a matrix built as (Q^T L) Q used to take;
and `cones.as_matrix` of the first matrix, flattened, on the psd cone of
its side (the reshape and the validation every spectral call pays once).

Construction slice (table `us_per_lp_call`): public calls, each on a fixed
seeded input. On the default families these are the calls that solved LPs
before the lattice-cone closed forms, kept under the same keys so that runs
of either code compare per call: `support_functional`, `positive_support`,
`crust_probe` (a cone element on the boundary and one inside),
`opt_decompose` at p = 1 and p = inf, and `dual_one_orth_decompose`. On
`spectral_4` (inputs from SEED + 6): `support_functional` and
`opt_decompose` at p = inf of a symmetric matrix, `positive_support` of a
psd one, and `dual_one_orth_decompose` of a symmetric one, whose halves
and norming element come from eigendecompositions. On the
non-simplicial pentagon cone in R^3: `cone_contains` (a point inside, one
outside), `support_functional` and `positive_support` under the order-unit
(`ou_ray5`) and base (`base_ray5`) norms, and `crust_probe` and
`dual_one_orth_decompose` under the order-unit norm; then, under both
norms, `norm` of a random vector, `support_functional` and
`positive_support` of a generator (key "ray", a face input), and
`p_orthogonal` at p = 1 and p = inf of a random pair (key "1" or "inf")
and of a pair orthogonal at the space's own p (key "1:orthogonal" or
"inf:orthogonal": two non-adjacent generators under the base norm, and
u on a facet with its partner e - u/||u|| under the order-unit norm).
Membership reads the facet normals, the maximizers and the base positive
support the vertex tables of the dual balls, and the dual split the
facets active at the norming vertex, so these solve no LP. A portho
that solved LPs for them is timed under the same keys.

Solver slice (table `us_per_solve`): `solve_lp` on fixed seeded LPs of
3 x 5, 8 x 16, 16 x 32 and 32 x 64 (rows x variables), independent of any
caller.

Every case is warmed up with WARMUP calls; then each of REPEATS rounds times
one call of each case in turn with `time.perf_counter`, so a change in host
load during the run reaches all of them alike. BLAS is pinned to one thread
unless the environment already sets it.

Suite slice (table `ms_per_suite`): `run_suite` of each of the 22 suites
on its default family at seed SEED and VERIFY_SAMPLES samples, as
`portho verify all --samples 50` runs them; each time is filed under the
family's name, and ex46_nonuniqueness's under the space it checks,
"order_unit^2049[nonneg]". After one warm-up round,
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
that checkout first on the path and a label per run; `--out` is required,
so that no run rewrites an earlier record by default:

    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH_new.json
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
    K_GRID,
    cone_contains,
    LpProblem,
    base_space,
    crust_probe,
    dual_one_orth_decompose,
    eigen_sym,
    norm,
    opt_decompose,
    order_unit_space,
    p_orthogonal,
    p_orthogonal_numeric,
    positive_support,
    ray_cone,
    solve_lp,
    support_functional,
)
from portho.cli import parse_space_spec  # noqa: E402
from portho.cones import as_matrix, psd_cone  # noqa: E402
from portho.decomp import coefficient_parts  # noqa: E402
from portho.harness import (  # noqa: E402
    SUITE_IDS,
    SUITES,
    build_example_46,
    default_families,
    run_suite,
    sample_cone,
)
from portho.spaces import batch_dual_norms, batch_norms  # noqa: E402

EXPONENTS = (1.0, 1.5, 2.0, math.inf)
SIDES = (
    ("primal", p_orthogonal_numeric),
    ("dual", functools.partial(p_orthogonal_numeric, dual=True)),
    ("primal_route", p_orthogonal),
    ("dual_route", functools.partial(p_orthogonal, dual=True)),
)
ORACLES = (("batch_norms", batch_norms), ("batch_dual_norms", batch_dual_norms))
WARMUP = 20
REPEATS = 301
# the pair of the i-th family (sorted by name) is drawn from SEED + i; the
# construction slice draws its default-family inputs from one generator
# seeded with SEED, its pentagon inputs from SEED + 1 and the solver slice
# its LPs from SEED + 2, the norm slice its rows from SEED + 3 and the eigen
# slice its matrices from SEED + 4, the between-caps slice its pair from
# SEED + 5 and the construction slice its spectral inputs from SEED + 6
SEED = 0
VERIFY_SAMPLES = 50  # samples per suite, as perfbench's verify_all workload
VERIFY_ROUNDS = 15  # timed rounds of the suite slice, each running all 22 suites
CAPS_ROUNDS = 15  # timed rounds of the between-caps slice
BETWEEN_CAPS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "base_between_caps.json"

# the non-simplicial ray cone of the pentagon cases: five rays in R^3, with
# the order unit (and base functional) (0, 0, 1)
PENTAGON = np.array(
    [[1.0, 0.0, 1.0], [0.3, 1.0, 1.0], [-0.8, 0.6, 1.0], [-0.8, -0.6, 1.0], [0.3, -1.0, 1.0]]
)
PENTAGON_UNIT = np.array([0.0, 0.0, 1.0])
LP_SIZES = ((3, 5), (8, 16), (16, 32), (32, 64))  # rows x variables
DECIDER_ROWS = 2 + len(K_GRID)  # x, y and the k grid of 35 scalars
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
            split = coefficient_parts(space, x, dual=side.startswith("dual"))
            for label, pair in ((name, (x, y)), (f"{name}:split", split)):
                for p in EXPONENTS:
                    key = ("us_per_decision", label, side, _p_key(p))
                    yield key, functools.partial(decide, space, *pair, p)


def _caps_cases():
    space = parse_space_spec(BETWEEN_CAPS.read_text())
    G = space.cone.generators
    pairs = (("base_between_caps", _pair(space, SEED + 5)), ("base_between_caps:generators", (G[0], G[2])))
    for label, pair in pairs:
        for side, decide in SIDES[2:]:  # the p_orthogonal sides
            for p in (1.0, 1.5, math.inf):
                key = ("us_per_decision", label, side, _p_key(p))
                yield key, functools.partial(decide, space, *pair, p)


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
        M = A + A.T
        yield ("us_per_eigen", "eigen_sym", str(side), "-"), functools.partial(eigen_sym, M)
        yield ("us_per_eigen", "as_matrix", str(side), "-"), functools.partial(
            as_matrix, psd_cone(side), M.ravel())
        M = M.copy()
        M[0, -1] = np.nextafter(M[0, -1], math.inf)
        yield ("us_per_eigen", "eigen_sym", str(side), "ulp_asymmetric"), functools.partial(
            eigen_sym, M)


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
    yield from _spectral_cases(families["spectral_4"])


def _spectral_cases(space):
    rng = np.random.default_rng(SEED + 6)
    x, f = _rows(space, rng, 2)
    psd = sample_cone(space, rng)
    for name, call in (("support_functional", functools.partial(support_functional, space, x)),
                       ("positive_support", functools.partial(positive_support, space, psd)),
                       ("dual_one_orth_decompose", functools.partial(dual_one_orth_decompose, space, f))):
        yield ("us_per_lp_call", name, "spectral_4", "-"), call
    yield ("us_per_lp_call", "opt_decompose", "spectral_4", "inf"), functools.partial(
        opt_decompose, space, x, math.inf)


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
    yield ("us_per_lp_call", "dual_one_orth_decompose", "ou_ray5", "-"), functools.partial(
        dual_one_orth_decompose, spaces["ou_ray5"], rng.normal(size=3))
    # the norm, face inputs and decisions, drawn after the inputs above so
    # that those stay the inputs of earlier runs
    orthogonal = {"base_ray5": (1.0, PENTAGON[0], PENTAGON[2]),
                  "ou_ray5": (math.inf, boundary, PENTAGON_UNIT - boundary / norm(spaces["ou_ray5"], boundary))}
    for name, space in spaces.items():
        yield ("us_per_lp_call", "norm", name, "-"), functools.partial(norm, space, rng.normal(size=3))
        yield ("us_per_lp_call", "support_functional", name, "ray"), functools.partial(
            support_functional, space, PENTAGON[0])
        yield ("us_per_lp_call", "positive_support", name, "ray"), functools.partial(
            positive_support, space, PENTAGON[0])
        x, y = rng.normal(size=(2, 3))
        for p in (1.0, math.inf):
            yield ("us_per_lp_call", "p_orthogonal", name, _p_key(p)), functools.partial(
                p_orthogonal, space, x, y, p)
        p, x, y = orthogonal[name]
        yield ("us_per_lp_call", "p_orthogonal", name, f"{_p_key(p)}:orthogonal"), functools.partial(
            p_orthogonal, space, x, y, p)


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


def _suite_space(suite: str) -> str:
    """The name of the space a suite runs on by default: its default family,
    or the space Example 4.6 checks, which has no family."""
    return SUITES[suite][2] or build_example_46(2049)[0].describe()


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
            s: {_suite_space(s): round(statistics.median(ts) * 1e3, 2)} for s, ts in times.items()
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
    caps = list(_caps_cases())
    for _, call in caps:
        call()
    caps_raw, caps_scaled, caps_refs = _rounds(caps, CAPS_ROUNDS)
    raw.update(caps_raw)
    scaled.update(caps_scaled)
    refs += caps_refs
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
        "caps_rounds": CAPS_ROUNDS,
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
    ap.add_argument("--out", required=True, help="the JSON record to add the run to")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault(
        "bench",
        "single decisions (grid and p_orthogonal), batched norms, eigendecompositions,"
        " constructions, LP solves and verify-all suites",
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
