"""End-to-end acceptance gate.

Each test here is one headline criterion; `pytest -v` therefore prints one
pass/fail line per criterion. Timing bounds are asserted where the criterion
carries a runtime budget.
"""

import math
import time

import numpy as np
import pytest

from oracles import lp_by_vertex_enumeration
from portho.cli import main
from portho.decomp import embed_to_lp
from portho.harness import build_example_46, default_families, run_suite
from portho.linalg import LpProblem, solve_lp
from portho.ortho import p_orthogonal_exact, p_orthogonal_numeric
from portho.spaces import lp_space, norm
from portho.cones import cone_contains

INF = math.inf


def _green(suite, space, samples, tol=1e-8, seed=0):
    rep = run_suite(suite, space, samples=samples, tol=tol, seed=seed)
    assert rep.status == "ok", f"{suite}: {rep.status}"
    assert rep.counterexamples == (), f"{suite}: {rep.counterexamples[:2]}"
    assert rep.passes == rep.samples
    return rep


def test_criterion_1_cosine_example_reproduction():
    start = time.perf_counter()
    sp, f, fplus, fminus, g1, g2 = build_example_46(2049)
    assert np.abs(f - (fplus - fminus)).max() <= 1e-12
    assert np.abs(f - (g1 - g2)).max() <= 1e-12
    # extrema land on grid points, so the statement-(1) norms are exact
    assert norm(sp, fplus + fminus) == 1.0
    assert norm(sp, g1 + g2) == 1.0
    assert p_orthogonal_numeric(sp, fplus, fminus, INF).worst_residual <= 1e-12
    assert p_orthogonal_numeric(sp, g1, g2, INF).worst_residual <= 1e-12
    assert abs(np.abs(fplus - g1).max() - 0.5) <= 1e-12
    rep = run_suite("ex46_nonuniqueness", tol=1e-12)
    assert rep.counterexamples == () and rep.passes == rep.samples
    assert time.perf_counter() - start < 1.0


def test_criterion_2_numeric_oracle_agrees_with_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    sp8 = {p: lp_space(8, p) for p in (1.0, 1.5, 2.0, 3.0, INF)}
    disagreements = 0
    for p, sp in sp8.items():
        for _ in range(2000):
            mask = rng.random(size=8) < 0.5
            x = rng.normal(size=8) * mask
            y = rng.normal(size=8) * ~mask
            if rng.random() < 0.5:  # force a solidly shared coordinate
                j = int(rng.integers(8))
                x[j] = rng.uniform(0.3, 1.0)
                y[j] = rng.uniform(0.3, 1.0)
            expected = p_orthogonal_exact(x, y, p)
            got = p_orthogonal_numeric(sp, x, y, p).is_orthogonal
            disagreements += got != expected
    assert disagreements == 0
    assert time.perf_counter() - start < 5.0


def test_criterion_3_threeway_equivalence_of_orthogonality_statements():
    start = time.perf_counter()
    fams = default_families()
    for name in ("sup_8", "polyray_4", "spectral_4"):
        _green("thm33_equivalence", fams[name], samples=500)
    assert time.perf_counter() - start < 30.0


def test_criterion_4_positive_support_exists_on_every_family():
    fams = default_families()
    for name, sp in fams.items():
        rep = run_suite("prop32_supp_nonempty", sp, samples=500)
        if rep.status == "unsupported":
            continue
        assert rep.counterexamples == (), (name, rep.counterexamples[:2])
        assert rep.passes == rep.samples == 500


def test_criterion_5_dual_decomposition_pipeline():
    fams = default_families()
    for name in ("sup_8", "polyray_4", "spectral_4"):
        _green("thm44_duality", fams[name], samples=500)


def test_criterion_6_cone_geometry_lemmas():
    for suite in ("lem27_positive_pair", "lem28_cone_coeffs", "cor35_infty_pair"):
        _green(suite, None, samples=500)


def test_criterion_7_embedding_isometry_and_order():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 1000:
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, np.inf]))
        sp = lp_space(8, p)
        m = int(rng.integers(2, 5))
        parts = np.array_split(rng.permutation(8), m)
        U = []
        for s in parts:
            u = np.zeros(8)
            u[s] = rng.random(size=len(s)) + 0.1
            U.append(u / norm(sp, u))
        emb = embed_to_lp(sp, U, p)
        sub = lp_space(m, p)
        for _ in range(50):
            alpha = rng.normal(size=m)
            x = emb.synthesize(alpha)
            assert abs(norm(sp, x) - norm(sub, alpha)) <= 1e-9
            assert cone_contains(sp.cone, x, tol=1e-12) == bool(np.all(alpha >= 0))
            checked += 1


def test_criterion_8_lp_solver_matches_vertex_enumeration():
    rng = np.random.default_rng(303)
    for trial in range(200):
        n = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        # random inequalities through a feasible interior, plus a box to
        # keep the region bounded with the origin as a vertex
        Ab = np.array([[*rng.normal(size=n), rng.uniform(0.2, 2.0)]
                       for _ in range(int(rng.integers(1, 4)))])
        A = np.vstack([Ab[:, :-1], np.eye(n)])
        b = np.concatenate([Ab[:, -1], rng.uniform(0.5, 3.0, size=n)])
        out = solve_lp(LpProblem(objective=c, ineq=A, ineq_rhs=b))
        oracle = lp_by_vertex_enumeration(c, ineq=list(zip(A, b)))
        assert out.status == "optimal", trial
        assert oracle is not None, trial
        assert abs(out.optimum - oracle[0]) <= 1e-8, (trial, out.optimum, oracle[0])


def test_criterion_9_verify_all_under_budget(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["verify", "all", "--out", str(tmp_path / "all.json")])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 60.0
