"""Closed forms on lattice cones (unique cone coefficients) against the LPs
they replace, called directly, and a count of the solver calls: none on the
default families, none but membership checks for the order-unit
constructions on a tabled non-simplicial cone, and the LP fallbacks above
the table cap."""

import contextlib
import io
import sys

import numpy as np
import pytest

from oracles import PENTAGON
from portho import cli, cones, linalg
from portho.cones import _contains_lp, cone_contains, dual_cone_contains, nonneg_orthant, ray_cone
from portho.decomp import (
    _decompose_l1_lp,
    _dual_split_lp,
    dual_one_orth_decompose,
    infty_orth_decompose,
    opt_decompose,
)
from portho.errors import InputError
from portho.harness import default_families, sample_cone
from portho.spaces import _dual_ball_lp, base_space, dual_norm, norm, order_unit, order_unit_space
from portho.support import (
    _crust_lp,
    _positive_support_base_lp,
    _positive_support_lp,
    crust_probe,
    positive_support,
    support_functional,
)

INF = float("inf")
_DEFAULTS = default_families()
_RAY4 = _DEFAULTS["polyray_4"].cone
_SIMPLEX5 = ray_cone(np.eye(5) + np.random.default_rng(3).uniform(0.0, 0.4, size=(5, 5)))

LATTICE = {
    "sup_8": _DEFAULTS["sup_8"],
    "polyray_4": _DEFAULTS["polyray_4"],
    "base_8": _DEFAULTS["base_8"],
    "base_ray4": base_space(_RAY4, [1.0, 0.5, 2.0, 1.0]),
    "ou_simplex5": order_unit_space(_SIMPLEX5, _SIMPLEX5.generators.sum(axis=0)),
}
ORDER_UNIT = ("sup_8", "polyray_4", "ou_simplex5")
BASE = ("base_8", "base_ray4")
DRAWS = ("boundary", "interior", "outside")


def _lp_form(space):
    """The sup norm over the orthant as the order-unit norm of ones, whose
    dual-ball and dual-cone LPs describe it; other spaces unchanged."""
    if space.norm.kind == "sup":
        return order_unit_space(nonneg_orthant(space.dim), np.ones(space.dim))
    return space


def _coefficients(rng, m, draw, zeros=None):
    """Cone coefficients of a boundary draw (`zeros` of them, default at
    least one, zero), an interior draw (all positive) or an outside one
    (at least one negative)."""
    c = rng.uniform(0.2, 1.5, size=m)
    if draw == "boundary":
        k = zeros if zeros is not None else int(rng.integers(1, m))
        c[rng.permutation(m)[:k]] = 0.0
    elif draw == "outside":
        c[rng.permutation(m)[: int(rng.integers(1, m))]] *= -1.0
    return c


def _draw(space, rng, draw, zeros=None):
    B = space.cone.coefficient_basis[0]
    return B @ _coefficients(rng, B.shape[1], draw, zeros)


def _rng(*key):
    return np.random.default_rng([sum(map(ord, str(k))) for k in key])


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("family", ["polyray_4", "ou_simplex5"])
def test_cone_contains_matches_the_membership_lp(family, draw):
    cone = LATTICE[family].cone
    rng = _rng(family, draw)
    for _ in range(40):
        x = _draw(LATTICE[family], rng, draw)
        expected = draw != "outside"
        assert cone_contains(cone, x) is expected
        assert _contains_lp(cone, x, 1e-9) is expected


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("family", sorted(LATTICE))
def test_support_functional_matches_the_dual_ball_lp(family, draw):
    space = LATTICE[family]
    rng = _rng(family, draw, "support")
    for _ in range(40):
        v = _draw(space, rng, draw)
        res = support_functional(space, v)
        f_lp = _dual_ball_lp(_lp_form(space), v, False)[1]
        nv = norm(space, v)
        assert res.attained_value == pytest.approx(nv, abs=1e-9 * (1.0 + nv))
        assert float(f_lp @ v) == pytest.approx(nv, abs=1e-9 * (1.0 + nv))
        assert dual_norm(space, res.functional) <= 1.0 + 1e-9
        if draw != "boundary":  # no zero coefficient: a unique maximizer
            assert res.functional == pytest.approx(f_lp, abs=1e-9)


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("family", sorted(LATTICE))
def test_positive_support_matches_its_lp(family, draw):
    space = LATTICE[family]
    rng = _rng(family, draw, "positive")
    reference = _positive_support_base_lp if family in BASE else _positive_support_lp
    for _ in range(40):
        u = _draw(space, rng, draw)
        if draw == "outside":
            with pytest.raises(InputError):
                positive_support(space, u)
            continue
        f = positive_support(space, u).functional
        assert f == pytest.approx(reference(_lp_form(space), u), abs=1e-9)
        assert dual_cone_contains(space.cone, f, tol=1e-12)
        assert float(f @ u) == pytest.approx(norm(space, u), abs=1e-9)


def _check_crust(space, u, f):
    e = order_unit(space)
    assert dual_cone_contains(space.cone, f, tol=1e-12)
    assert abs(float(f @ u)) <= 1e-9 * (1.0 + np.abs(u).max())
    assert float(f @ e) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("family", ORDER_UNIT)
def test_crust_probe_matches_its_lp(family, draw):
    space = LATTICE[family]
    rng = _rng(family, draw, "crust")
    for i in range(40):
        # half the boundary draws have exactly one zero coefficient, so that
        # the crust is unique
        zeros = 1 if draw == "boundary" and i % 2 == 0 else None
        u = _draw(space, rng, draw, zeros)
        if draw == "outside":
            with pytest.raises(InputError):
                crust_probe(space, u)
            continue
        res = crust_probe(space, u)
        f_lp = _crust_lp(_lp_form(space), u / norm(space, u))
        assert (res is None) is (f_lp is None) is (draw == "interior")
        if res is not None:
            _check_crust(space, u, res.functional)
            _check_crust(space, u, f_lp)
            if zeros == 1:
                assert res.functional == pytest.approx(f_lp, abs=1e-9)


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("family", ORDER_UNIT)
def test_dual_split_matches_its_lp(family, draw):
    space = LATTICE[family]
    rng = _rng(family, draw, "dual")
    H = space.cone.coefficient_basis[1]
    for _ in range(40):
        # a functional inside, on the boundary of or outside the dual cone
        f = H.T @ _coefficients(rng, space.dim, draw)
        dec = dual_one_orth_decompose(space, f)
        f1, f2 = _dual_split_lp(_lp_form(space), f)
        assert dec.status == "optimal"
        assert dec.u1 == pytest.approx(f1, abs=1e-9)
        assert dec.u2 == pytest.approx(f2, abs=1e-9)


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("family", ["lp1_8", "base_8", "polyray_4", "base_ray4"])
def test_l1_decomposition_lp_matches_the_split(family, draw):
    space = LATTICE.get(family) or _DEFAULTS[family]
    rng = _rng(family, draw, "decompose")
    for _ in range(20):
        v = _draw(space, rng, draw)
        d = opt_decompose(space, v, 1.0)
        u1, u2 = _decompose_l1_lp(space, v)
        assert d.status == "optimal"
        assert d.u1 == pytest.approx(u1, abs=1e-9) and d.u2 == pytest.approx(u2, abs=1e-9)


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts solver calls through every binding of `solve_lp` in portho."""
    calls = []
    solve = linalg.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "portho" or name.startswith("portho.")) and getattr(module, "solve_lp", None) is solve:
            monkeypatch.setattr(module, "solve_lp", counted)
    return calls


def test_verify_all_on_the_default_families_never_reaches_the_solver(lp_calls, tmp_path):
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", "all", "--seed", "0", "--samples", "20", "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert len(lp_calls) == 0


@pytest.mark.parametrize("family", sorted(_DEFAULTS))
def test_constructions_on_the_default_families_never_reach_the_solver(lp_calls, family):
    space = cli.parse_space_spec(cli.serialize_space_spec(_DEFAULTS[family]))
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = sample_cone(space, rng) - sample_cone(space, rng)
        u = sample_cone(space, rng)
        support_functional(space, v)
        positive_support(space, u)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            assert opt_decompose(space, v, p).status == "optimal"
        assert infty_orth_decompose(space, v).status == "optimal"
        if order_unit(space) is not None and space.cone.kind != "psd":
            crust_probe(space, u)
        if space.p_class == INF:
            assert dual_one_orth_decompose(space, v).status == "optimal"
    assert len(lp_calls) == 0


def _pentagon_calls(lp_calls, kind):
    """Solver calls per construction on the pentagon cone under the
    order-unit or base norm of (0, 0, 1), checking each result."""
    cone = ray_cone(PENTAGON)
    e = np.array([0.0, 0.0, 1.0])
    space = order_unit_space(cone, e) if kind == "order_unit" else base_space(cone, e)
    rng = np.random.default_rng(6)
    boundary = 0.7 * PENTAGON[0] + 0.4 * PENTAGON[1]
    interior = PENTAGON.T @ rng.uniform(0.2, 1.5, size=5)
    v = rng.normal(size=3)
    calls = {}

    def count(name, call):
        before = len(lp_calls)
        out = call()
        calls[name] = len(lp_calls) - before
        return out

    assert count("cone_contains", lambda: cone_contains(cone, interior))
    res = count("support_functional", lambda: support_functional(space, v))
    assert res.attained_value == pytest.approx(norm(space, v), abs=1e-9)
    assert dual_norm(space, res.functional) <= 1.0 + 1e-9
    res = count("positive_support", lambda: positive_support(space, interior))
    assert res.attained_value == pytest.approx(norm(space, interior), abs=1e-9)
    assert dual_cone_contains(cone, res.functional, tol=1e-9)
    if kind == "order_unit":
        res = count("crust_probe", lambda: crust_probe(space, boundary))
        _check_crust(space, boundary, res.functional)
        dec = count("dual_one_orth_decompose", lambda: dual_one_orth_decompose(space, v))
        assert dec.status == "optimal"
    return calls


@pytest.mark.parametrize("kind", ["order_unit", "base"])
def test_a_non_simplicial_cone_still_reaches_the_solver(lp_calls, monkeypatch, kind):
    # with the cap lowered below the pentagon's 10 subsets it keeps no table,
    # so every construction falls back to its LP
    monkeypatch.setattr(cones, "MAX_TABLE_SUBSETS", 4)
    assert ray_cone(PENTAGON).facet_normals is None
    calls = _pentagon_calls(lp_calls, kind)
    assert all(n >= 1 for n in calls.values()), calls


def test_a_tabled_non_simplicial_cone_takes_the_facet_closed_forms(lp_calls):
    # each membership check (cone_contains) of the pentagon is one LP; the
    # order-unit support functional, positive support and crust add none
    calls = _pentagon_calls(lp_calls, "order_unit")
    assert calls["cone_contains"] == 1 and calls["support_functional"] == 0, calls
    assert calls["positive_support"] == 1, calls  # the argument's membership
    assert calls["crust_probe"] == 3, calls  # u's, then u's and the partner's in the orthogonality test
