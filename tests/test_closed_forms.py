"""Closed forms against the LPs they replace, called directly: on lattice
cones (unique cone coefficients), and on non-simplicial cones with tables,
where membership reads the facet normals, the base norm and the order-unit
dual norm are the max-ratio forms of their dual balls' vertices (checked
against the brute-force least-l1 form and the dual-ball LP), the base
positive support is half of phi plus a norming vertex, and the dual split
reads a minimizing basis. Then a count of the solver calls: none on the
default families, none on a tabled non-simplicial cone (the between-caps
cone included, whose tables the subset enumerations could not build), and
the LP fallbacks above the table cap at input scales from 1e-12 to 1e12."""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    BETWEEN_CAPS,
    NON_SIMPLICIAL_CONES,
    PENTAGON,
    basis_table,
    crust_lp,
    decompose_l1_lp,
    least_l1,
    positive_support_base_two_stage_lp,
    serialize_space_spec,
)
from portho import cli, cones, linalg, spaces
from portho.cones import _contains_lp, cone_contains, dual_cone_contains, nonneg_orthant, ray_cone
from portho.decomp import (
    _dual_split,
    _dual_split_lp,
    dual_one_orth_decompose,
    infty_orth_decompose,
    opt_decompose,
)
from portho.errors import InputError
from portho.ortho import p_orthogonal, p_orthogonal_numeric
from portho.harness import default_families, sample_cone
from portho.spaces import (
    _dual_ball_lp,
    _evaluate,
    base_space,
    dual_norm,
    lp_space,
    norm,
    norming,
    order_unit,
    order_unit_space,
)
from portho.support import (
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
        f_lp = crust_lp(_lp_form(space), u / norm(space, u))
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
        u1, u2 = decompose_l1_lp(space, v)
        assert d.status == "optimal"
        assert d.u1 == pytest.approx(u1, abs=1e-9) and d.u2 == pytest.approx(u2, abs=1e-9)


# ---------------------------------------------------------------------------
# non-simplicial cones with tables: the pentagon (the cone of the ou_ray5 and
# base_ray5 families, unit (0, 0, 1)) and the other test cones


def _tabled_spaces(name):
    """The order-unit and base spaces over a non-simplicial test cone: on
    the pentagon those of (0, 0, 1), elsewhere the order unit sum(G) and a
    base functional near the last coordinate."""
    G = NON_SIMPLICIAL_CONES[name]
    cone = ray_cone(G)
    if name == "pentagon":
        e = phi = np.array([0.0, 0.0, 1.0])
    else:
        e, phi = G.sum(axis=0), np.eye(cone.ambient_dim)[-1]
    return order_unit_space(cone, e), base_space(cone, phi)


# the test cones whose order-unit dual norm is a closed form over the facet
# normals: all of them, m8n5's 116-vertex table included
FACET_TABLED = [n for n in sorted(NON_SIMPLICIAL_CONES) if spaces._form(_tabled_spaces(n)[0], True).kind != spaces.SOLVER]


def _polyhedral_draw(V, W, rng, draw):
    """A draw for the cone generated by the rows of V, which lies on the
    nonnegative side of every row of W (its facet normals; for a dual cone,
    the generators). One row of W that vanishes on n - 1 or more rows of V,
    a facet, is picked: an interior draw (every row of V, positive weights),
    a boundary draw (the rows of V on that facet) or an outside draw (an
    interior one moved past the facet by a tenth of its largest entry);
    scaled by 10^s, s uniform in [-3, 6]."""
    W = W / np.linalg.norm(W, axis=1)[:, None]
    n = V.shape[1]
    on = np.abs(W @ V.T) <= 1e-9 * np.linalg.norm(V, axis=1)
    W, on = W[on.sum(axis=1) >= n - 1], on[on.sum(axis=1) >= n - 1]
    j = int(rng.integers(len(W)))
    x = rng.uniform(0.2, 1.5, size=len(V)) @ V
    if draw == "boundary":
        x = rng.uniform(0.2, 1.5, size=on[j].sum()) @ V[on[j]]
    elif draw == "outside":
        x = x - (W[j] @ x + 0.1 * np.abs(x).max()) * W[j]
    return x * 10.0 ** rng.uniform(-3.0, 6.0)


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL_CONES))
def test_facet_membership_matches_the_membership_lp(name, draw):
    cone = ray_cone(NON_SIMPLICIAL_CONES[name])
    assert cone.coefficient_basis is None and cone.facet_normals is not None
    rng = _rng(name, draw, "membership")
    for _ in range(30):
        x = _polyhedral_draw(cone.generators, cone.facet_normals, rng, draw)
        tol = 1e-9 * np.abs(x).max()
        expected = draw != "outside"
        assert cone_contains(cone, x, tol) is expected
        assert _contains_lp(cone, x, tol) is expected


def _check_maximizer(space, x, dual, z, z_lp=None):
    """z attains the form at x within the other direction's unit ball, and
    equals the LP's maximizer z_lp when given."""
    value = float(_evaluate(space, x[None], dual)[0])
    assert float(z @ x) == pytest.approx(value, rel=1e-12)
    assert _evaluate(space, z[None], not dual)[0] <= 1.0 + 1e-12
    if z_lp is not None:
        assert z == pytest.approx(z_lp, abs=1e-9)


def _least_l1_table(space, dual):
    """(bases, w) of the least-l1 form that the vertex table replaces: the
    generator table with w = G phi (base norm), or the facet table with
    w = H e (order-unit dual norm)."""
    cone = space.cone
    if dual:
        return basis_table(cone.facet_normals), cone.facet_normals @ space.norm.unit
    return basis_table(cone.generators), cone.generators @ space.norm.phi


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("name, kind", [(n, "base") for n in sorted(NON_SIMPLICIAL_CONES)]
                         + [(n, "order_unit") for n in FACET_TABLED])
def test_least_l1_maximizers_match_the_dual_ball_lp(name, kind, draw):
    # the base norm (primal, over the generator table) at cone points, and
    # the order-unit dual norm (over the facet table) at dual-cone points:
    # the vertex form reads the least-l1 value and its argmax is the LP's;
    # on rows of either sign too
    ou, base = _tabled_spaces(name)
    G, H = ou.cone.generators, ou.cone.facet_normals
    space, dual, V, W = (base, False, G, H) if kind == "base" else (ou, True, H, G)
    form = spaces._form(space, dual)
    bases, w = _least_l1_table(space, dual)
    if len(bases[0]) > 1:  # the vertex table
        assert form.kind == spaces.MAX and form.w is None
    else:  # one basis (m3n2's two facets): the l1 form of its coefficients
        assert form.kind == spaces.L1 and np.array_equal(form.V, bases[1][0])
        assert np.array_equal(form.w, w[bases[0][0]])
    rng = _rng(name, kind, draw, "maximizer")
    X = rng.normal(size=(20, V.shape[1])) * 10.0 ** rng.uniform(-3.0, 6.0, size=(20, 1))
    assert _evaluate(space, X, dual) == pytest.approx(least_l1(X, bases, w), rel=1e-12)
    for _ in range(20):
        x = _polyhedral_draw(V, W, rng, draw)
        value, z_lp = _dual_ball_lp(space, x, dual)
        got = float(_evaluate(space, x[None], dual)[0])
        assert got == pytest.approx(value, rel=1e-9)
        assert got == pytest.approx(float(least_l1(x[None], bases, w)[0]), rel=1e-12)
        # a boundary draw has a zero coefficient and several maximizers
        _check_maximizer(space, x, dual, norming(space, x, dual), None if draw == "boundary" else z_lp)


@pytest.mark.parametrize("kind", ["base", "order_unit"])
def test_face_inputs_take_no_dual_ball_lp_and_stay_correct(monkeypatch, kind):
    # a generator (base norm) or a facet normal (order-unit dual norm) of the
    # pentagon is a face input: its maximizers are a face of the other unit
    # ball, and the vertex table answers with one of its vertices, no LP
    ou, base = _tabled_spaces("pentagon")
    space, dual = (base, False) if kind == "base" else (ou, True)
    V = ou.cone.generators if kind == "base" else ou.cone.facet_normals
    calls = []
    monkeypatch.setattr(spaces, "_dual_ball_lp", lambda *args: calls.append(args))
    for v in V:
        for s in (1e-3, 1.0, 1e6):
            z = norming(space, s * v, dual)
            _check_maximizer(space, s * v, dual, z)
            assert np.any(np.all(np.isclose(spaces._form(space, dual).V, z), axis=1))
    assert calls == []


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("name", FACET_TABLED)
def test_dual_split_of_the_minimizing_basis_matches_its_lp(name, draw):
    space = _tabled_spaces(name)[0]
    G, H, e = space.cone.generators, space.cone.facet_normals, space.norm.unit
    rng = _rng(name, draw, "split")
    for _ in range(20):
        f = _polyhedral_draw(H, G, rng, draw)  # inside, on or outside the dual cone
        f1, f2 = _dual_split(space, f)
        g1, g2 = _dual_split_lp(space, f)
        scale = np.abs(f).max()
        assert f1 - f2 == pytest.approx(f, abs=1e-12 * scale)
        assert float((f1 + f2) @ e) == pytest.approx(dual_norm(space, f), rel=1e-12)
        assert float((f1 + f2) @ e) == pytest.approx(float((g1 + g2) @ e), rel=1e-9)
        for half in (f1, f2):
            assert np.all(G @ half >= -1e-12 * scale)
        if name == "pentagon":
            assert dual_one_orth_decompose(space, f).status == "optimal"


@pytest.mark.parametrize("draw", ["interior", "facet", "ray"])
def test_base_positive_support_lp_matches_the_two_stage_lp(draw):
    # the first stage's optimum is phi(u), so one LP with f(u) = phi(u) is left
    space = _tabled_spaces("pentagon")[1]
    G, H, phi = space.cone.generators, space.cone.facet_normals, space.norm.phi
    rng = _rng(draw, "base positive support")
    for i in range(30):
        if draw == "ray":
            u = G[i % len(G)] * 10.0 ** rng.uniform(-3.0, 6.0)
        else:
            u = _polyhedral_draw(G, H, rng, "boundary" if draw == "facet" else draw)
        f = _positive_support_base_lp(space, u)
        assert f == pytest.approx(positive_support_base_two_stage_lp(space, u), abs=1e-12)
        assert np.all(G @ f >= -1e-12) and np.all(G @ f <= G @ phi + 1e-12)
        assert float(f @ u) == pytest.approx(float(phi @ u), rel=1e-12)


@pytest.mark.parametrize("draw", ["ray", "facet", "interior"])
def test_base_positive_support_is_the_least_mass_support_with_no_lp(lp_calls, draw):
    # (phi + z)/2 with z the norming vertex of u of least 1^T G z is the
    # two-stage LP's support: on five inputs at each of three scales, and at
    # 1e-12 and 1e12, where the LP's absolute tolerances fail, it is still
    # the support of u (the supports of s u and u coincide for s > 0)
    space = _tabled_spaces("pentagon")[1]
    G = space.cone.generators
    rng = _rng(draw, "least mass")
    for i in range(5):
        if draw == "ray":
            u = G[i]
        elif draw == "facet":  # adjacent generators of the pentagon span a facet
            u = rng.uniform(0.2, 1.5) * G[i] + rng.uniform(0.2, 1.5) * G[(i + 1) % 5]
        else:
            u = rng.uniform(0.2, 1.5, size=5) @ G
        for s in (1e-12, 1e-3, 1.0, 1e6, 1e12):
            f = positive_support(space, s * u).functional
            reference = s * u if 1e-3 <= s <= 1e6 else u
            assert f == pytest.approx(positive_support_base_two_stage_lp(space, reference), abs=1e-12)
    assert lp_calls == []


def test_the_base_positive_support_of_a_generator_is_not_phi():
    # at g0 = (1, 0, 1) phi has mass 5 on the generators; the least-mass
    # support (5/9, 0, 4/9) has 20/9
    space = _tabled_spaces("pentagon")[1]
    f = positive_support(space, PENTAGON[0]).functional
    assert f == pytest.approx([5.0 / 9.0, 0.0, 4.0 / 9.0], abs=1e-15)
    assert float(PENTAGON.sum(axis=0) @ f) == pytest.approx(20.0 / 9.0, rel=1e-15)


def test_face_constructions_on_the_pentagon_make_no_lp(lp_calls):
    # generators and facet normals at three scales, as vectors and as
    # functionals: support functionals, positive supports, norming elements,
    # crusts and dual splits all read the vertex and facet tables
    ou, base = _tabled_spaces("pentagon")
    G, H = ou.cone.generators, ou.cone.facet_normals
    for s in (1e-3, 1.0, 1e6):
        for space in (ou, base):
            for v in np.vstack([G, H, -G, -H]):
                res = support_functional(space, s * v)
                assert res.attained_value == pytest.approx(norm(space, s * v), rel=1e-12)
                assert dual_norm(space, res.functional) <= 1.0 + 1e-12
            for g in G:
                res = positive_support(space, s * g)
                assert res.is_positive and res.attained_value == pytest.approx(norm(space, s * g), rel=1e-12)
        for h in H:
            assert dual_one_orth_decompose(ou, s * h).status == "optimal"
            assert dual_one_orth_decompose(ou, -s * h).status == "optimal"
        for g, g_next in zip(G, np.roll(G, -1, axis=0)):
            _check_crust(ou, s * (g + g_next), crust_probe(ou, s * (g + g_next)).functional)
    assert lp_calls == []


@pytest.mark.parametrize("spec", ["ou_pentagon.json", "base_pentagon.json"])
def test_verify_all_on_a_pentagon_spec_takes_the_grid_only_for_witnesses(lp_calls, monkeypatch, tmp_path, spec):
    import portho.ortho as ortho_module

    grid = []
    verdict_from_norm, decide, decisions = ortho_module.verdict_from_norm, ortho_module.p_orthogonal, []
    monkeypatch.setattr(ortho_module, "verdict_from_norm", lambda *a, **k: grid.append(1) or verdict_from_norm(*a, **k))

    def counted(*args, **kwargs):
        before = len(grid)
        v = decide(*args, **kwargs)
        decisions.append((v.method, v.verdict, len(grid) - before))
        return v

    for name, module in list(sys.modules.items()):
        if name.startswith("portho") and getattr(module, "p_orthogonal", None) is decide:
            monkeypatch.setattr(module, "p_orthogonal", counted)
    path = str(Path(__file__).parent / "data" / spec)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", "all", "--seed", "0", "--samples", "50", "--space", path,
                       "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert {method for method, _, _ in decisions} <= {"exact"}
    assert len(grid) == sum(verdict == "not_orthogonal" for _, verdict, _ in decisions)
    assert lp_calls == []


@pytest.mark.parametrize("cap, kind", [(11, "solver"), (12, "max")])
def test_the_table_cap_counts_rows(monkeypatch, cap, kind):
    # the pentagon's vertex tables hold 12 rows each, its facet table 5
    monkeypatch.setattr(cones, "MAX_TABLE_ROWS", cap)
    ou, base = _tabled_spaces("pentagon")
    assert spaces._form(base).kind == spaces._form(ou, True).kind == kind


# the forms (order-unit norm, its dual, base norm, its dual) of the test
# cones under a table cap that counts the rows the engine holds
_ROUTES = {
    "m3n2": ("max", "l1", "max", "max"),
    "m5n3": ("max", "max", "max", "max"),
    "m8n3": ("max", "max", "max", "max"),
    "m6n4": ("max", "max", "max", "max"),
    "m8n5": ("max", "max", "max", "max"),
    "redundant": ("max", "max", "max", "max"),
    "duplicated": ("max", "max", "max", "max"),
    "pentagon": ("max", "max", "max", "max"),
    "between_caps": ("max", "max", "max", "max"),
}


@pytest.mark.parametrize("name", sorted(_ROUTES))
def test_each_test_cone_keeps_its_forms(name):
    if name == "between_caps":
        cone = ray_cone(BETWEEN_CAPS)
        ou, base = order_unit_space(cone, BETWEEN_CAPS.sum(axis=0)), base_space(cone, np.eye(6)[-1])
    else:
        ou, base = _tabled_spaces(name)
    forms = (spaces._form(ou), spaces._form(ou, True), spaces._form(base), spaces._form(base, True))
    assert tuple(form.kind for form in forms) == _ROUTES[name]


def test_above_the_vertex_cap_the_least_l1_forms_take_their_lps(lp_calls, monkeypatch):
    # the solver form: one dual-ball LP per value and per maximizer
    monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 11)
    ou, base = _tabled_spaces("pentagon")
    G, H = ou.cone.generators, ou.cone.facet_normals
    for space, dual, V in ((base, False, G), (ou, True, H)):
        bases, w = _least_l1_table(space, dual)
        for v in V:
            before = len(lp_calls)
            z = norming(space, v, dual)
            assert len(lp_calls) - before == 1
            assert float(_evaluate(space, v[None], dual)[0]) == pytest.approx(float(least_l1(v[None], bases, w)[0]), rel=1e-12)
            assert len(lp_calls) - before == 2
            _check_maximizer(space, v, dual, z)
    u = 0.7 * G[0] + 0.4 * G[1]
    before = len(lp_calls)
    f = positive_support(base, u).functional
    assert len(lp_calls) - before == 1
    assert f == pytest.approx(positive_support_base_two_stage_lp(base, u), abs=1e-12)
    # the p = 1 decisions of the base norm are exact: two norm evaluations
    # of two rows each, four LPs
    before = len(lp_calls)
    got = p_orthogonal(base, G[0], G[2], 1.0)
    assert (got.method, len(lp_calls) - before) == ("exact", 4)
    assert got.is_orthogonal == p_orthogonal_numeric(base, G[0], G[2], 1.0).is_orthogonal


def test_a_cone_between_the_old_caps_takes_the_vertex_forms(lp_calls):
    # 462 generator bases in R^6 made 29,568 vertex candidates, too many for
    # the subset enumeration; the engine builds the 336 generator and 724
    # facet vertices, so the base norm and the order-unit dual norm are
    # max-ratio forms, unpatched, and reach no LP
    G = BETWEEN_CAPS
    base, ou = base_space(ray_cone(G), np.eye(6)[-1]), order_unit_space(ray_cone(G), G.sum(axis=0))
    bases = basis_table(G)
    assert len(bases[0]) == 462
    assert len(ou.cone.facet_normals) == 50
    forms = spaces._form(base), spaces._form(ou, True)
    assert [(form.kind, len(form.V)) for form in forms] == [(spaces.MAX, 336), (spaces.MAX, 724)]
    rng = _rng("between the caps")
    X = rng.normal(size=(10, 6)) * np.logspace(-3.0, 6.0, 10)[:, None]  # nine decades
    assert spaces.batch_norms(base, X) == pytest.approx(least_l1(X, bases, G @ base.norm.phi), rel=1e-9)
    for x in X:
        _check_maximizer(base, x, False, norming(base, x))
        # the norming element of the order-unit dual norm attains it, and the
        # dual split LP's aggregate, an upper bound, meets it
        z = norming(ou, x, dual=True)
        f1, f2 = _dual_split_lp(ou, x)
        assert float(x @ z) == pytest.approx(dual_norm(ou, x), rel=1e-9)
        assert float((f1 + f2) @ ou.norm.unit) == pytest.approx(dual_norm(ou, x), rel=1e-9)
        assert norm(ou, z) <= 1.0 + 1e-9
    assert len(lp_calls) == len(X)  # the split LPs of the check
    for x, y in ((G[0], G[2]), (G[0], G[1]), (X[0], X[1])):
        got = p_orthogonal(base, x, y, 1.0)
        assert got.method == "exact"
        assert got.is_orthogonal == p_orthogonal_numeric(base, x, y, 1.0).is_orthogonal
    assert len(lp_calls) == len(X)
    assert not got.is_orthogonal


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e9, 1e12])
def test_the_lp_fallbacks_scale_with_their_input(lp_calls, monkeypatch, scale):
    # above the caps every construction on the pentagon is an LP, with
    # the solver's absolute tolerances: each LP takes its input scaled to
    # unit largest entry, so values scale with the input and maximizers,
    # supports and splits match the tabled closed forms'
    ou_t, base_t = _tabled_spaces("pentagon")
    u = 0.7 * PENTAGON[0] + 0.4 * PENTAGON[1]
    f = np.array([0.3, -0.5, 0.2])
    want = {"base norm": norm(base_t, u), "ou dual norm": dual_norm(ou_t, f), "ou norm": norm(ou_t, u),
            "base support": positive_support(base_t, u).functional}
    monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 4)
    ou, base = order_unit_space(ray_cone(PENTAGON), ou_t.norm.unit), base_space(ray_cone(PENTAGON), base_t.norm.phi)
    assert spaces._form(base).kind == spaces._form(ou).kind == spaces._form(ou, True).kind == spaces.SOLVER
    assert norm(base, scale * u) == pytest.approx(scale * want["base norm"], rel=1e-9)
    assert dual_norm(ou, scale * f) == pytest.approx(scale * want["ou dual norm"], rel=1e-9)
    assert support_functional(base, scale * u).attained_value == pytest.approx(scale * want["base norm"], rel=1e-9)
    assert positive_support(base, scale * u).functional == pytest.approx(want["base support"], abs=1e-9)
    res = positive_support(ou, scale * u)
    assert res.attained_value == pytest.approx(scale * want["ou norm"], rel=1e-9)
    assert float(res.functional @ ou.norm.unit) == pytest.approx(1.0, abs=1e-9)
    dec = dual_one_orth_decompose(ou, scale * f)
    assert dec.status == "optimal"
    assert dec.norm_aggregate == pytest.approx(scale * want["ou dual norm"], rel=1e-9)
    for half in (dec.u1, dec.u2):
        assert np.all(PENTAGON @ half >= -1e-9 * scale)
    assert len(lp_calls) >= 6


def test_vertex_tables_are_built_at_the_first_form(monkeypatch):
    built = []
    vertices = spaces._vertices
    monkeypatch.setattr(spaces, "_vertices", lambda *args: built.append(1) or vertices(*args))
    space = cli.parse_space_spec(serialize_space_spec(_tabled_spaces("pentagon")[1]))
    assert built == []
    norm(space, PENTAGON[0])
    norm(space, PENTAGON[1])
    assert built == [1]


_CRUST_SPACES = {
    "sup_8": _DEFAULTS["sup_8"],
    "polyray_4": _DEFAULTS["polyray_4"],
    "linf_8": lp_space(8, INF),
    "ou_pentagon": _tabled_spaces("pentagon")[0],
}


@pytest.mark.parametrize("draw", ["boundary", "interior"])
@pytest.mark.parametrize("family", sorted(_CRUST_SPACES))
def test_a_crust_is_the_positive_support_of_its_partner(family, draw):
    space = _CRUST_SPACES[family]
    rng = _rng(family, draw, "partner")
    for _ in range(30):
        if space.cone.coefficient_basis is not None:
            u = _draw(space, rng, draw)
        else:
            u = _polyhedral_draw(space.cone.generators, space.cone.facet_normals, rng, draw)
        res = crust_probe(space, u)
        assert (res is None) is (draw == "interior")
        if res is not None:
            f = positive_support(space, res.partner).functional
            assert list(map(float.hex, res.functional)) == list(map(float.hex, f))
            _check_crust(space, u, res.functional)


@pytest.mark.parametrize("t", [1e-15, 1e-12, 1e-9])
def test_a_pentagon_input_nearly_on_the_unit_has_no_crust(t):
    # the partner e - u/||u|| is tiny but nonzero: too short for a crust
    space = _tabled_spaces("pentagon")[0]
    u = space.norm.unit + t * (PENTAGON[0] + PENTAGON[1])
    res = crust_probe(space, u)
    assert 0.0 < np.abs(space.norm.unit - u / norm(space, u)).max() < 1e-8
    assert res is None


def test_crust_probe_above_the_cap_decides_orthogonality_by_norms(lp_calls, monkeypatch):
    # the rule at p = inf on the normalized pair, not the grid's LP per grid
    # row: one LP for membership, two for the norms, one for the support
    # and four for the rule
    e = np.array([0.0, 0.0, 1.0])
    points = [0.7 * PENTAGON[0] + 0.4 * PENTAGON[1], 0.2 * PENTAGON[2] + 1.3 * PENTAGON[3]]
    tabled = [crust_probe(order_unit_space(ray_cone(PENTAGON), e), u) for u in points]
    monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 4)
    for u, want in zip(points, tabled):
        before = len(lp_calls)
        res = crust_probe(order_unit_space(ray_cone(PENTAGON), e), u)
        assert 1 <= len(lp_calls) - before <= 8
        assert res.partner_orthogonal is want.partner_orthogonal
        assert res.functional == pytest.approx(want.functional, abs=1e-9)


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
    space = cli.parse_space_spec(serialize_space_spec(_DEFAULTS[family]))
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
    # with the cap lowered below the pentagon's 5 facets it keeps no table,
    # so every construction falls back to its LP
    monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 4)
    assert ray_cone(PENTAGON).facet_normals is None
    calls = _pentagon_calls(lp_calls, kind)
    assert all(n >= 1 for n in calls.values()), calls


def test_a_tabled_non_simplicial_cone_takes_the_facet_closed_forms(lp_calls):
    # membership reads the facet normals, the maximizers the vertex tables
    # (the base positive support too) and the dual split a minimizing basis
    for kind in ("order_unit", "base"):
        calls = _pentagon_calls(lp_calls, kind)
        assert calls == {name: 0 for name in calls}, kind


@pytest.mark.parametrize("name", ["m8n5", "between_caps"])
def test_an_order_unit_split_solves_no_lp(lp_calls, name):
    # the order-unit dual norms of these cones are max-ratio forms over
    # their 116 and 724 facet vertices, so the norming element, the dual
    # norms and the exact p = 1 check of a split need no LP
    G = BETWEEN_CAPS if name == "between_caps" else NON_SIMPLICIAL_CONES[name]
    space = order_unit_space(ray_cone(G), G.sum(axis=0))
    for f in _rng("split", name).normal(size=(4, space.dim)):
        dec = dual_one_orth_decompose(space, f)
        assert dec.status == "optimal"
        assert dec.norm_aggregate == pytest.approx(dual_norm(space, f), rel=1e-12)
    assert lp_calls == []
