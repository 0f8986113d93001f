import math

import numpy as np
import pytest

from oracles import (
    BETWEEN_CAPS,
    NON_SIMPLICIAL_CONES,
    PENTAGON,
    facets_by_subsets,
    lifted_generators,
    pairing,
    vertices_by_bases,
)
from portho import cones
from portho.cones import (
    ConeReport,
    ConeSpec,
    _extreme_rays,
    cone_contains,
    cone_proper_generating,
    dual_cone_contains,
    nonneg_orthant,
    psd_cone,
    ray_cone,
)
from portho.errors import InputError
from portho.spaces import _dual_ball_lp, _form, _vertices, base_space, batch_dual_norms, batch_norms, order_unit_space


WEDGE = ray_cone([[1.0, 1.0], [1.0, -1.0]])


class TestMembership:
    def test_orthant(self):
        assert cone_contains(nonneg_orthant(2), [1.0, 2.0])
        assert not cone_contains(nonneg_orthant(2), [1.0, -0.5])
        assert cone_contains(nonneg_orthant(3), [0.0, 0.0, 0.0])

    def test_rays_inside(self):
        # (2, 0) = 1*(1,1) + 1*(1,-1)
        assert cone_contains(WEDGE, [2.0, 0.0])

    def test_rays_outside(self):
        # a + b = 0 and a - b = 2 forces b = -1 < 0
        assert not cone_contains(WEDGE, [0.0, 2.0])

    def test_psd(self):
        c = psd_cone(2)
        assert cone_contains(c, np.array([[2.0, 1.0], [1.0, 2.0]]).ravel())
        assert not cone_contains(c, np.array([[1.0, 2.0], [2.0, 1.0]]).ravel())

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cone_contains(nonneg_orthant(3), [1.0, 2.0])


class TestDualCone:
    def test_orthant(self):
        assert dual_cone_contains(nonneg_orthant(2), [1.0, 1.0])
        assert not dual_cone_contains(nonneg_orthant(2), [1.0, -0.5])

    def test_wedge(self):
        # f(1,1) = 0, f(1,-1) = 2
        assert dual_cone_contains(WEDGE, [1.0, -1.0])
        assert not dual_cone_contains(WEDGE, [-1.0, 0.0])

    def test_psd_trace_pairing(self):
        c = psd_cone(2)
        assert dual_cone_contains(c, np.eye(2).ravel())
        assert not dual_cone_contains(c, np.diag([1.0, -1.0]).ravel())


class TestProperGenerating:
    def test_orthant(self):
        rep = cone_proper_generating(nonneg_orthant(3))
        assert rep.proper and rep.generating

    def test_line_cone(self):
        rep = cone_proper_generating(ray_cone([[1.0, 0.0], [-1.0, 0.0]]))
        assert not rep.proper and not rep.generating

    def test_pointed_full_cone(self):
        rep = cone_proper_generating(ray_cone([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]))
        assert rep.proper and rep.generating

    def test_halfplane_cone(self):
        # proper fails (contains the x-axis), but differences span the plane
        rep = cone_proper_generating(ray_cone([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]))
        assert not rep.proper and rep.generating

    @pytest.mark.parametrize(
        "generators, proper",
        [
            (PENTAGON, True),
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], False),  # a half-plane
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], False),  # the plane
            ([[1.0], [2.0]], True),  # a half-line
            ([[1.0], [-2.0]], False),  # the line
        ],
        ids=["pentagon", "half_plane", "plane", "half_line", "line"],
    )
    def test_facet_normals_decide_pointedness_without_an_lp(self, generators, proper, monkeypatch):
        # {x : H x >= 0} holds a line iff H has rank below n
        calls = []
        monkeypatch.setattr(cones, "solve_lp", lambda *a, **k: calls.append(a))
        cone = ray_cone(generators)
        rep = cone_proper_generating(cone)
        assert (rep.proper, rep.generating, calls) == (proper, True, [])
        assert cone.facet_normals.shape[1] == cone.ambient_dim

    def test_a_cone_without_facets_holds_every_vector(self):
        for generators in ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [[1.0], [-2.0]]):
            cone = ray_cone(generators)
            assert cone.facet_normals.shape == (0, cone.ambient_dim)
            rng = np.random.default_rng(0)
            assert all(cone_contains(cone, x) for x in rng.normal(size=(20, cone.ambient_dim)))


class TestProperties:
    @pytest.mark.parametrize(
        "cone",
        [nonneg_orthant(4), WEDGE, ray_cone([[1.0, 0.0, 0.2], [0.0, 1.0, 0.2], [0.1, 0.1, 1.0]])],
        ids=["orthant4", "wedge", "rays3"],
    )
    def test_proper_cones_have_no_lines(self, cone):
        assert cone_proper_generating(cone).proper
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.normal(size=cone.ambient_dim)
            if cone_contains(cone, x) and cone_contains(cone, -x):
                assert np.abs(x).max() <= 1e-8

    def test_primal_dual_pairing_nonnegative(self):
        rng = np.random.default_rng(1)
        hits = 0
        while hits < 500:
            x = rng.normal(size=2)
            f = rng.normal(size=2)
            if cone_contains(WEDGE, x) and dual_cone_contains(WEDGE, f):
                assert pairing(f, x) >= -1e-9
                hits += 1


class TestTables:
    @pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL_CONES))
    def test_facet_normals_are_facets(self, name):
        G = NON_SIMPLICIAL_CONES[name]
        cone = ray_cone(G)
        H = cone.facet_normals
        n = cone.ambient_dim
        assert cone.coefficient_basis is None and H is not None
        P = H @ G.T
        assert np.all(P >= -1e-10)  # G h >= 0
        for row in P:  # each facet holds n - 1 independent generators
            assert np.linalg.matrix_rank(G[np.abs(row) <= 1e-9], tol=1e-9) == n - 1
        assert len({tuple(np.round(h, 6)) for h in H}) == len(H)  # no duplicates
        # the facets describe the cone: H x >= 0 agrees with the LP membership
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, n))
        X[:100] = rng.exponential(size=(100, len(G))) @ G - 1e-3 * rng.random((100, n))
        for x, margin in zip(X, (H @ X.T).min(axis=0)):
            if abs(margin) > 1e-6:
                assert cone_contains(cone, x) == (margin > 0.0)

    def test_pentagon_facets_are_adjacent_pairs(self):
        G = PENTAGON
        H = ray_cone(G).facet_normals
        tight = {frozenset(np.flatnonzero(np.abs(G @ h) <= 1e-12)) for h in H}
        assert tight == {frozenset({i, (i + 1) % 5}) for i in range(5)}

    def test_duplicated_ray_adds_no_facet(self):
        G = NON_SIMPLICIAL_CONES["duplicated"]
        assert len(ray_cone(G).facet_normals) == len(ray_cone(G[:-1]).facet_normals)

    @pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL_CONES))
    def test_basis_inverses(self, name):
        # a vertex table holds the basic solutions of every invertible
        # n-subset of its rows, each once: the oracle's loop over its own
        # table of basis inverses finds the same points
        cone = ray_cone(NON_SIMPLICIAL_CONES[name])
        G, H = cone.generators, cone.facet_normals
        for V, w in ((G, G @ H.sum(axis=0)), (H, H @ G.sum(axis=0))):
            Z, want = _vertices(V, w), vertices_by_bases(V, w)
            scale = np.abs(want).max()
            assert len(np.unique(np.round(Z / scale, 9), axis=0)) == len(Z)
            for a, b in ((Z, want), (want, Z)):
                assert all(np.abs(b - z).max(axis=1).min() <= 1e-9 * scale for z in a)

    def test_coefficient_cones_reuse_their_inverse(self):
        # a simplicial cone's facet normals are B^-1, and its l1 forms read
        # B^-1 (the base norm) and B^T (the order-unit dual norm) as they are
        simplicial = ray_cone(np.eye(3) + 0.2)
        for cone in (nonneg_orthant(3), simplicial):
            assert cone.facet_normals is cone.coefficient_basis[1]
        B, Binv = simplicial.coefficient_basis
        assert _form(base_space(simplicial, np.ones(3))).V is Binv
        assert np.array_equal(_form(order_unit_space(simplicial, B.sum(axis=1)), True).V, B.T)

    def test_psd_has_no_tables(self):
        assert psd_cone(2).facet_normals is None

    def test_cap_is_decided_by_size(self, monkeypatch):
        # the cap counts the rows a table holds, here a k-gon's k facets
        monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 12)
        assert len(ray_cone(_polygon(12)).facet_normals) == 12
        assert ray_cone(_polygon(13)).facet_normals is None


def _polygon(k):
    """Generators over a regular k-gon on the plane x_3 = 1: k facets."""
    t = 2.0 * np.pi * np.arange(k) / k
    return np.stack([np.cos(t), np.sin(t), np.ones(k)], axis=1)


def _same_rows(A, B, tol=1e-9):
    """Whether A and B hold the same rows, each within tol of B's largest entry."""
    scale = np.abs(B).max()
    return len(A) == len(B) and all(
        np.abs(Y - x).max(axis=1).min() <= tol * scale for X, Y in ((A, B), (B, A)) for x in X
    )


_RANDOM_CONES = [(n, m, 100 * n + m) for n in range(2, 7) for m in (n + 1, (n + 13) // 2, 12)]


class TestDoubleDescription:
    @pytest.mark.parametrize("n, m, seed", _RANDOM_CONES)
    def test_random_cones_match_the_subset_oracles(self, n, m, seed):
        # the facet normals and both vertex tables, against the enumerations
        # of (n - 1)-subsets of generators and of bases times sign vectors
        G = lifted_generators(m, n, seed)
        H = ray_cone(G).facet_normals
        assert _same_rows(H, facets_by_subsets(G))
        assert _same_rows(_vertices(G, G[:, -1]), vertices_by_bases(G, G[:, -1]))
        if math.comb(len(H), n) <= 5000:
            w = H @ G.sum(axis=0)
            assert _same_rows(_vertices(H, w), vertices_by_bases(H, w))

    @pytest.mark.parametrize("name", ["m8n5", "between_caps"])
    def test_tables_above_the_old_caps_match_the_lp(self, name):
        # m8n5's 116 facet vertices and between-caps' 336 generator and 724
        # facet vertices: the max-ratio forms give the dual-ball LP's values
        G = BETWEEN_CAPS if name == "between_caps" else NON_SIMPLICIAL_CONES[name]
        cone = ray_cone(G)
        n = cone.ambient_dim
        ou, base = order_unit_space(cone, G.sum(axis=0)), base_space(cone, np.eye(n)[-1])
        assert _form(ou, True).kind == _form(base).kind == "max"
        X = np.random.default_rng(len(G)).normal(size=(8, n)) * np.logspace(-3.0, 3.0, 8)[:, None]
        for space, values in ((base, batch_norms(base, X)), (ou, batch_dual_norms(ou, X))):
            dual = space is ou
            want = [_dual_ball_lp(space, x, dual)[0] for x in X]
            assert values == pytest.approx(want, rel=1e-9)

    def test_a_half_line_a_line_and_a_half_plane(self):
        # n = 1: a half-line has one facet, the whole line none; a cone
        # holding a line keeps the facets of its pointed part
        cases = [
            ([[1.0], [3.0]], [[1.0]], ConeReport(True, True)),
            ([[1.0], [-2.0]], np.empty((0, 1)), ConeReport(False, True)),
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0]], ConeReport(False, True)),
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], np.empty((0, 2)), ConeReport(False, True)),
        ]
        for G, H, report in cases:
            cone = ray_cone(G)
            assert np.array_equal(cone.facet_normals, np.array(H).reshape(-1, cone.ambient_dim))
            assert cone_proper_generating(cone) == report
        assert cone_contains(ray_cone([[1.0], [-2.0]]), [-5.0])
        assert not cone_contains(ray_cone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), [4.0, -1e-3])

    def test_rows_spanning_less_than_the_space_give_no_table(self):
        assert _extreme_rays(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])) is None
        assert ray_cone([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]).facet_normals is None

    def test_above_a_patched_cap_the_space_takes_the_solver(self, monkeypatch):
        # the pentagon's 5 facets fit under 11 rows, its 12-vertex tables do not
        monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 11)
        cone = ray_cone(PENTAGON)
        assert len(cone.facet_normals) == 5
        assert _vertices(PENTAGON, PENTAGON[:, -1]) is None
        ou, base = order_unit_space(cone, PENTAGON.sum(axis=0)), base_space(cone, np.eye(3)[-1])
        assert _form(ou).kind == _form(base, True).kind == "max"
        assert _form(ou, True).kind == _form(base).kind == "solver"


def test_zero_generator_rejected():
    with pytest.raises(InputError):
        ray_cone([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_generator_rejected(bad):
    # before the facet table's engine sees it (a NaN once stopped the SVD)
    with pytest.raises(InputError, match="generators must be finite"):
        ray_cone([[bad, 1.0], [1.0, 1.0], [-1.0, 1.0]])
