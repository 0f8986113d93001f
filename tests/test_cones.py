import math

import numpy as np
import pytest

from oracles import NON_SIMPLICIAL_CONES, PENTAGON, lifted_generators, pairing, vertices_by_bases
from portho import cones
from portho.cones import (
    MAX_TABLE_SUBSETS,
    ConeSpec,
    cone_contains,
    cone_proper_generating,
    dual_cone_contains,
    nonneg_orthant,
    psd_cone,
    ray_cone,
)
from portho.errors import InputError
from portho.spaces import MAX_VERTEX_CANDIDATES, _form, _vertices, base_space, order_unit_space


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
        n = cone.ambient_dim
        G, H = cone.generators, cone.facet_normals
        for V, w in ((G, G @ H.sum(axis=0)), (H, H @ G.sum(axis=0))):
            if math.comb(len(V), n) << n > MAX_VERTEX_CANDIDATES:  # m8n5's 16 facets
                continue
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

    def test_cap_is_decided_by_size(self):
        # C(k, n - 1) generator subsets above the cap: no facet normals,
        # whatever the generators are
        k = next(k for k in range(3, 200) if math.comb(k, 2) > MAX_TABLE_SUBSETS)
        assert ray_cone(lifted_generators(k, 3, 8)).facet_normals is None
        assert ray_cone(lifted_generators(k - 1, 3, 8)).facet_normals is not None


def test_zero_generator_rejected():
    with pytest.raises(InputError):
        ray_cone([[0.0, 0.0], [1.0, 0.0]])
