import itertools
import math

import numpy as np
import pytest

from oracles import NON_SIMPLICIAL_CONES, PENTAGON, lifted_generators, pairing
from portho import cones
from portho.cones import (
    MAX_TABLE_SUBSETS,
    ConeSpec,
    basis_inverses,
    cone_contains,
    cone_proper_generating,
    dual_cone_contains,
    nonneg_orthant,
    psd_cone,
    ray_cone,
)
from portho.errors import InputError


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
        cone = ray_cone(NON_SIMPLICIAL_CONES[name])
        n = cone.ambient_dim
        for V, table in (
            (cone.generators, cone.generator_bases),
            (cone.facet_normals, cone.facet_bases),
        ):
            if table is None:  # too many facets: C(#facets, n) above the cap
                assert math.comb(len(V), n) > MAX_TABLE_SUBSETS
                continue
            S, inv = table
            assert S.shape[1] == n and len(S) == len(inv) >= 1
            for rows, M in zip(S, inv):
                assert M @ V[rows].T == pytest.approx(np.eye(n), abs=1e-9)
            # every invertible n-subset is listed, no singular one is
            listed = {tuple(r) for r in S}
            for rows in itertools.combinations(range(len(V)), n):
                invertible = np.linalg.matrix_rank(V[list(rows)], tol=1e-9) == n
                assert (rows in listed) == invertible

    def test_coefficient_cones_reuse_their_inverse(self):
        for cone in (nonneg_orthant(3), ray_cone(np.eye(3) + 0.2)):
            B, Binv = cone.coefficient_basis
            assert cone.facet_normals is Binv
            assert np.array_equal(cone.generator_bases[1][0], Binv)
            assert np.array_equal(cone.facet_bases[1][0], B.T)

    def test_psd_has_no_tables(self):
        c = psd_cone(2)
        assert c.facet_normals is None and c.generator_bases is None and c.facet_bases is None

    def test_cap_is_decided_by_size(self):
        # C(m, n) above the cap: no table, whatever the generators are
        m = next(m for m in range(3, 200) if math.comb(m, 3) > MAX_TABLE_SUBSETS)
        assert basis_inverses(lifted_generators(m, 3, 7)) is None
        assert basis_inverses(lifted_generators(m - 1, 3, 7)) is not None
        k = next(k for k in range(3, 200) if math.comb(k, 2) > MAX_TABLE_SUBSETS)
        assert ray_cone(lifted_generators(k, 3, 8)).facet_normals is None


def test_zero_generator_rejected():
    with pytest.raises(InputError):
        ray_cone([[0.0, 0.0], [1.0, 0.0]])
