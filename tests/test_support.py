import math

import numpy as np
import pytest

from portho.cones import nonneg_orthant, ray_cone
from portho.errors import InputError
from portho.harness import run_suite
from portho.spaces import (
    NormKind,
    SpaceSpec,
    base_space,
    dual_norm,
    lp_space,
    norm,
    order_unit_space,
    spectral_space,
    sup_space,
)
from portho.support import crust_probe, positive_support, support_functional

SIMPLICIAL = ray_cone(np.eye(4) + 0.2 * np.ones((4, 4)))


class TestSupportFunctional:
    def test_euclidean(self):
        res = support_functional(lp_space(2, 2.0), [3.0, 4.0])
        assert res.functional == pytest.approx([0.6, 0.8])
        assert res.attained_value == pytest.approx(5.0)

    def test_sup(self):
        res = support_functional(sup_space(2), [3.0, -2.0])
        assert res.functional == pytest.approx([1.0, 0.0])
        assert res.attained_value == pytest.approx(3.0)

    def test_l1(self):
        res = support_functional(lp_space(2, 1.0), [3.0, -2.0])
        assert res.functional == pytest.approx([1.0, -1.0])
        assert res.attained_value == pytest.approx(5.0)

    def test_base(self):
        sp = base_space(nonneg_orthant(2), [1.0, 1.0])
        res = support_functional(sp, [2.0, 3.0])
        assert res.functional == pytest.approx([1.0, 1.0])
        assert res.attained_value == pytest.approx(5.0)
        assert res.is_positive

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            support_functional(lp_space(2, 2.0), [0.0, 0.0])

    @pytest.mark.parametrize(
        "sp",
        [
            lp_space(5, 1.0),
            lp_space(5, 1.5),
            lp_space(5, 3.0),
            sup_space(5),
            base_space(nonneg_orthant(5), [1.0, 2.0, 0.5, 1.0, 1.5]),
            order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0)),
            spectral_space(3),
        ],
        ids=["l1", "l15", "l3", "sup", "base", "order_unit", "spectral"],
    )
    def test_norm_one_and_attainment(self, sp):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = rng.normal(size=sp.dim)
            if sp.norm.kind == "spectral":
                d = sp.cone.side
                v = (v.reshape(d, d) + v.reshape(d, d).T).ravel()
            res = support_functional(sp, v)
            assert dual_norm(sp, res.functional) <= 1.0 + 1e-8
            assert res.attained_value == pytest.approx(norm(sp, v), abs=1e-8)


class TestPositiveSupport:
    def test_sup_coordinate(self):
        res = positive_support(sup_space(3), [1.0, 0.5, 0.0])
        assert res.attained_value == pytest.approx(1.0)
        assert res.functional @ np.ones(3) == pytest.approx(1.0)
        assert np.all(res.functional >= -1e-12)

    def test_rejects_outside_cone(self):
        with pytest.raises(InputError):
            positive_support(sup_space(2), [1.0, -1.0])

    def test_base_disjoint_supports_vanish_mutually(self):
        sp = base_space(nonneg_orthant(4), np.ones(4))
        u1 = np.array([1.0, 2.0, 0.0, 0.0])
        u2 = np.array([0.0, 0.0, 3.0, 1.0])
        f1 = positive_support(sp, u1).functional
        f2 = positive_support(sp, u2).functional
        assert abs(f1 @ u2) <= 1e-9
        assert abs(f2 @ u1) <= 1e-9

    def test_spectral_top_eigenpair(self):
        sp = spectral_space(2)
        u = np.diag([3.0, 1.0]).ravel()
        res = positive_support(sp, u)
        assert res.attained_value == pytest.approx(3.0)
        assert res.functional == pytest.approx(np.diag([1.0, 0.0]).ravel(), abs=1e-10)

    @pytest.mark.parametrize(
        "sp",
        [
            lp_space(5, 1.0),
            lp_space(5, 3.0),
            sup_space(5),
            base_space(nonneg_orthant(5), [1.0, 2.0, 0.5, 1.0, 1.5]),
            order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0)),
            spectral_space(3),
            SpaceSpec(4, SIMPLICIAL, NormKind("lp", p=1.0), 1.0),
            SpaceSpec(4, SIMPLICIAL, NormKind("lp", p=1.5), 1.5),
            SpaceSpec(4, SIMPLICIAL, NormKind("lp", p=math.inf), math.inf),
        ],
        ids=["l1", "l3", "sup", "base", "order_unit", "spectral", "l1_rays", "l1.5_rays", "linf_rays"],
    )
    def test_positivity_norm_and_attainment(self, sp):
        from portho.cones import dual_cone_contains

        rng = np.random.default_rng(12)
        for _ in range(25):
            if sp.norm.kind == "spectral":
                d = sp.cone.side
                B = rng.normal(size=(d, d))
                u = (B @ B.T).ravel()
            elif sp.cone.kind == "rays":
                u = sp.cone.generators.T @ rng.exponential(size=len(sp.cone.generators))
            else:
                u = rng.exponential(size=sp.dim) * (rng.random(size=sp.dim) < 0.7)
            if np.abs(u).max() == 0.0:
                continue
            res = positive_support(sp, u)
            assert res.is_positive
            assert dual_cone_contains(sp.cone, res.functional, tol=1e-8)
            assert dual_norm(sp, res.functional) <= 1.0 + 1e-8
            assert res.attained_value == pytest.approx(norm(sp, u), abs=1e-8)

    def test_lp_over_a_ray_cone_outside_the_orthant_reports_positivity(self):
        sp = SpaceSpec(2, ray_cone([[1.0, -0.5], [-0.5, 1.0]]), NormKind("lp", p=2.0), 2.0)
        res = positive_support(sp, [1.0, -0.5])
        assert res.functional == pytest.approx([1.0 / norm(sp, [1.0, -0.5]), 0.0])
        assert not res.is_positive

    @pytest.mark.parametrize("suite", ["prop32_supp_nonempty", "lem43_base_orth"])
    def test_suites_on_lp_over_a_ray_cone(self, suite):
        rep = run_suite(suite, SpaceSpec(4, SIMPLICIAL, NormKind("lp", p=1.0), 1.0), samples=50)
        assert rep.status == "ok", rep.counterexamples


class TestCrust:
    def test_sup_with_zero_coordinate(self):
        sp = sup_space(3)
        res = crust_probe(sp, [1.0, 0.5, 0.0])
        assert res is not None
        assert res.functional == pytest.approx([0.0, 0.0, 1.0])
        assert res.partner == pytest.approx([0.0, 0.5, 1.0])
        assert res.partner_orthogonal

    def test_sup_interior_element_has_none(self):
        assert crust_probe(sup_space(2), [1.0, 0.5]) is None

    def test_requires_order_unit_family(self):
        with pytest.raises(InputError):
            crust_probe(lp_space(2, 2.0), [1.0, 0.0])

    def test_simplicial_face_element(self):
        e = SIMPLICIAL.generators.sum(axis=0)
        sp = order_unit_space(SIMPLICIAL, e)
        u = SIMPLICIAL.generators[0]  # lies on a face of the cone
        res = crust_probe(sp, u)
        assert res is not None
        assert abs(res.functional @ u) <= 1e-9
        assert np.all(SIMPLICIAL.generators @ res.functional >= -1e-9)
        assert res.functional @ e == pytest.approx(1.0)
        assert res.partner_orthogonal

    def test_crust_scale_invariant(self):
        sp = sup_space(3)
        assert crust_probe(sp, [2.0, 1.0, 0.0]) is not None
        assert crust_probe(sp, [0.002, 0.001, 0.0]) is not None

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_partner_orthogonal_at_any_scale_of_the_unit(self, scale):
        # the partner of a unit 1e-13 of ones has entries below 1e-12
        sp = order_unit_space(nonneg_orthant(3), scale * np.ones(3))
        res = crust_probe(sp, scale * np.array([1.0, 0.5, 0.0]))
        assert res.partner == pytest.approx(scale * np.array([0.0, 0.5, 1.0]), rel=1e-12, abs=0.0)
        assert res.partner_orthogonal
