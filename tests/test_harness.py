import dataclasses
import math

import numpy as np
import pytest

from portho import harness
from portho.errors import InputError
from portho.harness import (
    DEFAULT_FAMILY,
    SUITE_IDS,
    SUITES,
    build_example_46,
    default_families,
    run_suite,
)
from portho.ortho import p_orthogonal_numeric
from portho.spaces import lp_space, sup_space

INF = math.inf


class TestSuiteCatalog:
    def test_every_suite_has_a_default_family(self):
        fams = default_families()
        for suite in SUITE_IDS:
            assert suite in DEFAULT_FAMILY
            assert DEFAULT_FAMILY[suite] in fams

    def test_default_space_supports_its_suite(self):
        fams = default_families()
        for suite, (_, supports) in SUITES.items():
            assert supports(fams[DEFAULT_FAMILY[suite]]), suite

    def test_unknown_suite_rejected(self):
        with pytest.raises(InputError):
            run_suite("not_a_suite")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_rejected(self, samples):
        with pytest.raises(InputError, match="samples"):
            run_suite("lem27_positive_pair", samples=samples)

    def test_sampler_retries_are_capped(self, monkeypatch):
        def never_orthogonal(space, rng):  # the normalized sum has norm 2
            return np.ones(8), np.ones(8)

        monkeypatch.setattr(harness, "_sample_positive_pair", never_orthogonal)
        with pytest.raises(InputError, match="no inf-orthogonal positive pair"):
            run_suite("cor35_infty_pair", sup_space(8), samples=1)


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_suite_green_on_default_family(suite):
    rep = run_suite(suite, samples=25, seed=3)
    assert rep.status == "ok"
    assert rep.counterexamples == ()
    assert rep.passes == rep.samples
    assert rep.samples > 0


class TestDeterminism:
    def test_identical_reports_modulo_elapsed(self):
        a = run_suite("thm33_equivalence", samples=30, seed=11)
        b = run_suite("thm33_equivalence", samples=30, seed=11)
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        da.pop("elapsed_ms"), db.pop("elapsed_ms")
        assert da == db

    def test_seed_changes_the_stream(self):
        # same pass counts, but counterexample-free runs should still differ
        # internally; probe via a suite body's sampled supports being seeded
        a = run_suite("prop32_supp_nonempty", samples=10, seed=0)
        b = run_suite("prop32_supp_nonempty", samples=10, seed=1)
        assert a.seed != b.seed


class TestUnsupported:
    def test_finite_p_suite_on_sup_space(self):
        rep = run_suite("thm21_lp_characterization", sup_space(4))
        assert rep.status == "unsupported"
        assert rep.samples == 0 and rep.passes == 0

    def test_order_unit_suite_on_l2(self):
        rep = run_suite("cor310_crust", lp_space(4, 2.0))
        assert rep.status == "unsupported"


class TestExample46:
    def test_small_grid_vectors(self):
        sp, f, fplus, fminus, g1, g2 = build_example_46(5)
        # grid 0, pi/2, pi, 3pi/2, 2pi
        assert f == pytest.approx([1.0, 0.0, -1.0, 0.0, 1.0], abs=1e-15)
        assert fplus == pytest.approx([1.0, 0.0, 0.0, 0.0, 1.0], abs=1e-15)
        assert fminus == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0], abs=1e-15)
        assert g1 == pytest.approx([1.0, 0.5, 0.0, 0.5, 1.0], abs=1e-15)
        assert g2 == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0], abs=1e-15)
        assert sp.dim == 5

    def test_exact_unit_norms_on_reference_grid(self):
        _, _, fplus, fminus, g1, g2 = build_example_46(2049)
        # pi/2 and pi are grid points, so the extrema are hit exactly
        assert fplus.max() == 1.0 and fminus.max() == 1.0
        assert g1.max() == 1.0 and g2.max() == 1.0

    def test_decompositions_genuinely_differ(self):
        _, _, fplus, _, g1, _ = build_example_46(2049)
        assert np.abs(fplus - g1).max() == pytest.approx(0.5, abs=1e-12)

    def test_suite_runs_green(self):
        rep = run_suite("ex46_nonuniqueness", tol=1e-12, n_grid=2049)
        assert rep.status == "ok" and rep.counterexamples == ()

    def test_rejects_tiny_grid(self):
        with pytest.raises(InputError):
            build_example_46(2)


class TestHandVerifiedPairs:
    """The equivalence probed by thm33_equivalence on two pairs small enough
    to check by hand in sup-normed R^2."""

    def test_disjoint_pair(self):
        sp = sup_space(2)
        u1, u2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert p_orthogonal_numeric(sp, u1, u2, INF).is_orthogonal
        # statement (1): the normalized sum still has norm one
        assert max(abs(u1 + u2)) == 1.0

    def test_overlapping_pair(self):
        # peaks are disjoint but the middle coordinate is shared; the
        # normalized sum is the all-ones vector, so statement (1) holds
        sp = sup_space(3)
        u1, u2 = np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.5, 1.0])
        assert p_orthogonal_numeric(sp, u1, u2, INF).is_orthogonal
        assert max(abs(u1 + u2)) == 1.0
        # raising the shared coordinate pushes the sum past norm one
        v = p_orthogonal_numeric(sp, u1, np.array([0.0, 1.0, 1.0]), INF)
        assert not v.is_orthogonal
