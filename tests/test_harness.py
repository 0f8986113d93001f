import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import identity_residual
from portho import harness
from portho.errors import InputError
from portho.harness import (
    SUITE_IDS,
    SUITES,
    build_example_46,
    default_families,
    run_suite,
)
from portho.cli import parse_space_spec
from portho.ortho import p_orthogonal_numeric
from portho.cones import ray_cone
from portho.decomp import dual_one_orth_decompose, has_dual_split, monotone_norm
from portho.spaces import NormKind, SpaceSpec, base_space, dual_norm, lp_space, norm, sup_space

INF = math.inf
DATA = Path(__file__).parent / "data"
# a simplicial ray cone that is not the orthant
_SKEW_CONE = ray_cone([[1.0, -0.3, 0.0], [0.0, 1.0, -0.3], [-0.3, 0.0, 1.0]])


class TestSuiteCatalog:
    def test_every_suite_has_a_default_family(self):
        fams = default_families()
        for suite, (_, _, family) in SUITES.items():
            if suite == "ex46_nonuniqueness":  # the example checks its own space
                assert family is None
            else:
                assert family in fams, suite

    def test_default_space_supports_its_suite(self):
        fams = default_families()
        for suite, (_, supports, family) in SUITES.items():
            space = build_example_46(2049)[0] if family is None else fams[family]
            assert supports(space), suite

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
    # one outcome per requested sample; Example 4.6 makes its eight checks
    assert rep.samples == (8 if suite == "ex46_nonuniqueness" else 25)


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

    @pytest.mark.parametrize("suite", ["thm23_duality", "thm24_OSp2"])
    def test_duality_suites_skip_a_norm_not_monotone_in_the_coefficients(self, suite):
        # the sup norm over a simplicial ray cone: the split of f by its
        # coordinates is not a split into the dual cone (for 45 of 50 such
        # f one half lies outside it), and the split by the dual cone
        # coefficients need not be norm-minimal, so nothing is checked
        space = SpaceSpec(3, _SKEW_CONE, NormKind("sup"), INF)
        assert not monotone_norm(space)
        rep = run_suite(suite, space, samples=20)
        assert rep.status == "unsupported" and rep.samples == 0

    def test_prop32_skips_a_family_without_positive_supports(self):
        space = SpaceSpec(3, _SKEW_CONE, NormKind("sup"), INF)
        assert run_suite("prop32_supp_nonempty", space, samples=5).status == "unsupported"

    def test_thm44_skips_a_family_without_a_dual_split(self):
        # the sup norm over a simplicial ray cone: `dual_one_orth_decompose`
        # answers "unsupported" there, which the suite would count as a
        # counterexample per sample
        space = SpaceSpec(3, _SKEW_CONE, NormKind("sup"), INF)
        assert not has_dual_split(space)
        assert dual_one_orth_decompose(space, [0.3, -0.5, 0.2]).status == "unsupported"
        rep = run_suite("thm44_duality", space, samples=20)
        assert rep.status == "unsupported" and rep.samples == 0


def test_thm44_runs_on_the_order_unit_pentagon():
    # a non-simplicial ray cone: the dual split reads the cone's facet table
    space = parse_space_spec((DATA / "ou_pentagon.json").read_text())
    assert has_dual_split(space)
    rep = run_suite("thm44_duality", space, samples=200, seed=0)
    assert rep.status == "ok" and rep.passes == rep.samples == 200


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
        assert rep.space == "order_unit^2049[nonneg]"

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


@pytest.mark.parametrize("suite", ["thm23_duality", "thm24_OSp2"])
def test_duality_suites_green_on_a_simplicial_base_space(suite):
    # the base dual norm is max_i |f(g_i)| / phi(g_i), so the norm-minimal
    # split of f follows its dual cone coefficients, not its coordinates
    cone = ray_cone(np.eye(4) + 0.2 * np.ones((4, 4)))
    rep = run_suite(suite, base_space(cone, np.ones(4)), samples=50, seed=0)
    assert rep.status == "ok"
    assert rep.passes == rep.samples == 50


def _record_decisions(monkeypatch):
    """Route every `p_orthogonal` of the portho modules through a wrapper
    that records (space, x, y, p, dual, verdict) of each decision."""
    import portho.ortho as ortho_module

    decide, verdicts = ortho_module.p_orthogonal, []

    def recorded(space, x, y, p, tol=1e-9, dual=False):
        v = decide(space, x, y, p, tol, dual)
        verdicts.append((space, x, y, p, dual, v))
        return v

    for name, module in list(sys.modules.items()):
        if name.startswith("portho") and getattr(module, "p_orthogonal", None) is decide:
            monkeypatch.setattr(module, "p_orthogonal", recorded)
    return verdicts


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


class TestDecisionsPerSuite:
    """Each suite pays only for the decisions it reads."""

    def test_rem34_makes_no_grid_decision(self, monkeypatch):
        import portho.ortho as ortho_module

        calls = _count_calls(monkeypatch, ortho_module, "verdict_from_norm")
        rep = run_suite("rem34_extension", default_families()["sup_8"], samples=50, seed=0)
        assert rep.status == "ok" and rep.samples == 50
        assert calls == []

    def test_thm33_decides_each_checked_sample_once(self, monkeypatch):
        import portho.harness as harness_module
        import portho.ortho as ortho_module

        decisions = _count_calls(monkeypatch, harness_module, "p_orthogonal")
        grid = _count_calls(monkeypatch, ortho_module, "verdict_from_norm")
        rep = run_suite("thm33_equivalence", default_families()["sup_8"], samples=50, seed=0)
        assert rep.status == "ok" and rep.samples == 50
        assert len(decisions) == 50  # no sample of sup_8 has a zero part
        # sup_8 at p = inf is decided exactly, failing pairs included
        assert grid == []

    def test_verify_all_runs_the_grid_only_for_witnesses(self, monkeypatch):
        # every decision of a seed-0, 50-sample `verify all` is exact, and an
        # exact "not_orthogonal" takes its residual and witness from six
        # scalars (`ortho._witness`), so the grid decider never runs
        import portho.ortho as ortho_module

        grid = _count_calls(monkeypatch, ortho_module, "verdict_from_norm")
        verdicts = _record_decisions(monkeypatch)
        for suite in SUITE_IDS:
            assert run_suite(suite, samples=50, seed=0).status == "ok", suite
        assert {v.method for *_, v in verdicts} == {"exact"}
        assert 0 < sum(not v.is_orthogonal for *_, v in verdicts) < len(verdicts)
        assert grid == []

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_exact_failures_report_the_oracle_residual_at_their_witness(self, monkeypatch, seed):
        verdicts = _record_decisions(monkeypatch)
        for suite in SUITE_IDS:
            run_suite(suite, samples=200, seed=seed)
        failures = [d for d in verdicts if not d[-1].is_orthogonal]
        assert failures
        for space, x, y, p, dual, v in failures:
            norm_fn = (lambda w: dual_norm(space, w)) if dual else (lambda w: norm(space, w))
            assert v.method == "exact" and v.witness_k in v.k_grid and len(v.k_grid) == 6
            assert v.worst_residual > 0.0
            want = identity_residual(norm_fn, np.asarray(x, float), np.asarray(y, float), p, v.witness_k)
            assert v.worst_residual == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("family", ["sup_8", "polyray_4"])
    def test_rem311_checks_domination(self, family, monkeypatch):
        import portho.cones as cones_module

        calls = _count_calls(monkeypatch, cones_module, "cone_contains")
        rep = run_suite("rem311_greatest", default_families()[family], samples=50, seed=0)
        assert rep.status == "ok" and rep.passes == rep.samples == 50
        assert len(calls) > 0


def test_lem27_needs_room_for_a_disjoint_pair():
    # in dimension one the disjoint sampler has a single coordinate, so
    # u1 = 0 and every sample would pass without a positive pair
    assert run_suite("lem27_positive_pair", lp_space(1, 1.5), samples=5).status == "unsupported"
    assert run_suite("lem27_positive_pair", lp_space(2, 1.5), samples=5).status == "ok"
