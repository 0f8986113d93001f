import json
import math
import pathlib

import numpy as np
import pytest

from portho import cli, cones
from oracles import serialize_space_spec
from portho.cli import main, parse_space_spec
from portho.errors import InputError, SpecError, UnsupportedError

INF = math.inf


def _spec(**over):
    base = {
        "dim": 3,
        "cone": {"kind": "nonneg"},
        "norm": {"kind": "sup"},
        "p_class": "inf",
    }
    base.update(over)
    return json.dumps(base)


class TestParseSpaceSpec:
    def test_lp_space(self):
        sp = parse_space_spec(
            _spec(norm={"kind": "lp", "p": 2.0, "weights": [1.0, 2.0, 3.0]}, p_class=2.0)
        )
        assert sp.dim == 3 and sp.norm.kind == "lp" and sp.p_class == 2.0
        assert sp.norm.weights == pytest.approx([1.0, 2.0, 3.0])

    def test_inf_encoding(self):
        sp = parse_space_spec(_spec())
        assert math.isinf(sp.p_class)
        assert '"inf"' in serialize_space_spec(sp)

    def test_ray_cone_order_unit(self):
        G = (np.eye(3) + 0.1).tolist()
        sp = parse_space_spec(
            _spec(
                cone={"kind": "rays", "generators": G},
                norm={"kind": "order_unit", "unit": list(np.sum(G, axis=0))},
            )
        )
        assert sp.cone.kind == "rays" and sp.norm.kind == "order_unit"

    def test_psd_spectral(self):
        sp = parse_space_spec(
            _spec(dim=4, cone={"kind": "psd", "side": 2}, norm={"kind": "spectral"})
        )
        assert sp.cone.side == 2 and sp.norm.kind == "spectral"

    def test_round_trip(self):
        for text in (
            _spec(),
            _spec(norm={"kind": "lp", "p": 1.5}, p_class=1.5),
            _spec(norm={"kind": "base", "phi": [1.0, 1.0, 2.0]}, p_class=1.0),
            _spec(dim=4, cone={"kind": "psd", "side": 2}, norm={"kind": "spectral"}),
        ):
            sp = parse_space_spec(text)
            again = parse_space_spec(serialize_space_spec(sp))
            assert serialize_space_spec(again) == serialize_space_spec(sp)

    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="unknown keys"):
            parse_space_spec(_spec(bogus=1))

    def test_unknown_norm_key(self):
        with pytest.raises(InputError, match="unknown keys"):
            parse_space_spec(_spec(norm={"kind": "sup", "p": 2.0}))

    def test_missing_field(self):
        obj = json.loads(_spec())
        del obj["p_class"]
        with pytest.raises(InputError, match="p_class"):
            parse_space_spec(json.dumps(obj))

    def test_invalid_json(self):
        with pytest.raises(InputError, match="invalid JSON"):
            parse_space_spec("{not json")

    def test_invalid_exponent(self):
        with pytest.raises(SpecError, match="invalid exponent"):
            parse_space_spec(_spec(norm={"kind": "lp", "p": 0.5}, p_class=0.5))

    def test_order_unit_not_interior(self):
        with pytest.raises(SpecError, match="order unit not interior"):
            parse_space_spec(_spec(norm={"kind": "order_unit", "unit": [1.0, 0.0, 1.0]}))

    def test_pentagon_parse_solves_no_lp(self, monkeypatch):
        # pointedness comes from the rank of the facet normals
        calls = []
        monkeypatch.setattr(cones, "solve_lp", lambda *a, **k: calls.append(a))
        sp = parse_space_spec((pathlib.Path(__file__).parent / "data" / "base_pentagon.json").read_text())
        assert sp.cone.kind == "rays" and calls == []

    def test_cone_not_proper(self):
        with pytest.raises(SpecError, match="cone not proper"):
            parse_space_spec(
                _spec(
                    dim=2,
                    cone={"kind": "rays", "generators": [[1.0, 0.0], [-1.0, 0.0]]},
                    norm={"kind": "sup"},
                )
            )

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"dim": 2.7}, "dim"),
            ({"dim": "3"}, "dim"),
            ({"dim": True}, "dim"),
            ({"cone": {"kind": "nonneg", "dim": 2.5}}, "cone.dim"),
            ({"dim": 4, "cone": {"kind": "psd", "side": 1.5}, "norm": {"kind": "spectral"}}, "cone.side"),
        ],
    )
    def test_non_integer_size_rejected(self, over, field):
        with pytest.raises(InputError, match=f"^{field}: expected an integer"):
            parse_space_spec(_spec(**over))

    def test_integral_float_size_accepted(self):
        assert parse_space_spec(_spec(dim=3.0)).dim == 3

    def test_cone_not_generating(self):
        with pytest.raises(SpecError, match="cone not generating"):
            parse_space_spec(
                _spec(
                    dim=2,
                    cone={"kind": "rays", "generators": [[1.0, 0.0]]},
                    norm={"kind": "sup"},
                )
            )


@pytest.fixture
def sup3(tmp_path):
    path = tmp_path / "sup3.json"
    path.write_text(_spec(), encoding="utf-8")
    return str(path)


@pytest.fixture
def pentagon(tmp_path):
    """Spec files of a pentagonal (non-simplicial) ray cone in R^3, as an
    order-unit space and as a base space."""
    cone = {
        "kind": "rays",
        "generators": [
            [1.0, 0.0, 1.0], [0.3, 1.0, 1.0], [-0.8, 0.6, 1.0], [-0.8, -0.6, 1.0], [0.3, -1.0, 1.0]
        ],
    }
    paths = {}
    for kind, norm, p in (("ou", {"kind": "order_unit", "unit": [0.0, 0.0, 1.0]}, "inf"),
                          ("base", {"kind": "base", "phi": [0.0, 0.0, 1.0]}, 1.0)):
        path = tmp_path / f"{kind}_ray5.json"
        path.write_text(_spec(cone=cone, norm=norm, p_class=p), encoding="utf-8")
        paths[kind] = str(path)
    return paths


@pytest.fixture
def lp2(tmp_path):
    path = tmp_path / "lp2.json"
    path.write_text(
        _spec(dim=2, norm={"kind": "lp", "p": 2.0}, p_class=2.0), encoding="utf-8"
    )
    return str(path)


class TestCommands:
    def test_support(self, lp2, capsys):
        assert main(["support", "--space", lp2, "--v", "3,4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["functional"] == pytest.approx([0.6, 0.8])
        assert out["attained_value"] == pytest.approx(5.0)

    def test_positive_support(self, sup3, capsys):
        assert main(["support", "--space", sup3, "--v", "1,2,0", "--positive"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_positive"] is True
        assert np.dot(out["functional"], [1, 2, 0]) == pytest.approx(2.0)

    def test_ortho_exit_codes(self, sup3, capsys):
        assert main(["ortho", "--space", sup3, "--x", "1,0,0", "--y", "0,2,0", "--p", "inf"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "orthogonal"
        assert main(["ortho", "--space", sup3, "--x", "1,1,0", "--y", "0,2,0", "--p", "inf"]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_orthogonal"

    def test_ortho_prints_the_method(self, sup3, lp2, capsys):
        # the sup norm is piecewise linear, so at p = 2 the decision is exact
        # too; lp2 at p = 3 (a power form away from its own p) takes the grid
        for spec, x, y, p, method, code in (
            (sup3, "1,0,0", "0,2,0", "inf", "exact", 0),
            (sup3, "1,0,0", "0,2,0", "2", "exact", 1),
            (lp2, "1,0", "0,2", "3", "grid", 1),
        ):
            assert main(["ortho", "--space", spec, "--x", x, "--y", y, "--p", p]) == code
            assert json.loads(capsys.readouterr().out)["method"] == method

    @pytest.mark.parametrize("v", ["1,2", "1,2,3,4", "1,nan,0"])
    def test_vector_of_the_wrong_length_or_non_finite_exits_2(self, sup3, capsys, v):
        for argv in (["support", "--v", v], ["decompose", "--v", v, "--p", "inf"], ["crust", "--u", v]):
            assert main([argv[0], "--space", sup3, *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {argv[1]}: expected 3 finite")

    def test_verify_all_in_dimension_one(self, tmp_path, capsys):
        # the orthonormal sets of the embedding suites hold one vector there
        path = tmp_path / "lp15_1.json"
        path.write_text(_spec(dim=1, norm={"kind": "lp", "p": 1.5}, p_class=1.5), encoding="utf-8")
        assert main(["verify", "all", "--space", str(path), "--samples", "3"]) == 0
        ran = {r["suite"] for r in json.loads(capsys.readouterr().out)}
        assert {"thm21_lp_characterization", "thm26_order_iso", "prop25_span_smooth"} <= ran

    def test_lem27_in_dimension_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lp15_1.json"
        path.write_text(_spec(dim=1, norm={"kind": "lp", "p": 1.5}, p_class=1.5), encoding="utf-8")
        assert main(["verify", "lem27_positive_pair", "--space", str(path), "--samples", "5"]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_overflowing_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lpinf.json"
        path.write_text(_spec(norm={"kind": "lp", "p": "inf"}, p_class=1.5), encoding="utf-8")
        x = "2,1e300,0"
        assert main(["ortho", "--space", str(path), "--x", x, "--y", x, "--p", "1.5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_decompose(self, sup3, capsys):
        assert main(["decompose", "--space", sup3, "--v", "2,-3,0", "--p", "inf"]) == 0
        out = json.loads(capsys.readouterr().out)
        u1, u2 = np.array(out["u1"]), np.array(out["u2"])
        assert u1 - u2 == pytest.approx([2.0, -3.0, 0.0])
        assert out["norm_aggregate"] == pytest.approx(3.0)
        assert out["status"] == "optimal"

    def test_decompose_unsupported_exits_2(self, pentagon, capsys):
        code = main(["decompose", "--space", pentagon["ou"], "--v", "0.1,0.2,-0.5", "--p", "inf"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "no decomposition" in captured.err

    def test_non_integer_dim_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dim.json"
        path.write_text(_spec(dim=2.7), encoding="utf-8")
        assert main(["ortho", "--space", str(path), "--x", "1,0", "--y", "0,1", "--p", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dim: expected an integer" in captured.err

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"dim": 2, "cone": {"kind": "rays", "generators": [[1, 0], [1, "a"]]}}, "cone.generators"),
            ({"dim": 2, "cone": {"kind": "rays", "generators": [[1, 0], [math.nan, 1]]}}, "cone.generators"),
            ({"dim": 2, "cone": {"kind": "rays", "generators": [[1, 0], [1]]}}, "cone.generators"),
            ({"dim": 2, "cone": {"kind": "rays", "generators": [1, 0]}}, "cone.generators"),
            ({"dim": 2, "cone": {"kind": "rays", "generators": []}}, "cone.generators"),
            ({"dim": 2, "norm": {"kind": "order_unit", "unit": [1, "x"]}}, "norm.unit"),
            ({"dim": 2, "norm": {"kind": "order_unit", "unit": [1, 10**400]}}, "norm.unit"),
            ({"dim": 2, "norm": {"kind": "lp", "p": 2, "weights": [1, "w"]}, "p_class": 2}, "norm.weights"),
            ({"dim": 2, "norm": {"kind": "base", "phi": [1, [2]]}, "p_class": 1}, "norm.phi"),
            ({"dim": 2, "norm": {"kind": "base", "phi": [1, True]}, "p_class": 1}, "norm.phi"),
            ({"dim": 2, "p_class": 10**400}, "p_class"),
            (
                {"dim": 4, "cone": {"kind": "psd", "side": 2},
                 "norm": {"kind": "order_unit", "unit": [1, 0, 0, 1]}},
                "norm.kind",
            ),
            (
                {"dim": 4, "cone": {"kind": "psd", "side": 2},
                 "norm": {"kind": "base", "phi": [1, 0, 0, 1]}, "p_class": 1},
                "norm.kind",
            ),
        ],
    )
    def test_malformed_spec_exits_2_naming_the_field(self, tmp_path, capsys, over, field):
        path = tmp_path / "bad.json"
        path.write_text(_spec(**over), encoding="utf-8")
        x, y = ("1,0,0,0", "0,0,0,1") if over["dim"] == 4 else ("1,0", "0,1")
        assert main(["ortho", "--space", str(path), "--x", x, "--y", y, "--p", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("kind", ["ou", "base"])
    def test_verify_all_on_pentagon_skips_unsampleable_suites(self, pentagon, kind, capsys):
        code = main(["verify", "all", "--space", pentagon[kind], "--samples", "3"])
        captured = capsys.readouterr()
        assert code in (0, 1) and "Traceback" not in captured.err
        ran = {r["suite"] for r in json.loads(captured.out)}
        assert "def22_Op1" in ran
        # these sample pairs from unique cone coefficients, which a
        # non-simplicial cone lacks
        for suite in ("thm33_equivalence", "rem34_extension", "cor38_order_unit", "lem43_base_orth"):
            assert suite not in ran and suite in captured.err

    def test_verify_all_accepts_lp_inf_where_sup_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "lpinf3.json"
        path.write_text(_spec(norm={"kind": "lp", "p": "inf"}), encoding="utf-8")
        code = main(["verify", "all", "--space", str(path), "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        reports = {r["suite"]: r for r in json.loads(captured.out)}
        for suite in ("prop32_supp_nonempty", "cor310_crust", "thm33_equivalence"):
            assert reports[suite]["samples"] > 0
            assert reports[suite]["passes"] == reports[suite]["samples"]

    def test_crust_present_and_absent(self, sup3, capsys):
        assert main(["crust", "--space", sup3, "--u", "1,0.5,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["crust"] == pytest.approx([0.0, 0.0, 1.0])
        assert out["partner_orthogonal"] is True
        assert main(["crust", "--space", sup3, "--u", "1,1,1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"crust": None}

    def test_verify_single_suite_report(self, sup3, tmp_path, capsys):
        out_file = tmp_path / "rep.json"
        code = main(
            [
                "verify",
                "thm33_equivalence",
                "--space",
                sup3,
                "--samples",
                "15",
                "--seed",
                "5",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        rep = json.loads(out_file.read_text())
        for field in (
            "suite",
            "space",
            "samples",
            "passes",
            "counterexamples",
            "seed",
            "tolerance",
            "elapsed_ms",
            "version",
        ):
            assert field in rep
        assert rep["suite"] == "thm33_equivalence"
        assert rep["samples"] == rep["passes"] == 15
        assert rep["seed"] == 5 and rep["counterexamples"] == []

    def test_verify_with_counterexamples_exits_1(self, tmp_path, capsys):
        # at tolerance 0 the isometry check fails on rounding alone
        out_file = tmp_path / "rep.json"
        argv = ["verify", "thm21_lp_characterization", "--seed", "0", "--samples", "50",
                "--tol", "0", "--out", str(out_file)]
        assert main(argv) == 1
        rep = json.loads(out_file.read_text())
        assert rep["samples"] == 50 and rep["passes"] < rep["samples"]
        assert len(rep["counterexamples"]) == rep["samples"] - rep["passes"]
        for cx in rep["counterexamples"]:
            assert {"location", "residual", "input"} <= cx.keys()
            assert cx["location"] == "isometry" and "alpha" in cx["input"]

    def test_verify_all_on_a_family_without_positive_supports_runs_every_suite(self, tmp_path, capsys):
        # the sup norm over a simplicial ray cone: positive_support rejects
        # the family, so prop32 is skipped and the later suites still report
        path = tmp_path / "sup_rays.json"
        cone = {"kind": "rays", "generators": [[1.0, -0.3, 0.0], [0.0, 1.0, -0.3], [-0.3, 0.0, 1.0]]}
        path.write_text(_spec(cone=cone), encoding="utf-8")
        code = main(["verify", "all", "--space", str(path), "--samples", "5"])
        captured = capsys.readouterr()
        assert code in (0, 1) and "error" not in captured.err
        ran = {r["suite"] for r in json.loads(captured.out)}
        assert "ex46_nonuniqueness" in ran and "prop32_supp_nonempty" not in ran
        skipped = captured.err.split("skipped (unsupported on this space): ")[1]
        assert {"prop32_supp_nonempty", "thm23_duality", "thm24_OSp2"} <= set(skipped.strip().split(", "))

    def test_verify_all_skips_unsupported(self, lp2, capsys):
        code = main(["verify", "all", "--space", lp2, "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 0
        reports = json.loads(captured.out)
        ran = {r["suite"] for r in reports}
        assert "def22_Op1" in ran
        assert "thm33_equivalence" not in ran  # needs an order-unit space
        assert "skipped (unsupported on this space)" in captured.err

    def test_requested_unsupported_suite_exits_2(self, lp2, capsys):
        assert main(["verify", "thm33_equivalence", "--space", lp2]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "no_such_suite"]) == 2

    @pytest.mark.parametrize(
        "generators",
        [[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]],
        ids=["half_plane", "plane"],
    )
    def test_cone_with_a_line_exits_2(self, tmp_path, capsys, generators):
        path = tmp_path / "line.json"
        path.write_text(_spec(dim=2, cone={"kind": "rays", "generators": generators}), encoding="utf-8")
        assert main(["support", "--space", str(path), "--v", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cone not proper" in captured.err

    def test_bad_space_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(_spec(bogus=1), encoding="utf-8")
        assert main(["support", "--space", str(path), "--v", "1,1,1"]) == 2
        path2 = tmp_path / "missing.json"
        assert main(["support", "--space", str(path2), "--v", "1,1,1"]) == 2

    def test_example46(self, tmp_path, capsys):
        out_file = tmp_path / "ex46.json"
        assert main(["example46", "--n", "257", "--out", str(out_file)]) == 0
        rep = json.loads(out_file.read_text())
        assert rep["suite"] == "ex46_nonuniqueness"
        assert rep["passes"] == rep["samples"]
        assert rep["space"] == "order_unit^257[nonneg]"

    def test_example46_takes_no_space(self, tmp_path, capsys):
        assert main(["example46", "--space", str(tmp_path / "missing.json")]) == 2
        assert "--space" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [False, True])
    def test_verify_reports_the_space_ex46_checks(self, lp2, given, capsys):
        argv = ["verify", "ex46_nonuniqueness", "--n", "65"] + (["--space", lp2] if given else [])
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["space"] == "order_unit^65[nonneg]"

    @pytest.mark.parametrize("x", ["nan,1,0", "inf,1,0"])
    def test_ortho_non_finite_exits_2(self, sup3, capsys, x):
        assert main(["ortho", "--space", sup3, "--x", x, "--y", "1,0,0", "--p", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ortho", "--x", "1,1,0", "--y", "1,0,0", "--p", "nan"],
            ["ortho", "--x", "1,1,0", "--y", "1,0,0", "--p", "0.5"],
            ["decompose", "--v", "2,-3,0", "--p", "nan"],
            ["decompose", "--v", "2,-3,0", "--p", "0.5"],
        ],
    )
    def test_invalid_exponent_exits_2(self, sup3, tmp_path, capsys, argv):
        # a NaN exponent fails p < 1 as well as p >= 1: it must not pass as
        # a verdict ("orthogonal" on the grid) or an aggregate ("nan")
        path = tmp_path / "lp2_3.json"
        path.write_text(_spec(norm={"kind": "lp", "p": 2}, p_class=2), encoding="utf-8")
        for space in (str(path), sup3):
            assert main([argv[0], "--space", space, *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "p must be at least 1" in captured.err

    @pytest.mark.parametrize("suite", ["lem27_positive_pair", "all"])
    def test_verify_sample_count_below_one_exits_2(self, suite, capsys):
        assert main(["verify", suite, "--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "samples must be at least 1" in captured.err

    @pytest.mark.parametrize("suite", ["thm21_lp_characterization", "all", "example46"])
    @pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
    def test_verify_bad_tol_exits_2(self, suite, tol, capsys):
        argv = ["example46"] if suite == "example46" else ["verify", suite]
        assert main(argv + [f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tol must be finite and nonnegative" in captured.err

    def test_bad_argv_exits_2(self, capsys):
        assert main(["verify"]) == 2
        assert main(["nope"]) == 2

    @pytest.mark.parametrize(
        "exc", [UnsupportedError("dual decomposition LP failed"), ZeroDivisionError("division by zero")]
    )
    def test_unexpected_error_exits_3_without_traceback(self, sup3, capsys, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "opt_decompose", broken)
        assert main(["decompose", "--space", sup3, "--v", "2,-3,0", "--p", "inf"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"internal error: {type(exc).__name__}: {exc}")

    def test_decompose_lp1_at_p_inf_reports_the_split(self, tmp_path, capsys):
        path = tmp_path / "lp1.json"
        path.write_text(
            '{"dim":3,"cone":{"kind":"nonneg"},"norm":{"kind":"lp","p":1.0},"p_class":1.0}',
            encoding="utf-8",
        )
        assert main(["decompose", "--space", str(path), "--v", "2,-1,0", "--p", "inf"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "optimal"
        assert out["u1"] == pytest.approx([2.0, 0.0, 0.0])
        assert out["u2"] == pytest.approx([0.0, 1.0, 0.0])
        assert out["norm_aggregate"] == pytest.approx(2.0)
