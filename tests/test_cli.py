import json
import math

import numpy as np
import pytest

from portho.cli import main, parse_space_spec, serialize_space_spec
from portho.errors import InputError, SpecError

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

    def test_cone_not_proper(self):
        with pytest.raises(SpecError, match="cone not proper"):
            parse_space_spec(
                _spec(
                    dim=2,
                    cone={"kind": "rays", "generators": [[1.0, 0.0], [-1.0, 0.0]]},
                    norm={"kind": "sup"},
                )
            )

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

    def test_decompose(self, sup3, capsys):
        assert main(["decompose", "--space", sup3, "--v", "2,-3,0", "--p", "inf"]) == 0
        out = json.loads(capsys.readouterr().out)
        u1, u2 = np.array(out["u1"]), np.array(out["u2"])
        assert u1 - u2 == pytest.approx([2.0, -3.0, 0.0])
        assert out["norm_aggregate"] == pytest.approx(3.0)
        assert out["status"] == "optimal"

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

    @pytest.mark.parametrize("x", ["nan,1,0", "inf,1,0"])
    def test_ortho_non_finite_exits_2(self, sup3, capsys, x):
        assert main(["ortho", "--space", sup3, "--x", x, "--y", "1,0,0", "--p", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("suite", ["lem27_positive_pair", "all"])
    def test_verify_sample_count_below_one_exits_2(self, suite, capsys):
        assert main(["verify", suite, "--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "samples must be at least 1" in captured.err

    def test_bad_argv_exits_2(self, capsys):
        assert main(["verify"]) == 2
        assert main(["nope"]) == 2
