"""Fuzzing the command line: spec documents and argv drawn by hypothesis.

Whatever the input, `portho` must end in exit code 0, 1 or 2 (3 marks a
fault of the program) and must never print a traceback.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from portho.cli import main
from portho.harness import SUITE_IDS

NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
EXPONENTS = st.sampled_from([1, 1.5, 2.0, 3, "inf", 0.5, 0, -1, "x", None, True])


def _vectors(n_min=1, n_max=4):
    return st.lists(NUMBERS, min_size=n_min, max_size=n_max)


@st.composite
def _cones(draw, dim):
    kind = draw(st.sampled_from(["nonneg", "nonneg_dim", "rays", "psd", "bogus"]))
    if kind == "nonneg":
        return {"kind": "nonneg"}
    if kind == "nonneg_dim":
        return {"kind": "nonneg", "dim": draw(st.sampled_from([dim, dim + 1, 1.5]))}
    if kind == "rays":
        rows = draw(st.integers(1, 4))
        generators = draw(st.lists(_vectors(dim, dim), min_size=rows, max_size=rows))
        return {"kind": "rays", "generators": generators}
    if kind == "psd":
        return {"kind": "psd", "side": draw(st.sampled_from([1, 2, 0, "2"]))}
    return {"kind": "bogus"}


@st.composite
def _norms(draw, dim):
    kind = draw(st.sampled_from(["lp", "sup", "order_unit", "base", "spectral", "bogus"]))
    if kind == "lp":
        out = {"kind": "lp", "p": draw(EXPONENTS)}
        if draw(st.booleans()):
            out["weights"] = draw(_vectors(dim, dim + 1))
        return out
    if kind == "order_unit":
        return {"kind": kind, "unit": draw(_vectors(dim, dim))}
    if kind == "base":
        return {"kind": kind, "phi": draw(_vectors(dim, dim))}
    return {"kind": kind}


@st.composite
def _wellformed(draw, dim):
    """A spec document that parses, or nearly: the families the package
    supports, with arrays of the right length."""
    positive = st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(["lp", "sup", "order_unit", "base", "rays", "spectral"]))
    if kind == "spectral":
        psd = {"kind": "psd", "side": 2}
        return {"dim": 4, "cone": psd, "norm": {"kind": "spectral"}, "p_class": "inf"}
    cone = {"kind": "nonneg"}
    if kind == "lp":
        p = draw(st.sampled_from([1, 1.5, 2, 3, "inf"]))
        norm = {"kind": "lp", "p": p}
        if draw(st.booleans()):
            norm["weights"] = draw(positive)
    elif kind == "sup":
        p, norm = "inf", {"kind": "sup"}
    else:
        if kind == "rays":
            spread = draw(st.sampled_from([0.0, 0.2, -0.1]))
            cone = {"kind": "rays", "generators": [
                [1.0 + spread if i == j else spread for j in range(dim)] for i in range(dim)]}
            if draw(st.booleans()):
                cone["generators"].append([1.0] * dim)
            kind = draw(st.sampled_from(["order_unit", "base"]))
        p = "inf" if kind == "order_unit" else 1
        norm = {"kind": kind, "unit" if kind == "order_unit" else "phi": draw(positive)}
    p_class = draw(st.one_of(st.just(p), EXPONENTS))
    return {"dim": dim, "cone": cone, "norm": norm, "p_class": p_class}


@st.composite
def _spec_texts(draw, dim):
    roll = draw(st.integers(0, 19))
    if roll == 0:
        return draw(st.sampled_from(["", "[]", "{", "null", '{"dim": 2}']))
    if roll < 15:
        return json.dumps(draw(_wellformed(dim)))
    doc = {
        "dim": draw(st.sampled_from([dim, dim, dim, 2.5, -1, "3"])),
        "cone": draw(_cones(dim)),
        "norm": draw(_norms(dim)),
        "p_class": draw(EXPONENTS),
    }
    if draw(st.integers(0, 9)) == 0:
        doc["extra"] = 1
    return json.dumps(doc)


def _csv(values):
    return ",".join(repr(v) for v in values)


def _csvs(dim):
    return st.one_of(
        _vectors(dim, dim).map(_csv),
        _vectors(1, 5).map(_csv),
        st.sampled_from(["", "a,b", "nan,1", "inf,0", "1,,2"]),
    )


P_ARG = st.sampled_from(["1", "1.5", "2", "inf", "0.5", "x", "nan"])


@st.composite
def _argvs(draw, path, dim):
    command = draw(st.sampled_from(["ortho", "decompose", "support", "verify"]))
    vec = _csvs(dim)
    if command == "ortho":
        return ["ortho", "--space", path, "--x", draw(vec), "--y", draw(vec), "--p", draw(P_ARG)]
    if command == "decompose":
        return ["decompose", "--space", path, "--v", draw(vec), "--p", draw(P_ARG)]
    if command == "support":
        flags = draw(st.sampled_from([[], ["--positive"]]))
        return ["support", "--space", path, "--v", draw(vec), *flags]
    suite = draw(st.sampled_from(SUITE_IDS + ("bogus",)))
    return [
        "verify", suite, "--space", path,
        "--samples", draw(st.sampled_from(["1", "2", "2", "2", "0", "x"])),
        "--tol", draw(st.sampled_from(["1e-8", "1e-8", "0", "nan"])),
        "--n", draw(st.sampled_from(["33", "33", "2"])),
    ]


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_exits_0_1_or_2_without_traceback(tmp_path, data):
    path = tmp_path / "space.json"
    dim = data.draw(st.integers(1, 4))
    path.write_text(data.draw(_spec_texts(dim)), encoding="utf-8")
    argv = data.draw(_argvs(str(path), 4 if '"psd"' in path.read_text() else dim))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, path.read_text(), err.getvalue())
    assert "Traceback" not in err.getvalue()
