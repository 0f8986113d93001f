"""Command-line entry point: space-spec files, suite runs, one-off queries.

Space specs are UTF-8 JSON documents; the exponent infinity is encoded as
the string "inf"; unknown keys are rejected so typos fail loudly instead of
silently changing the space.

Exit codes: 0 pass, 1 a counterexample or failed decomposition, 2 invalid
input (including finite numbers too large for the arithmetic), 3 an
unexpected error (one stderr line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .cones import ConeSpec, nonneg_orthant, psd_cone, ray_cone
from .decomp import opt_decompose
from .errors import InputError
from .harness import SUITE_IDS, run_suite
from .ortho import p_orthogonal
from .spaces import NormKind, SpaceSpec, validate_space
from .support import crust_probe, positive_support, support_functional

INF = math.inf


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _num(value, field: str) -> float:
    if value == "inf":
        return INF
    if isinstance(value, float) or _is_finite_number(value):
        return float(value)
    raise InputError(f"{field}: expected a number or \"inf\"")


def _int(value, field: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{field}: expected an integer")


def _array(value, field: str, ndim: int = 1) -> np.ndarray:
    """A nonempty JSON array of finite numbers, or for ndim = 2 a nonempty
    array of such arrays, all of one length."""
    rows = value if ndim == 2 and isinstance(value, list) else [value]
    if not (
        all(isinstance(r, list) and r for r in rows)
        and len({len(r) for r in rows}) == 1
        and all(_is_finite_number(v) for r in rows for v in r)
    ):
        items = "equal-length arrays of finite numbers" if ndim == 2 else "finite numbers"
        raise InputError(f"{field}: expected a nonempty array of {items}")
    return np.array(value, dtype=float)


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise InputError(f"{where}: unknown keys {sorted(extra)}")


def _parse_cone(obj) -> ConeSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("cone: expected an object with a \"kind\"")
    kind = obj["kind"]
    if kind == "nonneg":
        _reject_unknown(obj, {"kind", "dim"}, "cone")
        return nonneg_orthant(_int(obj["dim"], "cone.dim")) if "dim" in obj else None
    if kind == "rays":
        _reject_unknown(obj, {"kind", "generators"}, "cone")
        if "generators" not in obj:
            raise InputError("cone: rays require \"generators\"")
        return ray_cone(_array(obj["generators"], "cone.generators", ndim=2))
    if kind == "psd":
        _reject_unknown(obj, {"kind", "side"}, "cone")
        if "side" not in obj:
            raise InputError("cone: psd requires \"side\"")
        return psd_cone(_int(obj["side"], "cone.side"))
    raise InputError(f"cone: unknown kind {kind!r}")


def _parse_norm(obj) -> NormKind:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("norm: expected an object with a \"kind\"")
    kind = obj["kind"]
    if kind == "lp":
        _reject_unknown(obj, {"kind", "p", "weights"}, "norm")
        if "p" not in obj:
            raise InputError("norm: lp requires \"p\"")
        w = _array(obj["weights"], "norm.weights") if "weights" in obj else None
        return NormKind("lp", p=_num(obj["p"], "norm.p"), weights=w)
    if kind == "sup":
        _reject_unknown(obj, {"kind"}, "norm")
        return NormKind("sup")
    if kind == "order_unit":
        _reject_unknown(obj, {"kind", "unit"}, "norm")
        if "unit" not in obj:
            raise InputError("norm: order_unit requires \"unit\"")
        return NormKind("order_unit", unit=_array(obj["unit"], "norm.unit"))
    if kind == "base":
        _reject_unknown(obj, {"kind", "phi"}, "norm")
        if "phi" not in obj:
            raise InputError("norm: base requires \"phi\"")
        return NormKind("base", phi=_array(obj["phi"], "norm.phi"))
    if kind == "spectral":
        _reject_unknown(obj, {"kind"}, "norm")
        return NormKind("spectral")
    raise InputError(f"norm: unknown kind {kind!r}")


def parse_space_spec(text: str) -> SpaceSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("space spec must be a JSON object")
    _reject_unknown(obj, {"dim", "cone", "norm", "p_class"}, "space")
    for field in ("dim", "cone", "norm", "p_class"):
        if field not in obj:
            raise InputError(f"space: missing field {field!r}")
    dim = _int(obj["dim"], "dim")
    cone = _parse_cone(obj["cone"])
    if cone is None:  # nonneg cone without explicit dim
        cone = nonneg_orthant(dim)
    space = SpaceSpec(dim, cone, _parse_norm(obj["norm"]), _num(obj["p_class"], "p_class"))
    validate_space(space)
    return space


def _encode_num(x: float):
    return "inf" if math.isinf(x) else x


def _load_space(path: str) -> SpaceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_space_spec(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read space file: {exc}") from exc


def _csv_vector(text: str, field: str, space: SpaceSpec) -> np.ndarray:
    """The comma-separated coordinates of a vector of the space."""
    try:
        v = np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise InputError(f"{field}: invalid vector {text!r}: {exc}") from exc
    if v.shape != (space.dim,) or not np.all(np.isfinite(v)):
        raise InputError(
            f"{field}: expected {space.dim} finite numbers separated by commas, got {text!r}"
        )
    return v


def _round17(obj):
    """Clamp every float to 17 significant digits (a round-trip-exact form);
    non-finite floats become the strings "inf", "-inf" and "nan", which
    JSON cannot hold as numbers."""
    if isinstance(obj, float):
        return float(f"{obj:.17g}") if math.isfinite(obj) else f"{obj}"
    if isinstance(obj, dict):
        return {k: _round17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round17(v) for v in obj]
    return obj


def _report_json(report) -> dict:
    out = asdict(report)
    out["counterexamples"] = _round17(list(report.counterexamples))
    out["version"] = __version__
    return out


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args) -> int:
    space = _load_space(args.space) if args.space else None
    if args.suite != "all" and args.suite not in SUITE_IDS:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    suites = SUITE_IDS if args.suite == "all" else (args.suite,)
    reports, skipped = [], []
    for suite in suites:
        rep = run_suite(
            suite, space, samples=args.samples, tol=args.tol, seed=args.seed, n_grid=args.n
        )
        if rep.status == "unsupported":
            if args.suite != "all":
                print(
                    f"error: suite {suite!r} is not supported on the given space",
                    file=sys.stderr,
                )
                return 2
            skipped.append(suite)
            continue
        reports.append(rep)
        print(f"{suite}: {rep.passes}/{rep.samples} passed", file=sys.stderr)
    payload = [_report_json(r) for r in reports]
    if skipped:
        print(f"skipped (unsupported on this space): {', '.join(skipped)}", file=sys.stderr)
    _emit(payload if args.suite == "all" else payload[0], args.out)
    return 0 if all(not r.counterexamples for r in reports) else 1


def _cmd_ortho(args) -> int:
    space = _load_space(args.space)
    x, y = _csv_vector(args.x, "--x", space), _csv_vector(args.y, "--y", space)
    v = p_orthogonal(space, x, y, args.p)
    _emit(
        {
            "verdict": v.verdict,
            "method": v.method,
            "worst_residual": _round17(v.worst_residual),
            "witness_k": _round17(v.witness_k),
        },
        args.out,
    )
    return 0 if v.is_orthogonal else 1


def _cmd_decompose(args) -> int:
    space = _load_space(args.space)
    d = opt_decompose(space, _csv_vector(args.v, "--v", space), args.p)
    if d.status == "unsupported":
        print(f"error: no decomposition at p = {args.p} on the given space", file=sys.stderr)
        return 2
    _emit(
        _round17(
            {
                "u1": d.u1.tolist(),
                "u2": d.u2.tolist(),
                "p": _encode_num(d.p),
                "norm_aggregate": d.norm_aggregate,
                "status": d.status,
            }
        ),
        args.out,
    )
    return 0 if d.status == "optimal" else 1


def _cmd_support(args) -> int:
    space = _load_space(args.space)
    v = _csv_vector(args.v, "--v", space)
    res = positive_support(space, v) if args.positive else support_functional(space, v)
    _emit(
        _round17(
            {
                "functional": res.functional.tolist(),
                "attained_value": res.attained_value,
                "is_positive": res.is_positive,
            }
        ),
        args.out,
    )
    return 0


def _cmd_crust(args) -> int:
    space = _load_space(args.space)
    res = crust_probe(space, _csv_vector(args.u, "--u", space))
    if res is None:
        _emit({"crust": None}, args.out)
        return 0
    _emit(
        _round17(
            {
                "crust": res.functional.tolist(),
                "partner": res.partner.tolist(),
                "partner_orthogonal": res.partner_orthogonal,
            }
        ),
        args.out,
    )
    return 0


def _cmd_example46(args) -> int:
    rep = run_suite("ex46_nonuniqueness", None, tol=args.tol, n_grid=args.n)
    _emit(_report_json(rep), args.out)
    return 0 if not rep.counterexamples else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="portho", description="p-orthogonality toolkit for ordered normed spaces"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, space_required: bool):
        p.add_argument("--space", required=space_required, help="space spec JSON file")
        p.add_argument("--out", default=None, help="write the JSON result to this file")

    p = sub.add_parser("verify", help="run a property suite (or all of them)")
    p.add_argument("suite", help="suite id or 'all'")
    common(p, space_required=False)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2049, help="grid size for the cosine example")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ortho", help="decide p-orthogonality of two vectors")
    common(p, space_required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--p", type=lambda s: INF if s == "inf" else float(s), required=True)
    p.set_defaults(func=_cmd_ortho)

    p = sub.add_parser("decompose", help="optimal positive decomposition")
    common(p, space_required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--p", type=lambda s: INF if s == "inf" else float(s), required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("support", help="support functional of a vector")
    common(p, space_required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--positive", action="store_true", help="positive support of a cone element")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("crust", help="positive norm-one functional vanishing on u")
    common(p, space_required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(func=_cmd_crust)

    p = sub.add_parser("example46", help="two distinct orthogonal decompositions of cos")
    p.add_argument("--out", default=None, help="write the JSON result to this file")
    p.add_argument("--n", type=int, default=2049)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_example46)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # finite input beyond the range of the arithmetic
        print(f"error: input magnitude out of range: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
