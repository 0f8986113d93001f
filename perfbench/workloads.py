"""The three workloads: input generation, the call into portho, and the check.

Inputs come only from the seed and are generated before any timing. Each
workload's round is a fixed list of operations; worker.py repeats rounds.
Every operation calls the public API through the `portho` package namespace
at call time, so the tracer's rebinding sees it.

verify_all     one in-process `portho verify all --seed S --samples 50` (22
               suites on their default families); one operation = one
               sampled check.
ortho_queries  single p_orthogonal_numeric decisions on closed-form norms
               (lp at dim 8 and 64, sup at dim 64, base, a simplicial ray
               cone, spectral d = 4 and 8): grid plus norm, no LP, no Jacobi.
constructions  support functionals, positive supports, crusts, optimal and
               dual decompositions, plus a few decisions on a non-simplicial
               ray cone where every norm is an LP: the simplex solver and
               the Jacobi eigensolver carry the cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

import portho as P
import portho.cli  # noqa: F401  (binds P.cli)

from families import SPECS, WORKLOAD_FAMILIES, spec_text
from oracles import TOL, Geometry, exact_lp_orthogonal, statement_one

INF = math.inf
VERIFY_SAMPLES = 50  # per suite; a round takes about 2 s, so a run holds many
N_SUITES = 22

# ortho_queries: (family, exponent, pairs per round); coordinate families
# draw pairs as acceptance criterion 2 does, the order-unit-like ones as
# criterion 3 (the thm33 sampler's three textures). The counts put each
# reported percentile in the middle of a cluster of like-cost decisions:
# the median among the dim-8 lp families (as many cheaper base_8 decisions
# below them as costlier ones above), the p99 among the spectral d = 8 ones
# (the costliest 2%). A percentile at the edge of a cluster moves with how
# hard other tenants happen to load the host.
ORTHO_LP = (
    ("lp1_8", 1.0, 40), ("lp15_8", 1.5, 40), ("lp2_8", 2.0, 40), ("lp3_8", 3.0, 40),
    ("lpinf_8", INF, 30), ("lp15_64", 1.5, 30), ("sup_64", INF, 25), ("base_8", 1.0, 80),
)
ORTHO_OU = (("polyray_4", 10), ("spectral_4", 6), ("spectral_8", 8))

# constructions: (operation, family, exponent or None, count per round)
CONSTRUCTIONS = (
    ("support", "sup_8", None, 12), ("support", "polyray_4", None, 12),
    ("support", "base_8", None, 12), ("support", "lp1_8", None, 12),
    ("support", "lp15_8", None, 12), ("support", "spectral_4", None, 8),
    ("support", "spectral_8", None, 6), ("support", "ou_ray5", None, 12),
    ("support", "base_ray5", None, 12),
    ("positive_support", "sup_8", None, 12), ("positive_support", "polyray_4", None, 12),
    ("positive_support", "base_8", None, 12), ("positive_support", "lp1_8", None, 12),
    ("positive_support", "lp15_8", None, 12), ("positive_support", "spectral_4", None, 8),
    ("positive_support", "spectral_8", None, 6), ("positive_support", "ou_ray5", None, 12),
    ("positive_support", "base_ray5", None, 12),
    ("crust", "sup_8", None, 12), ("crust", "polyray_4", None, 12), ("crust", "ou_ray5", None, 12),
    ("opt_decompose", "lp1_8", 1.0, 12), ("opt_decompose", "base_8", 1.0, 12),
    ("opt_decompose", "lp15_8", 1.5, 12), ("opt_decompose", "sup_8", INF, 12),
    ("opt_decompose", "polyray_4", INF, 12), ("opt_decompose", "spectral_4", INF, 6),
    ("opt_decompose", "spectral_8", INF, 4),
    ("dual_decompose", "sup_8", None, 12), ("dual_decompose", "polyray_4", None, 12),
    ("dual_decompose", "spectral_4", None, 6), ("dual_decompose", "spectral_8", None, 4),
    ("dual_decompose", "ou_ray5", None, 4),
    ("ortho", "ou_ray5", INF, 2),
)


@dataclass(frozen=True)
class Op:
    kind: str
    family: str
    p: float | None
    args: tuple


# ---------------------------------------------------------------------------
# input generation (independent of portho's own samplers)


def _vector(geo: Geometry, rng) -> np.ndarray:
    if geo.cone_kind == "psd":
        A = rng.normal(size=(geo.side, geo.side))
        return (0.5 * (A + A.T)).ravel()
    return rng.normal(size=geo.dim)


def _cone_element(geo: Geometry, rng) -> np.ndarray:
    if geo.cone_kind == "nonneg":
        return rng.exponential(size=geo.dim)
    if geo.cone_kind == "rays":
        return geo.G.T @ rng.exponential(size=geo.G.shape[0])
    B = rng.normal(size=(geo.side, geo.side)) / math.sqrt(geo.side)
    return (B @ B.T).ravel()


def _crust_input(geo: Geometry, rng, boundary: bool) -> np.ndarray:
    """A cone element on the boundary (a crust exists) or in the interior."""
    if geo.cone_kind == "nonneg" or geo.G.shape[0] == geo.dim:
        basis = np.eye(geo.dim) if geo.cone_kind == "nonneg" else geo.G.T
        a = rng.uniform(0.2, 1.5, size=basis.shape[1])
        if boundary:
            a[rng.permutation(a.size)[: int(rng.integers(1, a.size))]] = 0.0
        return basis @ a
    G = geo.G  # pentagonal cone: rows in cyclic order, adjacent rows span a facet
    if boundary:
        i = int(rng.integers(G.shape[0]))
        return rng.uniform(0.2, 1.5) * G[i] + rng.uniform(0.0, 1.5) * G[(i + 1) % G.shape[0]]
    return G.T @ rng.uniform(0.2, 1.5, size=G.shape[0])


def _lp_pair(n: int, rng):
    """Acceptance criterion 2: random supports split by a mask, and in half
    the pairs one solidly shared coordinate."""
    mask = rng.random(size=n) < 0.5
    x = rng.normal(size=n) * mask
    y = rng.normal(size=n) * ~mask
    if rng.random() < 0.5:
        j = int(rng.integers(n))
        x[j] = rng.uniform(0.3, 1.0)
        y[j] = rng.uniform(0.3, 1.0)
    return x, y


def _positive_pair(geo: Geometry, rng):
    """Acceptance criterion 3's textures: disjoint (orthogonal), generic
    overlapping, or the canonical partner e - u/||u||."""
    mode = int(rng.integers(3))
    if geo.cone_kind == "psd":
        d = geo.side
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        if mode == 1:
            return _cone_element(geo, rng), _cone_element(geo, rng)
        cut = int(rng.integers(1, d))
        lam1 = np.concatenate([rng.uniform(0.2, 1.5, size=cut), np.zeros(d - cut)])
        if mode == 0:
            lam2 = np.concatenate([np.zeros(cut), rng.uniform(0.2, 1.5, size=d - cut)])
            u2 = (Q * lam2) @ Q.T
        else:
            u2 = np.eye(d) - (Q * (lam1 / lam1.max())) @ Q.T
        return ((Q * lam1) @ Q.T).ravel(), u2.ravel()
    B = geo.G.T
    n = B.shape[1]
    if mode == 1:
        a = rng.exponential(size=n) * (rng.random(size=n) < 0.7)
        b = rng.exponential(size=n) * (rng.random(size=n) < 0.7)
        a[int(rng.integers(n))] += 0.5
        b[np.argmax(a)] += 0.5
        return B @ a, B @ b
    mask = rng.random(size=n) < 0.5
    if not mask.any():
        mask[0] = True
    if mask.all():
        mask[-1] = False
    a = np.where(mask, rng.uniform(0.1, 1.2, size=n), 0.0)
    b = np.where(~mask, rng.uniform(0.1, 1.2, size=n), 0.0) if mode == 0 else 1.0 - a / a.max()
    return B @ a, B @ b


def _ray5_pair(geo: Geometry, rng):
    """On the pentagonal cone: a facet element with its partner e - u/||u||
    (orthogonal), or two interior elements (not orthogonal)."""
    if rng.random() < 0.5:
        u = _crust_input(geo, rng, boundary=True)
        return u, geo.unit - u / geo.norm(u)
    return _crust_input(geo, rng, boundary=False), _crust_input(geo, rng, boundary=False)


def build(workload: str, seed: int, geos: dict, scale: float = 1.0, index: int = 0) -> list:
    """Round `index` of the workload's operations for this seed. `scale` < 1
    shrinks the round (self-test)."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode()), index])
    count = lambda c: max(1, int(round(c * scale)))
    ops = []
    if workload == "verify_all":
        # each round checks a fresh seed derived from the workload seed, so a
        # run's medians average over many seeds' sample paths
        samples = VERIFY_SAMPLES if scale >= 1.0 else max(2, int(VERIFY_SAMPLES * scale))
        return [Op("verify_all", "defaults", None, (seed * 1000 + index, samples))]
    if workload == "ortho_queries":
        for fam, p, c in ORTHO_LP:
            ops += [Op("ortho", fam, p, _lp_pair(geos[fam].dim, rng)) for _ in range(count(c))]
        for fam, c in ORTHO_OU:
            ops += [Op("ortho", fam, INF, _positive_pair(geos[fam], rng)) for _ in range(count(c))]
    else:
        for kind, fam, p, c in CONSTRUCTIONS:
            geo = geos[fam]
            for i in range(count(c)):
                if kind in ("support", "opt_decompose", "dual_decompose"):
                    args = (_vector(geo, rng),)
                elif kind == "positive_support":
                    args = (_cone_element(geo, rng),)
                elif kind == "crust":
                    args = (_crust_input(geo, rng, boundary=i % 2 == 0),)
                else:
                    args = _ray5_pair(geo, rng)
                ops.append(Op(kind, fam, p, args))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def geometries(workload: str) -> dict:
    return {name: Geometry(SPECS[name]) for name in WORKLOAD_FAMILIES[workload]}


def spaces(workload: str) -> dict:
    return {name: P.cli.parse_space_spec(spec_text(name)) for name in WORKLOAD_FAMILIES[workload]}


# ---------------------------------------------------------------------------
# the calls into portho


def run_op(op: Op, spaces: dict, out_path: str):
    if op.kind == "verify_all":
        seed, samples = op.args
        argv = ["verify", "all", "--seed", str(seed), "--samples", str(samples), "--out", out_path]
        with contextlib.redirect_stderr(io.StringIO()):
            rc = P.cli.main(argv)
        return rc
    space = spaces[op.family]
    if op.kind == "ortho":
        return P.p_orthogonal_numeric(space, op.args[0], op.args[1], op.p)
    if op.kind == "support":
        return P.support_functional(space, op.args[0])
    if op.kind == "positive_support":
        return P.positive_support(space, op.args[0])
    if op.kind == "crust":
        return P.crust_probe(space, op.args[0])
    if op.kind == "opt_decompose":
        return P.opt_decompose(space, op.args[0], op.p)
    if op.kind == "dual_decompose":
        return P.dual_one_orth_decompose(space, op.args[0])
    raise ValueError(f"unknown operation {op.kind!r}")


def read_verify_reports(rc, out_path: str):
    """The verify_all result as the oracle sees it: exit code and reports."""
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            reports = json.load(fh)
    except (OSError, ValueError):
        reports = None
    return rc, reports


# ---------------------------------------------------------------------------
# oracles


def op_count(op: Op, result) -> int:
    """Operations an op stands for: sampled checks for verify_all, else 1."""
    if op.kind == "verify_all":
        _, reports = result
        return max(1, sum(r.get("samples", 0) for r in reports or ()))
    return 1


def check_verify(op: Op, result) -> list:
    """Errors, one per failed sampled check or per broken report invariant."""
    rc, reports = result
    if not isinstance(reports, list) or len(reports) != N_SUITES:
        return ["verify_all: expected 22 reports"] * max(1, op_count(op, result))
    errors = []
    if rc != 0:
        errors.append(f"verify_all: exit code {rc}")
    for r in reports:
        if r["samples"] < 1:
            errors.append(f"{r['suite']}: no samples checked")
        if r["counterexamples"]:
            errors.append(f"{r['suite']}: counterexamples")
        errors += [f"{r['suite']}: {r['samples'] - r['passes']} failed samples"] * (r["samples"] - r["passes"])
    return errors


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


def check(op: Op, result, geos: dict) -> str | None:
    """None when the answer is right, else a short description of the error."""
    geo = geos.get(op.family)
    if op.kind == "ortho":
        x, y = op.args
        if op.family in ("polyray_4", "spectral_4", "spectral_8", "ou_ray5"):
            expected = statement_one(geo, x, y)
        else:
            expected = exact_lp_orthogonal(x, y, op.p)
        return None if result.is_orthogonal == expected else f"verdict {result.verdict}, expected {expected}"
    if op.kind in ("support", "positive_support"):
        v = op.args[0]
        f = np.asarray(result.functional, dtype=float)
        if op.kind == "positive_support" and not geo.in_dual_cone(f):
            return "positive support not in the dual cone"
        if geo.dual_norm(f) > 1.0 + TOL:
            return f"dual norm {geo.dual_norm(f)} > 1"
        nv = geo.norm(v)
        if not _close(float(f @ v), nv) or not _close(result.attained_value, float(f @ v)):
            return f"f(v) = {f @ v}, ||v|| = {nv}"
        return None
    if op.kind == "crust":
        u = op.args[0]
        exists = geo.on_boundary(u)
        if result is None:
            return "no crust for a boundary element" if exists else None
        if not exists:
            return "crust returned for an interior element"
        f = np.asarray(result.functional, dtype=float)
        nu = geo.norm(u)
        if not geo.in_dual_cone(f) or not _close(float(f @ geo.unit), 1.0):
            return "crust not positive or not of norm one"
        if abs(float(f @ u)) > TOL * (1.0 + nu):
            return f"crust does not vanish on u: {f @ u}"
        if np.abs(result.partner - (geo.unit - u / nu)).max() > TOL or not result.partner_orthogonal:
            return "partner is not e - u/||u|| or not orthogonal"
        return None
    if op.kind == "opt_decompose":
        v = op.args[0]
        if result.status not in ("optimal", "approximate"):
            return f"status {result.status}"
        u1, u2 = np.asarray(result.u1), np.asarray(result.u2)
        if np.abs(u1 - u2 - v).max() > TOL * (1.0 + np.abs(v).max()):
            return "u1 - u2 != v"
        if not (geo.in_cone(u1) and geo.in_cone(u2)):
            return "a part is not in the cone"
        n1, n2 = geo.norm(u1), geo.norm(u2)
        agg = max(n1, n2) if math.isinf(op.p) else (n1**op.p + n2**op.p) ** (1.0 / op.p)
        if not _close(agg, result.norm_aggregate):
            return f"reported aggregate {result.norm_aggregate}, recomputed {agg}"
        # on these lattice and order-unit families the least aggregate over
        # all positive decompositions is ||v|| itself
        if agg > geo.norm(v) + 1e-6 + TOL * (1.0 + agg):
            return f"aggregate {agg} exceeds ||v|| = {geo.norm(v)}"
        return None
    if op.kind == "dual_decompose":
        f = op.args[0]
        if result.status != "optimal":
            return f"status {result.status}"
        f1, f2 = np.asarray(result.u1), np.asarray(result.u2)
        if np.abs(f1 - f2 - f).max() > TOL * (1.0 + np.abs(f).max()):
            return "f1 - f2 != f"
        if not (geo.in_dual_cone(f1) and geo.in_dual_cone(f2)):
            return "a part is not in the dual cone"
        nf = geo.dual_norm(f)
        if not _close(geo.dual_norm(f1) + geo.dual_norm(f2), nf) or not _close(result.norm_aggregate, nf):
            return "dual norms of the parts do not add up to ||f||*"
        return None
    return f"unknown operation {op.kind!r}"
