"""Space-spec JSON documents for every family the benchmark uses.

Pure Python (no numpy), so the set-up probe can load them before it starts
its clock. The program receives each family only as the JSON text that
`portho.cli.parse_space_spec` reads.
"""

import json

INF = "inf"

# polyray_4: the harness's simplicial ray cone eye(4) + 0.2, unit = sum of rows
_RAY4 = [[1.2 if i == j else 0.2 for j in range(4)] for i in range(4)]
# ray5: a pentagonal (non-simplicial) cone in R^3; every norm, dual norm and
# membership test on it goes through the simplex solver
RAY5 = [[1.0, 0.0, 1.0], [0.3, 1.0, 1.0], [-0.8, 0.6, 1.0], [-0.8, -0.6, 1.0], [0.3, -1.0, 1.0]]
RAY5_UNIT = [0.0, 0.0, 1.0]


def _lp(n, p):
    return {"dim": n, "cone": {"kind": "nonneg"}, "norm": {"kind": "lp", "p": p}, "p_class": p}


def _sup(n):
    return {"dim": n, "cone": {"kind": "nonneg"}, "norm": {"kind": "sup"}, "p_class": INF}


def _spectral(d):
    return {"dim": d * d, "cone": {"kind": "psd", "side": d}, "norm": {"kind": "spectral"}, "p_class": INF}


SPECS = {
    "lp1_8": _lp(8, 1.0),
    "lp15_8": _lp(8, 1.5),
    "lp2_8": _lp(8, 2.0),
    "lp3_8": _lp(8, 3.0),
    "lpinf_8": _lp(8, INF),
    "lp15_64": _lp(64, 1.5),
    "sup_8": _sup(8),
    "sup_64": _sup(64),
    "base_8": {"dim": 8, "cone": {"kind": "nonneg"}, "norm": {"kind": "base", "phi": [1.0] * 8}, "p_class": 1.0},
    "polyray_4": {
        "dim": 4,
        "cone": {"kind": "rays", "generators": _RAY4},
        "norm": {"kind": "order_unit", "unit": [sum(col) for col in zip(*_RAY4)]},
        "p_class": INF,
    },
    "spectral_4": _spectral(4),
    "spectral_8": _spectral(8),
    "ou_ray5": {
        "dim": 3,
        "cone": {"kind": "rays", "generators": RAY5},
        "norm": {"kind": "order_unit", "unit": RAY5_UNIT},
        "p_class": INF,
    },
    "base_ray5": {
        "dim": 3,
        "cone": {"kind": "rays", "generators": RAY5},
        "norm": {"kind": "base", "phi": RAY5_UNIT},
        "p_class": 1.0,
    },
}

# families each workload parses; verify_all uses the harness's own defaults
WORKLOAD_FAMILIES = {
    "verify_all": (),
    "ortho_queries": (
        "lp1_8", "lp15_8", "lp2_8", "lp3_8", "lpinf_8", "lp15_64", "sup_64",
        "base_8", "polyray_4", "spectral_4", "spectral_8",
    ),
    "constructions": (
        "sup_8", "polyray_4", "base_8", "lp1_8", "lp15_8", "spectral_4", "spectral_8",
        "ou_ray5", "base_ray5",
    ),
}


def spec_text(name: str) -> str:
    return json.dumps(SPECS[name])
