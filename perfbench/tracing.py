"""Outside-in tracing of portho's public functions.

`Tracer.install` rebinds each listed function, in every `portho.*` namespace
that holds the same object, to a wrapper that records one span per call:
name, start, end, parent span and operation id. Nothing in the package is
edited; `uninstall` puts the original objects back. Spans stay in compact
arrays in memory and are written out once, by `save`.

Self time of a span is its duration minus the time covered by its child
spans. Calls run on one thread, so child spans never overlap and a stack of
open spans gives that difference exactly.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, function) pairs wrapped; the per-layer metric names are
# "<module>.<function>.calls" and "<module>.<function>.self_s"
TRACED = (
    ("cli", "main"),
    ("harness", "run_suite"),
    ("ortho", "verdict_from_norm"),
    ("ortho", "orthonormal_set_verify"),
    ("spaces", "norm"),
    ("spaces", "dual_norm"),
    ("spaces", "batch_norms"),
    ("support", "positive_support"),
    ("support", "support_functional"),
    ("support", "crust_probe"),
    ("decomp", "opt_decompose"),
    ("decomp", "dual_one_orth_decompose"),
    ("decomp", "infty_orth_decompose"),
    ("decomp", "embed_to_lp"),
    ("cones", "cone_contains"),
    ("cones", "dual_cone_contains"),
    ("linalg", "solve_lp"),
    ("linalg", "eigen_sym"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
_ORACLES = {"spaces.norm", "spaces.dual_norm", "spaces.batch_norms"}
_VERDICT = "ortho.verdict_from_norm"


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = 0
        self._stack = []  # open spans: [span index, name id, child time, oracle children]
        self._originals = []  # (namespace, attribute, original object)
        self.reset_counters()

    def reset_counters(self):
        """Zero the per-layer aggregates (spans are kept)."""
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.verdict_oracle_calls = 0
        self.verdict_k = 0
        self.batch_rows = 0
        self.lp_vars = 0
        self.lp_rows = 0
        self.lp_non_optimal = 0
        self.suite_s = {}

    def _observe(self, nid, args, kwargs, result, dur):
        name = NAMES[nid]
        if name == _VERDICT:
            self.verdict_k += len(result.k_grid)
        elif name == "spaces.batch_norms":
            self.batch_rows += len(args[1] if len(args) > 1 else kwargs["W"])
        elif name == "linalg.solve_lp":
            prob = args[0] if args else kwargs["problem"]
            self.lp_vars += len(prob.objective)
            self.lp_rows += len(prob.eq) + len(prob.ineq)
            self.lp_non_optimal += result.status != "optimal"
        elif name == "harness.run_suite":
            suite = args[0] if args else kwargs["suite"]
            self.suite_s[suite] = self.suite_s.get(suite, 0.0) + dur

    def _wrap(self, nid, fn):
        stack = self._stack
        clock = time.perf_counter
        name = NAMES[nid]
        is_oracle = name in _ORACLES

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            frame = [idx, nid, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    if is_oracle and NAMES[stack[-1][1]] == _VERDICT:
                        stack[-1][3] += 1
                if name == _VERDICT:
                    self.verdict_oracle_calls += frame[3]
            self._observe(nid, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "portho" or k.startswith("portho.")]
        for nid, (mod, fname) in enumerate(TRACED):
            original = getattr(sys.modules[f"portho.{mod}"], fname)
            wrapper = self._wrap(nid, original)
            for ns in modules:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._originals.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._originals):
            setattr(ns, attr, original)
        self._originals.clear()

    def layer_metrics(self) -> dict:
        """Per-layer figures accumulated since the last reset_counters()."""
        out = {}
        for nid, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        n_verdict = self.calls[NAMES.index(_VERDICT)]
        n_lp = self.calls[NAMES.index("linalg.solve_lp")]
        out[f"{_VERDICT}.oracle_calls_per_call"] = self.verdict_oracle_calls / n_verdict if n_verdict else 0.0
        out[f"{_VERDICT}.k_per_call"] = self.verdict_k / n_verdict if n_verdict else 0.0
        out["spaces.batch_norms.rows"] = self.batch_rows
        out["linalg.solve_lp.vars_mean"] = self.lp_vars / n_lp if n_lp else 0.0
        out["linalg.solve_lp.rows_mean"] = self.lp_rows / n_lp if n_lp else 0.0
        out["linalg.solve_lp.non_optimal"] = self.lp_non_optimal
        return out

    def save(self, path: str):
        """Write every recorded span as gzipped CSV: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{NAMES[self.name_id[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
