#!/usr/bin/env python3
"""Compare the `portho verify all` reports of two source trees.

For each of the seeds 0, 7 and 123, `portho verify all` runs at 200 samples
once under each tree (the `src/` directory of a checkout, first on
PYTHONPATH). Every report is compared field by field with its counterpart,
apart from `elapsed_ms`. The script names each report that differs, with
the fields that differ, and exits 1 if any does, else 0:

    python3 scripts/compare_reports.py OLD_SRC NEW_SRC
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

IGNORED = ("elapsed_ms",)
SEEDS = (0, 7, 123)
SAMPLES = 200


def verify_all(src: pathlib.Path, seed: int, out: pathlib.Path) -> list:
    """The reports of `portho verify all` run under the portho in src."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    cmd = [sys.executable, "-m", "portho.cli", "verify", "all", "--seed", str(seed),
           "--samples", str(SAMPLES), "--out", str(out)]
    # exit code 1 means a counterexample, which the comparison reports
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"verify all failed under {src} (exit {run.returncode}):\n{run.stderr}")
    return json.loads(out.read_text())


def differing_fields(a: dict, b: dict) -> list:
    return sorted(k for k in a.keys() | b.keys() if k not in IGNORED and a.get(k) != b.get(k))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=pathlib.Path, help="the src/ directory of the first tree")
    ap.add_argument("new", type=pathlib.Path, help="the src/ directory of the second tree")
    args = ap.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            old, new = (
                verify_all(src, seed, pathlib.Path(tmp) / f"{label}_{seed}.json")
                for label, src in (("old", args.old), ("new", args.new))
            )
            if len(old) != len(new):
                print(f"seed {seed}: {len(old)} reports against {len(new)}")
                differ += 1
            for a, b in zip(old, new):
                fields = differing_fields(a, b)
                if fields:
                    print(f"seed {seed}: {a.get('suite')} on {a.get('space')} differs in {', '.join(fields)}")
                    differ += 1
            print(f"seed {seed}: {len(old)} reports compared")
    print("identical apart from elapsed_ms" if differ == 0 else f"{differ} reports differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
