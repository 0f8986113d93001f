#!/usr/bin/env python3
"""Reproduce the two distinct infinity-orthogonal decompositions of cos x.

On a uniform grid over [0, 2pi] the sampled cosine f splits both as
f = f_plus - f_minus (positive/negative parts) and as f = g1 - g2 with
g1 = cos^2(x/2), g2 = sin^2(x/2). Both pairs are infinity-orthogonal positive
decompositions, yet the pairs differ by 0.5 at x = pi/2 — orthogonal
decompositions need not be unique. Each orthogonality is decided by
`p_orthogonal`, as `portho example46` decides it, and printed with the
route that answered (exact on the sup norm at p = inf).

Usage:
    python3 scripts/reproduce_example46.py [--n N]
"""

import argparse

import numpy as np

from portho.harness import build_example_46
from portho.ortho import p_orthogonal
from portho.spaces import norm


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2049, help="grid points on [0, 2pi]")
    args = ap.parse_args()

    sp, f, fplus, fminus, g1, g2 = build_example_46(args.n)
    print(f"grid points:                 {args.n}")
    print(f"max |f - (f+ - f-)|:         {np.abs(f - (fplus - fminus)).max():.3e}")
    print(f"max |f - (g1 - g2)|:         {np.abs(f - (g1 - g2)).max():.3e}")
    print(f"||f+ + f-||_inf:             {norm(sp, fplus + fminus)!r}")
    print(f"||g1 + g2||_inf:             {norm(sp, g1 + g2)!r}")
    # both norms print as exactly 1.0: the extrema land on grid points
    v1 = p_orthogonal(sp, fplus, fminus, np.inf)
    v2 = p_orthogonal(sp, g1, g2, np.inf)
    print(f"f+ perp_inf f-:              {v1.verdict} ({v1.method}, residual {v1.worst_residual:.3e})")
    print(f"g1 perp_inf g2:              {v2.verdict} ({v2.method}, residual {v2.worst_residual:.3e})")
    print(f"max |f+ - g1| (expect 0.5):  {float(np.abs(fplus - g1).max())!r}")


if __name__ == "__main__":
    main()
