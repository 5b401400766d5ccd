#!/usr/bin/env python3
"""Locate the edges of the first Mathieu instability tongue at q = 0.1 by
bisection, print them next to the perturbative estimate 1 -+ q - q^2/8,
and exit 1, naming the edge, if an edge lies more than 1e-3 from its
estimate.  The stability map itself is the `hill-stability` mode:
`fieldosc run scenarios/hill_demo.cfg`."""

import argparse
import sys

from fieldosc.cli import _positive_int
from fieldosc.tdfields import bisect_stability_boundary, mathieu_hill

_EDGE_TOL = 1e-3  # the bound of the tongue-edge unit test


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-steps", type=_positive_int, default=2048, help="RK4 steps per period")
    args = parser.parse_args()

    q, n = 0.1, args.n_steps
    lo = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 0.7, 1.0, tol=1e-5, n_steps=n)
    hi = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 1.0, 1.3, tol=1e-5, n_steps=n)
    estimate = {"lower": 1 - q - q * q / 8, "upper": 1 + q - q * q / 8}
    print(f"first tongue at q = {q}: a in [{lo:.5f}, {hi:.5f}]")
    print(f"perturbative estimate   : a in [{estimate['lower']:.5f}, {estimate['upper']:.5f}]")
    status = 0
    for edge, found in (("lower", lo), ("upper", hi)):
        if abs(found - estimate[edge]) > _EDGE_TOL:
            print(
                f"{edge} edge {found:.5f} is more than {_EDGE_TOL:g} from {estimate[edge]:.5f}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
