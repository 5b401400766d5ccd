#!/usr/bin/env python3
"""Locate the edges of the first Mathieu instability tongue at q = 0.1 by
bisection and print them next to the perturbative estimate.  The stability
map itself is the `hill-stability` mode: `fieldosc run scenarios/hill_demo.cfg`."""

import argparse

from fieldosc.cli import _positive_int
from fieldosc.tdfields import bisect_stability_boundary, mathieu_hill


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-steps", type=_positive_int, default=2048, help="RK4 steps per period")
    args = parser.parse_args()

    q, n = 0.1, args.n_steps
    lo = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 0.7, 1.0, tol=1e-5, n_steps=n)
    hi = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 1.0, 1.3, tol=1e-5, n_steps=n)
    print(f"first tongue at q = {q}: a in [{lo:.5f}, {hi:.5f}]")
    print(f"perturbative estimate   : a in [{1 - q - q*q/8:.5f}, {1 + q - q*q/8:.5f}]")


if __name__ == "__main__":
    main()
