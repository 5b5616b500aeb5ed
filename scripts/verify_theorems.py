#!/usr/bin/env python3
"""Exhaustively verify the shadow bounds over all small free 3-graphs.

For each vertex count up to --n-max, sweeps every labeled graph of the
requested family and reports the worst slack of the matching bound. Expected
output: zero violations everywhere, with slack exactly 0 at the extremal
configurations.
"""

import argparse
import time

from shadowlab import Cancellative, Expansion
from shadowlab.extremal import verify_bound_over_enumeration

R = 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--l", type=int, default=3, dest="ell")
    args = parser.parse_args()
    sweeps = [
        ("unconstrained", None, "thm1"),
        ("cancellative", Cancellative(), "thm3"),
        ("expansion", Expansion(args.ell), "thm6"),
    ]

    print(f"{'family':>14} {'bound':>6} {'n':>3} {'graphs':>9} "
          f"{'violations':>10} {'min slack':>12} {'secs':>7}")
    for label, family, kind in sweeps:
        for n in range(R, args.n_max + 1):
            t0 = time.perf_counter()
            report = verify_bound_over_enumeration(
                n, R, family, kind, ell=args.ell
            )
            dt = time.perf_counter() - t0
            print(f"{label:>14} {kind:>6} {n:>3} {report.visited:>9} "
                  f"{len(report.violations):>10} {report.min_slack:>12.6f} "
                  f"{dt:>7.2f}")
            if report.violations:
                raise SystemExit(f"violation found at n={n}: "
                                 f"{report.violations[0]}")
    print("all sweeps clean")


if __name__ == "__main__":
    main()
