#!/usr/bin/env python3
"""Exact extremal numbers for small n, with isomorphism-class counts.

Prints, for each family, the maximum number of edges of a free 3-graph on n
vertices, whether the maximizer is unique up to isomorphism, and the total
number of free graphs visited.
"""

import argparse
import time

from shadowlab import Cancellative, Expansion, turan
from shadowlab.extremal import canonical_form, extremal_search


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args()

    families = [Cancellative(), Expansion(3), Expansion(4)]
    print(f"{'family':>14} {'n':>3} {'max':>4} {'unique':>7} "
          f"{'searched':>9} {'turan?':>7} {'secs':>7}")
    for family in families:
        ell = family.ell if isinstance(family, Expansion) else 3
        for n in range(3, args.n_max + 1):
            if n < ell:
                continue
            t0 = time.perf_counter()
            result = extremal_search(n, 3, family)
            dt = time.perf_counter() - t0
            reference = turan(n, ell, 3)[0]
            hits_turan = canonical_form(reference) in result.extremal_forms
            print(f"{family!s:>14} {n:>3} {result.max_edges:>4} "
                  f"{str(result.unique):>7} {result.count_searched:>9} "
                  f"{str(hits_turan):>7} {dt:>7.2f}")


if __name__ == "__main__":
    main()
