#!/usr/bin/env python3
"""Exact extremal numbers for small n, with isomorphism-class counts.

Prints, for each family, the maximum number of edges of a free 3-graph on n
vertices, whether the maximizer is unique up to isomorphism, and the number
of labelled free 3-graphs on n vertices, n!/|Aut(C)| summed over their
isomorphism classes C. The default n <= 7 takes about ten seconds on a
2-core host, most of it Expansion(4) at n = 7. A search past the orderly
engine's node budget, as Expansion(4) at n = 8 is, prints a row naming the
budget, and the family's larger n are skipped.
"""

import argparse
import time

from shadowlab import Cancellative, Expansion, turan
from shadowlab.errors import ResourceBudgetError
from shadowlab.extremal import canonical_form, extremal_search


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=7)
    args = parser.parse_args(argv)

    families = [Cancellative(), Expansion(3), Expansion(4)]
    print(f"{'family':>14} {'n':>3} {'max':>4} {'unique':>7} "
          f"{'labelled':>9} {'turan?':>7} {'secs':>7}")
    for family in families:
        ell = family.parts(3)
        for n in range(3, args.n_max + 1):
            if n < ell:
                continue
            t0 = time.perf_counter()
            try:
                result = extremal_search(n, 3, family)
            except ResourceBudgetError as budget:
                print(f"{family!s:>14} {n:>3}  {budget}")
                break
            dt = time.perf_counter() - t0
            reference = turan(n, ell, 3)[0]
            hits_turan = canonical_form(reference) in result.extremal_forms
            print(f"{family!s:>14} {n:>3} {result.max_edges:>4} "
                  f"{str(result.unique):>7} {result.count_searched:>9} "
                  f"{str(hits_turan):>7} {dt:>7.2f}")


if __name__ == "__main__":
    main()
