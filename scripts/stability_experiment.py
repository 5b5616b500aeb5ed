#!/usr/bin/env python3
"""Stability certificates under random perturbation.

Starts from the balanced multipartite graph, deletes a growing number of
random edges (per seed), and reports whether the certificate still passes
and how many edges the best partition fit has to discard. Optionally spikes
in non-transversal edges to show the removal count tracking them exactly.
"""

import argparse

from shadowlab import Cancellative, Hypergraph, perturb, turan
from shadowlab.constructions import Xorshift64Star
from shadowlab.stability import partition_fit, stability_certificate

ELL = 3


def intra_part_edges(n: int, ell: int, count: int, seed: int):
    """Seeded non-transversal triples (two vertices from one part)."""
    rng = Xorshift64Star(seed)
    parts = [list(range(i, n, ell)) for i in range(ell)]
    out = set()
    while len(out) < count:
        part = parts[rng.below(ell)]
        u = part[rng.below(len(part))]
        v = part[rng.below(len(part))]
        w = rng.below(n)
        if len({u, v, w}) == 3:
            out.add(tuple(sorted((u, v, w))))
    return tuple(sorted(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--max-deletions", type=int, default=6)
    parser.add_argument("--eps", type=float, default=0.05)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--spike", type=int, default=0,
                        help="also add this many intra-part edges")
    args = parser.parse_args()

    base = turan(args.n, ELL, 3)[0]
    print(f"base: {len(base)} edges on {args.n} vertices, "
          f"{ELL} parts")
    print(f"{'deleted':>8} {'seed':>5} {'status':>20} {'removed':>8} "
          f"{'cap':>8}")
    for deleted in range(args.max_deletions + 1):
        for seed in range(args.seeds):
            h = perturb(base, seed, deleted, 0).hypergraph
            cert = stability_certificate(
                h, Cancellative(), args.eps, args.delta
            )
            removed = cert.fit.removed if cert.fit is not None else "-"
            print(f"{deleted:>8} {seed:>5} {cert.status:>20} {removed!s:>8} "
                  f"{cert.removed_cap:>8.2f}")

    if args.spike:
        extra = intra_part_edges(args.n, ELL, args.spike, seed=0)
        spiked = Hypergraph.build(3, args.n, base.edges + extra)
        fit = partition_fit(spiked, ELL, args.n)
        print(f"\nspiked {args.spike} intra-part edges -> "
              f"fit removed {fit.removed} (optimal={fit.optimal})")


if __name__ == "__main__":
    main()
