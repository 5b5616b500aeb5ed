"""Named hypergraph constructors and seeded perturbations.

All constructors are deterministic: balanced partitions assign vertex i to
part i mod ell, and expansion numbers its fresh vertices after the core in
edge-list order. `perturb` draws from xorshift64*, a fixed shift-register
generator, so a seed reproduces the same perturbation on any platform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ParameterError
from .hypercore import Hypergraph

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* with a splitmix64-mixed seed (so seed 0 is usable)."""

    def __init__(self, seed: int):
        s = (seed + 0x9E3779B97F4A7C15) & _MASK64
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & _MASK64
        self.state = (s ^ (s >> 31)) or 1

    def next64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27)
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, bound: int) -> int:
        # Rejection sampling keeps the draw unbiased.
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            v = self.next64()
            if v <= limit:
                return v % bound


@dataclass(frozen=True)
class PartitionSpec:
    """A partition of (a subset of) 0..n-1 into ell pairwise disjoint parts."""

    parts: tuple[tuple[int, ...], ...]
    ell: int


@dataclass(frozen=True)
class Perturbation:
    """A perturbed hypergraph plus the exact edge diff that produced it."""

    hypergraph: Hypergraph
    removed: tuple[tuple[int, ...], ...]
    added: tuple[tuple[int, ...], ...]


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph on n vertices."""
    if not n >= r >= 1:
        raise ParameterError(f"need n >= r >= 1, got n={n}, r={r}")
    return Hypergraph(r, n, tuple(itertools.combinations(range(n), r)))


def balanced_parts(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(range(i, n, ell)) for i in range(ell)
    )


def turan(n: int, ell: int, r: int) -> tuple[Hypergraph, PartitionSpec]:
    """The generalized Turan graph: all r-sets with at most one vertex per
    part of the balanced ell-partition (vertex i joins part i mod ell)."""
    if not (ell >= r >= 2 and n >= ell):
        raise ParameterError(f"need n >= ell >= r >= 2, got n={n}, ell={ell}, r={r}")
    part_of = [i % ell for i in range(n)]
    edges = tuple(
        e
        for e in itertools.combinations(range(n), r)
        if len({part_of[v] for v in e}) == r
    )
    return Hypergraph(r, n, edges), PartitionSpec(balanced_parts(n, ell), ell)


def turan_padded(n: int, m: int, ell: int, r: int) -> Hypergraph:
    """turan(m, ell, r) inside a ground set of n vertices (n-m isolated)."""
    if not (n >= m >= ell >= r >= 2):
        raise ParameterError(
            f"need n >= m >= ell >= r >= 2, got n={n}, m={m}, ell={ell}, r={r}"
        )
    core, _ = turan(m, ell, r)
    return Hypergraph(r, n, core.edges)


def expansion(g: Hypergraph, r: int) -> Hypergraph:
    """Expand each graph edge to an r-edge with r-2 globally fresh vertices.

    Fresh vertices are numbered after the core vertices, in edge-list order,
    so each expanded edge stays sorted and the edge list keeps g's order.
    """
    if g.r != 2:
        raise ParameterError(f"expansion expects a 2-graph, got uniformity {g.r}")
    if r < 2:
        raise ParameterError(f"target uniformity must be >= 2, got {r}")
    fresh = g.n
    edges = []
    for e in g.edges:
        extra = tuple(range(fresh, fresh + r - 2))
        fresh += r - 2
        edges.append(e + extra)
    return Hypergraph(r, fresh, tuple(edges))


def clique_expansion_graph(ell: int, r: int) -> Hypergraph:
    """The expansion of the complete graph on ell+1 vertices."""
    return expansion(complete(ell + 1, 2), r)


def fano() -> Hypergraph:
    """The Fano plane as a 3-graph on vertices 0..6 (0-based edge list)."""
    one_based = [(1, 2, 3), (3, 4, 5), (5, 6, 1), (1, 7, 4), (2, 7, 5), (3, 7, 6), (2, 4, 6)]
    return Hypergraph.build(3, 7, [tuple(v - 1 for v in e) for e in one_based])


def perturb(h: Hypergraph, seed: int, delete: int, add: int) -> Perturbation:
    """Remove `delete` edges and add `add` non-edges, chosen by seed."""
    if delete > len(h):
        raise ParameterError(f"cannot delete {delete} of {len(h)} edges")
    rng = Xorshift64Star(seed)
    edges = list(h.edges)
    removed = []
    for _ in range(delete):
        removed.append(edges.pop(rng.below(len(edges))))
    present = set(edges) | set(removed)
    non_edges = [
        e for e in itertools.combinations(range(h.n), h.r) if e not in present
    ]
    if add > len(non_edges):
        raise ParameterError(f"cannot add {add} edges, only {len(non_edges)} non-edges")
    added = []
    for _ in range(add):
        added.append(non_edges.pop(rng.below(len(non_edges))))
    return Perturbation(
        Hypergraph(h.r, h.n, tuple(sorted(edges + added))),
        tuple(sorted(removed)),
        tuple(sorted(added)),
    )
