"""Freeness tests for the two forbidden families, with explicit witnesses.

A hypergraph is cancellative when A u B = A u C forces B = C among edges;
equivalently it contains no edge triple with A (symdiff) B inside C. The
detector indexes the edges by shared subsets; the plain triple scan stays as
the oracle it is tested against. The clique-expansion family is
detected through its core: the graph contains a member iff some (ell+1)-set
is 2-covered.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParameterError
from .hypercore import Hypergraph, first_clique, mask_to_tuple


@dataclass(frozen=True)
class Cancellative:
    """Marker for the cancellative (triple-free) family."""

    def __str__(self) -> str:
        return "cancellative"


@dataclass(frozen=True)
class Expansion:
    """Marker for the clique-expansion family with core size ell+1."""

    ell: int

    def __str__(self) -> str:
        return f"expansion({self.ell})"


Family = Union[Cancellative, Expansion]


@dataclass(frozen=True)
class Witness:
    """A concrete forbidden configuration.

    kind "cancellative-triple": `edges` = (A, B, C) with A symdiff B inside C.
    kind "covered-clique": `core` = the 2-covered (ell+1)-set, `covering`
    maps each pair of the core to an edge containing it.
    """

    kind: str
    edges: tuple[tuple[int, ...], ...] = ()
    core: tuple[int, ...] = ()
    covering: tuple[tuple[tuple[int, int], tuple[int, ...]], ...] = ()


def find_cancellative_violation(h: Hypergraph) -> Optional[Witness]:
    """None iff H is cancellative; otherwise the witness (A, B, C) = edges
    (i, j, k) with the least pair i < j whose symmetric difference lies in
    some edge, and the least such k.

    A violating pair is A = S u X, B = S u Y with disjoint k-sets X, Y and
    X u Y inside C, so |A n B| = r - k >= ceil(r/2). Edges are grouped by
    their ceil(r/2)-subsets and only pairs within a group are tried, each by
    a lookup of A ^ B among the even-size sub-masks of the edges.
    """
    masks = h.edge_masks
    m = len(masks)
    if h.r < 2 or m < 3:
        return None
    half = (h.r + 1) // 2
    bits = [[1 << v for v in e] for e in h.edges]
    groups: dict[int, list[int]] = {}
    inside: set[int] = set()
    for i, b in enumerate(bits):
        for sub in itertools.combinations(b, half):
            groups.setdefault(sum(sub), []).append(i)
        for size in range(2, h.r + 1, 2):
            inside.update(map(sum, itertools.combinations(b, size)))
    for i, b in enumerate(bits):
        mi = masks[i]
        best = m
        for sub in itertools.combinations(b, half):
            group = groups[sum(sub)]
            for j in group[bisect.bisect_right(group, i):]:
                if j >= best:
                    break
                if mi ^ masks[j] in inside:
                    best = j
                    break
        if best < m:
            diff = mi ^ masks[best]
            k = next(k for k in range(m) if diff & ~masks[k] == 0)
            return Witness(
                "cancellative-triple", edges=(h.edges[i], h.edges[best], h.edges[k])
            )
    return None


def brute_force_cancellative_violation(h: Hypergraph) -> Optional[Witness]:
    """Oracle: scan every pair i < j, then every k, in index order."""
    masks = h.edge_masks
    m = len(masks)
    for i in range(m):
        for j in range(i + 1, m):
            diff = masks[i] ^ masks[j]
            for k in range(m):
                if diff & ~masks[k] == 0:
                    return Witness(
                        "cancellative-triple",
                        edges=(h.edges[i], h.edges[j], h.edges[k]),
                    )
    return None


def find_clique_expansion(h: Hypergraph, ell: int) -> Optional[Witness]:
    """None iff H is K(ell+1)-expansion free; otherwise a witness whose core
    is the lexicographically least 2-covered (ell+1)-set."""
    if ell < h.r:
        raise ParameterError(f"ell must be >= r={h.r}, got {ell}")
    core = first_clique(h.pair_adjacency, (), (1 << h.n) - 1, ell + 1)
    if core is None:
        return None
    covering = []
    for u, v in itertools.combinations(core, 2):
        edge = next(
            e
            for e, mk in zip(h.edges, h.edge_masks)
            if mk >> u & 1 and mk >> v & 1
        )
        covering.append(((u, v), edge))
    return Witness("covered-clique", core=core, covering=tuple(covering))


def brute_force_clique_expansion(h: Hypergraph, ell: int) -> Optional[tuple[int, ...]]:
    """Oracle: scan every (ell+1)-subset for 2-coveredness."""
    adj = h.pair_adjacency
    for s in itertools.combinations(range(h.n), ell + 1):
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(s, 2)):
            return s
    return None


def is_free(h: Hypergraph, family: Family) -> bool:
    """Thin predicate over the two finders."""
    if isinstance(family, Cancellative):
        return find_cancellative_violation(h) is None
    return find_clique_expansion(h, family.ell) is None


def violation(h: Hypergraph, family: Family) -> Optional[Witness]:
    if isinstance(family, Cancellative):
        return find_cancellative_violation(h)
    return find_clique_expansion(h, family.ell)


class IncrementalFreeChecker:
    """Edge-by-edge freeness maintenance for enumeration and sampling.

    `would_violate(mask)` answers whether adding the edge breaks freeness;
    `push`/`pop` keep the internal state in sync with the edge stack.
    Correctness rests on freeness being monotone under edge removal.
    """

    def __init__(self, n: int, r: int, family: Family):
        self.n = n
        self.r = r
        self.family = family
        self.masks: list[int] = []
        if isinstance(family, Expansion):
            if family.ell < r:
                raise ParameterError(f"ell must be >= r={r}, got {family.ell}")
            self.adj = [0] * n

    def would_violate(self, mask: int) -> bool:
        if isinstance(self.family, Cancellative):
            return self._cancellative_hit(mask)
        return self._expansion_hit(mask)

    def _cancellative_hit(self, t: int) -> bool:
        masks = self.masks
        m = len(masks)
        # t as the containing edge C of an existing pair.
        for i in range(m):
            mi = masks[i]
            for j in range(i + 1, m):
                if (mi ^ masks[j]) & ~t == 0:
                    return True
        # t as a member of the symmetric-difference pair.
        for b in masks:
            d = t ^ b
            for c in masks:
                if c != b and d & ~c == 0:
                    return True
        return False

    def _expansion_hit(self, t: int) -> bool:
        size = self.family.ell + 1
        verts = mask_to_tuple(t)
        adj = [a for a in self.adj]
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        # A new clique of size ell+1 must run through a vertex of t.
        for u in verts:
            if first_clique(adj, (u,), adj[u], size) is not None:
                return True
        return False

    def push(self, mask: int) -> None:
        self.masks.append(mask)
        if isinstance(self.family, Expansion):
            verts = mask_to_tuple(mask)
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    self.adj[u] |= 1 << v
                    self.adj[v] |= 1 << u

    def pop(self) -> None:
        mask = self.masks.pop()
        if isinstance(self.family, Expansion):
            verts = mask_to_tuple(mask)
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    covered = any(
                        m >> u & 1 and m >> v & 1 for m in self.masks
                    )
                    if not covered:
                        self.adj[u] &= ~(1 << v)
                        self.adj[v] &= ~(1 << u)
