"""Freeness tests for the two forbidden families, with explicit witnesses.

A hypergraph is cancellative when A u B = A u C forces B = C among edges;
equivalently it contains no edge triple with A (symdiff) B inside C. The
detector indexes the edges by shared subsets; the plain triple scan stays as
the oracle it is tested against. The clique-expansion family is
detected through its core: the graph contains a member iff some (ell+1)-set
is 2-covered.

`IncrementalFreeChecker` keeps indexes of its edge stack, updated on each
push and pop, so a call costs about the size of the new edge rather than of
the stack. For the expansion family it keeps the covered-pair graph as one
int whose n-bit rows are the adjacency bitsets; `push` saves it and ORs in
the edge's pairs, and `pop` restores it. A new edge can only close an
(ell+1)-clique through a pair it newly covers, and the verdict is memoized
on the grown pair graph.
For the cancellative family it counts the xors of all stored pairs and the
even-size sub-masks of the stored edges: a new edge t is the C of a bad
triple iff one of its even-size sub-masks is a stored xor, and a member of a
bad pair (t, b) iff t ^ b is a stored sub-mask.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import ParameterError, PreconditionError
from .hypercore import Hypergraph, cliques, mask_to_tuple


@dataclass(frozen=True)
class Cancellative:
    """The cancellative (triple-free) family, extremal at r parts."""

    def parts(self, r: int) -> int:
        return r

    def violation(self, h: Hypergraph) -> Optional[Witness]:
        return find_cancellative_violation(h)

    def __str__(self) -> str:
        return "cancellative"


@dataclass(frozen=True)
class Expansion:
    """The clique-expansion family with core size ell+1, extremal at ell parts."""

    ell: int

    def parts(self, r: int) -> int:
        return self.ell

    def violation(self, h: Hypergraph) -> Optional[Witness]:
        return find_clique_expansion(h, self.ell)

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
        inside.update(_even_sub_masks(b))
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


def _even_sub_masks(bits: list[int]) -> Iterator[int]:
    """The 2^(r-1) - 1 even-size sub-masks of an edge's r vertex bits."""
    return itertools.chain.from_iterable(
        map(sum, itertools.combinations(bits, size)) for size in range(2, len(bits) + 1, 2)
    )


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
    core = next(cliques(h.pair_adjacency, (), (1 << h.n) - 1, ell + 1), None)
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
    """Thin predicate over `family.violation`."""
    return family.violation(h) is None


def require_free(h: Hypergraph, family: Family) -> None:
    """Raise PreconditionError, carrying the witness, unless H is
    family-free: the one check behind every routine that assumes it."""
    w = family.violation(h)
    if w is None:
        return
    if w.kind == "cancellative-triple":
        raise PreconditionError("hypergraph is not cancellative", w)
    raise PreconditionError(
        f"hypergraph contains a 2-covered {len(w.core)}-set", w
    )


class IncrementalFreeChecker:
    """Edge-by-edge freeness maintenance for enumeration and sampling.

    `would_violate(mask)` answers whether adding the edge breaks freeness;
    `push`/`pop` keep the internal state in sync with the edge stack.
    Correctness rests on freeness being monotone under edge removal.

    Precondition: only edges for which `would_violate` returned False are
    pushed, so the stack is always free, and `would_violate(t)` is never
    asked for a `t` already on the stack. The checks below rely on both.

    Expansion family: `pairs` has bits u * n + v and v * n + u set when a
    stored edge covers the pair {u, v}, so bits u * n .. u * n + n - 1 are
    u's adjacency row. `push` saves `pairs` on a stack and ORs in the edge's
    bits; `pop` restores it. An edge that covers no new pair cannot violate.
    Otherwise, because the stack is free, the edge closes an (ell+1)-clique
    exactly when its grown pair graph has one; that depends on the grown
    `pairs` alone, so the verdict is memoized on it for the life of the
    checker, and only a miss slices the rows out for a clique search.
    """

    def __init__(self, n: int, r: int, family: Family):
        self.n = n
        self.r = r
        self.family = family
        self.masks: list[int] = []
        # mask -> its pair bits (expansion) or its even-size sub-masks
        # (cancellative), built once per mask.
        self._parts: dict[int, Union[int, tuple]] = {}
        if isinstance(family, Expansion):
            if family.ell < r:
                raise ParameterError(f"ell must be >= r={r}, got {family.ell}")
            self.pairs = 0
            self._saved: list[int] = []  # pairs before each stored edge
            # Grown pair bits -> whether they hold an (ell+1)-clique.
            self._verdicts: dict[int, bool] = {}
        elif isinstance(family, Cancellative):
            # Counts of the xors of all stored pairs, and of the even-size
            # sub-masks of the stored edges.
            self.xors: dict[int, int] = {}
            self.inside: dict[int, int] = {}
        else:
            raise ParameterError(f"no forbidden family {family!r}")

    def _parts_of(self, mask: int) -> tuple:
        parts = self._parts.get(mask)
        if parts is None:
            verts = mask_to_tuple(mask)
            if isinstance(self.family, Expansion):
                n = self.n
                parts = sum(
                    1 << (u * n + v) | 1 << (v * n + u)
                    for u, v in itertools.combinations(verts, 2)
                )
            else:
                parts = tuple(_even_sub_masks([1 << v for v in verts]))
            self._parts[mask] = parts
        return parts

    def would_violate(self, mask: int) -> bool:
        parts = self._parts_of(mask)
        if isinstance(self.family, Cancellative):
            return self._cancellative_hit(mask, parts)
        grown = self.pairs | parts
        if grown == self.pairs:
            return False
        hit = self._verdicts.get(grown)
        if hit is None:
            hit = self._verdicts[grown] = self._expansion_hit(grown)
        return hit

    def _cancellative_hit(self, t: int, subs: tuple) -> bool:
        # t as the containing edge C: a stored pair's xor is an even-size
        # sub-mask of t.
        xors = self.xors
        for sub in subs:
            if sub in xors:
                return True
        # t as a member of the pair (t, b): t ^ b inside some stored edge,
        # which cannot be b itself since t != b have the same size.
        inside = self.inside
        for b in self.masks:
            if t ^ b in inside:
                return True
        return False

    def _expansion_hit(self, grown: int) -> bool:
        # The stack is free, so a new (ell+1)-clique must use a new pair.
        n = self.n
        row = (1 << n) - 1
        adj = [grown >> (u * n) & row for u in range(n)]
        size = self.family.ell + 1
        new = grown & ~self.pairs
        while new:
            u, v = divmod((new & -new).bit_length() - 1, n)
            new &= new - 1
            if u < v and any(cliques(adj, (u, v), adj[u] & adj[v], size)):
                return True
        return False

    def push(self, mask: int) -> None:
        parts = self._parts_of(mask)
        if isinstance(self.family, Expansion):
            self._saved.append(self.pairs)
            self.pairs |= parts
        else:
            xors, inside = self.xors, self.inside
            for b in self.masks:
                x = mask ^ b
                xors[x] = xors.get(x, 0) + 1
            for sub in parts:
                inside[sub] = inside.get(sub, 0) + 1
        self.masks.append(mask)

    def pop(self) -> None:
        mask = self.masks.pop()
        if isinstance(self.family, Expansion):
            self.pairs = self._saved.pop()
        else:
            xors, inside = self.xors, self.inside
            for b in self.masks:
                _discount(xors, mask ^ b)
            for sub in self._parts[mask]:
                _discount(inside, sub)


def _discount(counts: dict[int, int], key: int) -> None:
    if counts[key] == 1:
        del counts[key]
    else:
        counts[key] -= 1
