"""Uniform hypergraphs and their shadow/link/degree/clique primitives.

Vertices are dense integers 0..n-1 so isolated vertices are representable.
A vertex set argument is any iterable of ints. Edges, and the 2-covered sets
that `cliques` lists, are sorted tuples; edges are stored in lexicographic
order, which makes equal hypergraphs serialize identically.
Bitmask forms of the edges are cached for the hot set-algebra paths
(Python ints give exact fixed-width behaviour for any n), and so is the
first shadow, computed once per instance by a kernel that walks the edges
by prefix runs and so needs them in lexicographic order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, count, islice, repeat
from operator import ge, itemgetter, lt, ne, not_
from typing import Iterable, Iterator, Sequence

from .errors import EdgeError, EmptyInputError, ParameterError, ResourceBudgetError

Z_VALUE_NODE_BUDGET = 10 ** 6  # cliques one z_value may visit


def _mask(edge: Iterable[int]) -> int:
    m = 0
    for v in edge:
        m |= 1 << v
    return m


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _first(flags: Iterable[bool], end: int) -> int:
    """The index of the first true flag before `end`, or `end` if none is."""
    at = bytes(flags).find(1, 0, end)
    return end if at < 0 else at


def _shadow_edges(
    edges: Sequence[tuple[int, ...]], r: int, n: int
) -> tuple[tuple[int, ...], ...]:
    """The (r-1)-subsets of the lexicographically sorted r-tuples `edges`
    with vertices below n, sorted, for r >= 2.

    With k = r - 2, a subset that drops one of an edge's first k vertices is
    collected once per dropped position. The subsets that keep the k-prefix P
    are P + (z,), z a last-two vertex of an edge with prefix P; those edges
    are one contiguous run, found by bisection against P + (n,), so each run
    adds one tuple per distinct z, and extra memory is O(longest run).
    """
    k = r - 2
    out: set[tuple[int, ...]] = set()
    for j in range(k):
        out.update(map(itemgetter(*range(j), *range(j + 1, r)), edges))
    next_to_last, last = itemgetter(k), itemgetter(k + 1)
    start, end = 0, len(edges)
    while start < end:
        prefix = edges[start][:k]
        stop = bisect_left(edges, prefix + (n,), start)
        run = edges[start:stop]
        z = set(map(next_to_last, run))
        z.update(map(last, run))
        out.update(map(prefix.__add__, zip(z)))
        start = stop
    return tuple(sorted(out))


def _columns(edges: Sequence[tuple[int, ...]], r: int) -> list[list[int]]:
    """The vertex columns of a list of r-tuples: columns[i][j] = edges[j][i].
    An empty list has none, so a huge r from outside allocates nothing."""
    flat = list(chain.from_iterable(edges))
    return [flat[i::r] for i in range(r)] if flat else []


def _ints(values: Iterable) -> bool:
    """Whether the values sum to an int: a float, a string, None or another
    number type among them makes the sum leave the int type or raise."""
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


def _increasing(columns: list[list[int]]) -> bool:
    """Whether the vertices of every edge strictly increase, by columns."""
    return all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertex set {0..n-1}.

    Invariants: every edge has exactly r distinct vertices below n,
    there are no duplicate edges, and `edges` is sorted lexicographically.
    Instances are immutable; all operations on them are pure functions.

    The constructor is the trusted path: it checks nothing, so only code
    that already guarantees the invariants calls it. The constructors in
    `constructions` whose edges are valid by construction do, and a test
    checks each of them against `build`.

    `build` is the one validator of an edge list from outside. Each edge
    must have r vertices (arity), int vertices (type; a bool is an int, so
    True and False are vertices 1 and 0), no repeated vertex, every vertex
    in 0..n-1 (range), and must not equal an earlier edge (duplicate). The
    rules are checked in that order, each over the whole list at once; a
    rule looks only at the edges before the first fault found so far, so
    the `EdgeError` raised names the first bad edge, by its index, and the
    first rule that edge breaks, as an edge-by-edge walk would.
    `cli.parse` maps that index back to a line of the document.
    """

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(r: int, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        if r < 1:
            raise ParameterError(f"uniformity must be >= 1, got {r}")
        if n < 0:
            raise ParameterError(f"vertex count must be >= 0, got {n}")
        edges = list(map(tuple, edges))
        end, error = len(edges), None
        # Each rule is tested on the whole list first, and only a rule that
        # fails looks for its first bad edge among those before `end`.
        lengths = list(map(len, edges))
        if lengths.count(r) < end:
            end = _first(map(ne, lengths, repeat(r)), end)
            error = f"expected {r} vertices, got {lengths[end]}"
            del edges[end:]
        columns = _columns(edges, r)
        if not _ints(map(sum, columns)):
            end = _first(map(not_, map(_ints, edges)), end)
            error = f"non-integer vertex in edge {edges[end]}"
            del edges[end:]
            columns = _columns(edges, r)
        if not _increasing(columns):
            edges = list(map(tuple, map(sorted, edges)))
            columns = _columns(edges, r)
            if not _increasing(columns):
                end = min(_first(map(ge, a, b), end) for a, b in zip(columns, columns[1:]))
                error = f"repeated vertex in edge {edges[end]}"
        if edges and (min(columns[0]) < 0 or max(columns[-1]) >= n):
            at = min(_first(map(lt, columns[0], repeat(0)), end),
                     _first(map(ge, columns[-1], repeat(n)), end))
            if at < end:
                t = edges[at]
                end, error = at, f"vertex {t[0] if t[0] < 0 else t[-1]} outside 0..{n - 1}"
        del edges[end:]
        ordered = all(map(lt, edges, islice(edges, 1, None)))
        if not ordered and len(set(edges)) < end:
            # setdefault hands back an edge's first index, so only a repeat
            # of an earlier edge gets an index other than its own.
            end = bytes(map(ne, map({}.setdefault, edges, count()), count())).find(1)
            error = f"duplicate edge {edges[end]}"
        if error is not None:
            raise EdgeError(end, error)
        return Hypergraph(r, n, tuple(edges) if ordered else tuple(sorted(edges)))

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(_mask(e) for e in self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return tuple(d)

    @cached_property
    def first_shadow(self) -> "Hypergraph":
        """The (r-1)-graph of all (r-1)-sets inside some edge, for r >= 2."""
        if self.r < 2:
            raise ParameterError(f"shadows need r >= 2, got r={self.r}")
        return Hypergraph(self.r - 1, self.n, _shadow_edges(self.edges, self.r, self.n))

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """incidence[v] = indices of the edges containing v, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(map(tuple, inc))

    @cached_property
    def pair_adjacency(self) -> tuple[int, ...]:
        """adjacency[u] = bitmask of vertices sharing an edge with u."""
        adj = [0] * self.n
        for e, m in zip(self.edges, self.edge_masks):
            for v in e:
                adj[v] |= m & ~(1 << v)
        return tuple(adj)

    def induced(self, vertices: Iterable[int]) -> "Hypergraph":
        """Subgraph on the given vertices, keeping the original labels and n."""
        keep = _mask(vertices)
        kept = [e for e, m in zip(self.edges, self.edge_masks) if m & ~keep == 0]
        return Hypergraph(self.r, self.n, tuple(kept))


@dataclass(frozen=True)
class SigmaStats:
    """Per-vertex degrees plus the maximum degree sum over edges."""

    degrees: tuple[int, ...]
    sigma_hat: int
    argmax_edge: tuple[int, ...]


@dataclass(frozen=True)
class ZValue:
    """The largest z with sigma(R) <= (l-r+1)|shadow| - (l-|R|) z for all
    cliques R of size <= l-1, stored exactly as a rational."""

    z: Fraction
    witness: tuple[int, ...]
    ell: int
    clamped: bool = field(default=False)


def shadow_i(h: Hypergraph, i: int) -> Hypergraph:
    """The i-th shadow: all (r-i)-sets contained in some edge.

    It is the first shadow taken i times (the shadow of the (i-1)-th
    shadow), each read from the instance's cached `first_shadow`, so a
    graph's shadows are computed once however often they are asked for.
    """
    if h.r < 2:
        raise ParameterError(f"shadows need r >= 2, got r={h.r}")
    if not 1 <= i <= h.r - 1:
        raise ParameterError(f"shadow index must be in 1..{h.r - 1}, got {i}")
    for _ in range(i):
        h = h.first_shadow
    return h


def shadow(h: Hypergraph) -> Hypergraph:
    return shadow_i(h, 1)


def link(h: Hypergraph, v: int) -> Hypergraph:
    """The (r-1)-graph { A : A + v in H }, on the same ground set."""
    if not 0 <= v < h.n:
        raise ParameterError(f"vertex {v} outside 0..{h.n - 1}")
    kept = tuple(
        tuple(u for u in e if u != v) for e in h.edges if v in e
    )
    return Hypergraph(h.r - 1, h.n, kept)


def sigma(h: Hypergraph, s: Iterable[int]) -> int:
    """Degree sum over S."""
    return sum(h.degrees[v] for v in s)


def sigma_hat(h: Hypergraph) -> SigmaStats:
    """Degrees, the maximum edge degree sum, and its lexicographically
    smallest attaining edge."""
    if not h.edges:
        raise EmptyInputError("sigma_hat needs a nonempty hypergraph")
    best = max(sigma(h, e) for e in h.edges)
    arg = next(e for e in h.edges if sigma(h, e) == best)
    return SigmaStats(h.degrees, best, arg)


def is_two_covered(h: Hypergraph, s: Iterable[int]) -> bool:
    """True iff every pair of S lies in a common edge (vacuous for |S|<=1)."""
    sv = sorted(set(s))
    adj = h.pair_adjacency
    return all(adj[u] >> v & 1 for u, v in combinations(sv, 2))


def cliques(
    adj: Sequence[int], clique: tuple[int, ...], cand: int, size: int
) -> Iterator[tuple[int, ...]]:
    """The cliques of `size` vertices grown from `clique` by vertices of the
    bitmask `cand`, each new vertex above the last, in the graph whose
    adjacency bitmasks are `adj`, in lexicographic order. Needs
    size > len(clique). A branch stops once fewer candidates are left than
    vertices are still needed.

    The one clique walk: the 2-covered k-sets of H are
    `cliques(h.pair_adjacency, (), (1 << h.n) - 1, k)`, and the k-cliques
    through an edge uv are `cliques(adj, (u, v), adj[u] & adj[v], k)`,
    each as (u, v) followed by its other vertices in increasing order."""
    need = size - len(clique)
    c = cand
    while c.bit_count() >= need:
        v = (c & -c).bit_length() - 1
        c &= c - 1
        if need == 1:
            yield clique + (v,)
        else:
            yield from cliques(adj, clique + (v,), c & adj[v], size)


def z_value(h: Hypergraph, ell: int) -> ZValue:
    """Largest z >= 0 with sigma(R) <= (l-r+1)|shadow| - (l-|R|) z for every
    nonempty 2-covered R of size <= l-1, as an exact rational.

    The witness is the binding clique, ties broken by (size, lexicographic).
    The empty set is excluded from the minimization. The cliques are walked
    one at a time, none kept, size by size up to the first size with none,
    and a walk past Z_VALUE_NODE_BUDGET cliques raises `ResourceBudgetError`.
    Each clique's ratio stays the integer pair ((l-r+1)|shadow| - sigma(R),
    l-|R|), and pairs are compared by cross-multiplication: every
    denominator is at least 1, so the order is the ratios' own. One exact
    `Fraction` is built from the least pair at the end. ell must be at least
    r and at least 2, so that some clique has size <= ell - 1.
    """
    if ell < h.r:
        raise ParameterError(f"ell must be >= r={h.r}, got {ell}")
    if ell < 2:
        raise ParameterError(f"ell must be >= 2, got {ell}")
    if not h.edges:
        raise EmptyInputError("z_value needs a nonempty hypergraph")
    shadow_size = len(shadow(h)) if h.r >= 2 else len(h)
    budget = (ell - h.r + 1) * shadow_size
    best: int | None = None   # the least ratio is best / best_den
    best_den = 1
    witness: tuple[int, ...] = ()
    adj, full = h.pair_adjacency, (1 << h.n) - 1
    visited = 0
    for k in range(1, min(ell - 1, h.n) + 1):
        before = visited
        den = ell - k
        for r_set in cliques(adj, (), full, k):
            visited += 1
            if visited > Z_VALUE_NODE_BUDGET:
                raise ResourceBudgetError.nodes("z_value", Z_VALUE_NODE_BUDGET)
            num = budget - sigma(h, r_set)
            if best is None or num * best_den < best * den:
                best, best_den, witness = num, den, r_set
        if visited == before:
            break  # no clique of size k, so none larger
    if best is None:
        raise RuntimeError(f"no nonempty 2-covered set of size <= {ell - 1}")
    if best < 0:
        return ZValue(Fraction(0), witness, ell, clamped=True)
    return ZValue(Fraction(best, best_den), witness, ell)
