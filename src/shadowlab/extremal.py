"""Exhaustive enumeration of small free hypergraphs, canonical forms, exact
extremal numbers, and bound sweeps.

Two engines exist on purpose: the naive engine walks every labeled edge
subset (with monotone freeness pruning) and acts as the trusted oracle; the
orderly engine builds isomorphism classes level by level by canonical
augmentation, trying one child edge per orbit of the parent's automorphism
group and testing it on the parent's `IncrementalFreeChecker` as the
labeled walk and the sampler test each new edge. A child edge takes the
least of the parent's isolated vertices, which the automorphisms fix, and
a free child is kept only when its new edge is in the orbit of its
canonical deletion. Certificates, labellings, canonical forms and
automorphisms come from an in-house
individualization-refinement search with automorphism pruning, so they
stay self-contained and testable.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .bounds import at_least, shadow_bound
from .errors import ParameterError, ResourceBudgetError
from .forbidden import Cancellative, Expansion, Family, IncrementalFreeChecker
from .hypercore import Hypergraph, mask_to_tuple

WALK_NODE_BUDGET = 2 ** 24       # edge sets one labelled walk may visit
ORDERLY_NODE_BUDGET = 10 ** 6    # candidate edges one orderly run may scan
CANONICAL_NODE_BUDGET = 100_000  # search-tree nodes one canonical search may visit


@dataclass(frozen=True)
class EnumerationStats:
    engine: str
    visited: int
    max_edges: int
    counts_by_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    r: int
    family: str
    max_edges: int
    extremal_forms: tuple[bytes, ...]
    count_searched: int
    unique: bool
    example: Optional[Hypergraph] = field(default=None, compare=False)


@dataclass(frozen=True)
class SweepReport:
    n: int
    r: int
    family: str
    bound_kind: str
    visited: int
    violations: tuple[tuple[tuple[int, ...], ...], ...]
    min_slack: float
    argmin_edges: tuple[tuple[int, ...], ...]
    enumeration: EnumerationStats  # the walk's, as the naive engine counts it


def _refine(colours: list[int], cells: int, goal: int, edges, incidence, weight) -> int:
    """Refine an ordered partition in place until no cell splits, and return
    its cell count. `colours[v]` is the position where v's cell starts. A
    vertex's new key is its colour and the sorted codes of its edges, an
    edge's code being the multiset of its colours written in base r + 1
    (`weight[c]` is the digit of colour c). Keys sort colour first, so cells
    only split and keep their order. Stops without a confirming pass once
    `goal` cells are reached: every non-isolated vertex is a singleton."""
    while cells < goal:
        digit = [weight[c] for c in colours]
        code = [sum(map(digit.__getitem__, e)) for e in edges]
        split = _cells_by_key(colours, [
            (c, sorted(map(code.__getitem__, i))) for c, i in zip(colours, incidence)
        ])
        if split == cells:
            break
        cells = split
    return cells


def _cells_by_key(colours: list[int], keys: list) -> int:
    """Set each colour to the position where its vertex's cell starts when
    the vertices are sorted by key, and return the number of cells."""
    cells = 0
    prev = None
    for i, v in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        if keys[v] != prev:
            prev = keys[v]
            start = i
            cells += 1
        colours[v] = start
    return cells


def canonical_form(h: Hypergraph) -> bytes:
    """A canonical byte string per isomorphism class: the least certificate
    of the search `canonical_search` runs, decoded to the sorted list of its
    edges."""
    return _encode(h.r, h.n, _least_leaf(h)[0])


def _encode(r: int, n: int, certificate: tuple[int, ...]) -> bytes:
    least = sorted(mask_to_tuple(m) for m in certificate)
    payload = ";".join(",".join(map(str, e)) for e in least)
    return f"{r}/{n}:{payload}".encode()


def canonical_search(h: Hypergraph) -> tuple[tuple[int, ...], list[list[int]], list[int]]:
    """The certificate of h, the automorphisms the search found, and its
    least leaf's labelling (vertex v to `labelling[v]`; empty when h has no
    edge), which maps h's edges onto the certificate. Graphs on the same n
    and r are isomorphic exactly when their certificates are equal. Each
    automorphism fixes every isolated vertex; with the symmetric group on
    those they generate Aut(h), and alone they give its edge orbits."""
    return _least_leaf(h)


def _least_leaf(h: Hypergraph) -> tuple[tuple[int, ...], list[list[int]], list[int]]:
    """The least certificate of an individualization-refinement search
    (McKay and Piperno, "Practical graph isomorphism, II", 2014), the
    automorphisms it found and the least leaf's labelling.

    Each node refines its partition, then individualizes in turn each vertex
    of the first non-singleton cell of non-isolated vertices. Isolated
    vertices form one cell and are never branched on. A leaf relabels each
    vertex by its position; its certificate is the sorted tuple of its
    edges' bitmasks, and the least certificate wins. Two leaves with equal
    certificates give an automorphism: the search returns to the two leaves'
    common ancestor, and a node skips each child in the orbit of an explored
    child under the automorphisms found so far that fix the node's prefix.
    More than `CANONICAL_NODE_BUDGET` nodes raise `ResourceBudgetError`, as
    does a path deeper than Python's recursion limit."""
    n, edges = h.n, h.edges
    automorphisms: list[list[int]] = []
    if not edges:  # one leaf, whatever n is
        return (), automorphisms, []
    weight = [(h.r + 1) ** c for c in range(n)]
    incidence = h.incidence
    isolated = sum(not i for i in incidence)
    goal = n - isolated + (isolated > 0)  # cells of a leaf
    leaves: list[tuple] = []  # the first leaf and the least: (certificate, colours, path)
    nodes = 0

    def visit(colours: list[int], cells: int, path: tuple[int, ...]) -> Optional[int]:
        """Search below a node. Returns None, or the depth of the ancestor
        whose current child an automorphism has shown to be redundant."""
        nonlocal nodes
        nodes += 1
        if nodes > CANONICAL_NODE_BUDGET:
            raise ResourceBudgetError.nodes("canonical_form", CANONICAL_NODE_BUDGET)
        cells = _refine(colours, cells, goal, edges, incidence, weight)
        if cells == goal:
            bit = [1 << c for c in colours]
            cert = tuple(sorted([sum(map(bit.__getitem__, e)) for e in edges]))
            for seen in leaves:
                if cert == seen[0]:
                    at = {p: v for v, p in enumerate(seen[1])}
                    automorphisms.append(
                        [at[colours[v]] if incidence[v] else v for v in range(n)]
                    )
                    depth = 0
                    while path[depth] == seen[2][depth]:
                        depth += 1
                    return depth
            if not leaves:
                leaves.append((cert, colours, path))
            elif cert < leaves[-1][0]:
                leaves[1:] = [(cert, colours, path)]
            return None
        cell = _target_cell(colours, incidence)
        start = colours[cell[0]]
        depth = len(path)
        root = {w: w for w in cell}  # orbits under the automorphisms fixing `path`
        explored: set[int] = set()  # roots of the orbits of explored children
        checked = 0
        for w in cell:
            if explored:
                for g in automorphisms[checked:]:
                    if all(g[s] == s for s in path):
                        for u in cell:
                            a, b = _find(root, u), _find(root, g[u])
                            if a in explored:
                                a, b = b, a
                            root[a] = b  # an explored root stays a root
                checked = len(automorphisms)
                if _find(root, w) in explored:
                    continue
            explored.add(_find(root, w))
            child = colours.copy()
            for u in cell:
                if u != w:
                    child[u] = start + 1
            jump = visit(child, cells + 1, path + (w,))
            if jump is not None and jump < depth:
                return jump
        return None

    colours = [0] * n
    try:
        visit(colours, _cells_by_key(colours, list(map(len, incidence))), ())
    except RecursionError:  # one level per individualized vertex
        raise ResourceBudgetError(
            f"canonical_form search deeper than the recursion limit ({nodes} nodes)",
            partial={"nodes": nodes},
        ) from None
    return leaves[-1][0], automorphisms, leaves[-1][1]


def _target_cell(colours: list[int], incidence) -> list[int]:
    """The vertices of the first cell with two or more non-isolated vertices,
    in ascending order."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        if incidence[v]:
            cells.setdefault(c, []).append(v)
    return min((c for c in cells.values() if len(c) > 1), key=lambda c: colours[c[0]])


def _find(root: dict[int, int], v: int) -> int:
    """The root of v's set in a union-find, halving the path on the way."""
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


def are_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if a.r != b.r or a.n != b.n or len(a) != len(b):
        return False
    return _least_leaf(a)[0] == _least_leaf(b)[0]


def permutation_isomorphism_oracle(a: Hypergraph, b: Hypergraph) -> bool:
    """Brute-force isomorphism test over all vertex permutations."""
    if a.r != b.r or a.n != b.n or len(a) != len(b):
        return False
    target = set(a.edges)
    for perm in itertools.permutations(range(b.n)):
        if {tuple(sorted(perm[v] for v in e)) for e in b.edges} == target:
            return True
    return False


def _candidates(n: int, r: int) -> list[tuple[tuple[int, ...], int]]:
    """The r-subsets of range(n) in lexicographic order, with bitmasks."""
    return [(e, sum(1 << v for v in e)) for e in itertools.combinations(range(n), r)]


def _walk_candidates(n: int, r: int) -> list[tuple[tuple[int, ...], int]]:
    """The labelled walk's candidates. Raises `ResourceBudgetError` before
    listing them when the walk is sure to pass its budget, or when the list
    would hold more vertices, r * c, than the budget has nodes. A set of at
    most two edges is free of each family (a cancellative triple has three
    edges; an expansion core of ell + 1 > r vertices lies in neither edge,
    so it holds a vertex of each that is not in the other, an uncovered
    pair), so the walk visits at least 1 + c + C(c, 2) sets."""
    c = math.comb(n, r)
    if max(1 + c + math.comb(c, 2), r * c) > WALK_NODE_BUDGET:
        raise ResourceBudgetError.nodes("labelled walk", WALK_NODE_BUDGET)
    return _candidates(n, r)


def _check_shape(n: int, r: int) -> None:
    if n < 0 or r < 1:
        raise ParameterError(f"need n >= 0 and r >= 1, got n={n}, r={r}")


def enumerate_free(
    n: int,
    r: int,
    family: Optional[Family],
    engine: str = "naive",
) -> EnumerationStats:
    """Count every family-free r-graph on n vertices by edge count.

    The naive engine visits each labeled graph once; the orderly engine
    visits one canonical representative per isomorphism class. Any n is
    tried: each engine raises `ResourceBudgetError` past its node budget.
    """
    _check_shape(n, r)
    if engine == "naive":
        graphs = _iter_free_edge_sets(n, r, family)
    elif engine == "orderly":
        graphs = enumerate_free_classes(n, r, family)
    else:
        raise ParameterError(f"unknown engine {engine!r}")
    return _stats(engine, Counter(map(len, graphs)))


def _stats(engine: str, counts: dict[int, int]) -> EnumerationStats:
    return EnumerationStats(
        engine,
        sum(counts.values()),
        max(counts) if counts else 0,
        tuple(sorted(counts.items())),
    )


def _iter_free_edge_sets(
    n: int, r: int, family: Optional[Family]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Labeled DFS: extend by candidate edges of larger index only, prune on
    violation (freeness is monotone under edge removal). Yields every free
    edge set once, in preorder, so each set but the empty one is an earlier
    set plus its last edge. Raises `ResourceBudgetError` rather than visit
    more than `WALK_NODE_BUDGET` sets."""
    candidates = _walk_candidates(n, r)
    masks = [m for _, m in candidates]
    total = len(candidates)
    checker = IncrementalFreeChecker(n, r, family) if family is not None else None
    edges: list[tuple[int, ...]] = []
    picked: list[int] = []  # candidate index of each edge in `edges`
    t = 0  # next candidate to try at the current depth
    nodes = 1
    yield ()
    while True:
        if checker is not None:
            while t < total and checker.would_violate(masks[t]):
                t += 1
        if t < total:
            if checker is not None:
                checker.push(masks[t])
            edges.append(candidates[t][0])
            picked.append(t)
            nodes += 1
            if nodes > WALK_NODE_BUDGET:
                raise ResourceBudgetError.nodes("labelled walk", WALK_NODE_BUDGET)
            yield tuple(edges)
            t += 1
        elif picked:
            t = picked.pop()
            edges.pop()
            if checker is not None:
                checker.pop()
            t += 1
        else:
            return


def enumerate_free_classes(
    n: int, r: int, family: Optional[Family]
) -> list[Hypergraph]:
    """Isomorph-free enumeration by canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", 1998). A child of a class
    representative P is P + e for a candidate edge e. Candidates in one
    orbit of Aut(P) give isomorphic children, so P tries only the least of
    each orbit; Aut(P) is the search's automorphisms, which fix the isolated
    vertices, times their symmetric group, so that least candidate holds
    P's least isolated vertices. A free child C is kept only when e lies in
    the orbit of its canonical deletion m(C), so each class is kept once, as
    a child of the class of C - m(C). An edge's key is the sorted degrees of
    its vertices in C, and m(C) is the top-key edge that the least leaf of
    C's search labels least; a child whose e is not top-key is dropped
    before any search. Each level is sorted on its forms: the order is edge
    count, then canonical key. The representatives are the children kept,
    not the first child of each class in scan order. Raises
    `ResourceBudgetError` rather than scan more than `ORDERLY_NODE_BUDGET`
    candidate edges, C(n, r) per class."""
    _check_shape(n, r)
    # Refuse before listing the candidates when the scans sure to come, or
    # the r * c vertices of the list, pass the budget. k disjoint edges are
    # free of each family: two of them differ in 2r vertices, and a core
    # whose pairs they all cover lies in one edge, which cannot hold its
    # ell + 1 > r vertices. So the class of k disjoint edges is a parent for
    # each k <= n // r.
    c = math.comb(n, r)
    if max(n // r + 1, r) * c > ORDERLY_NODE_BUDGET:
        raise ResourceBudgetError.nodes("orderly engine", ORDERLY_NODE_BUDGET)
    candidates = _candidates(n, r)
    vertices = {m: e for e, m in candidates}
    nodes = 0
    empty = Hypergraph(r, n, ())
    out = [empty]
    level = [(b"", empty, [])]
    checker = IncrementalFreeChecker(n, r, family) if family is not None else None
    while level:
        next_level: list[tuple[bytes, Hypergraph, list[list[int]]]] = []
        for _, rep, generators in level:
            nodes += c
            if nodes > ORDERLY_NODE_BUDGET:
                raise ResourceBudgetError.nodes("orderly engine", ORDERLY_NODE_BUDGET)
            seen = set(rep.edge_masks)  # edges, and candidates of tried orbits
            iso = sum(1 << v for v, i in enumerate(rep.incidence) if not i)
            if checker is not None:  # each prefix of a free parent is free
                for m in rep.edge_masks:
                    checker.push(m)
            for e, m in candidates:
                if m in seen or (k := m & iso) != iso & ((1 << k.bit_length()) - 1):
                    continue  # a tried orbit, or a lesser isolated vertex left out
                seen |= _edge_orbit(m, generators, vertices)  # m is its orbit's least
                if checker is not None and checker.would_violate(m):
                    continue
                degree = [d + (m >> v & 1) for v, d in enumerate(rep.degrees)]  # in the child
                key = sorted(map(degree.__getitem__, e))
                if any(sorted(map(degree.__getitem__, f)) > key for f in rep.edges):
                    continue  # e is not top-key, so not the canonical deletion
                child = Hypergraph(r, n, tuple(sorted(rep.edges + (e,))))
                certificate, child_generators, labelling = canonical_search(child)
                deletion = min(
                    (x for x in child.edge_masks
                     if sorted(map(degree.__getitem__, vertices[x])) == key),
                    key=lambda x: sum(1 << labelling[v] for v in vertices[x]),
                )
                if m in _edge_orbit(deletion, child_generators, vertices):
                    next_level.append((_encode(r, n, certificate), child, child_generators))
            if checker is not None:
                for _ in rep.edge_masks:
                    checker.pop()
        next_level.sort(key=lambda accepted: accepted[0])
        out.extend(child for _, child, _ in next_level)
        level = next_level
    return out


def _edge_orbit(m: int, generators: list[list[int]], vertices: dict) -> set[int]:
    """The bitmasks of the orbit of edge m under the group the generators
    generate; `vertices` maps each bitmask to its vertices."""
    orbit = {m}
    walk = [m]
    for x in walk:
        for g in generators:
            y = sum(1 << g[v] for v in vertices[x])
            if y not in orbit:
                orbit.add(y)
                walk.append(y)
    return orbit


def extremal_search(n: int, r: int, family: Family) -> ExtremalResult:
    """Exact extremal number with all extremal isomorphism classes."""
    _check_shape(n, r)
    best = 0
    best_sets: list[tuple[tuple[int, ...], ...]] = []
    for visited, edges in enumerate(_iter_free_edge_sets(n, r, family), 1):
        if len(edges) > best:
            best = len(edges)
            best_sets = [edges]
        elif len(edges) == best:
            best_sets.append(edges)
    forms: dict[bytes, Hypergraph] = {}
    for edges in best_sets:
        h = Hypergraph(r, n, edges)
        forms.setdefault(canonical_form(h), h)
    keys = tuple(sorted(forms))
    return ExtremalResult(
        n, r, str(family), best, keys, visited, len(keys) == 1,
        forms[keys[0]] if keys else None,
    )


# The sweep's bound names: Theorem 1 is Kruskal-Katona for every r-graph,
# Theorem 3 the cancellative bound, Theorem 6 the clique-expansion bound.
_SWEEP_BOUNDS: dict[str, Callable[[Optional[int]], Optional[Family]]] = {
    "thm1": lambda ell: None,
    "thm3": lambda ell: Cancellative(),
    "thm6": lambda ell: Expansion(ell),
}


def verify_bound_over_enumeration(
    n: int,
    r: int,
    family: Optional[Family],
    bound_kind: str,
    ell: Optional[int] = None,
) -> SweepReport:
    """Evaluate the named bound on every family-free graph; report the worst
    slack and any violations (expected none). The walk is the naive
    engine's, so the report also carries its enumeration stats. A shadow is
    one int with a bit per (r-1)-set, and its size is its bit count.
    `shadows[k]` is the shadow of the current set's first k edges: the walk
    yields each set right after its prefix, so a visit truncates the list to
    its prefix and ORs in the last edge's bits."""
    _check_shape(n, r)
    if bound_kind not in _SWEEP_BOUNDS:
        raise ParameterError(f"unknown bound kind {bound_kind!r}")
    if bound_kind == "thm6" and ell is None:
        raise ParameterError("thm6 sweep needs ell")
    bound_family = _SWEEP_BOUNDS[bound_kind](ell)
    candidates = _walk_candidates(n, r)
    if (r - 1) * math.comb(n, r - 1) > WALK_NODE_BUDGET:  # `ids` holds these vertices
        raise ResourceBudgetError.nodes("labelled walk", WALK_NODE_BUDGET)
    ids = {s: i for i, s in enumerate(itertools.combinations(range(n), r - 1))}
    shadow_bits = {
        e: sum(1 << ids[s] for s in itertools.combinations(e, r - 1))
        for e, _ in candidates
    }

    bound_cache: dict[int, float] = {}

    def bound_for(s: int) -> float:
        if s not in bound_cache:
            bound_cache[s] = shadow_bound(bound_family, s, r)[1]
        return bound_cache[s]

    shadows = [0]
    counts = [0] * (len(shadow_bits) + 1)  # counts[m] = visits with m edges
    violations: list[tuple[tuple[int, ...], ...]] = []
    min_slack = math.inf
    argmin: tuple[tuple[int, ...], ...] = ()
    for edges in _iter_free_edge_sets(n, r, family):
        m = len(edges)
        counts[m] += 1
        if not m:
            continue
        del shadows[m:]
        shadows.append(shadows[-1] | shadow_bits[edges[-1]])
        slack = bound_for(shadows[m].bit_count()) - m
        if not at_least(slack, 0.0):
            violations.append(edges)
        if slack < min_slack:
            min_slack = slack
            argmin = edges
    stats = _stats("naive", {m: c for m, c in enumerate(counts) if c})
    return SweepReport(
        n, r, str(family) if family is not None else "none", bound_kind,
        stats.visited, tuple(violations), min_slack, argmin, stats,
    )


def random_free_graph(
    n: int,
    r: int,
    family: Family,
    seed: int,
    target_edges: Optional[int] = None,
) -> Hypergraph:
    """Seeded rejection sampler: walk a shuffled candidate list, keeping each
    edge that preserves freeness, until target_edges edges are placed."""
    _check_shape(n, r)
    rng = random.Random(seed)
    candidates = _candidates(n, r)
    rng.shuffle(candidates)
    if target_edges is None:
        target_edges = len(candidates)
    checker = IncrementalFreeChecker(n, r, family)
    kept: list[tuple[int, ...]] = []
    for e, m in candidates:
        if len(kept) >= target_edges:
            break
        if not checker.would_violate(m):
            checker.push(m)
            kept.append(e)
    return Hypergraph(r, n, tuple(sorted(kept)))
