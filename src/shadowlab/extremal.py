"""Exhaustive enumeration of small free hypergraphs, canonical forms, exact
extremal numbers, and bound sweeps.

Two engines exist on purpose: the naive engine walks every labeled edge
subset (with monotone freeness pruning) and acts as the trusted oracle; the
orderly engine builds isomorphism classes level by level through canonical
deduplication, testing each child edge on its parent's
`IncrementalFreeChecker` as the labeled walk and the sampler test each new
edge. Canonical forms come from an in-house individualization-refinement
search with automorphism pruning, so they stay self-contained and testable.
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

NAIVE_EDGE_BUDGET = 24      # naive engine requires C(n, r) <= this
ORDERLY_VERTEX_BUDGET = 8   # orderly engine requires n <= this
CANONICAL_NODE_BUDGET = 100_000  # search-tree nodes one canonical_form may visit


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
    """A canonical byte string per isomorphism class: the relabeled, sorted
    edge list of the least leaf of an individualization-refinement search
    (McKay and Piperno, "Practical graph isomorphism, II", 2014).

    Each node refines its partition, then individualizes in turn each vertex
    of the first non-singleton cell of non-isolated vertices. Isolated
    vertices form one cell and are never branched on. A leaf relabels each
    vertex by its position; its certificate is the sorted list of its edges'
    bitmasks, and the least certificate wins. Two leaves with equal
    certificates give an automorphism: the search returns to the two leaves'
    common ancestor, and a node skips each child in the orbit of an explored
    child under the automorphisms found so far that fix the node's prefix.
    More than `CANONICAL_NODE_BUDGET` nodes raise `ResourceBudgetError`."""
    n, edges = h.n, h.edges
    weight = [(h.r + 1) ** c for c in range(n)]
    incidence = h.incidence
    isolated = sum(not i for i in incidence)
    goal = n - isolated + (isolated > 0)  # cells of a leaf
    automorphisms: list[list[int]] = []
    leaves: list[tuple] = []  # the first leaf and the least: (certificate, colours, path)
    nodes = 0

    def visit(colours: list[int], cells: int, path: tuple[int, ...]) -> Optional[int]:
        """Search below a node. Returns None, or the depth of the ancestor
        whose current child an automorphism has shown to be redundant."""
        nonlocal nodes
        nodes += 1
        if nodes > CANONICAL_NODE_BUDGET:
            raise ResourceBudgetError(
                f"canonical_form node budget exceeded ({CANONICAL_NODE_BUDGET} nodes)",
                partial={"nodes": CANONICAL_NODE_BUDGET},
            )
        cells = _refine(colours, cells, goal, edges, incidence, weight)
        if cells == goal:
            bit = [1 << c for c in colours]
            cert = sorted([sum(map(bit.__getitem__, e)) for e in edges])
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
        explored: list[int] = []
        fixing: list[list[int]] = []  # the automorphisms that fix `path`
        checked = 0
        for w in cell:
            if explored:
                fixing.extend(g for g in automorphisms[checked:]
                              if all(g[s] == s for s in path))
                checked = len(automorphisms)
                if _in_orbit(w, explored, fixing):
                    continue
            explored.append(w)
            child = colours.copy()
            for u in cell:
                if u != w:
                    child[u] = start + 1
            jump = visit(child, cells + 1, path + (w,))
            if jump is not None and jump < depth:
                return jump
        return None

    colours = [0] * n
    visit(colours, _cells_by_key(colours, list(map(len, incidence))), ())
    least = sorted(mask_to_tuple(m) for m in leaves[-1][0])
    payload = ";".join(",".join(map(str, e)) for e in least)
    return f"{h.r}/{h.n}:{payload}".encode()


def _target_cell(colours: list[int], incidence) -> list[int]:
    """The vertices of the first cell with two or more non-isolated vertices,
    in ascending order."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        if incidence[v]:
            cells.setdefault(c, []).append(v)
    return min((c for c in cells.values() if len(c) > 1), key=lambda c: colours[c[0]])


def _in_orbit(w: int, explored: list[int], generators: list[list[int]]) -> bool:
    """Whether w lies in the orbit of an explored vertex under the group the
    generators generate."""
    orbit = {w}
    stack = [w]
    while stack:
        x = stack.pop()
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return not orbit.isdisjoint(explored)


def are_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if a.r != b.r or a.n != b.n or len(a) != len(b):
        return False
    return canonical_form(a) == canonical_form(b)


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


def _check_shape(n: int, r: int) -> None:
    if n < 0 or r < 1:
        raise ParameterError(f"need n >= 0 and r >= 1, got n={n}, r={r}")


def _check_naive_budget(n: int, r: int) -> None:
    if math.comb(n, r) > NAIVE_EDGE_BUDGET:
        raise ResourceBudgetError(
            f"naive engine capped at C(n,r) <= {NAIVE_EDGE_BUDGET}, "
            f"got C({n},{r}) = {math.comb(n, r)}"
        )


def enumerate_free(
    n: int,
    r: int,
    family: Optional[Family],
    engine: str = "naive",
) -> EnumerationStats:
    """Count every family-free r-graph on n vertices by edge count.

    The naive engine visits each labeled graph once; the orderly engine
    visits one canonical representative per isomorphism class.
    """
    _check_shape(n, r)
    if engine == "naive":
        _check_naive_budget(n, r)
        graphs = _iter_free_edge_sets(n, r, family)
    elif engine == "orderly":
        if n > ORDERLY_VERTEX_BUDGET:
            raise ResourceBudgetError(
                f"orderly engine capped at n <= {ORDERLY_VERTEX_BUDGET}, got {n}"
            )
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
    set plus its last edge."""
    candidates = _candidates(n, r)
    masks = [m for _, m in candidates]
    total = len(candidates)
    checker = IncrementalFreeChecker(n, r, family) if family is not None else None
    edges: list[tuple[int, ...]] = []
    picked: list[int] = []  # candidate index of each edge in `edges`
    t = 0  # next candidate to try at the current depth
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
    """Isomorph-free enumeration: grow class representatives one edge at a
    time, keeping only canonical extensions. Deterministic order
    (edge count, canonical key)."""
    _check_shape(n, r)
    empty = Hypergraph(r, n, ())
    out = [empty]
    level = {canonical_form(empty): empty}
    candidates = _candidates(n, r)
    checker = IncrementalFreeChecker(n, r, family) if family is not None else None
    while level:
        next_level: dict[bytes, Hypergraph] = {}
        for rep in level.values():
            have = set(rep.edge_masks)
            if checker is not None:  # each prefix of a free parent is free
                for m in rep.edge_masks:
                    checker.push(m)
            for e, m in candidates:
                if m in have or (checker is not None and checker.would_violate(m)):
                    continue
                child = Hypergraph(r, n, tuple(sorted(rep.edges + (e,))))
                key = canonical_form(child)
                if key not in next_level:
                    next_level[key] = child
            if checker is not None:
                for _ in rep.edge_masks:
                    checker.pop()
        for key in sorted(next_level):
            out.append(next_level[key])
        level = next_level
    return out


def extremal_search(n: int, r: int, family: Family) -> ExtremalResult:
    """Exact extremal number with all extremal isomorphism classes."""
    _check_shape(n, r)
    _check_naive_budget(n, r)
    best = 0
    best_sets: list[tuple[tuple[int, ...], ...]] = []
    visited = 0
    for edges in _iter_free_edge_sets(n, r, family):
        visited += 1
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
    _check_naive_budget(n, r)
    ids = {s: i for i, s in enumerate(itertools.combinations(range(n), r - 1))}
    shadow_bits = {
        e: sum(1 << ids[s] for s in itertools.combinations(e, r - 1))
        for e, _ in _candidates(n, r)
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
