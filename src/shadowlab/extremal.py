"""Exhaustive enumeration of small free hypergraphs, canonical forms, exact
extremal numbers, and bound sweeps.

One class pass serves every enumeration: canonical augmentation builds the
isomorphism classes level by level, trying one child edge per orbit of the
parent's automorphism group and testing it on the parent's
`IncrementalFreeChecker` as the sampler tests each new edge. A child edge
takes the least of the parent's isolated vertices, which the automorphisms
fix, and a free child is kept only when its new edge is in the orbit of its
canonical deletion. Each class comes with its |Aut|, so the naive engine's
labelled counts are n!/|Aut| summed over the classes and the orderly
engine's are the classes themselves; the top level's forms come too, for
the extremal search. The labelled DFS over every edge subset,
`_iter_free_edge_sets`, is kept only as the oracle the tests compare the
class pass against. Certificates, labellings, canonical forms
and automorphisms come from an in-house individualization-refinement
search with automorphism pruning, so they stay self-contained and testable.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .bounds import BoundReport
from .errors import ParameterError, ResourceBudgetError
from .forbidden import Cancellative, Expansion, Family, IncrementalFreeChecker
from .hypercore import Hypergraph, mask_to_tuple

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
    enumeration: dict[str, EnumerationStats]  # both engines' counts over one pass


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
    of the search `_least_leaf` runs, decoded to the sorted list of its
    edges."""
    return _encode(h.r, h.n, _least_leaf(h)[0])


def _encode(r: int, n: int, certificate: tuple[int, ...]) -> bytes:
    least = sorted(mask_to_tuple(m) for m in certificate)
    payload = ";".join(",".join(map(str, e)) for e in least)
    return f"{r}/{n}:{payload}".encode()


def _least_leaf(h: Hypergraph) -> tuple[tuple[int, ...], list[list[int]], list[int], int]:
    """The least certificate of an individualization-refinement search
    (McKay and Piperno, "Practical graph isomorphism, II", 2014), the
    automorphisms it found, the least leaf's labelling (vertex v to
    `labelling[v]`; empty when h has no edge), which maps h's edges onto the
    certificate, and |Aut(h)|. Graphs on the same n and r are isomorphic
    exactly when their certificates are equal. Each automorphism fixes every
    isolated vertex; with the symmetric group on those they generate
    Aut(h), and alone they give its edge orbits.

    Each node refines its partition, then individualizes in turn each vertex
    of the first non-singleton cell of non-isolated vertices. Isolated
    vertices form one cell and are never branched on. A leaf relabels each
    vertex by its position; its certificate is the sorted tuple of its
    edges' bitmasks, and the least certificate wins. Two leaves with equal
    certificates give an automorphism: the search returns to the two leaves'
    common ancestor, and a node skips each child in the orbit of an explored
    child under the automorphisms found so far that fix the node's prefix.
    More than `CANONICAL_NODE_BUDGET` nodes raise `ResourceBudgetError`, as
    does a path deeper than Python's recursion limit. Each node on the first
    leaf's path explores or prunes every child, so the automorphisms found
    that fix its prefix generate that prefix's stabilizer: |Aut(h)| is the
    product of the path's orbit sizes under them (nauty's group order)
    times (number of isolated vertices)!."""
    n, edges = h.n, h.edges
    automorphisms: list[list[int]] = []
    if not edges:  # one leaf, whatever n is
        return (), automorphisms, [], math.factorial(n)
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
    order, fixing = math.factorial(isolated), automorphisms
    singletons = {1 << v: (v,) for v in range(n)}
    for v in leaves[0][2]:
        order *= len(_edge_orbit(1 << v, fixing, singletons))
        fixing = [g for g in fixing if g[v] == v]
    return leaves[-1][0], automorphisms, leaves[-1][1], order


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

    Both engines read the classes of `_free_classes`: the naive engine
    counts each labelled graph once, n!/|Aut| per class, and the orderly
    engine counts each class once. Any n is tried: the class pass raises
    `ResourceBudgetError` past its node budget.
    """
    if engine not in ("naive", "orderly"):
        raise ParameterError(f"unknown engine {engine!r}")
    return _stats(engine, _free_classes(n, r, family)[0])


def _stats(engine: str, classes: list[tuple[Hypergraph, int]]) -> EnumerationStats:
    """The engine's counts by edge count over the classes of `_free_classes`:
    n!/|Aut| labelled graphs per class for "naive", one per class for
    "orderly"."""
    counts: Counter = Counter()
    for h, order in classes:
        counts[len(h)] += math.factorial(h.n) // order if engine == "naive" else 1
    return EnumerationStats(
        engine, sum(counts.values()), max(counts), tuple(sorted(counts.items()))
    )


def _iter_free_edge_sets(
    n: int, r: int, family: Optional[Family]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Oracle: the labelled DFS over every free edge set, which the tests
    compare the class pass against. Extends by candidate edges of larger
    index only and prunes on violation (freeness is monotone under edge
    removal), so it yields every free edge set once, in preorder."""
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


def enumerate_free_classes(n: int, r: int, family: Optional[Family]) -> list[Hypergraph]:
    """The class representatives of `_free_classes`, in its order."""
    return [h for h, _ in _free_classes(n, r, family)[0]]


def _free_classes(
    n: int, r: int, family: Optional[Family]
) -> tuple[list[tuple[Hypergraph, int]], list[bytes]]:
    """Each class as its representative and |Aut|, and the canonical forms
    of the top level's classes, in their order. Isomorph-free enumeration by
    canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    1998). A child of a class representative P is P + e for a candidate edge
    e. Candidates in one orbit of Aut(P) give isomorphic children, so P
    tries only the least of each orbit; Aut(P) is the search's
    automorphisms, which fix the isolated vertices, times their symmetric
    group, so that least candidate holds P's least isolated vertices. A free
    child C is kept only when e lies in the orbit of its canonical deletion
    m(C), so each class is kept once, as a child of the class of C - m(C).
    An edge's key is the sorted degrees of its vertices in C, and m(C) is
    the top-key edge that the least leaf of C's search labels least; a child
    whose e is not top-key is dropped before any search. Each level is
    sorted on its forms, which are dropped once the next level is found: the
    order is edge count, then canonical key. The representatives are the
    children kept, not the first child of each class in scan order. The form
    and |Aut| of a kept child come from the search that tested it; the empty
    root's |Aut| is n!. Raises `ResourceBudgetError` rather than scan more
    than `ORDERLY_NODE_BUDGET` candidate edges, C(n, r) per class."""
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
    out: list[tuple[Hypergraph, int]] = []
    level = [(_encode(r, n, ()), Hypergraph(r, n, ()), [], math.factorial(n))]
    checker = IncrementalFreeChecker(n, r, family) if family is not None else None
    while True:
        out.extend((rep, order) for _, rep, _, order in level)
        next_level: list[tuple[bytes, Hypergraph, list[list[int]], int]] = []
        for _, rep, generators, _ in level:
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
                if generators:  # else the orbit is {m}, which the scan never meets again
                    seen |= _edge_orbit(m, generators, vertices)  # m is its orbit's least
                if checker is not None and checker.would_violate(m):
                    continue
                degree = [d + (m >> v & 1) for v, d in enumerate(rep.degrees)]  # in the child
                key = sorted(map(degree.__getitem__, e))
                if any(sorted(map(degree.__getitem__, f)) > key for f in rep.edges):
                    continue  # e is not top-key, so not the canonical deletion
                child = Hypergraph(r, n, tuple(sorted(rep.edges + (e,))))
                certificate, child_generators, labelling, order = _least_leaf(child)
                deletion = min(
                    (x for x in child.edge_masks
                     if sorted(map(degree.__getitem__, vertices[x])) == key),
                    key=lambda x: sum(1 << labelling[v] for v in vertices[x]),
                )
                if m == deletion or child_generators and m in _edge_orbit(
                        deletion, child_generators, vertices):
                    next_level.append(
                        (_encode(r, n, certificate), child, child_generators, order))
            if checker is not None:
                for _ in rep.edge_masks:
                    checker.pop()
        if not next_level:
            return out, [form for form, *_ in level]
        next_level.sort(key=lambda accepted: accepted[0])
        level = next_level


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
    """Exact extremal number with all extremal isomorphism classes, read off
    the top level of `_free_classes` within its budget: forms come sorted,
    and the example is the first representative. `count_searched` is the
    naive engine's labelled free-graph count."""
    classes, forms = _free_classes(n, r, family)
    example = classes[-len(forms)][0]
    return ExtremalResult(n, r, str(family), len(example), tuple(forms),
                          _stats("naive", classes).visited, len(forms) == 1, example)


def verify_bound_over_enumeration(
    n: int,
    r: int,
    family: Optional[Family],
    bound_kind: str,
    ell: Optional[int] = None,
) -> SweepReport:
    """Evaluate the named bound on every family-free graph; report the worst
    slack and one representative per violating class (expected none). A
    bound reads only |H| and |∂H|, so the sweep visits each class of
    `_free_classes` once and counts it n!/|Aut| times, which gives the
    naive engine's labelled counts. `argmin_edges` is the first class in
    the engine's order at `min_slack`. `enumeration` holds both engines'
    counts over that one pass."""
    _check_shape(n, r)
    if bound_kind not in ("thm1", "thm3", "thm6"):
        raise ParameterError(f"unknown bound kind {bound_kind!r}")
    if bound_kind == "thm6" and ell is None:
        raise ParameterError("thm6 sweep needs ell")
    if r < 2 or bound_kind == "thm6" and ell < r:
        raise ParameterError(f"a bound sweep needs r >= 2 and ell >= r, got r={r}, ell={ell}")
    # Theorem 1 is Kruskal-Katona for every r-graph, Theorem 3 the
    # cancellative bound, Theorem 6 the clique-expansion bound.
    bound_family = {"thm1": None, "thm3": Cancellative(), "thm6": Expansion(ell)}[bound_kind]
    if (r - 1) * math.comb(n, r - 1) > ORDERLY_NODE_BUDGET:  # a shadow may hold every (r-1)-set
        raise ResourceBudgetError.nodes("orderly engine", ORDERLY_NODE_BUDGET)
    classes = _free_classes(n, r, family)[0]
    reports: dict[tuple[int, int], BoundReport] = {}  # one per (|H|, |shadow|)
    violations: list[tuple[tuple[int, ...], ...]] = []
    min_slack = math.inf
    argmin: tuple[tuple[int, ...], ...] = ()
    for h, _ in classes:
        if not h.edges:
            continue
        key = len(h), len({f for e in h.edges for f in itertools.combinations(e, r - 1)})
        if key not in reports:
            reports[key] = BoundReport.of(bound_family, r, *key)
        report = reports[key]
        if not report.holds:
            violations.append(h.edges)
        if report.slack < min_slack:
            min_slack = report.slack
            argmin = h.edges
    stats = {engine: _stats(engine, classes) for engine in ("naive", "orderly")}
    return SweepReport(
        n, r, str(family) if family is not None else "none", bound_kind,
        stats["naive"].visited, tuple(violations), min_slack, argmin, stats,
    )


def random_free_graph(n: int, r: int, family: Family, seed: int) -> Hypergraph:
    """Seeded rejection sampler: walk a shuffled candidate list, keeping each
    edge that preserves freeness, so the sample is a maximal free graph."""
    _check_shape(n, r)
    rng = random.Random(seed)
    candidates = _candidates(n, r)
    rng.shuffle(candidates)
    checker = IncrementalFreeChecker(n, r, family)
    kept: list[tuple[int, ...]] = []
    for e, m in candidates:
        if not checker.would_violate(m):
            checker.push(m)
            kept.append(e)
    return Hypergraph(r, n, tuple(sorted(kept)))
