"""Reference answers computed from the definitions, without shadowlab.

Each function here restates a mathematical fact in the plainest code, so a
job's result can be checked against something other than the code under
test. Inputs are plain edge lists (sorted tuples in lexicographic order).
"""

from __future__ import annotations

import itertools
import math


def transversal_edges(n: int, ell: int, r: int) -> list[tuple[int, ...]]:
    """Edges of the balanced Turan graph: vertex i sits in part i mod ell."""
    return [
        e for e in itertools.combinations(range(n), r)
        if len({v % ell for v in e}) == r
    ]


def shadow_sets(edges) -> set[tuple[int, ...]]:
    return {s for e in edges for s in itertools.combinations(e, len(e) - 1)}


def least_cancellative_witness(edges):
    """The documented least triple (A, B, C): the first pair i < j in edge
    order whose symmetric difference lies in some edge, then the first such
    edge C; None when the graph is cancellative."""
    first_container: dict[tuple[int, ...], int] = {}
    for k, e in enumerate(edges):
        for size in range(2, len(e) + 1, 2):
            for sub in itertools.combinations(e, size):
                first_container.setdefault(sub, k)
    sets = [frozenset(e) for e in edges]
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            d = tuple(sorted(a ^ sets[j]))
            k = first_container.get(d)
            if k is not None:
                return edges[i], edges[j], edges[k]
    return None


def covered_pairs(edges) -> set[tuple[int, int]]:
    return {p for e in edges for p in itertools.combinations(e, 2)}


def has_covered_set(n: int, edges, size: int) -> bool:
    """Whether some vertex set of the given size has every pair in an edge."""
    pairs = covered_pairs(edges)
    return any(
        all(p in pairs for p in itertools.combinations(s, 2))
        for s in itertools.combinations(range(n), size)
    )


def removed_by_partition(edges, parts) -> int:
    """Edges that leave the parts' union or meet some part twice."""
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    return sum(
        1 for e in edges
        if any(v not in part_of for v in e) or len({part_of[v] for v in e}) != len(e)
    )


def fit_optimum_inside_partite(edges, n: int, cap: int) -> int:
    """Least removals for a subgraph of a complete partite graph on n
    vertices, keeping at most cap vertices: its own partition removes
    nothing, so only the edges met by the n - cap dropped vertices go."""
    if cap >= n:
        return 0
    return min(
        sum(1 for e in edges if dropped.intersection(e))
        for dropped in map(set, itertools.combinations(range(n), n - cap))
    )


def fit_optimum_all_in(edges, n: int, ell: int) -> int:
    """Least removals over every ell-partition of all n vertices, the
    optimum of a fit whose cap is at least n (leaving a vertex out never
    removes fewer edges than putting it in some part). Vertices are
    labelled in order, vertex 0 in part 0, and an edge is counted once
    its largest vertex has a label."""
    ending = [[] for _ in range(n)]
    for e in edges:
        ending[max(e)].append(e)
    labels = [0] * n
    best = len(edges)

    def visit(v: int, removed: int) -> None:
        nonlocal best
        if removed >= best:
            return
        if v == n:
            best = removed
            return
        for p in range(ell if v else 1):
            labels[v] = p
            extra = sum(1 for e in ending[v] if len({labels[u] for u in e}) != len(e))
            visit(v + 1, removed + extra)

    visit(0, 0)
    return best


def ceil_sqrt(value: int) -> int:
    """ceil(sqrt(value)) for an integer value >= 1, exactly."""
    root = math.isqrt(value)
    return root if root * root == value else root + 1


def relabel(edges, perm) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(perm[v] for v in e)) for e in edges)


def automorphism_count(n: int, edges) -> int:
    target = set(edges)
    return sum(
        1 for perm in itertools.permutations(range(n))
        if set(relabel(edges, perm)) == target
    )


def improving_move(edges, parts, n: int, cap: int):
    """A (vertex, part) move that removes fewer edges than the partition
    does, keeping at most cap vertices, or None when there is none."""
    label = {v: i for i, part in enumerate(parts) for v in part}
    base = removed_by_partition(edges, parts)
    for v in range(n):
        if v not in label and len(label) >= cap:
            continue
        for p in range(len(parts)):
            if label.get(v) == p:
                continue
            moved = [tuple(u for u in part if u != v) + ((v,) if i == p else ())
                     for i, part in enumerate(parts)]
            if removed_by_partition(edges, moved) < base:
                return v, p
    return None
