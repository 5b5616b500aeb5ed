"""Shared fixtures: the standard small instances and the seeded random
corpora reused by the property and acceptance suites, and the edge-by-edge
walk that `Hypergraph.build` is checked against."""

import itertools
import random

import pytest
from hypothesis import strategies as st

from shadowlab import Cancellative, Expansion, Hypergraph, complete, turan
from shadowlab.errors import ParameterError
from shadowlab.extremal import enumerate_free_classes, random_free_graph

RANDOM_CORPUS_SIZE = 10_000


@pytest.fixture(scope="session")
def t6():
    return turan(6, 3, 3)[0]


@pytest.fixture(scope="session")
def t6_parts():
    return turan(6, 3, 3)[1]


@pytest.fixture(scope="session")
def k4():
    return complete(4, 3)


@st.composite
def any_hypergraphs(draw):
    """Random r-graphs, r in 2..6, on 0..10 vertices: empty graphs, single
    edges, isolated vertices and complete graphs all among them."""
    r = draw(st.integers(2, 6))
    n = draw(st.integers(0, 10))
    candidates = list(itertools.combinations(range(n), r))
    edges = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    return Hypergraph.build(r, n, edges)


def reference_build(r, n, edges) -> Hypergraph:
    """The edge-by-edge walk: each edge in input order must have r
    vertices, all ints, then, sorted, no repeated vertex, every vertex in
    0..n-1, and must not equal an earlier edge; the first broken rule
    raises."""
    if r < 1:
        raise ParameterError(f"uniformity must be >= 1, got {r}")
    if n < 0:
        raise ParameterError(f"vertex count must be >= 0, got {n}")
    seen = {}
    for e in edges:
        e = tuple(e)
        if len(e) != r:
            raise ParameterError(f"expected {r} vertices, got {len(e)}")
        if not all(isinstance(v, int) for v in e):
            raise ParameterError(f"non-integer vertex in edge {e}")
        t = tuple(sorted(e))
        if len(set(t)) != r:
            raise ParameterError(f"repeated vertex in edge {t}")
        if t[0] < 0 or t[-1] >= n:
            bad = t[0] if t[0] < 0 else t[-1]
            raise ParameterError(f"vertex {bad} outside 0..{n - 1}")
        if t in seen:
            raise ParameterError(f"duplicate edge {t}")
        seen[t] = None
    return Hypergraph(r, n, tuple(sorted(seen)))


def _first_kept(n, family, seed, target) -> Hypergraph:
    """The first `target` edges `random_free_graph` keeps, in its draw order
    (its shuffle permutes the lexicographic 3-sets by `seed`): free, as a
    subgraph of its maximal free sample."""
    kept = set(random_free_graph(n, 3, family, seed).edges)
    draws = list(itertools.combinations(range(n), 3))
    random.Random(seed).shuffle(draws)
    return Hypergraph(3, n, tuple(sorted([e for e in draws if e in kept][:target])))


def _corpus(family, base_seed):
    out = []
    for seed in range(RANDOM_CORPUS_SIZE):
        n = 4 + seed % 7  # 4..10
        target = 2 + seed % 11
        out.append(_first_kept(n, family, base_seed + seed, target))
    return out


@pytest.fixture(scope="session")
def random_cancellative_corpus():
    return _corpus(Cancellative(), 0)


@pytest.fixture(scope="session")
def random_expansion_corpus():
    return _corpus(Expansion(3), 1_000_000)


@pytest.fixture(scope="session")
def cancellative_classes_n6():
    """Isomorphism-class representatives of every cancellative 3-graph on
    at most 6 vertices (smaller supports appear via isolated vertices)."""
    return enumerate_free_classes(6, 3, Cancellative())


@pytest.fixture(scope="session")
def expansion_classes_n6():
    return enumerate_free_classes(6, 3, Expansion(3))
