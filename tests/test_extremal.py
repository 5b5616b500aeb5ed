"""Enumeration engines, canonical forms, extremal numbers, bound sweeps."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    Cancellative,
    Expansion,
    Hypergraph,
    clique_expansion_graph,
    complete,
    extremal,
    fano,
    forbidden,
    shadow,
    turan,
)
from shadowlab.bounds import (
    TOLERANCE,
    cancellative_bound,
    expansion_bound,
    falling_binomial,
    solve_binomial_x,
)
from shadowlab.errors import ParameterError, ResourceBudgetError
from shadowlab.extremal import (
    _iter_free_edge_sets,
    are_isomorphic,
    canonical_form,
    enumerate_free,
    enumerate_free_classes,
    extremal_search,
    permutation_isomorphism_oracle,
    random_free_graph,
    verify_bound_over_enumeration,
)


def relabel(h, perm):
    return Hypergraph.build(
        h.r, h.n, [tuple(perm[v] for v in e) for e in h.edges]
    )


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, t6):
        rng = random.Random(5)
        base = canonical_form(t6)
        for _ in range(25):
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_form(relabel(t6, perm)) == base

    def test_distinguishes_different_graphs(self, k4):
        assert canonical_form(k4) != canonical_form(fano())

    def test_class_count_on_4_vertices_matches_oracle(self):
        """All 16 labeled 3-graphs on 4 vertices, deduped two ways."""
        candidates = list(itertools.combinations(range(4), 3))
        graphs = []
        for bits in range(16):
            edges = [e for i, e in enumerate(candidates) if bits >> i & 1]
            graphs.append(Hypergraph.build(3, 4, edges))
        keys = {canonical_form(h) for h in graphs}
        reps = []
        for h in graphs:
            if not any(permutation_isomorphism_oracle(h, r) for r in reps):
                reps.append(h)
        assert len(keys) == len(reps)

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(6)
        candidates = list(itertools.combinations(range(5), 3))
        for _ in range(200):
            a = Hypergraph.build(3, 5, rng.sample(candidates, rng.randint(0, 6)))
            b = Hypergraph.build(3, 5, rng.sample(candidates, rng.randint(0, 6)))
            assert are_isomorphic(a, b) == permutation_isomorphism_oracle(a, b)

    def test_node_budget(self, monkeypatch):
        # complete(8, 3) is vertex-transitive: no refinement splits it, so
        # its search visits 36 nodes even with automorphism pruning.
        monkeypatch.setattr(extremal, "CANONICAL_NODE_BUDGET", 35)
        with pytest.raises(ResourceBudgetError) as caught:
            canonical_form(complete(8, 3))
        assert caught.value.partial == {"nodes": 35}
        monkeypatch.setattr(extremal, "CANONICAL_NODE_BUDGET", 36)
        assert canonical_form(complete(8, 3)).startswith(b"3/8:0,1,2;")
        # Isolated vertices are never branched on: an empty graph is one
        # node at any size.
        monkeypatch.setattr(extremal, "CANONICAL_NODE_BUDGET", 1)
        assert canonical_form(Hypergraph.build(3, 13, [])) == b"3/13:"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_search_generators_are_automorphisms(self, data):
        """r in 1..4 and n in 0..7, empty graphs and isolated vertices
        included: each generator `canonical_search` returns is a vertex
        permutation that maps the edge set onto itself and fixes every
        isolated vertex, and the labelling maps the edges onto the
        certificate."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 7), label="n")
        candidates = list(itertools.combinations(range(n), r))
        m = data.draw(st.integers(0, len(candidates)), label="m")
        h = Hypergraph.build(r, n, data.draw(st.permutations(candidates))[:m])
        certificate, generators, labelling = extremal.canonical_search(h)
        assert _encode_certificate(h, certificate) == canonical_form(h)
        assert tuple(sorted(sum(1 << labelling[v] for v in e) for e in h.edges)) == certificate
        edges = set(h.edges)
        for g in generators:
            assert sorted(g) == list(range(n))
            assert {tuple(sorted(g[v] for v in e)) for e in edges} == edges
        isolated = [v for v in range(n) if not h.degrees[v]]
        assert all(g[v] == v for g in generators for v in isolated)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_generators_give_the_edge_orbits(self, data):
        """r in 1..4 and n in 0..6: the edge orbits under the group the
        search's generators generate are the edge orbits under every
        automorphism, found by trying all vertex permutations. The orderly
        engine reads its parents' and children's edge orbits off these
        generators."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 6), label="n")
        candidates = list(itertools.combinations(range(n), r))
        m = data.draw(st.integers(0, len(candidates)), label="m")
        h = Hypergraph.build(r, n, data.draw(st.permutations(candidates))[:m])
        _, generators, _ = extremal.canonical_search(h)
        edges = set(h.edges)
        edge_maps = [  # each automorphism's action on the edges
            action for action in (
                {e: tuple(sorted(p[v] for v in e)) for e in h.edges}
                for p in itertools.permutations(range(n))
            ) if set(action.values()) == edges
        ]
        for e in h.edges:
            orbit = [e]
            for f in orbit:
                for g in generators:
                    image = tuple(sorted(g[v] for v in f))
                    if image not in orbit:
                        orbit.append(image)
            assert set(orbit) == {action[e] for action in edge_maps}, e

    def test_thirteen_vertex_path(self):
        # Refinement splits the path down to its mirror symmetry, so the
        # search visits three nodes whatever the path's length.
        path = Hypergraph.build(3, 13, [(i, i + 1, i + 2) for i in range(11)])
        perm = list(range(13))
        random.Random(13).shuffle(perm)
        assert canonical_form(path) == canonical_form(relabel(path, perm))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_decides_isomorphism_like_the_oracle(self, data):
        """r in 1..4 and n in 0..6, empty graphs and isolated vertices
        included: equal forms exactly when the permutation oracle finds an
        isomorphism, and the form survives any relabelling."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 6), label="n")
        candidates = list(itertools.combinations(range(n), r))
        m = data.draw(st.integers(0, len(candidates)), label="m")
        a = Hypergraph.build(r, n, data.draw(st.permutations(candidates))[:m])
        perm = data.draw(st.permutations(range(n)), label="perm")
        if data.draw(st.booleans(), label="relabelled"):
            b = relabel(a, perm)
        else:
            b = Hypergraph.build(r, n, data.draw(st.permutations(candidates))[:m])
        assert (canonical_form(a) == canonical_form(b)) == (
            permutation_isomorphism_oracle(a, b)
        )
        assert canonical_form(relabel(a, perm)) == canonical_form(a)

    @pytest.mark.parametrize("h", [
        turan(12, 3, 3)[0],
        complete(10, 3),
        Hypergraph.build(3, 13, []),
        fano(),
        clique_expansion_graph(3, 3),
    ], ids=["turan12", "complete10", "empty13", "fano", "k4-expansion"])
    def test_symmetric_graphs(self, h):
        """Symmetric and empty inputs at sizes where trying every vertex
        ordering is out of reach (12! and 13! orderings): the form survives
        20 relabellings and changes when one edge moves so that the degree
        multiset changes."""
        base = canonical_form(h)
        rng = random.Random(f"{h.n}/{len(h)}")
        for _ in range(20):
            assert canonical_form(relabel(h, rng.sample(range(h.n), h.n))) == base
        moved = _move_one_edge(h)
        assert sorted(moved.degrees) != sorted(h.degrees)
        assert canonical_form(moved) != base


def _encode_certificate(h, certificate):
    """The form a certificate stands for: its masks as sorted vertex lists."""
    least = sorted(tuple(v for v in range(h.n) if m >> v & 1) for m in certificate)
    return f"{h.r}/{h.n}:{';'.join(','.join(map(str, e)) for e in least)}".encode()


def _move_one_edge(h):
    """h with its first edge traded for the first non-edge whose swap changes
    the degree multiset; with an edge added or removed if h has no edge or
    no non-edge."""
    edges = set(h.edges)
    free = [e for e in itertools.combinations(range(h.n), h.r) if e not in edges]
    if not edges or not free:
        return Hypergraph.build(h.r, h.n, sorted(edges ^ {(free or h.edges)[0]}))
    for e in free:
        moved = Hypergraph.build(h.r, h.n, sorted(edges - {h.edges[0]} | {e}))
        if sorted(moved.degrees) != sorted(h.degrees):
            return moved
    raise AssertionError("no edge move changes the degree multiset")


class TestEnumeration:
    def test_small_cancellative_extremes(self):
        assert enumerate_free(4, 3, Cancellative()).max_edges == 2
        assert enumerate_free(6, 3, Cancellative()).max_edges == 8

    def test_small_expansion_extreme(self):
        assert enumerate_free(5, 3, Expansion(3)).max_edges == 4

    def test_stats_are_consistent(self):
        stats = enumerate_free(5, 3, Cancellative())
        assert stats.engine == "naive"
        assert stats.visited == sum(c for _, c in stats.counts_by_edges)
        assert stats.max_edges == max(k for k, _ in stats.counts_by_edges)

    def test_unconstrained_count(self):
        # every subset of the C(4,3) = 4 candidate edges
        assert enumerate_free(4, 3, None).visited == 16

    def test_naive_budget(self, monkeypatch):
        """The labelled walk counts the sets it visits; the naive engine, the
        extremal search and the sweep all stop on its budget."""
        visits = enumerate_free(5, 3, Cancellative()).visited
        for search in (
            lambda: enumerate_free(5, 3, Cancellative()),
            lambda: extremal_search(5, 3, Cancellative()),
            lambda: verify_bound_over_enumeration(5, 3, Cancellative(), "thm3"),
        ):
            monkeypatch.setattr(extremal, "WALK_NODE_BUDGET", visits)
            search()
            monkeypatch.setattr(extremal, "WALK_NODE_BUDGET", visits - 1)
            with pytest.raises(ResourceBudgetError) as caught:
                search()
            assert caught.value.partial == {"nodes": visits - 1}

    def test_orderly_budget(self, monkeypatch):
        """The orderly engine counts the candidate edges it scans: C(n, r)
        per class, whatever the orbit pruning skips. Library calls stop on
        the budget as the engine does."""
        family = Cancellative()
        scans = len(enumerate_free_classes(6, 3, family)) * math.comb(6, 3)
        assert scans == 600
        for search in (
            lambda: enumerate_free_classes(6, 3, family),
            lambda: enumerate_free(6, 3, family, engine="orderly"),
        ):
            monkeypatch.setattr(extremal, "ORDERLY_NODE_BUDGET", scans)
            search()
            monkeypatch.setattr(extremal, "ORDERLY_NODE_BUDGET", scans - 1)
            with pytest.raises(ResourceBudgetError) as caught:
                search()
            assert caught.value.partial == {"nodes": scans - 1}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_the_sure_counts_are_free(self, r):
        """What the start of each search counts as sure: every set of at most
        two edges, and k disjoint edges plus one more, is free of each
        family."""
        from shadowlab.forbidden import is_free

        n = 7
        edges = list(itertools.combinations(range(n), r))
        matchings = [()]
        for k in range(1, n // r + 1):
            matchings += [m for m in itertools.combinations(edges, k)
                          if len(set().union(*m)) == k * r]
        graphs = [(e,) for e in edges] + list(itertools.combinations(edges, 2))
        graphs += [m + (e,) for m in matchings for e in edges if e not in m]
        for family in (Cancellative(), Expansion(r), Expansion(r + 1)):
            assert all(is_free(Hypergraph.build(r, n, g), family) for g in graphs), family

    def test_orderly_engine_visits_the_classes(self):
        reps = enumerate_free_classes(5, 3, Cancellative())
        stats = enumerate_free(5, 3, Cancellative(), engine="orderly")
        assert stats.engine == "orderly" and stats.visited == len(reps)
        assert stats.max_edges == max(len(h) for h in reps)
        assert dict(stats.counts_by_edges) == Counter(len(h) for h in reps)

    @pytest.mark.parametrize("n, r", [(-1, 3), (3, 0), (3, -1)])
    @pytest.mark.parametrize("entry", [
        lambda n, r: enumerate_free(n, r, None),
        lambda n, r: enumerate_free(n, r, None, engine="orderly"),
        lambda n, r: enumerate_free_classes(n, r, None),
        lambda n, r: extremal_search(n, r, Cancellative()),
        lambda n, r: verify_bound_over_enumeration(n, r, None, "thm1"),
        lambda n, r: random_free_graph(n, r, Cancellative(), 0),
    ], ids=["naive", "orderly", "classes", "extremal", "sweep", "random"])
    def test_shape_rejected(self, entry, n, r):
        with pytest.raises(ParameterError):
            entry(n, r)

    @pytest.mark.parametrize("n, family", [
        pytest.param(n, family, id=f"{n}-{name}")
        for n in (3, 4, 5, 6)
        for name, family in [("None", None), ("family1", Cancellative()),
                             ("family2", Expansion(3)), ("family3", Expansion(4))]
        # All 3-graphs on six vertices are 2^20 labelled sets for the naive
        # side; `test_all_classes_on_six_vertices` counts their classes.
        if (n, family) != (6, None)
    ])
    def test_engines_agree(self, n, family):
        """The same classes, and no class twice: a level of the orderly
        engine lists every child it accepts, so canonical augmentation
        accepting a class twice would show twice here."""
        naive_keys = {
            canonical_form(Hypergraph(3, n, edges))
            for edges in _iter_free_edge_sets(n, 3, family)
        }
        orderly_keys = [
            canonical_form(h) for h in enumerate_free_classes(n, 3, family)
        ]
        assert naive_keys == set(orderly_keys)
        assert len(orderly_keys) == len(naive_keys)

    def test_each_parent_tries_one_child_per_orbit(self, monkeypatch):
        """At n = 6 and r = 3 and 2, each cancellative class considers one
        child for each orbit of its free non-edges under its automorphism
        group, found by trying all 720 vertex permutations, and searches
        exactly the considered children whose new edge has the top key, the
        sorted degrees of its vertices in the child. A child is considered
        when the engine's checker finds its new edge free, and its parent is
        the set of edges pushed on the checker. At r = 2 these are the
        triangle-free graphs, most of whose parents have isolated
        vertices."""
        from shadowlab.forbidden import is_free

        family = Cancellative()
        pushed: list[int] = []
        considered: dict = {}  # (r, parent) -> the new edges considered
        searched: dict = {}  # (r, parent) -> the new edges searched

        class Traced(forbidden.IncrementalFreeChecker):
            def push(self, mask):
                pushed.append(mask)
                super().push(mask)

            def pop(self):
                pushed.pop()
                super().pop()

            def would_violate(self, mask):
                violates = super().would_violate(mask)
                if not violates:
                    considered.setdefault((self.r, frozenset(pushed)), []).append(mask)
                return violates

        search = extremal.canonical_search

        def counted(h):
            parent = frozenset(pushed)
            (new,) = set(h.edge_masks) - parent
            searched.setdefault((h.r, parent), []).append(new)
            return search(h)

        def key(edges, e):
            degree = Counter(v for f in edges for v in f)
            return sorted(degree[v] for v in e)

        perms = list(itertools.permutations(range(6)))
        for r in (3, 2):
            with monkeypatch.context() as patch:
                patch.setattr(extremal, "IncrementalFreeChecker", Traced)
                patch.setattr(extremal, "canonical_search", counted)
                reps = enumerate_free_classes(6, r, family)
            for h in reps:
                edges = set(h.edges)
                automorphisms = [
                    p for p in perms
                    if {tuple(sorted(p[v] for v in e)) for e in edges} == edges
                ]
                free = [e for e in itertools.combinations(range(6), r) if e not in edges
                        and is_free(Hypergraph.build(r, 6, h.edges + (e,)), family)]
                orbits = {frozenset(tuple(sorted(p[v] for v in e)) for p in automorphisms)
                          for e in free}
                parent = (r, frozenset(h.edge_masks))
                tried = [tuple(v for v in range(6) if m >> v & 1)
                         for m in considered.get(parent, [])]
                assert len(tried) == len(orbits), h.edges
                assert all(not o.isdisjoint(tried) for o in orbits), h.edges
                top = [e for e in tried
                       if all(key(h.edges + (e,), f) <= key(h.edges + (e,), e) for f in h.edges)]
                assert searched.get(parent, []) == [sum(1 << v for v in e) for e in top], h.edges

    @pytest.mark.parametrize("n", range(13))
    def test_one_class_per_edge_count_of_a_1_graph(self, n):
        # A 1-graph is determined up to isomorphism by its edge count, and
        # all its non-edges are isolated vertices.
        reps = enumerate_free_classes(n, 1, None)
        assert [len(h) for h in reps] == list(range(n + 1))

    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3)])
    def test_orderly_engine_runs_no_batch_detector(self, family, monkeypatch):
        def refuse(*args):
            raise AssertionError("batch detector called during enumeration")

        monkeypatch.setattr(forbidden, "find_cancellative_violation", refuse)
        monkeypatch.setattr(forbidden, "find_clique_expansion", refuse)
        reps = enumerate_free_classes(5, 3, family)
        monkeypatch.undo()
        assert all(forbidden.is_free(h, family) for h in reps)

    @pytest.mark.parametrize("n", [2, 5])
    def test_orderly_engine_rejects_small_ell(self, n):
        # n = 2 has no candidate edge, so only the parent's checker can raise.
        with pytest.raises(ParameterError):
            enumerate_free_classes(n, 3, Expansion(2))

    @pytest.mark.parametrize("family", [None, Cancellative(), Expansion(3)])
    def test_orderly_engine_builds_one_checker(self, family, monkeypatch):
        built = []

        class Counted(forbidden.IncrementalFreeChecker):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(extremal, "IncrementalFreeChecker", Counted)
        enumerate_free_classes(6, 3, family)
        assert len(built) == (family is not None)

    @pytest.mark.parametrize("r, classes", [(2, 156), (3, 2136)])
    def test_all_classes_on_six_vertices(self, r, classes):
        """Graphs (OEIS A000088) and 3-graphs (A000665) on six vertices."""
        assert len(enumerate_free_classes(6, r, None)) == classes

    def test_orderly_visits_are_free_representatives(self):
        from shadowlab.forbidden import is_free

        reps = enumerate_free_classes(5, 3, Cancellative())
        assert all(is_free(h, Cancellative()) for h in reps)
        keys = [canonical_form(h) for h in reps]
        assert len(keys) == len(set(keys))


class TestExtremalSearch:
    def test_expansion_unique_turan(self, t6):
        result = extremal_search(6, 3, Expansion(3))
        assert result.max_edges == 8 and result.unique
        assert result.extremal_forms == (canonical_form(t6),)

    def test_cancellative_small(self):
        assert extremal_search(5, 3, Cancellative()).max_edges == 4

    def test_single_possible_edge(self):
        result = extremal_search(3, 3, Cancellative())
        assert result.max_edges == 1 and result.unique

    def test_example_is_extremal(self):
        result = extremal_search(5, 3, Expansion(3))
        assert len(result.example) == result.max_edges
        assert are_isomorphic(result.example, turan(5, 3, 3)[0])

    @pytest.mark.parametrize("family, searched", [
        (Cancellative(), 451_793),
        (Expansion(3), 444_623),
    ], ids=str)
    def test_seven_vertices(self, family, searched):
        """Bollobas (cancellative) and the expansion family at n = 7: the
        3-partite Turan graph is the one extremal class, with 12 edges."""
        result = extremal_search(7, 3, family)
        assert (result.max_edges, result.unique, result.count_searched) == (12, True, searched)
        assert are_isomorphic(result.example, turan(7, 3, 3)[0])


class TestBoundSweeps:
    def test_thm1_unconstrained(self):
        report = verify_bound_over_enumeration(4, 3, None, "thm1")
        assert report.violations == ()
        assert report.visited == 16

    def test_thm3_cancellative(self):
        report = verify_bound_over_enumeration(5, 3, Cancellative(), "thm3")
        assert report.violations == ()
        assert report.min_slack >= -1e-9

    def test_thm6_expansion(self):
        report = verify_bound_over_enumeration(5, 3, Expansion(3), "thm6", ell=3)
        assert report.violations == ()

    @pytest.mark.parametrize("kind", ["thm2", "thm6"])
    def test_bad_bound_rejected_before_the_dfs(self, kind):
        # n = 8 is past the naive budget, so only a check made first can
        # raise ParameterError (thm6 without ell).
        with pytest.raises(ParameterError):
            verify_bound_over_enumeration(8, 3, None, kind)

    def test_violations_reported(self):
        # thm3 over every 3-graph on 4 vertices: K_4^3 and the graphs with
        # three edges beat the cancellative bound.
        report = verify_bound_over_enumeration(4, 3, None, "thm3")
        assert report.visited == 16
        assert len(report.violations) == 5
        assert report.min_slack == pytest.approx(-1.1715728752538106)
        assert report.argmin_edges == complete(4, 3).edges

    def test_argmin_recorded(self):
        report = verify_bound_over_enumeration(4, 3, Cancellative(), "thm3")
        assert report.argmin_edges  # some nonempty graph attains the minimum

    @pytest.mark.parametrize("kind, family, visited", [
        ("thm3", Cancellative(), 4738),
        ("thm6", Expansion(3), 4738),
        ("thm6", Expansion(4), 110513),
    ])
    def test_labelled_counts_on_six_vertices(self, kind, family, visited):
        """Labelled free 3-graphs on 6 vertices, as counted over the
        isomorphism classes by orbit size in bench/test_bench.py."""
        ell = getattr(family, "ell", None)
        report = verify_bound_over_enumeration(6, 3, family, kind, ell)
        assert report.visited == visited
        assert report.violations == ()

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["thm1", "thm3", "thm6"])
    def test_incremental_shadow_matches_recomputation(self, kind, n, r):
        """The sweep's prefix-kept shadow bits give the same report as
        len(shadow(h)) recomputed for every graph the DFS yields."""
        ell = r + 1 if kind == "thm6" else None
        family = {"thm1": None, "thm3": Cancellative(), "thm6": Expansion(ell)}[kind]
        bound = {
            "thm1": lambda s: falling_binomial(solve_binomial_x(s, r - 1), r),
            "thm3": lambda s: cancellative_bound(s, r)[1],
            "thm6": lambda s: expansion_bound(s, ell, r)[1],
        }[kind]
        visited, violations, min_slack, argmin = 0, [], float("inf"), ()
        for edges in _iter_free_edge_sets(n, r, family):
            visited += 1
            if not edges:
                continue
            slack = bound(len(shadow(Hypergraph(r, n, edges)))) - len(edges)
            if slack < -TOLERANCE:
                violations.append(edges)
            if slack < min_slack:
                min_slack, argmin = slack, edges
        report = verify_bound_over_enumeration(n, r, family, kind, ell)
        assert report.visited == visited
        assert report.violations == tuple(violations)
        assert report.min_slack == min_slack
        assert report.argmin_edges == argmin


class TestRandomFree:
    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3)])
    def test_samples_are_free(self, family):
        from shadowlab.forbidden import is_free

        for seed in range(50):
            h = random_free_graph(8, 3, family, seed, 6)
            assert is_free(h, family)
            assert len(h) <= 6

    def test_rejects_non_family(self):
        with pytest.raises(ParameterError):
            random_free_graph(6, 3, None, 1)

    def test_seed_determinism(self):
        a = random_free_graph(9, 3, Cancellative(), 123, 8)
        b = random_free_graph(9, 3, Cancellative(), 123, 8)
        assert a == b
