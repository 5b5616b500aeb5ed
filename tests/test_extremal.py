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
    bound_report_for,
    expansion_bound,
    falling_binomial,
    shadow_bound,
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
        included: each generator `_least_leaf` returns is a vertex
        permutation that maps the edge set onto itself and fixes every
        isolated vertex, and the labelling maps the edges onto the
        certificate."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 7), label="n")
        candidates = list(itertools.combinations(range(n), r))
        m = data.draw(st.integers(0, len(candidates)), label="m")
        h = Hypergraph.build(r, n, data.draw(st.permutations(candidates))[:m])
        certificate, generators, labelling, _ = extremal._least_leaf(h)
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
        automorphism, found by trying all vertex permutations, and the
        search's group order is the number of those permutations. The
        orderly engine reads its parents' and children's edge orbits off
        these generators, and `extremal_search` its labelled count off the
        group orders."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 6), label="n")
        candidates = list(itertools.combinations(range(n), r))
        m = data.draw(st.integers(0, len(candidates)), label="m")
        h = Hypergraph.build(r, n, data.draw(st.permutations(candidates))[:m])
        _, generators, _, order = extremal._least_leaf(h)
        edges = set(h.edges)
        edge_maps = [  # each automorphism's action on the edges
            action for action in (
                {e: tuple(sorted(p[v] for v in e)) for e in h.edges}
                for p in itertools.permutations(range(n))
            ) if set(action.values()) == edges
        ]
        assert order == len(edge_maps)
        for e in h.edges:
            orbit = [e]
            for f in orbit:
                for g in generators:
                    image = tuple(sorted(g[v] for v in f))
                    if image not in orbit:
                        orbit.append(image)
            assert set(orbit) == {action[e] for action in edge_maps}, e

    @pytest.mark.parametrize("n, r", [(5, 3), (6, 3), (7, 2), (6, 4)])
    def test_group_orders_count_the_labelled_graphs(self, n, r):
        """Orbit-stabilizer over all r-graphs on n vertices: n!/|Aut(C)|
        summed over the classes C is the 2^C(n, r) labelled graphs."""
        orders = [extremal._least_leaf(h)[3] for h in enumerate_free_classes(n, r, None)]
        assert sum(math.factorial(n) // order for order in orders) == 2 ** math.comb(n, r)

    def test_thirteen_vertex_path(self):
        # Refinement splits the path down to its mirror symmetry, so the
        # search visits three nodes whatever the path's length.
        path = Hypergraph.build(3, 13, [(i, i + 1, i + 2) for i in range(11)])
        perm = list(range(13))
        random.Random(13).shuffle(perm)
        assert canonical_form(path) == canonical_form(relabel(path, perm))

    def test_orbit_pruning_uses_only_automorphisms_fixing_the_prefix(self):
        # |Aut| = 6. Off the first path the search finds automorphisms that
        # move a node's prefix; pruning a child by one of them loses the
        # least leaf under one labelling but not under the other.
        h = Hypergraph.build(3, 8, [tuple(map(int, e)) for e in (
            "012 014 023 025 026 036 046 057 067 124 126 127 134 136 145 157 "
            "234 257 346 347 356 357 457 567").split()])
        moved = relabel(h, (0, 1, 2, 3, 4, 6, 7, 5))
        assert extremal._least_leaf(h)[3] == 6
        assert canonical_form(moved) == canonical_form(h)
        assert are_isomorphic(h, moved)

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

    def test_orderly_budget(self, monkeypatch):
        """The orderly engine counts the candidate edges it scans: C(n, r)
        per class, whatever the orbit pruning skips. Library calls, both
        engines, the extremal search and the bound sweep among them, stop
        on the budget as the class pass does."""
        family = Cancellative()
        scans = len(enumerate_free_classes(6, 3, family)) * math.comb(6, 3)
        assert scans == 600
        for search in (
            lambda: enumerate_free_classes(6, 3, family),
            lambda: enumerate_free(6, 3, family),
            lambda: enumerate_free(6, 3, family, engine="orderly"),
            lambda: extremal_search(6, 3, family),
            lambda: verify_bound_over_enumeration(6, 3, family, "thm3"),
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

    @pytest.mark.parametrize("n, r", [(6, 3), (7, 2), (6, 4), (7, 1)])
    def test_labelled_counts_past_the_walk(self, n, r, monkeypatch):
        """With no family every r-graph counts, so C(C(n, r), m) labelled
        graphs have m edges: this checks each |Aut| the class pass gives."""
        monkeypatch.setattr(extremal, "_iter_free_edge_sets", refuse_walk)
        c = math.comb(n, r)
        assert enumerate_free(n, r, None).counts_by_edges == tuple(
            (m, math.comb(c, m)) for m in range(c + 1))

    @pytest.mark.parametrize("n, r", [(6, 3), (7, 2), (6, 4), (7, 1)])
    def test_class_counts_are_polyas(self, n, r, monkeypatch):
        monkeypatch.setattr(extremal, "_iter_free_edge_sets", refuse_walk)
        stats = enumerate_free(n, r, None, engine="orderly")
        assert stats.counts_by_edges == tuple(enumerate(polya_class_counts(n, r)))

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

        search = extremal._least_leaf

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
                patch.setattr(extremal, "_least_leaf", counted)
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

    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3)], ids=str)
    def test_searches_no_class_twice(self, family, monkeypatch):
        """|Aut| comes with each class from the engine's own search, so the
        extremal search makes no more canonical searches than the engine."""
        calls = []
        search = extremal._least_leaf

        def counted(h):
            calls.append(h)
            return search(h)

        monkeypatch.setattr(extremal, "_least_leaf", counted)
        enumerate_free_classes(6, 3, family)
        engine = len(calls)
        extremal_search(6, 3, family)
        assert engine > 0 and len(calls) - engine <= engine

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

    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3), Expansion(4)], ids=str)
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("n", range(7))
    def test_agrees_with_the_labelled_walk(self, n, r, family, monkeypatch):
        """The maximum over the labelled walk: its edge count, the forms of
        its largest sets and the number of sets it visits. The search reads
        the class pass, forms included, and never walks."""
        sets = list(_iter_free_edge_sets(n, r, family))
        best = max(map(len, sets))
        forms = {canonical_form(Hypergraph(r, n, e)) for e in sets if len(e) == best}

        def form(*args):
            raise AssertionError("extremal_search computed a form again")

        monkeypatch.setattr(extremal, "_iter_free_edge_sets", refuse_walk)
        monkeypatch.setattr(extremal, "canonical_form", form)
        result = extremal_search(n, r, family)
        assert (result.max_edges, result.extremal_forms, result.count_searched) == (
            best, tuple(sorted(forms)), len(sets))
        assert canonical_form(result.example) == result.extremal_forms[0]


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
        # All 3-graphs on 8 vertices pass the orderly budget, so only a
        # check made first can raise ParameterError (thm6 without ell).
        with pytest.raises(ParameterError):
            verify_bound_over_enumeration(8, 3, None, kind)

    @pytest.mark.parametrize("n, r, kind, ell", [
        (2, 3, "thm6", 2), (6, 3, "thm6", -5), (0, 1, "thm1", None), (5, 1, "thm3", None)])
    def test_bound_domain_checked_before_the_class_pass(self, n, r, kind, ell, monkeypatch):
        # With no edge to bound, or before the first one, only a check made
        # first can refuse r < 2 or ell < r.
        monkeypatch.setattr(extremal, "_free_classes", refuse_class_pass)
        with pytest.raises(ParameterError):
            verify_bound_over_enumeration(n, r, None, kind, ell)

    def test_violations_reported(self):
        # thm3 over every 3-graph on 4 vertices: K_4^3 and the graphs with
        # three edges beat the cancellative bound. The walk meets 5 such
        # labelled sets; the sweep reports one per class, of 2 classes.
        report = verify_bound_over_enumeration(4, 3, None, "thm3")
        assert report.visited == 16
        forms = [canonical_form(Hypergraph(3, 4, v)) for v in report.violations]
        assert len(forms) == 2
        assert sorted(forms) == sorted(set(walk_violation_forms(4, 3)))
        assert report.min_slack == pytest.approx(-1.1715728752538106)
        assert report.argmin_edges == complete(4, 3).edges
        at_five = verify_bound_over_enumeration(5, 3, None, "thm3")
        assert (len(at_five.violations), at_five.min_slack) == (13, -3.9141938054981535)

    @pytest.mark.parametrize("name, n, r", [
        (name, n, r) for name in ("none", "cancellative", "expansion-r", "expansion-r+1")
        for r in (2, 3) for n in range(7) if name != "none" or n < 6])
    def test_sweep_reads_the_bound_report(self, name, n, r):
        """Each bound kind, at ell = r and r + 1 for thm6: the violations are
        the nonempty classes whose `bound_report_for` does not hold, in class
        order, and min_slack is the least of their reports' slack. The sweeps
        that fail, such as thm3 over every 3-graph, are included."""
        family = {"none": None, "cancellative": Cancellative(),
                  "expansion-r": Expansion(r), "expansion-r+1": Expansion(r + 1)}[name]
        for kind, ell in [("thm1", None), ("thm3", None), ("thm6", r), ("thm6", r + 1)]:
            bound_family = {"thm1": None, "thm3": Cancellative(), "thm6": Expansion(ell)}[kind]
            report = verify_bound_over_enumeration(n, r, family, kind, ell)
            reports = [(h, bound_report_for(h, bound_family))
                       for h in enumerate_free_classes(n, r, family) if h.edges]
            assert report.violations == tuple(h.edges for h, b in reports if not b.holds)
            assert report.min_slack == min((b.slack for _, b in reports), default=math.inf)

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
    def test_incremental_shadow_matches_recomputation(self, kind, n, r, monkeypatch):
        """The sweep over the classes gives the labelled walk's report, with
        len(shadow(h)) recomputed for every graph the walk yields: the same
        visits and least slack, and one violation per violating class."""
        ell = r + 1 if kind == "thm6" else None
        family = {"thm1": None, "thm3": Cancellative(), "thm6": Expansion(ell)}[kind]
        visited, forms, min_slack = 0, set(), float("inf")
        for edges in _iter_free_edge_sets(n, r, family):
            visited += 1
            if not edges:
                continue
            slack = sweep_bound(kind, r, ell)(len(shadow(Hypergraph(r, n, edges)))) - len(edges)
            if slack < -TOLERANCE:
                forms.add(canonical_form(Hypergraph(r, n, edges)))
            min_slack = min(min_slack, slack)
        monkeypatch.setattr(extremal, "_iter_free_edge_sets", refuse_walk)
        report = verify_bound_over_enumeration(n, r, family, kind, ell)
        assert report.visited == visited
        assert report.min_slack == min_slack
        assert sorted(canonical_form(Hypergraph(r, n, v)) for v in report.violations) == sorted(forms)
        if report.argmin_edges:
            argmin = Hypergraph(r, n, report.argmin_edges)
            assert sweep_bound(kind, r, ell)(len(shadow(argmin))) - len(argmin) == min_slack

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("n", range(6))
    def test_enumeration_is_the_walks(self, n, r, monkeypatch):
        """The labelled counts by edge count, n!/|Aut| summed over the
        classes, are the walk's, and the class counts are those of the
        walk's distinct forms, for each family. Neither engine nor the
        sweep walks."""
        for family in (None, Cancellative(), Expansion(r + 1), Expansion(r + 2)):
            sets = list(_iter_free_edge_sets(n, r, family))
            forms = {canonical_form(Hypergraph(r, n, e)): len(e) for e in sets}
            with monkeypatch.context() as patch:
                patch.setattr(extremal, "_iter_free_edge_sets", refuse_walk)
                report = verify_bound_over_enumeration(n, r, family, "thm1")
                naive = enumerate_free(n, r, family)
                orderly = enumerate_free(n, r, family, engine="orderly")
            assert report.enumeration == {"naive": naive, "orderly": orderly}, family
            assert dict(naive.counts_by_edges) == Counter(map(len, sets)), family
            assert dict(orderly.counts_by_edges) == Counter(forms.values()), family


def sweep_bound(kind, r, ell):
    """The named bound as a function of the shadow size, from the formulas."""
    return {
        "thm1": lambda s: falling_binomial(solve_binomial_x(s, r - 1), r),
        "thm3": lambda s: shadow_bound(Cancellative(), s, r)[1],
        "thm6": lambda s: expansion_bound(s, ell, r)[1],
    }[kind]


def walk_violation_forms(n, r):
    """The forms of the labelled 3-graphs the walk meets that beat thm3, one
    per labelled set."""
    bound = sweep_bound("thm3", r, None)
    return [canonical_form(Hypergraph(r, n, e)) for e in _iter_free_edge_sets(n, r, None)
            if e and bound(len(shadow(Hypergraph(r, n, e)))) - len(e) < -TOLERANCE]


def refuse_walk(*args):
    raise AssertionError("a product path walked the labelled sets")


def refuse_class_pass(*args):
    raise AssertionError("the class pass ran before the bound was checked")


def polya_class_counts(n, r):
    """Oracle: the classes of r-graphs on n vertices by edge count, by
    Polya's theorem. Entry m is the x^m coefficient of (1/n!) times the sum
    over permutations s of n of the product, over the cycles c of s on the
    r-sets, of (1 + x^|c|). Permutations of one cycle type give the same
    product, and a type with m_k cycles of length k has n!/z of them,
    z = prod k^m_k m_k!, so the sum runs over the partitions of n."""
    def partitions(rest, most):
        if not rest:
            yield ()
        for k in range(min(rest, most), 0, -1):
            for tail in partitions(rest - k, k):
                yield (k,) + tail

    total = [0] * (math.comb(n, r) + 1)
    for shape in partitions(n, n):
        image = []  # a permutation of this cycle type
        for k in shape:
            image += [len(image) + (i + 1) % k for i in range(k)]
        z = math.prod(k ** m * math.factorial(m) for k, m in Counter(shape).items())
        product, seen = [1], set()
        for s in itertools.combinations(range(n), r):
            length = 0
            while s not in seen:
                seen.add(s)
                length += 1
                s = tuple(sorted(image[v] for v in s))
            if length:  # multiply by 1 + x^length
                product = [a + b for a, b in zip(product + [0] * length, [0] * length + product)]
        for m, coefficient in enumerate(product):
            total[m] += math.factorial(n) // z * coefficient
    return [t // math.factorial(n) for t in total]


class TestRandomFree:
    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3)])
    def test_samples_are_free(self, family):
        from shadowlab.forbidden import is_free

        for seed in range(50):
            h = random_free_graph(8, 3, family, seed)
            assert is_free(h, family)
            # Maximal: every 3-set left out would break freeness.
            for e in itertools.combinations(range(8), 3):
                if e not in h.edges:
                    assert not is_free(Hypergraph(3, 8, tuple(sorted(h.edges + (e,)))), family)

    def test_rejects_non_family(self):
        with pytest.raises(ParameterError):
            random_free_graph(6, 3, None, 1)

    def test_seed_determinism(self):
        a = random_free_graph(9, 3, Cancellative(), 123)
        b = random_free_graph(9, 3, Cancellative(), 123)
        assert a == b
