"""Shadow/link/degree/clique primitives."""

import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    Hypergraph,
    hypercore,
    complete,
    is_two_covered,
    link,
    shadow,
    shadow_i,
    sigma,
    sigma_hat,
    turan,
    z_value,
)
from shadowlab.errors import EdgeError, EmptyInputError, ParameterError, ResourceBudgetError

from conftest import any_hypergraphs, reference_build, two_covered_sets

SRC = Path(__file__).resolve().parent.parent / "src"


def shadow_oracle(h, i):
    """The i-th shadow's edges by definition: every (r-i)-subset of every
    edge, deduplicated and sorted."""
    return tuple(sorted(set(itertools.chain.from_iterable(
        itertools.combinations(e, h.r - i) for e in h.edges))))


def all_cliques(h, k):
    """The 2-covered k-sets of H, as `cliques` walks them."""
    return list(hypercore.cliques(h.pair_adjacency, (), (1 << h.n) - 1, k))


def small_hypergraphs(max_n=7, r=3):
    """Strategy for random r-graphs on up to max_n vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(r, max_n))
        candidates = list(itertools.combinations(range(n), r))
        edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=12))
        return Hypergraph.build(r, n, edges)

    return build()


class TestBuild:
    def test_edges_sorted_lexicographically(self):
        h = Hypergraph.build(3, 5, [(4, 3, 2), (0, 1, 2)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ParameterError):
            Hypergraph.build(3, 5, [(0, 1, 2), (2, 1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ParameterError):
            Hypergraph.build(3, 3, [(0, 1, 3)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ParameterError):
            Hypergraph.build(3, 5, [(0, 1)])
        with pytest.raises(ParameterError):
            Hypergraph.build(3, 5, [(0, 1, 1)])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_agrees_with_the_reference_walk(self, data):
        """A list and an iterator of the same edges give the walk's graph,
        or its error at the index of the walk's first bad edge."""
        r = data.draw(st.integers(1, 3), label="r")
        n = data.draw(st.integers(0, 6), label="n")
        vertex = st.integers(-1, n)
        if data.draw(st.booleans(), label="non-int vertices"):
            vertex |= st.sampled_from([0.5, 2.0, "1", None, True, False])
        edge = st.one_of(
            st.lists(vertex, min_size=r, max_size=r),
            st.lists(vertex, min_size=max(r - 1, 1), max_size=r + 1),
        ).map(tuple)
        edges = data.draw(st.lists(edge, max_size=8), label="edges")
        try:
            expected = reference_build(r, n, edges)
        except ParameterError as exc:
            expected = str(exc)
        for given_edges in (edges, iter(edges)):
            try:
                assert Hypergraph.build(r, n, given_edges) == expected
            except EdgeError as exc:
                assert str(exc) == expected
                reference_build(r, n, edges[:exc.index])
                with pytest.raises(ParameterError, match=re.escape(expected)):
                    reference_build(r, n, edges[:exc.index + 1])

    @pytest.mark.parametrize("edges, index, words", [
        ([(0, 1, 2), (0, 1)], 1, "expected 3 vertices, got 2"),
        ([(0, 1, 2), (1, 2, 3), (2, 0, 2)], 2, "repeated vertex in edge (0, 2, 2)"),
        ([(0, 1, 2), (4, 5, 1)], 1, "vertex 5 outside 0..4"),
        ([(0, 1, 2), (0, -1, 2)], 1, "vertex -1 outside 0..4"),
        ([(0, 1, 2), (1, 2, 3), (2, 3, 4), (2, 1, 0)], 3, "duplicate edge (0, 1, 2)"),
        ([(0, 1, 2), (1, 2, 3), (2, 3, 4), (2, 1, 0), (0, 1, 3), (0, 1, 5)], 3,
         "duplicate edge (0, 1, 2)"),
        ([(0, 1, 2), (0, 1, 5), (1, 2, 3), (1, 1, 2), (0, 1)], 1, "vertex 5 outside 0..4"),
        ([(0, 1, 2), (0, 1), (0, 0, 1), (0, 1, 9), (2, 1, 0)], 1, "expected 3 vertices"),
        ([(0, 1, 2), (0.5, 1, 2)], 1, "non-integer vertex in edge (0.5, 1, 2)"),
        ([(0, 1, 2), (1, 2, 3), ("0", 1, 2)], 2, "non-integer vertex in edge ('0', 1, 2)"),
        ([(0, 1, 2), (4, 3, 2.0), (1, 1, 9), (0, 1)], 1, "non-integer vertex in edge (4, 3, 2.0)"),
        ([(0, 1, 2), (0, 1, 9), (None, 1, 2)], 1, "vertex 9 outside 0..4"),
        ([(0, 1, 2), (0, "1")], 1, "expected 3 vertices, got 2"),
    ])
    def test_error_carries_the_first_bad_edge(self, edges, index, words):
        """Each rule names its edge by index, and the earlier of two faults
        wins whatever their rules."""
        with pytest.raises(EdgeError, match=re.escape(words)) as info:
            Hypergraph.build(3, 5, edges)
        assert info.value.index == index

    def test_huge_uniformity_sizes_nothing(self):
        """r comes from outside, so an empty or refused list must allocate
        nothing by it; the child process has 512 MB of address space."""
        code = "\n".join([
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
            "from shadowlab import Hypergraph",
            "from shadowlab.errors import EdgeError",
            "assert Hypergraph.build(10**12, 5, []).edges == ()",
            "try:",
            "    Hypergraph.build(10**12, 5, [(0, 1, 2)])",
            "except EdgeError as exc:",
            "    raise SystemExit(exc.index)",
            "raise SystemExit(1)",
        ])
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert proc.returncode == 0

    def test_bool_vertices_are_the_ints_0_and_1(self):
        """A bool is an int, so the type rule accepts it as vertex 0 or 1."""
        h = Hypergraph.build(3, 5, [(2, True, 3), (False, 4, 2)])
        assert h == Hypergraph.build(3, 5, [(1, 2, 3), (0, 2, 4)])
        assert h.edge_masks == (0b10101, 0b1110) and h.degrees == (1, 1, 2, 1, 1)
        with pytest.raises(EdgeError, match=re.escape("repeated vertex in edge (0, False, 1)")):
            Hypergraph.build(3, 5, [(0, 1, False)])

    def test_lists_of_lists_are_accepted(self):
        h = Hypergraph.build(3, 5, [[4, 3, 2], [0, 1, 2]])
        assert h.edges == ((0, 1, 2), (2, 3, 4))

    def test_induced_keeps_labels(self, t6):
        sub = t6.induced([0, 1, 2, 5])
        assert sub.n == t6.n
        assert all(set(e) <= {0, 1, 2, 5} for e in sub.edges)
        assert set(sub.edges) == {e for e in t6.edges if set(e) <= {0, 1, 2, 5}}


class TestShadow:
    def test_complete_graph_shadow_is_complete(self, k4):
        assert set(shadow(k4).edges) == set(itertools.combinations(range(4), 2))

    def test_turan_shadow_is_cross_part_pairs(self, t6):
        sh = shadow(t6)
        assert len(sh) == 12
        part_of = [v % 3 for v in range(6)]
        assert all(part_of[u] != part_of[v] for u, v in sh.edges)

    def test_second_shadow_of_single_edge(self):
        h = Hypergraph.build(3, 3, [(0, 1, 2)])
        assert shadow_i(h, 2).edges == ((0,), (1,), (2,))

    def test_index_out_of_range(self, t6):
        for i in (0, 3, -1):
            with pytest.raises(ParameterError):
                shadow_i(t6, i)

    @settings(max_examples=300, deadline=None)
    @given(any_hypergraphs())
    def test_kernel_matches_the_oracle(self, h):
        for i in range(1, h.r):
            sh = shadow_i(h, i)
            assert (sh.r, sh.n, sh.edges) == (h.r - i, h.n, shadow_oracle(h, i))

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_one_uniform_has_no_shadow(self, i):
        h = Hypergraph.build(1, 3, [(0,), (2,)])
        with pytest.raises(ParameterError, match="shadows need r >= 2"):
            shadow_i(h, i)
        with pytest.raises(ParameterError, match="shadows need r >= 2"):
            h.first_shadow

    def test_kernel_runs_once_per_instance(self, monkeypatch):
        """shadow, shadow_i and the higher shadows read the cached first
        shadow of each instance in the chain: one kernel run per graph."""
        runs = []
        kernel = hypercore._shadow_edges

        def counted(edges, r, n):
            runs.append(r)
            return kernel(edges, r, n)

        monkeypatch.setattr(hypercore, "_shadow_edges", counted)
        h = complete(7, 4)
        assert shadow(h) is shadow(h) is shadow_i(h, 1) is h.first_shadow
        assert runs == [4]
        assert shadow_i(h, 3) is shadow_i(shadow_i(h, 2), 1)
        assert shadow_i(h, 2) is shadow(shadow(h))
        assert runs == [4, 3, 2]
        assert shadow(complete(7, 4)) is not shadow(h)
        assert runs == [4, 3, 2, 4]

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs(max_n=7, r=4))
    def test_shadow_composition(self, h):
        # shadow_i(shadow_j(H)) = shadow_{i+j}(H)
        assert shadow_i(shadow_i(h, 1), 1).edges == shadow_i(h, 2).edges
        assert shadow_i(shadow_i(h, 2), 1).edges == shadow_i(h, 3).edges


class TestLinkAndNeighborhood:
    def test_link_matches_definition(self, t6):
        for v in range(6):
            expected = sorted(
                tuple(u for u in e if u != v) for e in t6.edges if v in e
            )
            lk = link(t6, v)
            assert list(lk.edges) == expected
            assert len(lk) == t6.degrees[v]

    def test_isolated_vertex_has_empty_link(self):
        h = Hypergraph.build(3, 5, [(0, 1, 2)])
        assert link(h, 4).edges == ()

    def test_complete_link(self, k4):
        assert set(link(k4, 0).edges) == {(1, 2), (1, 3), (2, 3)}

    def test_link_bad_vertex(self, t6):
        with pytest.raises(ParameterError):
            link(t6, 6)


class TestDegreeSums:
    def test_sigma_on_turan_edge(self, t6):
        for e in t6.edges:
            assert sigma(t6, e) == 12

    def test_sigma_empty_set(self, t6):
        assert sigma(t6, []) == 0

    def test_sigma_complete_pair(self, k4):
        assert sigma(k4, [0, 1]) == 6

    def test_sigma_hat_values(self, t6, k4):
        assert sigma_hat(t6).sigma_hat == 12
        assert sigma_hat(k4).sigma_hat == 9
        single = Hypergraph.build(3, 3, [(0, 1, 2)])
        assert sigma_hat(single).sigma_hat == 3

    def test_sigma_hat_argmax_is_lex_least(self, t6):
        assert sigma_hat(t6).argmax_edge == t6.edges[0]

    def test_sigma_hat_empty(self):
        with pytest.raises(EmptyInputError):
            sigma_hat(Hypergraph.build(3, 3, []))

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs())
    def test_degree_sum_identity(self, h):
        assert sum(h.degrees) == h.r * len(h)
        for v in range(h.n):
            assert len(link(h, v)) == sigma(h, [v])


class TestCliques:
    def test_two_covered_examples(self, t6, k4):
        assert is_two_covered(k4, range(4))
        assert not is_two_covered(t6, [0, 3])  # same part
        assert is_two_covered(t6, [0, 2, 4])

    def test_small_sets_vacuously_covered(self, t6):
        assert is_two_covered(t6, [])
        assert is_two_covered(t6, [3])

    def test_clique_set_turan(self, t6):
        assert [len(all_cliques(t6, k)) for k in (1, 2, 3, 4)] == [6, 12, 8, 0]

    def test_clique_set_edgeless(self):
        h = Hypergraph.build(3, 4, [])
        assert all_cliques(h, 1) == [(0,), (1,), (2,), (3,)]
        assert all_cliques(h, 2) == []

    def test_clique_set_complete(self, k4):
        assert all_cliques(k4, 4) == [(0, 1, 2, 3)]

    @settings(max_examples=60, deadline=None)
    @given(any_hypergraphs())
    def test_clique_set_against_subset_scan(self, h):
        """Each size's cliques in lexicographic order, which z_value's
        witness tie-break and find_clique_expansion's least core rely on;
        and the cliques through each covered pair (u, v), as the
        clique-expansion checker grows them, in the same order."""
        scan = two_covered_sets(h, h.n)
        adj = h.pair_adjacency
        for k in range(1, h.n + 1):
            of_size = [s for s in scan if len(s) == k]
            assert all_cliques(h, k) == of_size
            for u, v in itertools.combinations(range(h.n), 2):
                if k < 3 or not adj[u] >> v & 1:
                    continue
                through = [(u, v) + tuple(w for w in s if w not in (u, v))
                           for s in of_size if u in s and v in s]
                assert list(hypercore.cliques(adj, (u, v), adj[u] & adj[v], k)) == through


class TestZValue:
    def test_turan_value_exact(self, t6):
        zv = z_value(t6, 3)
        assert zv.z == Fraction(4)
        assert not zv.clamped

    def test_single_edge_brute_force(self):
        h = Hypergraph.build(3, 3, [(0, 1, 2)])
        zv = z_value(h, 3)
        best = min(
            Fraction(3 - sigma(h, s), 3 - len(s))
            for k in (1, 2)
            for s in itertools.combinations(range(3), k)
            if is_two_covered(h, s)
        )
        assert zv.z == best

    def test_clamped_to_zero(self):
        # K_5^3 with ell=3: pair degree sums exceed the budget
        zv = z_value(complete(5, 3), 3)
        assert zv.z == 0 and zv.clamped

    def test_parameter_checks(self, t6):
        with pytest.raises(ParameterError):
            z_value(t6, 2)
        with pytest.raises(EmptyInputError):
            z_value(Hypergraph.build(3, 4, []), 3)

    @pytest.mark.parametrize("ell", [1, 0, -1])
    def test_ell_below_two_is_a_parameter_error(self, ell):
        """At ell = r = 1 no clique has size <= ell - 1, so ell < 2 is
        refused as a parameter, before any work."""
        with pytest.raises(ParameterError, match="ell must be >= "):
            z_value(Hypergraph.build(1, 3, [(0,), (2,)]), ell)
        with pytest.raises(ParameterError):
            z_value(Hypergraph.build(1, 3, []), ell)

    def test_one_uniform_at_ell_two(self):
        """The least ell a 1-graph accepts: budget 2|H| over singletons."""
        h = Hypergraph.build(1, 3, [(0,), (2,)])
        zv = z_value(h, 2)
        assert (zv.z, zv.witness, zv.clamped) == (Fraction(3), (0,), False)

    def test_huge_ell(self):
        # No clique has more than n vertices, so ell = 10^8 reads only
        # the 2-covered sets of at most n vertices.
        h, ell = complete(12, 3), 10 ** 8
        budget = (ell - 2) * len(shadow(h))
        zv = z_value(h, ell)
        assert zv.z == min(
            Fraction(budget - sigma(h, s), ell - len(s)) for s in two_covered_sets(h, 12))

    def test_node_budget(self, monkeypatch):
        """The walk passes at its exact clique count and raises one below:
        K_12^3 has 2^12 - 1 nonempty cliques, all of at most 12 vertices."""
        h, ell, cliques = complete(12, 3), 10 ** 8, 2 ** 12 - 1
        expected = z_value(h, ell)
        monkeypatch.setattr(hypercore, "Z_VALUE_NODE_BUDGET", cliques)
        assert z_value(h, ell) == expected
        monkeypatch.setattr(hypercore, "Z_VALUE_NODE_BUDGET", cliques - 1)
        with pytest.raises(ResourceBudgetError, match=r"^z_value node budget exceeded") as info:
            z_value(h, ell)
        assert info.value.partial == {"nodes": cliques - 1}

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(max_n=6), st.integers(3, 9))
    def test_streamed_minimum_matches_the_clique_set(self, h, ell):
        """The streamed walk finds the minimum and the (size, lexicographic)
        first witness that a scan of every 2-covered set does."""
        if not h.edges:
            return
        budget = (ell - h.r + 1) * len(shadow(h))
        sets = two_covered_sets(h, ell - 1)
        ratios = [Fraction(budget - sigma(h, s), ell - len(s)) for s in sets]
        least = min(ratios)
        zv = z_value(h, ell)
        assert zv.witness == sets[ratios.index(least)]
        assert zv.z == max(least, 0) and zv.clamped == (least < 0)

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(max_n=6), st.integers(3, 9))
    def test_definition_invariant(self, h, ell):
        """Every small clique satisfies the constraint at the returned z and
        the witness attains it (unless clamped)."""
        if not h.edges:
            return
        zv = z_value(h, ell)
        if zv.clamped:
            # some clique overshoots the budget even at z = 0; the flag
            # records that the constraint system is infeasible
            assert zv.z == 0
            return
        budget = (ell - h.r + 1) * len(shadow(h))
        for r_set in two_covered_sets(h, ell - 1):
            assert sigma(h, r_set) <= budget - (ell - len(r_set)) * zv.z
        w = zv.witness
        assert sigma(h, w) == budget - (ell - len(w)) * zv.z
