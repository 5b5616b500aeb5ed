"""Forbidden-family detection: the indexed cancellative detector against its
triple-scan oracle, clique-expansion cores, and the incremental checker used
by the enumeration engines."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    Cancellative,
    Expansion,
    Hypergraph,
    complete,
    fano,
    find_cancellative_violation,
    find_clique_expansion,
    is_free,
    turan,
)
from shadowlab.errors import ParameterError, PreconditionError
from shadowlab.forbidden import (
    IncrementalFreeChecker,
    brute_force_cancellative_violation,
    brute_force_clique_expansion,
    require_free,
)

ALL_TRIPLES_N5 = list(itertools.combinations(range(5), 3))


def random_hypergraph(rng, n, r=3, max_edges=10):
    candidates = list(itertools.combinations(range(n), r))
    k = rng.randint(0, min(max_edges, len(candidates)))
    return Hypergraph.build(r, n, rng.sample(candidates, k))


class TestCancellative:
    def test_turan_is_cancellative(self, t6):
        assert find_cancellative_violation(t6) is None

    def test_complete_violation_witness(self, k4):
        w = find_cancellative_violation(k4)
        assert w is not None and w.kind == "cancellative-triple"
        a, b, c = (set(e) for e in w.edges)
        assert b != c and a.symmetric_difference(b) <= c

    def test_two_edges_never_violate(self):
        h = Hypergraph.build(3, 4, [(0, 1, 2), (0, 1, 3)])
        assert find_cancellative_violation(h) is None

    def test_detectors_agree_exhaustively_n5(self):
        """All 2^10 labeled 3-graphs on 5 vertices."""
        for bits in range(1 << len(ALL_TRIPLES_N5)):
            edges = [e for i, e in enumerate(ALL_TRIPLES_N5) if bits >> i & 1]
            h = Hypergraph.build(3, 5, edges)
            assert find_cancellative_violation(h) == brute_force_cancellative_violation(h)

    def test_detectors_agree_on_random_n7(self):
        rng = random.Random(0)
        for _ in range(2000):
            h = random_hypergraph(rng, rng.randint(3, 7))
            assert find_cancellative_violation(h) == brute_force_cancellative_violation(h)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_witness_matches_oracle(self, data):
        """r in 1..4, with empty graphs, isolated vertices and m <= 2."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 9), label="n")
        candidates = list(itertools.combinations(range(n), r))
        edges = data.draw(
            st.lists(st.sampled_from(candidates), unique=True, max_size=16)
            if candidates
            else st.just([]),
            label="edges",
        )
        h = Hypergraph.build(r, n, edges)
        assert find_cancellative_violation(h) == brute_force_cancellative_violation(h)

    def test_witness_matches_oracle_on_perturbed_turan(self):
        base = turan(12, 3, 3)[0]
        for extra in [(0, 3, 6), (1, 2, 4), (1, 9, 10), (2, 5, 11)]:
            h = Hypergraph.build(3, 12, base.edges + (extra,))
            w = find_cancellative_violation(h)
            assert w is not None and w == brute_force_cancellative_violation(h)

    def test_witness_spans_at_most_2r_minus_1(self):
        rng = random.Random(1)
        for _ in range(500):
            h = random_hypergraph(rng, rng.randint(4, 8))
            w = find_cancellative_violation(h)
            if w is not None:
                span = set().union(*map(set, w.edges))
                assert len(span) <= 2 * h.r - 1


class TestCliqueExpansion:
    def test_turan_is_free(self, t6):
        assert find_clique_expansion(t6, 3) is None

    def test_complete_core(self, k4):
        w = find_clique_expansion(k4, 3)
        assert w is not None and w.core == (0, 1, 2, 3)
        assert w.kind == "covered-clique"

    def test_covering_map_valid(self, k4):
        w = find_clique_expansion(k4, 3)
        assert len(w.covering) == 6
        for (u, v), edge in w.covering:
            assert u in edge and v in edge

    def test_ell_below_r_rejected(self, t6):
        with pytest.raises(ParameterError):
            find_clique_expansion(t6, 2)

    def test_against_brute_force(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(4, 12)
            h = random_hypergraph(rng, n, max_edges=14)
            for ell in (3, 4):
                got = find_clique_expansion(h, ell)
                ref = brute_force_clique_expansion(h, ell)
                assert (got is None) == (ref is None)
                if got is not None:
                    assert got.core == ref  # both scan lexicographically


class TestIsFree:
    def test_fano_is_cancellative(self):
        # any two Fano lines meet in one point, so |A^B| = 4 never fits in
        # a third line; confirmed against the raw triple scan
        h = fano()
        assert is_free(h, Cancellative())
        for a, b, c in itertools.permutations(h.edges, 3):
            assert not set(a) ^ set(b) <= set(c)

    def test_tripartite_expansion_free(self):
        assert is_free(turan(9, 3, 3)[0], Expansion(3))

    def test_empty_graph_is_free(self):
        h = Hypergraph.build(3, 5, [])
        assert is_free(h, Cancellative())
        assert is_free(h, Expansion(3))

    def test_violation_dispatch(self, k4, t6):
        """Each family's `violation` is its finder, and `parts` its
        extremal part count: r for cancellative graphs, ell for expansions."""
        assert Cancellative().violation(k4).kind == "cancellative-triple"
        assert Expansion(3).violation(k4).kind == "covered-clique"
        for h in (k4, t6, fano(), complete(6, 4), Hypergraph.build(3, 5, [])):
            assert Cancellative().violation(h) == find_cancellative_violation(h)
            for ell in range(h.r, 7):
                assert Expansion(ell).violation(h) == find_clique_expansion(h, ell)
        for r in (2, 3, 4):
            assert Cancellative().parts(r) == r
            assert [Expansion(ell).parts(r) for ell in (r, r + 1, 10 ** 8)] == [r, r + 1, 10 ** 8]

    def test_require_free(self, t6, k4):
        require_free(t6, Cancellative())
        require_free(t6, Expansion(3))
        with pytest.raises(PreconditionError, match="^hypergraph is not cancellative$") as err:
            require_free(k4, Cancellative())
        assert err.value.witness == find_cancellative_violation(k4)
        with pytest.raises(PreconditionError, match="^hypergraph contains a 2-covered 4-set$") as err:
            require_free(k4, Expansion(3))
        assert err.value.witness == find_clique_expansion(k4, 3)

    def test_freeness_monotone_under_removal(self):
        rng = random.Random(3)
        for family in (Cancellative(), Expansion(3)):
            for _ in range(200):
                h = random_hypergraph(rng, rng.randint(4, 7))
                if not is_free(h, family):
                    continue
                for i in range(len(h)):
                    sub = Hypergraph.build(
                        h.r, h.n, h.edges[:i] + h.edges[i + 1:]
                    )
                    assert is_free(sub, family)


class TestIncrementalChecker:
    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3)])
    def test_matches_batch_checker(self, family):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(4, 7)
            candidates = list(itertools.combinations(range(n), 3))
            rng.shuffle(candidates)
            checker = IncrementalFreeChecker(n, 3, family)
            kept = []
            for e in candidates[:10]:
                m = sum(1 << v for v in e)
                grown = Hypergraph.build(3, n, kept + [e])
                assert checker.would_violate(m) == (not is_free(grown, family))
                if not checker.would_violate(m):
                    checker.push(m)
                    kept.append(e)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_oracles_under_push_and_pop(self, data):
        """Driven as the DFS drives it: only non-violating edges are pushed,
        never an edge already on the stack, with pops in between."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 8), label="n")
        family = data.draw(
            st.sampled_from([Cancellative()] + [Expansion(ell) for ell in range(r, r + 3)]),
            label="family",
        )
        candidates = list(itertools.combinations(range(n), r))
        checker = IncrementalFreeChecker(n, r, family)
        stack = []
        for _ in range(data.draw(st.integers(0, 40), label="steps")):
            fresh = [e for e in candidates if e not in stack]
            if stack and (not fresh or data.draw(st.integers(0, 3), label="pop") == 0):
                checker.pop()
                stack.pop()
                continue
            if not fresh:
                break
            e = data.draw(st.sampled_from(fresh), label="edge")
            m = sum(1 << v for v in e)
            grown = Hypergraph.build(r, n, stack + [e])
            hit = checker.would_violate(m)
            assert hit == (not is_free(grown, family))
            if isinstance(family, Cancellative):
                assert hit == (brute_force_cancellative_violation(grown) is not None)
            else:
                assert hit == (brute_force_clique_expansion(grown, family.ell) is not None)
            if not hit:
                checker.push(m)
                stack.append(e)

    @pytest.mark.parametrize("family", [None, "cancellative", 3])
    def test_rejects_non_family(self, family):
        with pytest.raises(ParameterError, match="no forbidden family"):
            IncrementalFreeChecker(6, 3, family)

    def test_pop_restores_state(self):
        probe = sum(1 << v for v in (0, 1, 2))
        for family in (Expansion(3), Cancellative()):
            checker = IncrementalFreeChecker(6, 3, family)
            before = checker.would_violate(probe)
            for e in [(0, 1, 3), (1, 2, 4), (0, 2, 5)]:
                m = sum(1 << v for v in e)
                assert not checker.would_violate(m)
                checker.push(m)
            for _ in range(3):
                checker.pop()
            assert checker.would_violate(probe) == before
            if isinstance(family, Expansion):
                assert checker.pairs == 0
            else:
                assert checker.xors == {} and checker.inside == {}

    def test_memo_agrees_across_stacks_with_the_same_pairs(self):
        """The expansion verdict is memoized on the grown pair graph, so two
        different free stacks covering the same pairs share it: the same
        probe must still get the brute-force answer on both."""
        def masks(edges):
            return [sum(1 << v for v in e) for e in edges]

        # b adds (0, 1, 3), whose pairs the three edges of a already cover.
        a = [(0, 1, 2), (0, 3, 4), (1, 3, 5)]
        b = [(0, 1, 2), (0, 1, 3), (0, 3, 4), (1, 3, 5)]
        checker = IncrementalFreeChecker(6, 3, Expansion(3))
        # (2, 3, 5) 2-covers {0, 1, 2, 3}; (2, 4, 5) closes no 4-clique.
        for probe, expected in [((2, 3, 5), True), ((2, 4, 5), False)]:
            (m,) = masks([probe])
            covered = []
            for stack in (a, b):
                for e in masks(stack):
                    assert not checker.would_violate(e)
                    checker.push(e)
                covered.append(checker.pairs)
                grown = Hypergraph.build(3, 6, stack + [probe])
                oracle = brute_force_clique_expansion(grown, 3) is not None
                assert checker.would_violate(m) == oracle == expected
                for _ in stack:
                    checker.pop()
            assert covered[0] == covered[1]
        for e in masks(a):
            checker.push(e)
        pairs = checker.pairs
        (extra,) = masks([(0, 1, 3)])
        assert not checker.would_violate(extra)
        checker.push(extra)
        assert checker.pairs == pairs
        checker.pop()
        assert checker.pairs == pairs

    def test_ell_below_r_rejected(self):
        with pytest.raises(ParameterError):
            IncrementalFreeChecker(6, 3, Expansion(2))
