"""Named constructors and seeded perturbations."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    Cancellative,
    Expansion,
    Hypergraph,
    clique_expansion_graph,
    complete,
    expansion,
    fano,
    find_clique_expansion,
    is_free,
    link,
    perturb,
    shadow,
    shadow_i,
    turan,
    turan_padded,
)
from shadowlab.constructions import Xorshift64Star, balanced_parts
from shadowlab.errors import ParameterError

from conftest import any_hypergraphs


class TestComplete:
    @pytest.mark.parametrize("n,r,count", [(4, 3, 4), (3, 3, 1), (6, 2, 15)])
    def test_edge_counts(self, n, r, count):
        assert len(complete(n, r)) == count

    def test_rejects_n_below_r(self):
        with pytest.raises(ParameterError):
            complete(2, 3)


class TestTuran:
    def test_small_counts(self):
        assert len(turan(6, 3, 3)[0]) == 8
        assert len(turan(7, 3, 3)[0]) == 12

    def test_all_singleton_parts_gives_complete(self):
        assert turan(4, 4, 3)[0].edges == complete(4, 3).edges

    def test_partition_is_balanced_round_robin(self):
        h, spec = turan(7, 3, 3)
        assert spec.parts == ((0, 3, 6), (1, 4), (2, 5))
        sizes = [len(p) for p in spec.parts]
        assert max(sizes) - min(sizes) <= 1

    def test_edge_count_product_formula(self):
        for n, ell, r in [(6, 3, 3), (9, 4, 3), (10, 5, 4), (8, 4, 2)]:
            h, spec = turan(n, ell, r)
            sizes = [len(p) for p in spec.parts]
            expected = sum(
                math.prod(sizes[i] for i in combo)
                for combo in itertools.combinations(range(ell), r)
            )
            assert len(h) == expected

    def test_asymptotic_density(self):
        # t_r(n, l) ~ C(l, r) (n/l)^r within 5% at n in {50, 100}
        for n in (50, 100):
            for ell, r in [(3, 3), (5, 3)]:
                h, _ = turan(n, ell, r)
                approx = math.comb(ell, r) * (n / ell) ** r
                assert abs(len(h) - approx) / approx < 0.05

    def test_freeness(self):
        for n in range(3, 11):
            assert is_free(turan(n, 3, 3)[0], Cancellative())
            assert is_free(turan(n, 3, 3)[0], Expansion(3))
        for n in range(4, 11):
            assert is_free(turan(n, 4, 3)[0], Expansion(4))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            turan(2, 3, 3)
        with pytest.raises(ParameterError):
            turan(6, 2, 3)


class TestTuranPadded:
    def test_padding_adds_isolated_vertices(self):
        h = turan_padded(8, 6, 3, 3)
        base = turan(6, 3, 3)[0]
        assert h.n == 8 and h.edges == base.edges
        assert h.degrees[6] == h.degrees[7] == 0

    def test_no_padding_equals_turan(self):
        assert turan_padded(6, 6, 3, 3) == turan(6, 3, 3)[0]

    def test_small_instance(self):
        h = turan_padded(5, 4, 4, 3)
        assert len(h) == 4 and h.n == 5

    def test_rejects_m_above_n(self):
        with pytest.raises(ParameterError):
            turan_padded(5, 6, 3, 3)


class TestExpansion:
    def test_k4_into_3_graph(self):
        h = expansion(complete(4, 2), 3)
        assert len(h) == 6 and h.n == 10
        # each edge carries exactly one fresh vertex, and fresh vertices
        # are globally distinct
        fresh = [v for e in h.edges for v in e if v >= 4]
        assert len(fresh) == len(set(fresh)) == 6

    def test_r2_is_identity(self):
        g = complete(5, 2)
        assert expansion(g, 2).edges == g.edges

    def test_k3_into_4_graph(self):
        h = expansion(complete(3, 2), 4)
        assert len(h) == 3 and h.n == 9

    def test_rejects_non_graph(self):
        with pytest.raises(ParameterError):
            expansion(complete(4, 3), 4)

    def test_clique_expansion_contains_core(self):
        h = clique_expansion_graph(3, 3)
        w = find_clique_expansion(h, 3)
        assert w is not None and w.core == (0, 1, 2, 3)


class TestFano:
    def test_shape(self):
        h = fano()
        assert len(h) == 7 and h.n == 7
        assert all(d == 3 for d in h.degrees)
        assert len(shadow(h)) == 21  # every pair covered


class TestPerturb:
    def test_identity(self, t6):
        p = perturb(t6, 5, 0, 0)
        assert p.hypergraph == t6 and p.removed == () and p.added == ()

    def test_single_deletion(self, t6):
        p = perturb(t6, 5, 1, 0)
        assert len(p.hypergraph) == 7 and len(p.removed) == 1

    def test_seed_determinism(self, t6):
        a = perturb(t6, 99, 3, 2)
        b = perturb(t6, 99, 3, 2)
        assert a == b
        c = perturb(t6, 100, 3, 2)
        assert c != a  # overwhelmingly likely for distinct seeds

    def test_diff_is_consistent(self, t6):
        p = perturb(t6, 7, 2, 3)
        expected = (set(t6.edges) - set(p.removed)) | set(p.added)
        assert set(p.hypergraph.edges) == expected
        assert not set(p.added) & set(t6.edges)

    def test_budget_errors(self, t6):
        with pytest.raises(ParameterError):
            perturb(t6, 0, 9, 0)
        with pytest.raises(ParameterError):
            perturb(t6, 0, 0, 13)  # only C(6,3) - 8 = 12 non-edges


_turan_shape = st.integers(2, 5).flatmap(
    lambda ell: st.tuples(st.integers(ell, 12), st.just(ell), st.integers(2, ell))
)


@st.composite
def _graphs(draw):
    """A random 2-graph on up to 7 vertices."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Hypergraph.build(2, n, edges)


@st.composite
def _perturbed(draw):
    h = turan(*draw(_turan_shape))[0]
    delete = draw(st.integers(0, len(h)))
    add = draw(st.integers(0, math.comb(h.n, h.r) - len(h)))
    return perturb(h, draw(st.integers(0, 2 ** 32)), delete, add).hypergraph


_constructed = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.integers(1, n).map(lambda r: complete(n, r))),
    _turan_shape.map(lambda s: turan(*s)[0]),
    st.tuples(_turan_shape, st.integers(0, 3)).map(
        lambda s: turan_padded(s[0][0] + s[1], *s[0])),
    st.tuples(_graphs(), st.integers(2, 5)).map(lambda s: expansion(*s)),
    st.tuples(st.integers(1, 5), st.integers(2, 5)).map(
        lambda s: clique_expansion_graph(*s)),
    _perturbed(),
)


@settings(max_examples=150, deadline=None)
@given(_constructed)
def test_constructors_equal_build(h):
    """The constructors use the trusted path; `build` must agree with them."""
    assert Hypergraph.build(h.r, h.n, h.edges) == h


@settings(max_examples=150, deadline=None)
@given(st.one_of(_constructed, any_hypergraphs()), st.data())
def test_derived_graphs_equal_build(h, data):
    """`link`, `induced` and `shadow_i` use the trusted path too, and the
    shadow kernel's bisection needs their edges in lexicographic order."""
    kept = data.draw(st.sets(st.integers(0, h.n - 1)) if h.n else st.just(set()))
    derived = [h.induced(kept)]
    if h.r >= 2:
        derived += [link(h, v) for v in range(h.n)]
        derived += [shadow_i(h, i) for i in range(1, h.r)]
    for g in derived:
        assert Hypergraph.build(g.r, g.n, g.edges) == g


class TestPrng:
    def test_streams_reproduce(self):
        a = Xorshift64Star(42)
        b = Xorshift64Star(42)
        assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]

    def test_below_stays_in_range(self):
        rng = Xorshift64Star(0)
        draws = [rng.below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7
