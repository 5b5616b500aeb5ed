"""Numeric bounds and the inequality batteries."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    Cancellative, Expansion, Hypergraph, complete, link, shadow, turan, turan_padded, z_value,
)
from shadowlab.bounds import (
    TOLERANCE,
    Inequality,
    at_most,
    bound_report_for,
    cancellative_report,
    expansion_bound,
    expansion_report,
    falling_binomial,
    kk_bound,
    lemma9_check,
    lemma14_check,
    shadow_bound,
    solve_binomial_x,
)
from shadowlab.errors import DomainError, EmptyInputError, PreconditionError


class TestBinomialInversion:
    @pytest.mark.parametrize("s,k,x", [(6, 2, 4), (10, 3, 5), (1, 1, 1)])
    def test_integer_points(self, s, k, x):
        assert solve_binomial_x(s, k) == pytest.approx(x, abs=1e-9)

    def test_irrational_point(self):
        # x(x-1) = 14
        expected = (1 + math.sqrt(57)) / 2
        assert solve_binomial_x(7, 2) == pytest.approx(expected, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_binomial_x(0.5, 2)
        with pytest.raises(DomainError):
            solve_binomial_x(5, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1, 1e9), st.integers(1, 6))
    def test_two_sided_inverse(self, s, k):
        x = solve_binomial_x(s, k)
        assert falling_binomial(x, k) == pytest.approx(s, rel=1e-9, abs=1e-9)


class TestKKBound:
    def test_complete_is_tight(self, k4):
        rep = kk_bound(k4)
        assert rep.x == pytest.approx(4, abs=1e-9)
        assert rep.tight and rep.actual == 4

    def test_complete_with_isolated_vertices(self):
        h = Hypergraph.build(3, 7, complete(5, 3).edges)
        rep = kk_bound(h)
        assert rep.x == pytest.approx(5, abs=1e-9)
        assert rep.bound == pytest.approx(10, abs=1e-9) and rep.tight

    def test_single_edge(self):
        rep = kk_bound(Hypergraph.build(3, 3, [(0, 1, 2)]))
        assert rep.shadow_size == 3
        assert rep.x == pytest.approx(3, abs=1e-9)  # C(3,2) = 3
        assert rep.bound >= 1 - TOLERANCE

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            kk_bound(Hypergraph.build(3, 3, []))


# Floats at the verdict's edges: the infinities, nan, the tolerance itself
# and its neighbours within 1e-12, and ordinary magnitudes up to 1e6.
verdict_floats = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, TOLERANCE, -TOLERANCE]),
    st.floats(-1e-12, 1e-12).map(lambda d: TOLERANCE + d),
    st.floats(-1e-12, 1e-12).map(lambda d: -TOLERANCE + d),
    st.floats(-1e6, 1e6),
)


class TestVerdict:
    @settings(max_examples=300, deadline=None)
    @given(verdict_floats, verdict_floats)
    def test_inequality_derives_holds_from_its_sides(self, a, b):
        assert Inequality("claim", a, b).holds == at_most(a, b)

    @settings(max_examples=300, deadline=None)
    @given(verdict_floats)
    def test_nonnegative_slack_reads_the_tolerance_edge_exactly(self, s):
        assert at_most(0.0, s) == (s >= -TOLERANCE)

    def test_inequality_takes_no_verdict(self):
        with pytest.raises(TypeError):
            Inequality("claim", 1.0, 2.0, True)


# K_90^3 and K_120^3 are exactly tight for Kruskal-Katona, but the float
# bound reads C(90,3) - 1.004e-9 and C(120,3) - 1.63e-9, just past the
# tolerance.
FLOAT_KK_DEFECT = "ROADMAP item 1: the float KK bound misses the exact tight point K_90^3"


@pytest.mark.parametrize("n", [90, 120])
class TestTightPointVerdicts:
    @pytest.mark.xfail(strict=True, reason=FLOAT_KK_DEFECT)
    def test_complete_holds(self, n):
        assert bound_report_for(complete(n, 3), None).holds

    @pytest.mark.xfail(strict=True, reason=FLOAT_KK_DEFECT)
    def test_complete_is_tight(self, n):
        assert bound_report_for(complete(n, 3), None).tight


class TestShadowBounds:
    def test_cancellative_turan_point(self):
        x, bound = shadow_bound(Cancellative(), 12, 3)
        assert x == pytest.approx(6, abs=1e-9)
        assert bound == pytest.approx(8, abs=1e-9)

    def test_cancellative_single_edge_point(self):
        x, bound = shadow_bound(Cancellative(), 3, 3)
        assert (x, bound) == (pytest.approx(3), pytest.approx(1))

    def test_cancellative_closed_form(self):
        _, bound = shadow_bound(Cancellative(), 27, 4)
        assert bound == pytest.approx((27 / 4) ** (4 / 3), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 10 ** 6))
    def test_cancellative_meets_theorem_3_closed_forms(self, r, s):
        # Theorem 3 states the bound as x^(r-1) = r^(r-2) s and (x/r)^r;
        # shadow_bound evaluates it through the expansion formula at ell = r.
        x, bound = shadow_bound(Cancellative(), s, r)
        assert x ** (r - 1) == pytest.approx(r ** (r - 2) * s, rel=1e-12)
        assert bound == pytest.approx((x / r) ** r, rel=1e-12)

    def test_expansion_points(self):
        assert expansion_bound(12, 3, 3) == (pytest.approx(6), pytest.approx(8))
        assert expansion_bound(6, 4, 3) == (pytest.approx(4), pytest.approx(4))
        for ell, r in [(4, 3), (5, 3), (5, 4)]:
            x, bound = expansion_bound(math.comb(ell, r - 1), ell, r)
            assert x == pytest.approx(ell, abs=1e-9)
            assert bound == pytest.approx(math.comb(ell, r), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            shadow_bound(Cancellative(), 0, 3)
        with pytest.raises(DomainError):
            expansion_bound(5, 2, 3)
        for r in (0, 1):
            with pytest.raises(DomainError):
                shadow_bound(Cancellative(), 5, r)
            with pytest.raises(DomainError):
                expansion_bound(5, 3, r)

    def test_tight_at_padded_turan_multiples(self):
        # cancellative: m a multiple of r
        for n, m, r in [(8, 6, 3), (6, 6, 3), (10, 8, 4)]:
            rep = cancellative_report(turan_padded(n, m, r, r))
            assert rep.tight, (n, m, r, rep.slack)
        # expansion: m a multiple of ell
        for n, m, ell, r in [(8, 6, 3, 3), (9, 8, 4, 3), (12, 10, 5, 3)]:
            rep = expansion_report(turan_padded(n, m, ell, r), ell)
            assert rep.tight, (n, m, ell, r, rep.slack)

    def test_dispatch(self, t6):
        assert bound_report_for(t6, None).shadow_size == 12
        assert bound_report_for(t6, Cancellative()).tight
        assert bound_report_for(t6, Expansion(3)).tight
        assert bound_report_for(t6, None) == kk_bound(t6)
        assert bound_report_for(t6, Cancellative()) == cancellative_report(t6)
        assert bound_report_for(t6, Expansion(3)) == expansion_report(t6, 3)
        with pytest.raises(DomainError):
            bound_report_for(t6, Expansion(2))

    def test_holds(self, t6, k4):
        assert bound_report_for(t6, Cancellative()).holds
        assert bound_report_for(k4, None).holds
        # K_4^3 is not cancellative: 4 edges over the bound 18^(3/2)/27 < 3.
        assert not bound_report_for(k4, Cancellative()).holds


class TestLemma9:
    def test_turan_all_hold(self, t6):
        rep = lemma9_check(t6)
        assert rep.all_hold
        assert {i.identifier for i in rep.items} == {"L9.1", "L9.2", "L9.3", "L9.4"}
        assert rep.get("L9.4").rhs == pytest.approx(8, abs=1e-9)

    def test_turan_first_inequality_tight(self, t6):
        ineq = lemma9_check(t6).get("L9.1")
        assert ineq.lhs == 8 and ineq.rhs == pytest.approx(8, abs=1e-9)

    def test_single_edge(self):
        assert lemma9_check(Hypergraph.build(3, 3, [(0, 1, 2)])).all_hold

    def test_rejects_non_cancellative(self, k4):
        with pytest.raises(PreconditionError) as err:
            lemma9_check(k4)
        assert err.value.witness is not None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_link_shadow_is_the_shadow_degree(self, data):
        # L9.4 reads |shadow(L_v)| as v's degree in shadow(H): the shadow
        # sets through v, less v, are the shadow of v's link. At r = 2 the
        # link is 1-uniform, and its shadow {empty set} counts 1 when v has
        # an edge. Vertices past `support`, or missed by every edge, are
        # isolated.
        r = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(r, 9))
        support = data.draw(st.integers(r, n))
        edges = data.draw(st.sets(
            st.sampled_from(list(itertools.combinations(range(support), r))), min_size=1))
        h = Hypergraph.build(r, n, edges)
        degrees = shadow(h).degrees
        for v in range(n):
            if r >= 3:
                assert degrees[v] == len(shadow(link(h, v)))
            else:
                assert degrees[v] == (1 if h.degrees[v] else 0)


class TestLemma14:
    def test_turan(self, t6):
        rep = lemma14_check(t6, 3)
        assert rep.all_hold
        assert {i.identifier for i in rep.items} == {"L14.1", "L14.2"}

    def test_complete_at_own_ell(self):
        for ell in (3, 4, 5):
            assert lemma14_check(complete(ell, 3), ell).all_hold

    def test_rejects_covered_clique(self):
        with pytest.raises(PreconditionError) as err:
            lemma14_check(complete(5, 3), 3)
        assert err.value.witness.kind == "covered-clique"

    @pytest.mark.parametrize("h, ell", [
        (turan(12, 4, 3)[0], 10 ** 16),
        (turan(9, 3, 3)[0], 10 ** 16),
        (complete(8, 3), 10 ** 16),
        (turan(10, 5, 4)[0], 10 ** 18),
        (complete(6, 4), 10 ** 18),
        (Hypergraph.build(3, 3, [(0, 1, 2)]), 10 ** 18),
    ], ids=["T4(12)", "T3(9)", "K8", "T5(10)^4", "K6^4", "one-edge"])
    def test_l14_2_exact_at_huge_ell(self, h, ell):
        """L14.2's right side cancels two terms of size about ell * p^2, so
        in floats it reads 0 from ell near 10^16; it is the rational value,
        rounded once."""
        r, p, zv = h.r, len(shadow(h)), z_value(h, ell)
        exact = ((ell - r + 1) * (p - 2 * zv.z) * p + zv.z ** 2 * ell
                 - ((ell - r + 1) * p - zv.z * ell) ** 2 / Fraction(len(zv.witness)))
        rep = lemma14_check(h, ell)
        assert rep.get("L14.2").rhs == float(exact) > rep.get("L14.2").lhs
        assert rep.all_hold


class TestReportsOnShadowSizes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 10), st.integers(3, 8))
    def test_turan_reports_never_negative_slack(self, n, ell):
        if ell > n or ell < 3:
            return
        h, _ = turan(n, ell, 3)
        rep = expansion_report(h, ell)
        assert rep.slack >= -TOLERANCE
        assert rep.shadow_size == len(shadow(h))
