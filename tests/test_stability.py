"""Partition fitting, dense-core extraction, and stability certificates."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowlab import (
    Cancellative,
    Expansion,
    Hypergraph,
    complete,
    forbidden,
    perturb,
    sigma,
    stability,
    turan,
    turan_padded,
)
from shadowlab.bounds import at_most, bound_report_for, lemma9_check
from shadowlab.errors import (
    ParameterError,
    PreconditionError,
    ResourceBudgetError,
)
from shadowlab.stability import (
    OUT,
    _edge_codes,
    _fit_branch_and_bound,
    _fit_result,
    _removed_count,
    brute_force_partition_fit,
    core_extract_cancellative,
    core_extract_expansion,
    partition_fit,
    stability_certificate,
)


def removed_by_labels(h, labels):
    """Edges not transversal in the labelling (label None = left out)."""
    removed = 0
    for e in h.edges:
        got = [labels[v] for v in e]
        if None in got or len(set(got)) != len(got):
            removed += 1
    return removed


@st.composite
def fit_instances(draw):
    """Random 3-graphs on up to 12 vertices with a cap that may leave
    vertices out."""
    n = draw(st.integers(3, 12))
    candidates = list(itertools.combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=30))
    cap = draw(st.integers(0, n))
    return Hypergraph.build(3, n, edges), cap, draw(st.integers(0, 2 ** 16))


def reference_local_cost(links_v, labels, ell, out_breaks):
    """costs[p] = edges through v left non-transversal if v takes part p,
    scored by a loop over the other vertices of each edge through v. An OUT
    neighbour breaks the edge when `out_breaks`, and is ignored otherwise."""
    broken = 0
    costs = [0] * ell
    for others in links_v:
        got = [labels[u] for u in others]
        if OUT in got:
            if out_breaks:
                broken += 1
                continue
            got = [g for g in got if g != OUT]
        if len(set(got)) != len(got):
            broken += 1
        else:
            for g in got:
                costs[g] += 1
    return [broken + c for c in costs]


def reference_local_search(h, links, labels, ell):
    """Single-vertex moves, first improvement in vertex and part order."""
    current = removed_by_labels(h, [None if p == OUT else p for p in labels])
    improved = True
    while improved:
        improved = False
        for v in range(h.n):
            if labels[v] == OUT:
                continue
            costs = reference_local_cost(links[v], labels, ell, out_breaks=True)
            cost = costs[labels[v]]
            for p in range(ell):
                if costs[p] < cost:
                    current += costs[p] - cost
                    cost = costs[p]
                    labels[v] = p
                    improved = True
    return labels, current


def fit_order(h):
    return sorted(range(h.n), key=lambda v: (-h.degrees[v], v))


def reference_heuristic(h, ell, cap, restarts, seed):
    """The heuristic scored edge by edge: the same greedy order, seeded
    shuffles, restarts and tie-breaks. Returns its labels and removals."""
    order = fit_order(h)
    links = [
        [tuple(u for u in h.edges[i] if u != v) for i in h.incidence[v]]
        for v in range(h.n)
    ]
    rng = random.Random(seed)
    best_labels, best = None, len(h.edges) + 1
    for attempt in range(restarts):
        seeding = order.copy()
        if attempt > 0:
            rng.shuffle(seeding)
        labels = [OUT] * h.n
        for v in seeding[:cap]:
            costs = reference_local_cost(links[v], labels, ell, out_breaks=False)
            labels[v] = costs.index(min(costs))
        labels, removed = reference_local_search(h, links, labels, ell)
        if removed < best:
            best_labels, best = labels, removed
    return best_labels, best


def reference_partition_fit(h, ell, cap, mode, seed):
    """`partition_fit` with the heuristic scored edge by edge, searching
    all ell parts; the fit lists the `fit_parts(ell, cap)` it may use."""
    exact = mode == "exact"
    best_labels, best = reference_heuristic(h, ell, cap, 4 if exact else 20, seed)
    if exact:
        best_labels, best = _fit_branch_and_bound(h, ell, cap, fit_order(h), best_labels, best)
    return _fit_result(h, fit_parts(ell, cap), best_labels, best, optimal=exact)


def fit_parts(ell, cap):
    """At most cap parts can be nonempty, and a fit has at least one."""
    return max(1, min(ell, cap))


def reference_branch_and_bound(h, ell, cap, labels, best):
    """What the branch-and-bound returns from the incumbent (`labels`,
    `best`), by a recursion over every labelling in its label order: parts
    up to one past the largest used so far (at most ell-1) while fewer than
    `cap` vertices are in, then OUT when n > cap. The first labelling that
    `_removed_count` scores strictly below the incumbent replaces it."""
    order = fit_order(h)
    path = [OUT] * h.n
    found = [labels, best]

    def visit(pos, in_count, max_part):
        if pos == h.n:
            removed = _removed_count(h, path)
            if removed < found[1]:
                found[:] = path.copy(), removed
            return
        parts = range(min(max_part + 1, ell - 1) + 1) if in_count < cap else ()
        for p in [*parts, OUT] if h.n > cap else parts:
            path[order[pos]] = p
            visit(pos + 1, in_count + (p != OUT), max(max_part, p))

    visit(0, 0, -1)
    return tuple(found)


def removed_among_placed(h, labels):
    """Edges with a vertex labelled OUT or two in one part; a vertex
    labelled None is not placed and breaks nothing."""
    removed = 0
    for e in h.edges:
        got = [labels[v] for v in e if labels[v] is not None]
        removed += OUT in got or len(set(got)) != len(got)
    return removed


@st.composite
def pinned_fit_instances(draw, n_max=9):
    """Random r-graphs, r 1..4, on 0..n_max vertices, with any part count
    1..4 (so also ell < r), any cap 0..n+1, a seed and a mode."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(0, n_max))
    candidates = list(itertools.combinations(range(n), r))
    edges = []
    if candidates:
        edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=25))
    return (
        Hypergraph.build(r, n, edges),
        draw(st.integers(1, 4)),
        draw(st.integers(0, n + 1)),
        draw(st.sampled_from(["heuristic", "exact"])),
        draw(st.integers(0, 2 ** 16)),
    )


def t6_plus_intra_part_edge():
    base = turan(6, 3, 3)[0]
    # vertices 0 and 3 share a part under the round-robin rule
    return Hypergraph.build(3, 6, base.edges + ((0, 1, 3),))


class TestPartitionFit:
    def test_turan_fits_exactly(self, t6):
        fit = partition_fit(t6, 3, 6)
        assert fit.removed == 0 and fit.optimal
        assert sorted(map(sorted, fit.parts)) == [[0, 3], [1, 4], [2, 5]]

    def test_intra_part_edge_costs_one(self):
        fit = partition_fit(t6_plus_intra_part_edge(), 3, 6)
        assert fit.removed == 1 and fit.optimal

    def test_complete_needs_removals(self, k4):
        fit = partition_fit(k4, 3, 4)
        assert fit.removed == brute_force_partition_fit(k4, 3, 4) == 2
        # with fewer parts than r no edge is transversal
        assert partition_fit(k4, 2, 4).removed == brute_force_partition_fit(k4, 2, 4) == 4

    def test_fewer_parts_than_r_need_no_search(self):
        """Every labelling of a 3-graph into 2 parts removes every edge, so
        the exact fit is the heuristic's: on 16 vertices and 160 edges the
        branch-and-bound would pass its node budget to prove it."""
        rng = random.Random(16)
        h = Hypergraph.build(3, 16, rng.sample(list(itertools.combinations(range(16), 3)), 160))
        fit = partition_fit(h, 2, 11)
        assert fit.removed == 160 and fit.optimal

    def test_more_parts_than_cap(self):
        """At most cap parts can be nonempty, so a fit with ell > cap is the
        fit with cap parts (one when cap is 0), and a huge ell costs nothing:
        exact mode still reaches the optimum over all ell + 1 labels."""
        rng = random.Random(7)
        triples = list(itertools.combinations(range(5), 3))
        for _ in range(40):
            h = Hypergraph.build(3, 5, rng.sample(triples, rng.randint(1, 10)))
            cap = rng.randint(0, 5)
            for mode in ("exact", "heuristic"):
                fit = partition_fit(h, max(1, cap), cap, mode)
                for ell in (cap + 1, cap + 2, 10 ** 6):
                    assert partition_fit(h, ell, cap, mode) == fit
            assert fit.removed == brute_force_partition_fit(h, cap + 1, cap)

    def test_cap_forces_vertices_out(self, t6):
        fit = partition_fit(t6, 3, 5)
        assert len(fit.subset) <= 5
        assert fit.removed == brute_force_partition_fit(t6, 3, 5) == 4

    def test_heuristic_upper_bounds_exact(self, t6):
        h = t6_plus_intra_part_edge()
        exact = partition_fit(h, 3, 6)
        heur = partition_fit(h, 3, 6, mode="heuristic", seed=1)
        assert not heur.optimal
        assert heur.removed >= exact.removed

    def test_heuristic_finds_turan_fit(self, t6):
        assert partition_fit(t6, 3, 6, mode="heuristic").removed == 0

    def test_heuristic_stops_at_a_fit_that_removes_nothing(self, monkeypatch):
        """The first attempt fits turan(9,3,3) with no removal, and no
        restart can beat that, so none shuffles its seeding."""
        def shuffle(self, x):
            raise AssertionError("restart after a fit that removes nothing")

        monkeypatch.setattr(random.Random, "shuffle", shuffle)
        fit = partition_fit(turan(9, 3, 3)[0], 3, 9, mode="heuristic")
        assert fit.removed == 0

    def test_matches_brute_force_on_random(self):
        rng = random.Random(8)
        import itertools

        for _ in range(40):
            n = rng.randint(4, 6)
            candidates = list(itertools.combinations(range(n), 3))
            h = Hypergraph.build(
                3, n, rng.sample(candidates, rng.randint(0, min(8, len(candidates))))
            )
            ell = rng.randint(2, 3)
            cap = rng.randint(2, n)
            assert partition_fit(h, ell, cap).removed == brute_force_partition_fit(
                h, ell, cap
            )

    @settings(max_examples=120, deadline=None)
    @given(fit_instances())
    def test_heuristic_is_local_optimum(self, instance):
        """No single-vertex move within the cap removes fewer edges."""
        h, cap, seed = instance
        fit = partition_fit(h, 3, cap, mode="heuristic", seed=seed)
        labels = [None] * h.n
        for p, part in enumerate(fit.parts):
            for v in part:
                labels[v] = p
        assert len(fit.subset) <= cap
        assert fit.removed == removed_by_labels(h, labels)
        for v in range(h.n):
            for p in (0, 1, 2, None):
                moved = labels.copy()
                moved[v] = p
                if sum(q is not None for q in moved) > cap:
                    continue
                assert removed_by_labels(h, moved) >= fit.removed

    @pytest.mark.xfail(strict=True, reason="the CHANGES.md FOUND line on "
                       "`stability._fit_heuristic`: it never tries an in/out swap "
                       "(ROADMAP item 6)")
    def test_heuristic_has_no_improving_in_out_swap(self):
        """No swap of one kept vertex for one left-out vertex, put into any
        part, removes fewer edges. Here the heuristic keeps (0,1,2,5,6,7) and
        removes 2; leaving 2 out and putting 8 in removes 1, the optimum."""
        h = Hypergraph.build(3, 9, [(0, 6, 7), (1, 6, 7), (2, 3, 5), (5, 7, 8)])
        fit = partition_fit(h, 3, 6, mode="heuristic", seed=0)
        assert partition_fit(h, 3, 6).removed == 1
        labels = [None] * h.n
        for p, part in enumerate(fit.parts):
            for v in part:
                labels[v] = p
        left_out = [w for w in range(h.n) if labels[w] is None]
        for u, w, p in itertools.product(fit.subset, left_out, range(3)):
            swapped = labels.copy()
            swapped[u], swapped[w] = None, p
            assert removed_by_labels(h, swapped) >= fit.removed, (u, w, p)

    @settings(max_examples=300, deadline=None)
    @given(pinned_fit_instances())
    # the greedy seeding puts the third vertex of the triangle beside the
    # first, so an edge lies inside part 0: its code 2 reads as one vertex
    # in part 1 in base 2, and as two in part 0 in base 3
    @example((Hypergraph.build(2, 3, [(0, 1), (0, 2), (1, 2)]), 2, 3, "heuristic", 0))
    @example((complete(5, 3), 2, 5, "heuristic", 1))
    @example((Hypergraph.build(1, 4, [(0,), (2,)]), 2, 3, "exact", 0))
    @example((Hypergraph.build(3, 0, []), 3, 0, "heuristic", 0))
    @example((Hypergraph.build(3, 5, []), 1, 6, "exact", 0))
    def test_heuristic_matches_edge_by_edge_scoring(self, instance):
        """The code-scored heuristic makes the same moves as scoring each
        incident edge by its other vertices' labels: the whole fit agrees."""
        h, ell, cap, mode, seed = instance
        assert partition_fit(h, ell, cap, mode=mode, seed=seed) == reference_partition_fit(
            h, ell, cap, mode, seed
        )

    @settings(max_examples=150, deadline=None)
    @given(pinned_fit_instances(n_max=7))
    def test_exact_returns_the_first_labelling_that_beats_the_incumbent(self, instance):
        """Exact mode returns the very labelling (parts and subset) that a
        full recursion in the branch-and-bound's label order keeps, not only
        one with the least removals. From no incumbent at all the first
        complete labelling is kept, so the label order shows too."""
        h, ell, cap, _, seed = instance
        labels, removed = reference_branch_and_bound(
            h, ell, cap, *reference_heuristic(h, ell, cap, 4, seed))
        assert partition_fit(h, ell, cap, mode="exact", seed=seed) == _fit_result(
            h, fit_parts(ell, cap), labels, removed, optimal=True)
        none = (None, len(h.edges) + 1)
        assert _fit_branch_and_bound(h, ell, cap, fit_order(h), *none) == (
            reference_branch_and_bound(h, ell, cap, *none))

    @settings(max_examples=200, deadline=None)
    @given(pinned_fit_instances(), st.data())
    def test_cost_vectors_are_removal_increases(self, instance, data):
        """On a partial labelling (None = not placed), costs_of(v, own)[p]
        is the increase in removals among placed vertices when v, taken
        out of the codes, takes label p; OUT is the last entry."""
        h, ell, _, _, _ = instance
        labels = data.draw(st.lists(
            st.sampled_from([None, OUT, *range(ell)]), min_size=h.n, max_size=h.n))
        _, unit, removals, costs_of, move = _edge_codes(h, ell)
        for v, p in enumerate(labels):
            if p is not None:
                move(v, unit[p])
        assert removals() == removed_among_placed(h, labels)
        for v in range(h.n):
            costs = costs_of(v, 0 if labels[v] is None else unit[labels[v]])
            assert len(costs) == ell + 1
            unplaced = removed_among_placed(h, [*labels[:v], None, *labels[v + 1:]])
            for p in [*range(ell), OUT]:
                moved = [*labels[:v], p, *labels[v + 1:]]
                assert costs[p] == removed_among_placed(h, moved) - unplaced

    def test_zero_removed_iff_multipartite_subgraph(self, t6):
        fit = partition_fit(t6, 3, 6)
        part_of = {v: i for i, p in enumerate(fit.parts) for v in p}
        assert all(len({part_of[v] for v in e}) == 3 for e in t6.edges)

    def test_a_labelling_deeper_than_the_recursion_limit(self):
        """An odd cycle on 1001 vertices needs one removal to be bipartite.
        The branch-and-bound labels the cycle in order, so its path is 1001
        vertices deep, past Python's default recursion limit of 1000."""
        n = 1001
        h = Hypergraph.build(2, n, [(v, (v + 1) % n) for v in range(n)])
        fit = partition_fit(h, 2, n)
        assert fit.optimal and fit.removed == 1

    def test_budget_and_parameter_errors(self, t6, monkeypatch):
        # A 60-vertex Turan graph less 30 edges plus 8 non-edges, which no
        # 3-partition keeps: the branch-and-bound proves the heuristic's fit
        # optimal in 299 calls, with 3^60 labellings in its tree.
        h = perturb(turan(60, 3, 3)[0], 1, 30, 8).hypergraph
        monkeypatch.setattr(stability, "FIT_NODE_BUDGET", 299)
        fit = partition_fit(h, 3, 60)
        assert fit.optimal and fit.removed == 8
        monkeypatch.setattr(stability, "FIT_NODE_BUDGET", 298)
        with pytest.raises(ResourceBudgetError) as caught:
            partition_fit(h, 3, 60)
        assert caught.value.partial == {"nodes": 298}
        assert partition_fit(h, 3, 60, mode="heuristic").removed == 8
        with pytest.raises(ParameterError):
            partition_fit(t6, 0, 6)
        with pytest.raises(ParameterError):
            partition_fit(t6, 3, 6, mode="annealing")


class TestCoreExtractCancellative:
    def test_turan_keeps_everything(self, t6):
        core = core_extract_cancellative(t6, 0.01)
        assert len(core.members) == 12
        assert core.core == (0, 1, 2, 3, 4, 5)
        assert core.flags.all_hold

    def test_flag_identifiers(self, t6):
        core = core_extract_cancellative(t6, 0.01)
        assert {f.identifier for f in core.flags.items} == {
            "g-size-lower",
            "min-degree-on-core",
            "core-size-upper",
            "core-size-lower",
            "induced-size-lower",
        }

    def test_single_edge_smoke(self):
        core = core_extract_cancellative(Hypergraph.build(3, 3, [(0, 1, 2)]), 0.25)
        assert set(core.members) <= {(0, 1), (0, 2), (1, 2)}

    def test_threshold_monotonicity(self, t6):
        h = perturb(turan(9, 3, 3)[0], 3, 2, 0).hypergraph
        loose = core_extract_cancellative(h, 0.04)
        strict = core_extract_cancellative(h, 0.01)  # higher threshold
        assert set(strict.members) <= set(loose.members)
        assert set(strict.core) <= set(loose.core)

    def test_rejects_non_cancellative(self, k4):
        with pytest.raises(PreconditionError):
            core_extract_cancellative(k4, 0.1)

    def test_eps_validation(self, t6):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ParameterError):
                core_extract_cancellative(t6, eps)

    def test_member_at_the_threshold_is_kept(self):
        """eps = 1/576 makes the threshold (2/3 - 6/24)|shadow| = 5.0, and
        four shadow pairs have degree sum exactly 5."""
        edges = [(0, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5), (2, 3, 6)]
        core = core_extract_cancellative(Hypergraph.build(3, 7, edges), 1 / 576)
        assert core.threshold == 5.0
        assert core.members == ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5))
        assert core.core == (1, 2, 3, 4, 5)

    def test_core_inside_support(self):
        h = turan_padded(10, 6, 3, 3)
        core = core_extract_cancellative(h, 0.01)
        assert core.core and all(h.degrees[v] > 0 for v in core.core)


class TestCoreExtractExpansion:
    def test_turan_with_z_window(self, t6):
        core = core_extract_expansion(t6, 3, 0.01)
        assert core.core == (0, 1, 2, 3, 4, 5)
        assert core.stats["z"] == pytest.approx(4.0)
        lower, upper = core.flags.get("z-window-lower"), core.flags.get("z-window-upper")
        assert lower.holds and lower.rhs == core.stats["z"]
        assert upper.holds and upper.lhs == core.stats["z"]

    def test_padding_excluded_from_core(self):
        core = core_extract_expansion(turan_padded(10, 6, 3, 3), 3, 0.01)
        assert core.core == (0, 1, 2, 3, 4, 5)

    def test_tight_point_smoke(self, k4):
        core = core_extract_expansion(k4, 4, 0.05)
        assert core.members and core.flags.items

    def test_member_at_the_threshold_is_kept(self):
        """ell = 4 and eps = 1/16 make the threshold (1/2)(2/4)(2)|shadow| =
        6.0, and the shadow pair (1, 4) has degree sum exactly 6."""
        edges = [(0, 2, 5), (0, 3, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 5)]
        h = Hypergraph.build(3, 6, edges)
        core = core_extract_expansion(h, 4, 1 / 16)
        assert core.threshold == 6.0 and sigma(h, (1, 4)) == 6
        assert (1, 4) in core.members

    def test_rejects_covered_clique(self):
        with pytest.raises(PreconditionError):
            core_extract_expansion(complete(5, 3), 3, 0.1)


class TestCertificate:
    def test_padded_turan_passes(self):
        cert = stability_certificate(
            turan_padded(9, 6, 3, 3), Cancellative(), 0.05, 0.05
        )
        assert cert.passed and cert.status == "ok"
        assert cert.report.x == pytest.approx(6, abs=1e-9)
        assert cert.fit.removed == 0

    def test_near_extremal_passes(self, t6):
        h = Hypergraph.build(3, 6, t6.edges[1:])
        cert = stability_certificate(h, Cancellative(), 0.2, 0.2)
        assert cert.passed and cert.fit.removed == 0

    def test_zero_eps_is_refused_below_the_hypothesis(self):
        """T_3(7) is below the cancellative hypothesis, so no core
        extraction runs to refuse eps = 0: the certificate must."""
        with pytest.raises(ParameterError):
            stability_certificate(turan(7, 3, 3)[0], Cancellative(), 0, 0.1)

    def test_sparse_input_fails_hypothesis(self):
        # two disjoint edges: shadow 6 gives bound 2.83, well above |H| = 2
        h = Hypergraph.build(3, 6, [(0, 1, 2), (3, 4, 5)])
        cert = stability_certificate(h, Cancellative(), 0.05, 0.05)
        assert not cert.hypothesis_met
        assert cert.status == "hypothesis-not-met"
        assert not cert.passed and cert.fit is None

    def test_expansion_family(self, t6):
        cert = stability_certificate(t6, Expansion(3), 0.05, 0.05)
        assert cert.passed and cert.ell_parts == 3

    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_turan_always_passes(self, n):
        h = turan(n, 3, 3)[0]
        cert = stability_certificate(h, Cancellative(), 0.001, 0.001)
        assert cert.passed and cert.fit.removed == 0

    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3), Expansion(4)], ids=str)
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_carries_the_bound_report(self, n, family):
        # The certificate carries the family's bound report on H, the one
        # L9.4's right side reads too.
        h = turan_padded(n + 2, n, 3, 3)
        report = bound_report_for(h, family)
        cert = stability_certificate(h, family, 0.05, 0.05)
        assert cert.report == report
        assert cert.removed_cap == 0.05 * report.x ** 3
        if isinstance(family, Cancellative):
            assert lemma9_check(h).get("L9.4").rhs == report.bound

    def test_rejects_non_free(self, k4):
        with pytest.raises(PreconditionError):
            stability_certificate(k4, Cancellative(), 0.05, 0.05)

    @pytest.mark.parametrize("h, met", [
        (turan(6, 3, 3)[0], True),
        (Hypergraph.build(3, 6, [(0, 1, 2), (3, 4, 5)]), False),
        (complete(4, 3), True),
        # {2,3} lies in (2,3,4), and {0,1,2,3} is 2-covered; ten disjoint
        # edges more keep |H| far below (1 - eps) times the bound
        (Hypergraph.build(3, 35, [(0, 1, 2), (0, 1, 3), (2, 3, 4)]
                          + [(v, v + 1, v + 2) for v in range(5, 35, 3)]), False),
    ], ids=["turan-met", "sparse-not-met", "k4-met", "triple-not-met"])
    @pytest.mark.parametrize("family", [Cancellative(), Expansion(3)], ids=str)
    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_one_freeness_check_per_certificate(self, h, met, family, mode, monkeypatch):
        """The family's detector runs exactly once per certificate, whether
        the hypothesis holds or not; a graph that is not free raises
        PreconditionError with the detector's witness on either path."""
        report = bound_report_for(h, family)
        assert at_most(0.95 * report.bound, report.actual) == met
        witness = family.violation(h)
        calls = []
        for name in ("find_cancellative_violation", "find_clique_expansion"):
            finder = getattr(forbidden, name)
            monkeypatch.setattr(forbidden, name, lambda *a, f=finder, name=name: (
                calls.append(name), f(*a))[1])
        if witness is None:
            assert stability_certificate(h, family, 0.05, 0.05, mode=mode).hypothesis_met == met
        else:
            with pytest.raises(PreconditionError) as err:
                stability_certificate(h, family, 0.05, 0.05, mode=mode)
            assert err.value.witness == witness
        expected = ("find_cancellative_violation" if isinstance(family, Cancellative)
                    else "find_clique_expansion")
        assert calls == [expected]

    def test_huge_ell_fits_on_cap_parts(self):
        # With ell far above cap = ceil(x) = 12, the fit has 12 parts; the
        # certificate still names ell.
        h = complete(12, 3)
        for mode in ("exact", "heuristic"):
            cert = stability_certificate(h, Expansion(10 ** 5), 0.2, 0.2, mode=mode)
            assert cert.passed and cert.ell_parts == 10 ** 5
            assert len(cert.fit.parts) == 12 and cert.fit.removed == 0

    @pytest.mark.parametrize("eps, delta", [
        (-1, 0.05), (0, 0.05), (1, 0.05), (2, 0.05), (math.nan, 0.05),
        (0.05, -1), (0.05, math.nan), (0.05, math.inf),
    ])
    def test_parameters_checked_first(self, eps, delta, k4):
        # K_4^3 is not cancellative, so only a check made first raises
        # ParameterError.
        with pytest.raises(ParameterError):
            stability_certificate(k4, Cancellative(), eps, delta)

    def test_delta_zero_allowed(self, t6):
        assert stability_certificate(t6, Cancellative(), 0.05, 0).passed

    def test_fits_on_ceil_x_vertices(self):
        # The padded Turan graph has x = 6 but 12 vertices: the fit may keep
        # only ceil(x) of them, and the certificate takes no other cap.
        h = turan_padded(12, 6, 3, 3)
        cert = stability_certificate(h, Cancellative(), 0.05, 0.05)
        assert math.ceil(cert.report.x) == 6 and len(cert.fit.subset) <= 6
        with pytest.raises(TypeError):
            stability_certificate(h, Cancellative(), 0.05, 0.05, cap=5)

    def test_removed_cap_uses_x_not_n(self):
        h = turan_padded(12, 6, 3, 3)  # padding must not inflate delta x^r
        cert = stability_certificate(h, Cancellative(), 0.05, 0.05)
        assert cert.removed_cap == pytest.approx(0.05 * 6 ** 3)
