"""Acceptance suite: one test (and one printed pass line) per criterion.

Each criterion combines exact tight-point checks, exhaustive small-scale
sweeps, and property suites over seeded random corpora. Expected values come
from the independent oracles exercised in the unit suites.
"""

import itertools
import json
import random
from fractions import Fraction

from shadowlab import (
    Cancellative,
    Expansion,
    Hypergraph,
    clique_set,
    link,
    perturb,
    shadow,
    sigma,
    turan,
    z_value,
)
from shadowlab.bounds import (
    cancellative_report,
    expansion_report,
    lemma9_check,
    lemma14_check,
)
from shadowlab.cli import run, serialize
from shadowlab.extremal import (
    _iter_free_edge_sets,
    canonical_form,
    enumerate_free_classes,
    extremal_search,
    permutation_isomorphism_oracle,
    verify_bound_over_enumeration,
)
from shadowlab.stability import (
    brute_force_partition_fit,
    partition_fit,
    stability_certificate,
)

TOL = 1e-9


def passed(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_01_cancellative_bound_tightness(t6):
    rep6 = cancellative_report(t6)
    assert rep6.shadow_size == 12
    assert abs(rep6.bound - 8) <= TOL and rep6.actual == 8
    assert abs(rep6.slack) <= TOL

    t8 = turan(8, 4, 4)[0]
    rep8 = cancellative_report(t8)
    assert rep8.shadow_size == len(shadow(t8)) == 32
    assert abs(rep8.bound - 16) <= TOL and rep8.actual == 16
    assert abs(rep8.slack) <= TOL
    passed(1, "shadow 12 -> bound 8 on 6 vertices; shadow 32 -> bound 16 on 8")


def test_criterion_02_expansion_bound_tightness(t6, k4):
    rep6 = expansion_report(t6, 3)
    assert abs(rep6.slack) <= TOL and rep6.actual == 8

    rep4 = expansion_report(k4, 4)
    assert rep4.shadow_size == 6
    assert abs(rep4.bound - 4) <= TOL and rep4.actual == 4
    passed(2, "tight at the 3-partite point (l=3) and the complete point (l=4)")


def test_criterion_03_exhaustive_cancellative_bound():
    report = verify_bound_over_enumeration(6, 3, Cancellative(), "thm3")
    assert report.violations == ()
    assert report.min_slack >= -TOL
    assert abs(report.min_slack) <= TOL  # tight at the extremal graph
    passed(3, f"{report.visited} cancellative graphs on <= 6 vertices, 0 violations")


def test_criterion_04_expansion_extremal_numbers(t6):
    r5 = extremal_search(5, 3, Expansion(3))
    assert r5.max_edges == 4 and r5.unique
    assert r5.extremal_forms == (canonical_form(turan(5, 3, 3)[0]),)

    r6 = extremal_search(6, 3, Expansion(3))
    assert r6.max_edges == 8 and r6.unique
    assert r6.extremal_forms == (canonical_form(t6),)
    passed(4, "max 4 unique on 5 vertices, max 8 unique on 6, both the 3-partite graph")


def test_criterion_05_cancellative_extremal_number(t6):
    result = extremal_search(6, 3, Cancellative())
    assert result.max_edges == 8
    assert canonical_form(t6) in result.extremal_forms
    passed(5, f"max 8 on 6 vertices, attained by the balanced 3-partite graph")


def _lemma8_holds(h):
    sh = shadow(h)
    p = len(sh)
    links = [set(link(h, v).edges) for v in range(h.n)]
    adj = h.pair_adjacency
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if adj[u] >> v & 1 and links[u] & links[v]:
                return False
    return all(sigma(h, s) <= p for s in clique_set(h, h.n).all())


def _neighborhood(h, s):
    """The vertices outside S that lie in a common edge with all of S."""
    return {v for e in h.edges if set(s) <= set(e) for v in e if v not in s}


def _lemma10_holds(h):
    for v in range(h.n):
        nv = _neighborhood(h, (v,))
        for a in link(h, v).edges:
            if _neighborhood(h, a) & nv:
                return False
    return True


def test_criterion_06_link_disjointness_properties(
    cancellative_classes_n6, random_cancellative_corpus
):
    corpus = [h for h in cancellative_classes_n6 if h.edges]
    corpus += [h for h in random_cancellative_corpus if h.edges]
    assert all(_lemma8_holds(h) for h in corpus)
    assert all(_lemma10_holds(h) for h in corpus)
    passed(6, f"link disjointness and degree-sum caps on {len(corpus)} graphs")


def test_criterion_07_inequality_batteries(
    cancellative_classes_n6,
    random_cancellative_corpus,
    expansion_classes_n6,
    random_expansion_corpus,
):
    canc = [h for h in cancellative_classes_n6 if h.edges]
    canc += [h for h in random_cancellative_corpus if h.edges]
    assert all(lemma9_check(h).all_hold for h in canc)

    exp = [h for h in expansion_classes_n6 if h.edges]
    exp += [h for h in random_expansion_corpus if h.edges]
    assert all(lemma14_check(h, 3).all_hold for h in exp)
    passed(7, f"4 inequalities on {len(canc)} graphs, 2 on {len(exp)}; 0 violations")


def test_criterion_08_z_value_exact(t6):
    zv = z_value(t6, 3)
    assert zv.z == Fraction(4)
    assert zv.z == Fraction((3 - 3 + 1) * len(shadow(t6)), 3)
    passed(8, "z = 4 exactly, equal to (l-r+1)|shadow|/l")


def test_criterion_10_stability_shape():
    t12 = turan(12, 3, 3)[0]
    for seed in range(20):
        delete = seed % 4  # up to ~5% of the 64 edges
        h = perturb(t12, seed, delete, 0).hypergraph
        cert = stability_certificate(h, Cancellative(), 0.05, 0.05)
        assert cert.passed and cert.fit.removed == 0, (seed, cert.status)

    # three random intra-part edges must cost exactly three removals
    rng = random.Random(30)
    parts = [list(range(i, 12, 3)) for i in range(3)]
    extra = set()
    while len(extra) < 3:
        part = rng.choice(parts)
        u, v = rng.sample(part, 2)
        w = rng.randrange(12)
        if w in (u, v):
            continue
        extra.add(tuple(sorted((u, v, w))))
    spiked = Hypergraph.build(3, 12, t12.edges + tuple(sorted(extra)))
    fit = partition_fit(spiked, 3, 12)
    assert fit.optimal and fit.removed == 3
    passed(10, "20 perturbed certificates pass with 0 removals; 3 bad edges cost 3")


def test_criterion_11_oracle_equivalences():
    # enumeration engines agree on isomorphism classes
    for family in (None, Cancellative(), Expansion(3)):
        for n in (3, 4, 5):
            naive = {
                canonical_form(Hypergraph(3, n, edges))
                for edges in _iter_free_edge_sets(n, 3, family)
            }
            orderly = {
                canonical_form(h)
                for h in enumerate_free_classes(n, 3, family)
            }
            assert naive == orderly, (n, family)

    # partition fit agrees with full labeling enumeration at n = 8
    rng = random.Random(40)
    candidates = list(itertools.combinations(range(8), 3))
    for ell, cap in [(2, 8), (3, 6), (3, 8)]:
        h = Hypergraph.build(3, 8, rng.sample(candidates, 10))
        assert partition_fit(h, ell, cap).removed == brute_force_partition_fit(
            h, ell, cap
        )

    # canonical forms agree with permutation search at n = 5
    small = list(itertools.combinations(range(5), 3))
    for _ in range(150):
        a = Hypergraph.build(3, 5, rng.sample(small, rng.randint(0, 6)))
        b = Hypergraph.build(3, 5, rng.sample(small, rng.randint(0, 6)))
        assert (canonical_form(a) == canonical_form(b)) == (
            permutation_isomorphism_oracle(a, b)
        )
    passed(11, "engines, partition fits, and canonical forms match their oracles")


ACCEPTANCE_COMMANDS = [
    ["bound", "--input", "{hg}", "--family", "cancellative"],
    ["bound", "--input", "{hg}", "--family", "expansion", "--l", "3"],
    ["check", "--input", "{hg}", "--family", "expansion", "--l", "3"],
    ["lemmas", "--input", "{hg}", "--family", "cancellative"],
    ["lemmas", "--input", "{hg}", "--family", "expansion", "--l", "3"],
    ["enumerate", "--n", "5", "--r", "3", "--family", "expansion",
     "--l", "3", "--verify-bound", "thm6"],
    ["extremal", "--n", "5", "--r", "3", "--family", "cancellative"],
    ["stability", "--input", "{hg}", "--family", "cancellative",
     "--eps", "0.05", "--delta", "0.05"],
]


def test_criterion_12_cli_determinism(tmp_path, t6):
    hg = tmp_path / "t6.hg"
    hg.write_text(serialize(t6))

    for template in ACCEPTANCE_COMMANDS:
        reports = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            argv = [tok.format(hg=hg) for tok in template] + ["--out", str(out)]
            assert run(argv) == 0, argv
            report = json.loads(out.read_text())
            report.pop("runtime_ms")
            report["command"] = [
                tok for tok in report["command"] if "json" not in tok
            ]
            reports.append(report)
        assert reports[0] == reports[1], template

    # construct output is byte-identical outright
    outputs = []
    for name in ("a.hg", "b.hg"):
        path = tmp_path / name
        run(["construct", "--family", "turan", "--n", "6", "--l", "3",
             "--r", "3", "--out", str(path)])
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    passed(12, f"{len(ACCEPTANCE_COMMANDS) + 1} commands byte-identical "
               "modulo runtime_ms")
