"""The workloads: fixed job lists built from a seed, each job checked
against a reference taken from mathematics or from the repo's oracles.

A workload takes the seed, builds every input (this is the timed set-up,
together with importing shadowlab) and returns its jobs. A job's `run`
calls the program and nothing else; its `check` compares the result with
the reference and returns None or a one-line reason. Checks are not timed
and are not traced.

The four workloads: `certify` puts the batch detectors and the heuristic
partition fit on large single graphs; `pipeline` is the README command
sequence through `cli.run`; `sweep` makes many tiny incremental-checker
calls inside the labelled DFS; `classify` is isomorph-free generation,
dominated by canonical forms. Each is the "should not move" side of a
claim about the layers that the others stress.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from shadowlab import (
    Cancellative,
    Expansion,
    Hypergraph,
    clique_expansion_graph,
    complete,
    fano,
    find_cancellative_violation,
    find_clique_expansion,
    is_two_covered,
    turan,
    z_value,
)
from shadowlab import cli
from shadowlab.bounds import (
    cancellative_report,
    expansion_report,
    kk_bound,
    lemma14_check,
    lemma9_check,
)
from shadowlab.extremal import (
    are_isomorphic,
    canonical_form,
    enumerate_free_classes,
    extremal_search,
    permutation_isomorphism_oracle,
    random_free_graph,
    verify_bound_over_enumeration,
)
from shadowlab.stability import partition_fit, stability_certificate

import reference as ref


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    report: Optional[str] = None    # path of the JSON report the job writes


# Jobs whose reference answer the program is known to miss, each with the
# one reason it is known to fail for. They still count in `failed`; the run
# stays `correct` while only these fail, and only for these reasons.
# K_90^3 is exactly tight for Kruskal-Katona (|H| = C(90,3) and
# |shadow| = C(90,2)), but the float bound reads C(90,3) - 1.004e-9, just
# past the 1e-9 tolerance, so it is reported as a violation: `tight` is
# false and the CLI exits 1, while |H| and |shadow| are right.
KNOWN_DEFECTS = {
    "certify": {"kk/complete90": "tight: got False, expected True"},
    "sweep": {},
    "classify": {},
    "pipeline": {"bound-kk/k90": "exit: got 1, expected 0; tight: got False, expected True"},
}

EPS = 0.05
DELTA = 0.05

# Labelled free 3-graphs on 6 vertices, one visit each in the labelled DFS,
# checked by orbit counting over the orderly engine's classes in
# test_bench.py.
LABELLED_N6 = {"cancellative": 4738, "expansion(3)": 4738, "expansion(4)": 110513}

# Isomorphism classes, also checked by orbit counting in test_bench.py.
CLASSES_N6 = {"cancellative": 30, "expansion(4)": 270}
CLASSES_N7 = {"cancellative": 201, "expansion(3)": 194}
CLASSES_N5_ALL = 34     # OEIS A000665: 3-graphs on 5 unlabelled vertices


def _batch(name: str, members: list[Job]) -> Job:
    """One job that runs several small ones in turn, so that the timing of
    each job (a calibration before and after it) is paid once for them."""
    def check(results):
        for job, result in zip(members, results):
            problem = job.check(result)
            if problem:
                return f"{job.name}: {problem}"
        return None
    return Job(name, lambda: [job.run() for job in members], check)


def _expect(**pairs) -> Optional[str]:
    """None when every got/expected pair matches, else every mismatch."""
    return "; ".join(
        f"{key}: got {got!r}, expected {want!r}"
        for key, (got, want) in pairs.items() if got != want
    ) or None


def _free(w) -> Optional[str]:
    return None if w is None else f"unexpected witness {w}"


def _fit_errors(cert, edges, n: int, cap: int, optimum: int, exact: bool) -> Optional[str]:
    if not cert.hypothesis_met or cert.fit is None:
        return f"no fit: status {cert.status}"
    return _expect(passed=(cert.passed, True)) or _partition_errors(
        cert.fit, edges, n, cap, optimum, exact)


def _partition_errors(fit, edges, n: int, cap: int, optimum: Optional[int],
                      exact: bool) -> Optional[str]:
    """An exact fit must remove exactly the optimum. A heuristic fit ends its
    single-vertex-move local search, so no such move may remove fewer edges,
    and it cannot beat the optimum where one is known."""
    problem = _expect(removed_recount=(fit.removed, ref.removed_by_partition(edges, fit.parts)),
                      subset_within_cap=(len(fit.subset) <= cap, True),
                      optimal_flag=(fit.optimal, exact))
    if problem:
        return problem
    if exact:
        return _expect(removed=(fit.removed, optimum))
    move = ref.improving_move(edges, fit.parts, n, cap)
    if move is not None:
        return f"moving vertex {move[0]} to part {move[1]} removes fewer than {fit.removed}"
    if optimum is not None and fit.removed < optimum:
        return f"heuristic removed {fit.removed} below the optimum {optimum}"
    return None


# -- certify -----------------------------------------------------------------

CANCELLATIVE_RUNGS = (4, 5, 6)      # turan(3k, 3, 3), m = k^3
EXPANSION_RUNGS = (4, 6)            # turan(4k, 4, 3), m = 4k^3
DELETED_SHARE = 0.04                # keeps |H| >= (1 - EPS) * bound
ADDED_EDGES = 2
EXACT_FIT_MAX_N = 14
# Seeded random 3-graphs for partition_fit on its own. Their optimum is far
# from 0, and the greedy start of the heuristic often leaves a vertex that
# one move would improve, so only a working local search passes the check.
# (n, share of all triples, inputs, mode); the exact optimum is recomputed
# by reference.fit_optimum_all_in.
RANDOM_FITS = ((10, 1 / 3, 3, "exact"), (18, 0.1, 8, "heuristic"))


def certify(seed: int) -> list[Job]:
    rng = random.Random(f"certify/{seed}")
    jobs: list[Job] = []
    for k in CANCELLATIVE_RUNGS:
        n = 3 * k
        full, _ = turan(n, 3, 3)
        gone = set(rng.sample(full.edges, round(DELETED_SHARE * len(full))))
        thinned = Hypergraph.build(3, n, [e for e in full.edges if e not in gone])
        present = set(full.edges)
        non_edges = [e for e in itertools.combinations(range(n), 3) if e not in present]
        grown = Hypergraph.build(3, n, full.edges + tuple(rng.sample(non_edges, ADDED_EDGES)))
        jobs += _cancellative_rung(k, thinned, grown, rng.randrange(2 ** 31))
    for k in EXPANSION_RUNGS:
        jobs += _expansion_rung(k, turan(4 * k, 4, 3)[0], rng.randrange(2 ** 31))
    for n, share, count, mode in RANDOM_FITS:
        triples = list(itertools.combinations(range(n), 3))
        fits = []
        for i in range(count):
            h = Hypergraph.build(3, n, sorted(rng.sample(triples, round(share * len(triples)))))
            fits.append(_random_fit(str(i), h, mode, rng.randrange(2 ** 31)))
        jobs.append(_batch(f"fit-{mode}/n{n}", fits))
    k90 = complete(90, 3)
    jobs.append(Job(
        "kk/complete90", lambda: kk_bound(k90),
        lambda rep: _expect(actual=(rep.actual, math.comb(90, 3)),
                            shadow=(rep.shadow_size, math.comb(90, 2)),
                            tight=(rep.tight, True)),
    ))
    return jobs


def _cancellative_rung(k: int, h: Hypergraph, g: Hypergraph, fit_seed: int) -> list[Job]:
    # h is a subgraph of the 3-partite Turan graph, so it is cancellative,
    # Lemma 9 holds on it and a partition fit need remove nothing inside
    # ceil(x) = ceil(sqrt(3 |shadow|)) vertices. g gained non-transversal
    # edges, each of which completes a triple with two Turan edges.
    n, edges = h.n, h.edges
    shadow_size = len(ref.shadow_sets(edges))
    cap = ref.ceil_sqrt(3 * shadow_size)
    optimum = ref.fit_optimum_inside_partite(edges, n, cap)
    exact = n <= EXACT_FIT_MAX_N
    mode = "exact" if exact else "heuristic"

    def check_report(rep):
        if rep.bound < rep.actual:
            return f"bound {rep.bound} below |H| = {rep.actual}"
        return _expect(actual=(rep.actual, len(edges)), shadow=(rep.shadow_size, shadow_size))

    def check_witness(w):
        if w is None:
            return "no witness for a non-cancellative graph"
        a, b, c = w.edges
        if not ({a, b, c} <= set(g.edges) and a != b and set(a) ^ set(b) <= set(c)):
            return f"invalid triple {w.edges}"
        return _expect(witness=(tuple(w.edges), ref.least_cancellative_witness(g.edges)))

    return [
        Job(f"fcv/t{3 * k}", lambda: find_cancellative_violation(h), _free),
        Job(f"cancellative-report/t{3 * k}", lambda: cancellative_report(h), check_report),
        Job(f"lemma9/t{3 * k}", lambda: lemma9_check(h),
            lambda rep: _expect(all_hold=(rep.all_hold, True), items=(len(rep.items), 4))),
        Job(f"certificate-{mode}/t{3 * k}",
            lambda: stability_certificate(h, Cancellative(), EPS, DELTA, mode=mode, seed=fit_seed),
            lambda cert: _fit_errors(cert, edges, n, cap, optimum, exact)),
        Job(f"fcv-witness/t{3 * k}+{ADDED_EDGES}", lambda: find_cancellative_violation(g),
            check_witness),
    ]


def _random_fit(name: str, h: Hypergraph, mode: str, seed: int) -> Job:
    # The cap is n, so the fit may keep every vertex.
    exact = mode == "exact"
    return Job(
        name, lambda: partition_fit(h, 3, h.n, mode=mode, seed=seed),
        lambda fit: _partition_errors(
            fit, h.edges, h.n, h.n,
            ref.fit_optimum_all_in(h.edges, h.n, 3) if exact else None, exact),
    )


def _expansion_rung(k: int, h: Hypergraph, fit_seed: int) -> list[Job]:
    # The 4-partite Turan graph: no 2-covered 5-set, the least 2-covered
    # 4-set is {0,1,2,3}, |shadow| = 6k^2 makes the bound exactly 4k^3, and
    # every vertex has degree 3k^2, so z = 3k^2 with witness (0,).
    n = 4 * k
    edge_set = set(h.edges)

    def check_clique(w):
        if w is None:
            return "no 2-covered 4-set found"
        if not is_two_covered(h, w.core):
            return f"core {w.core} is not 2-covered"
        for (u, v), e in w.covering:
            if e not in edge_set or u not in e or v not in e:
                return f"pair {(u, v)} not covered by {e}"
        return _expect(core=(tuple(w.core), (0, 1, 2, 3)), pairs=(len(w.covering), 6))

    return [
        Job(f"fce4/t{n}", lambda: find_clique_expansion(h, 4), _free),
        Job(f"fce3/t{n}", lambda: find_clique_expansion(h, 3), check_clique),
        Job(f"expansion-report/t{n}", lambda: expansion_report(h, 4),
            lambda rep: _expect(shadow=(rep.shadow_size, 6 * k * k),
                                actual=(rep.actual, 4 * k ** 3), tight=(rep.tight, True))),
        Job(f"lemma14/t{n}", lambda: lemma14_check(h, 4),
            lambda rep: _expect(all_hold=(rep.all_hold, True), items=(len(rep.items), 2))),
        Job(f"z/t{n}", lambda: z_value(h, 4),
            lambda zv: _expect(z=(zv.z, 3 * k * k), witness=(zv.witness, (0,)),
                               clamped=(zv.clamped, False))),
        Job(f"certificate-heuristic/t{n}",
            lambda: stability_certificate(h, Expansion(4), EPS, DELTA, mode="heuristic",
                                          seed=fit_seed),
            lambda cert: _fit_errors(cert, h.edges, n, n, 0, exact=False)),
    ]


# -- sweep -------------------------------------------------------------------

# (bound, family, n, labelled free graphs on n vertices); thm1 runs at
# n = 5, where it visits all 2^10 graphs, to keep a pass short.
SWEEPS = (
    ("thm1", None, 5, 2 ** 10),
    ("thm3", Cancellative(), 6, LABELLED_N6["cancellative"]),
    ("thm6", Expansion(3), 6, LABELLED_N6["expansion(3)"]),
    ("thm6", Expansion(4), 6, LABELLED_N6["expansion(4)"]),
)
CORPUS_SIZES = range(4, 11)
CORPUS_PER_SIZE = 5


def sweep(seed: int) -> list[Job]:
    rng = random.Random(f"sweep/{seed}")
    jobs: list[Job] = []
    for kind, family, n, labelled in SWEEPS:
        # No violations, and the tight points (Turan graphs, or K_4^3 for
        # thm1 and thm6 with l = 4) make the least slack exactly 0.
        ell = family.ell if isinstance(family, Expansion) else None
        jobs.append(Job(
            f"sweep-{kind}/{family or 'none'}/n{n}",
            lambda family=family, kind=kind, n=n, ell=ell:
                verify_bound_over_enumeration(n, 3, family, kind, ell),
            lambda rep, labelled=labelled: _expect(
                visited=(rep.visited, labelled), violations=(rep.violations, ()),
                min_slack_zero=(abs(rep.min_slack) <= 1e-9, True)),
        ))
    turan6 = turan(6, 3, 3)[0]
    for label, family in (("cancellative", Cancellative()), ("expansion(3)", Expansion(3))):
        # Bollobas (cancellative) and Mubayi (expansion family): the maximum
        # on 6 vertices is t(6) = 8, reached only by the 3-partite graph.
        jobs.append(Job(
            f"extremal/{label}", lambda family=family: extremal_search(6, 3, family),
            lambda res, label=label: _expect(
                max_edges=(res.max_edges, 8), unique=(res.unique, True),
                searched=(res.count_searched, LABELLED_N6[label]),
                turan=(permutation_isomorphism_oracle(res.example, turan6), True)),
        ))
    for n in CORPUS_SIZES:
        samples = []
        for family in (Cancellative(), Expansion(3)):
            for _ in range(CORPUS_PER_SIZE):
                s = rng.randrange(2 ** 31)
                samples.append(Job(
                    f"{family}/{s}",
                    lambda n=n, family=family, s=s: random_free_graph(n, 3, family, s),
                    lambda h, family=family: _check_maximal_free(h, family),
                ))
        jobs.append(_batch(f"random/n{n}", samples))
    return jobs


def _violates(n: int, edges, family) -> bool:
    if isinstance(family, Cancellative):
        return ref.least_cancellative_witness(edges) is not None
    return ref.has_covered_set(n, edges, family.ell + 1)


def _check_maximal_free(h: Hypergraph, family) -> Optional[str]:
    # The sampler keeps every edge that preserves freeness, and freeness is
    # hereditary, so its output is free and adding any non-edge breaks it.
    edges = sorted(h.edges)
    if _violates(h.n, edges, family):
        return "sample is not free"
    present = set(edges)
    for e in itertools.combinations(range(h.n), 3):
        if e not in present and not _violates(h.n, sorted(edges + [e]), family):
            return f"sample is not maximal: {e} can be added"
    return None


# -- classify ----------------------------------------------------------------

ISO_PAIRS = 24


def classify(seed: int) -> list[Job]:
    rng = random.Random(f"classify/{seed}")
    turan7 = turan(7, 3, 3)[0]
    turan6_4 = turan(6, 4, 3)[0]
    jobs = [
        Job("classes/n5/none", lambda: enumerate_free_classes(5, 3, None), _check_all_classes),
        Job("classes/n6/expansion(4)", lambda: enumerate_free_classes(6, 3, Expansion(4)),
            lambda reps: _check_free_classes(reps, Expansion(4), CLASSES_N6, turan6_4)),
        Job("classes/n7/cancellative", lambda: enumerate_free_classes(7, 3, Cancellative()),
            lambda reps: _check_free_classes(reps, Cancellative(), CLASSES_N7, turan7)),
        Job("classes/n7/expansion(3)", lambda: enumerate_free_classes(7, 3, Expansion(3)),
            lambda reps: _check_free_classes(reps, Expansion(3), CLASSES_N7, turan7)),
    ]
    symmetric = {
        "complete7": complete(7, 3), "fano": fano(), "turan6": turan(6, 3, 3)[0],
        "turan7": turan7, "k4-expansion": clique_expansion_graph(3, 3),
    }
    for name, h in symmetric.items():
        perm = list(range(h.n))
        rng.shuffle(perm)
        moved = Hypergraph.build(h.r, h.n, ref.relabel(h.edges, perm))
        jobs.append(Job(
            f"canonical/{name}", lambda h=h, moved=moved: (canonical_form(h), canonical_form(moved)),
            lambda pair: _expect(relabelling_invariant=(pair[0] == pair[1], True)),
        ))
    pairs: dict[int, list[Job]] = {5: [], 6: []}
    for i in range(ISO_PAIRS):
        n = 5 + i % 2
        triples = list(itertools.combinations(range(n), 3))
        m = rng.randint(3, len(triples) // 2)
        a = Hypergraph.build(3, n, rng.sample(triples, m))
        if i % 4 < 2:
            perm = list(range(n))
            rng.shuffle(perm)
            b = Hypergraph.build(3, n, ref.relabel(a.edges, perm))
        else:
            b = Hypergraph.build(3, n, rng.sample(triples, m))
        pairs[n].append(Job(
            str(i), lambda a=a, b=b: are_isomorphic(a, b),
            lambda got, a=a, b=b: _expect(oracle=(got, permutation_isomorphism_oracle(a, b))),
        ))
    return jobs + [_batch(f"isomorphic/n{n}", batch) for n, batch in pairs.items()]


def _check_all_classes(reps) -> Optional[str]:
    # Complementing is a bijection between classes with m and 10 - m edges.
    by_size = [0] * 11
    for h in reps:
        by_size[len(h)] += 1
    return _expect(classes=(len(reps), CLASSES_N5_ALL),
                   complement_symmetric=(by_size, by_size[::-1]))


def _check_free_classes(reps, family, classes, turan_graph: Hypergraph) -> Optional[str]:
    # Bollobas (cancellative) and Mubayi (expansion family): the maximum is
    # the Turan number, and only the Turan graph reaches it.
    for h in reps:
        if _violates(h.n, list(h.edges), family):
            return f"class {h.edges} is not {family}-free"
    most = max(len(h) for h in reps)
    largest = [h for h in reps if len(h) == most]
    problem = _expect(classes=(len(reps), classes[str(family)]),
                      max_edges=(most, len(turan_graph)), extremal_classes=(len(largest), 1))
    if problem:
        return problem
    return _expect(turan=(permutation_isomorphism_oracle(largest[0], turan_graph), True))


# -- pipeline ----------------------------------------------------------------

def _edge_list(n: int, edges) -> str:
    return "\n".join([f"3 {n}", *(" ".join(map(str, e)) for e in edges)]) + "\n"


def _read_edge_list(path: str) -> tuple[str, set]:
    with open(path) as fh:
        lines = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    return " ".join(lines[0]), {tuple(sorted(map(int, e))) for e in lines[1:]}


def _cli(argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pipeline(seed: int) -> list[Job]:
    rng = random.Random(f"pipeline/{seed}")
    graphs = {
        "t6": (6, ref.transversal_edges(6, 3, 3)),
        "t15": (15, ref.transversal_edges(15, 3, 3)),
        "k7": (7, list(itertools.combinations(range(7), 3))),
        "k90": (90, list(itertools.combinations(range(90), 3))),
    }
    digests = {}
    for name, (n, edges) in graphs.items():
        data = _edge_list(n, edges).encode()
        with open(f"{name}.hg", "wb") as fh:
            fh.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()

    jobs: list[Job] = []

    def command(name, argv, check, out=None):
        jobs.append(Job(name, _cli(argv + (["--out", out] if out else [])), check,
                        out if out and out.endswith(".json") else None))

    def report_check(out, code, digest, **fields):
        # fields: dotted path into results[0] -> expected value. The report
        # is checked whatever the exit code, when the command wrote one.
        def check(result):
            got_code, _, err = result
            exit_problem = _expect(exit=(got_code, code))
            if exit_problem and err.strip():
                exit_problem += f" ({err.strip()[:200]})"
            if exit_problem and not os.path.exists(out):
                return exit_problem
            rep = _load(out)
            first = rep["results"][0]
            got = {}
            for path in fields:
                value = first
                for part in path.split("."):
                    value = value[part]
                got[path] = value
            problem = _expect(input_digest=(rep["input_digest"], digest),
                              **{p: (got[p], want) for p, want in fields.items()})
            return "; ".join(filter(None, (exit_problem, problem))) or None
        return check

    def construct_check(path, name):
        n, edges = graphs[name]

        def check(result):
            if result[0] != 0:
                return f"exit {result[0]}: {result[2].strip()[:200]}"
            header, got = _read_edge_list(path)
            return _expect(header=(header, f"3 {n}"), edges=(got == set(edges), True))
        return check

    command("construct/t6", ["construct", "--family", "turan", "--n", "6", "--l", "3", "--r", "3"],
            construct_check("c-t6.hg", "t6"), "c-t6.hg")
    command("construct/k90", ["construct", "--family", "complete", "--n", "90", "--r", "3"],
            construct_check("c-k90.hg", "k90"), "c-k90.hg")

    def shadow_check(result):
        problem = report_check("shadow-k90.json", 0, digests["k90"], size=math.comb(90, 2))(result)
        if problem:
            return problem
        got = {tuple(e) for e in _load("shadow-k90.json")["results"][0]["edges"]}
        return _expect(edges=(got == set(itertools.combinations(range(90), 2)), True))

    command("shadow/k90", ["shadow", "--input", "k90.hg"], shadow_check, "shadow-k90.json")
    command("check-cancellative/t15", ["check", "--input", "t15.hg", "--family", "cancellative"],
            report_check("check-t15.json", 0, digests["t15"], free=True), "check-t15.json")
    command("check-expansion/t15",
            ["check", "--input", "t15.hg", "--family", "expansion", "--l", "3"],
            report_check("check-t15-l3.json", 0, digests["t15"], free=True), "check-t15-l3.json")
    # The first two edges of K_7^3 differ in {2, 3}, and (0, 2, 3) is the
    # first edge containing it.
    least = [[0, 1, 2], [0, 1, 3], [0, 2, 3]]
    command("check-cancellative/k7", ["check", "--input", "k7.hg", "--family", "cancellative"],
            report_check("check-k7.json", 1, digests["k7"], free=False,
                         **{"witness.edges": least}), "check-k7.json")
    command("bound-cancellative/t15", ["bound", "--input", "t15.hg", "--family", "cancellative"],
            report_check("bound-t15.json", 0, digests["t15"], tight=True, actual=125,
                         shadow_size=75), "bound-t15.json")
    command("bound-kk/k90", ["bound", "--input", "k90.hg", "--family", "kk"],
            report_check("bound-k90.json", 0, digests["k90"], tight=True,
                         actual=math.comb(90, 3), shadow_size=math.comb(90, 2)), "bound-k90.json")
    command("lemmas/t15", ["lemmas", "--input", "t15.hg", "--family", "cancellative"],
            report_check("lemmas-t15.json", 0, digests["t15"], all_hold=True), "lemmas-t15.json")
    command("enumerate-thm6/n5",
            ["enumerate", "--n", "5", "--r", "3", "--family", "expansion", "--l", "3",
             "--verify-bound", "thm6"],
            _enumerate_check("enum-n5.json", "naive", lambda: _labelled_expansion_free(5, 3),
                             lambda: _labelled_expansion_free(5, 3)), "enum-n5.json")
    command("enumerate-orderly-thm3/n6",
            ["enumerate", "--n", "6", "--r", "3", "--family", "cancellative",
             "--engine", "orderly", "--verify-bound", "thm3"],
            _enumerate_check("enum-n6.json", "orderly", lambda: CLASSES_N6["cancellative"],
                             lambda: LABELLED_N6["cancellative"]), "enum-n6.json")
    command("extremal/n6", ["extremal", "--n", "6", "--r", "3", "--family", "cancellative"],
            report_check("extremal-n6.json", 0, None, max_edges=8, unique=True,
                         count_searched=LABELLED_N6["cancellative"]), "extremal-n6.json")
    command("stability-exact/t6",
            ["stability", "--input", "t6.hg", "--family", "cancellative",
             "--eps", str(EPS), "--delta", str(DELTA)],
            report_check("stability-t6.json", 0, digests["t6"], passed=True,
                         **{"fit.removed": 0, "fit.optimal": True}), "stability-t6.json")
    command("stability-heuristic/t15",
            ["stability", "--input", "t15.hg", "--family", "cancellative",
             "--eps", str(EPS), "--delta", str(DELTA), "--mode", "heuristic",
             "--seed", str(rng.randrange(2 ** 31))],
            _heuristic_fit_check("stability-t15.json", graphs["t15"][1], digests["t15"]),
            "stability-t15.json")
    for job in [j for j in jobs if j.report]:
        command(f"revalidate/{job.name}", ["revalidate", "--report", job.report],
                _revalidate_check)
    return jobs


@functools.cache
def _labelled_expansion_free(n: int, ell: int) -> int:
    """Labelled 3-graphs on n vertices with no 2-covered (ell+1)-set."""
    triples = list(itertools.combinations(range(n), 3))
    return sum(
        1 for bits in range(1 << len(triples))
        if not ref.has_covered_set(n, [t for i, t in enumerate(triples) if bits >> i & 1], ell + 1)
    )


def _enumerate_check(out: str, engine: str, visits, labelled):
    # The enumeration visits one graph per class (orderly) or per labelled
    # graph (naive); the bound sweep always walks the labelled graphs.
    def check(result):
        if result[0] != 0:
            return f"exit {result[0]}: {result[2].strip()[:200]}"
        enum, swept = _load(out)["results"]
        return _expect(engine=(enum["engine"], engine), visited=(enum["visited"], visits()),
                       swept=(swept["visited"], labelled()),
                       violations=(swept["violations"], []))
    return check


def _heuristic_fit_check(out: str, edges, digest: str):
    def check(result):
        if result[0] != 0:
            return f"exit {result[0]}: {result[2].strip()[:200]}"
        rep = _load(out)
        cert = rep["results"][0]
        parts = [tuple(p) for p in cert["fit"]["parts"]]
        return _expect(input_digest=(rep["input_digest"], digest), passed=(cert["passed"], True),
                       removed=(cert["fit"]["removed"], ref.removed_by_partition(edges, parts)))
    return check


def _revalidate_check(result) -> Optional[str]:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {(err or out).strip()[:200]}"
    return _expect(revalidate=(json.loads(out).get("revalidate"), "identical"))


WORKLOADS = {"certify": certify, "sweep": sweep, "classify": classify, "pipeline": pipeline}
