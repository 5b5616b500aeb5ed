"""Distance-to-multipartite fitting and the dense-core extraction routines.

The proofs behind the stability theorems are asymptotic; here their
quantifiers are made concrete per instance. Threshold sets use the papers'
exact expressions with the caller's epsilon, and every claim-level
inequality becomes a reported `Inequality` rather than an assumption:
instances far from extremal may legally violate them.
"""

from __future__ import annotations

import math
import random
from collections import _count_elements  # Counter's C grouping loop
from dataclasses import dataclass, replace
from typing import Optional

from .bounds import BoundReport, Inequality, InequalityReport, at_most, bound_report_for
from .errors import EmptyInputError, ParameterError, ResourceBudgetError
from .forbidden import Cancellative, Expansion, Family, require_free
from .hypercore import Hypergraph, shadow, sigma, z_value

FIT_NODE_BUDGET = 10 ** 7  # nodes one branch-and-bound may visit


@dataclass(frozen=True)
class PartitionFit:
    """Best found ell-partition of a vertex subset of size <= cap.

    `removed` counts edges of H that are not transversal in the partition or
    not inside the subset. `optimal` is True only in exact mode.
    """

    subset: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    removed: int
    optimal: bool


@dataclass(frozen=True)
class CoreExtraction:
    """Threshold set G inside the shadow and its vertex core U. Each flag
    states a claim as lhs <= rhs: an upper claim as (value, reference), a
    lower claim as (reference, value)."""

    threshold: float
    members: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]
    stats: dict[str, float]
    flags: InequalityReport = InequalityReport(())


@dataclass(frozen=True)
class StabilityCertificate:
    family: str
    ell_parts: int
    report: BoundReport
    eps: float
    delta: float
    hypothesis_met: bool
    status: str
    removed_cap: float
    core: Optional[CoreExtraction] = None
    fit: Optional[PartitionFit] = None

    @property
    def passed(self) -> bool:
        return self.status == "ok"


def partition_fit(
    h: Hypergraph,
    ell: int,
    cap: int,
    mode: str = "exact",
    seed: int = 0,
) -> PartitionFit:
    """Minimum edge removals to leave a subgraph of a complete ell-partite
    r-graph on at most `cap` vertices.

    Both modes run the seeded heuristic: greedy seeding in (-degree, v)
    order plus single-vertex-move local search. Heuristic mode returns its
    labelling as an upper bound flagged non-optimal; exact mode hands it to
    branch-and-bound over vertex labelings as the incumbent to beat; any n
    is tried, and `ResourceBudgetError` is raised past `FIT_NODE_BUDGET`
    nodes. Both score from one code per edge (`_edge_codes`). At most cap
    parts can be nonempty, so the fit has max(1, min(ell, cap)) parts. With
    fewer parts than r no edge is transversal, so every labelling removes
    all edges and exact mode keeps the heuristic's fit without a search.
    """
    if ell < 1 or cap < 0:
        raise ParameterError(f"need ell >= 1 and cap >= 0, got ell={ell}, cap={cap}")
    if mode not in ("exact", "heuristic"):
        raise ParameterError(f"unknown mode {mode!r}")
    ell = max(1, min(ell, cap))
    exact = mode == "exact"
    order = sorted(range(h.n), key=lambda v: (-h.degrees[v], v))
    labels, removed = _fit_heuristic(h, ell, cap, order, seed, 4 if exact else 20)
    if exact and ell >= h.r:
        labels, removed = _fit_branch_and_bound(h, ell, cap, order, labels, removed)
    return _fit_result(h, ell, labels, removed, optimal=exact)


OUT = -1


def _fit_result(h, ell, labels, removed, optimal) -> PartitionFit:
    parts = tuple(
        tuple(v for v in range(h.n) if labels[v] == p) for p in range(ell)
    )
    subset = tuple(v for v in range(h.n) if labels[v] != OUT)
    recount = _removed_count(h, labels)
    if removed != recount:
        raise RuntimeError(
            f"partition fit kept {removed} removals but the labels remove {recount}"
        )
    return PartitionFit(subset, parts, removed, optimal)


def _removed_count(h: Hypergraph, labels) -> int:
    """Edges with an OUT vertex or two vertices in one part."""
    return sum(len({labels[v] for v in e} - {OUT}) < h.r for e in h.edges)


def _edge_codes(h: Hypergraph, ell: int):
    """The edge codes both fit engines score from. Edge i's code is
    sum((r+1)**label) over its placed vertices, OUT as digit ell, so digit
    p counts its vertices in part p; an unplaced vertex adds nothing. A
    digit reaches r at most, hence base r+1: in base r an edge inside one
    part would carry into the next digit. An edge is removed once a part
    digit reaches 2 or its OUT digit is nonzero. Returns the codes (all 0),
    `unit` (each label's digit value), `removals()`, `costs_of` and `move`;
    each distinct code is decoded once. `removals` and `costs_of` group
    equal codes into a plain dict first, so a decode is looked up once per
    distinct code rather than once per edge.
    """
    r = h.r
    incidence = h.incidence
    unit = [(r + 1) ** p for p in range(ell + 1)]   # unit[OUT] is digit ell
    code = [0] * len(h.edges)
    decoded = {}

    def decode(c):  # (removed, the labels that remove it: its parts and OUT)
        digits = [c // u % (r + 1) for u in unit]
        removed = digits[OUT] > 0 or max(digits[:ell]) > 1
        hits = () if removed else (*[p for p in range(ell) if digits[p]], OUT)
        decoded[c] = entry = (removed, hits)
        return entry

    def grouped(codes):  # (code, how many of `codes` equal it) pairs
        counts = {}
        _count_elements(counts, codes)
        return counts.items()

    def removals():
        return sum(k for c, k in grouped(code) if (decoded.get(c) or decode(c))[0])

    def costs_of(v, own):
        """costs[label], OUT last: the edges through v that v removes by
        taking that label, once its digit value `own` is taken out."""
        costs = [0] * (ell + 1)
        for c, k in grouped(map(code.__getitem__, incidence[v])):
            c -= own
            for p in (decoded.get(c) or decode(c))[1]:
                costs[p] += k
        return costs

    def move(v, shift):  # add `shift` to the codes of v's edges
        for i in incidence[v]:
            code[i] += shift

    return code, unit, removals, costs_of, move


def _fit_branch_and_bound(h: Hypergraph, ell: int, cap: int, order, best_labels, best):
    """Depth-first labelling of `order`, pruned by the incumbent
    (`best_labels`, `best`); returns an optimal labelling and its removals,
    or raises `ResourceBudgetError` past `FIT_NODE_BUDGET` nodes. The path
    is a list of frames, one per labelled vertex, so any n fits in it. A
    frame reads its vertex's removals per label once from the edge codes,
    and a label is put on or taken off by shifting the codes."""
    n = h.n
    nodes = 0
    allow_out = n > cap
    _, unit, _, costs_of, move = _edge_codes(h, ell)
    labels = [None] * n   # None: not labelled on the current path
    frames = []  # per labelled vertex: its node, its untried labels, its removals per label
    node = (0, 0, 0, -1)  # pos, removed, in_count, max_part
    while True:
        nodes += 1
        if nodes > FIT_NODE_BUDGET:
            raise ResourceBudgetError.nodes("branch-and-bound", FIT_NODE_BUDGET)
        pos, removed, in_count, max_part = node
        if removed < best and pos == n:
            best, best_labels = removed, labels.copy()
        elif removed < best:
            parts = range(min(max_part + 1, ell - 1) + 1) if in_count < cap else ()
            frames.append((node, iter([*parts, OUT] if allow_out else parts),
                           costs_of(order[pos], 0)))
        while frames:  # move the deepest vertex to its next label, or unlabel it
            (pos, removed, in_count, max_part), untried, costs = frames[-1]
            v = order[pos]
            shift = 0 if labels[v] is None else -unit[labels[v]]
            p = labels[v] = next(untried, None)
            if p is None:
                move(v, shift)
                frames.pop()
                continue
            move(v, shift + unit[p])
            node = (pos + 1, removed + costs[p], in_count + (p != OUT),
                    max_part if p == OUT else max(max_part, p))
            break
        else:
            return best_labels, best


def _fit_heuristic(h: Hypergraph, ell: int, cap: int, order, seed: int, restarts: int):
    """Greedy seeding of `order[:cap]` (of a seeded shuffle of `order` after
    the first restart), the rest left out, then local search; the best
    labels and removals."""
    code, unit, removals, costs_of, move = _edge_codes(h, ell)
    rng = random.Random(seed)
    best_labels, best = None, len(h.edges) + 1
    for attempt in range(restarts):
        seeding = order.copy()
        if attempt > 0:
            rng.shuffle(seeding)
        code[:] = [0] * len(code)
        labels = [OUT] * h.n
        for v in seeding[:cap]:
            costs = costs_of(v, 0)
            p = labels[v] = costs.index(min(costs))
            move(v, unit[p])
        for v in seeding[cap:]:
            move(v, unit[OUT])
        # Local search: single-vertex moves between parts, first improvement
        # in vertex and part order (the scan ends at the first cheapest part;
        # OUT never costs less), until none helps. Left-out vertices stay
        # out: the seeding leaves a vertex out only once the cap is full.
        removed = removals()
        kept = [v for v in range(h.n) if labels[v] != OUT]
        improved = True
        while improved:
            improved = False
            for v in kept:
                own = unit[labels[v]]
                costs = costs_of(v, own)
                least = min(costs)
                if least < costs[labels[v]]:
                    removed += least - costs[labels[v]]
                    p = labels[v] = costs.index(least)
                    move(v, unit[p] - own)
                    improved = True
        if removed < best:
            best_labels, best = labels, removed
        if not best:  # no restart improves on a fit that removes nothing
            break
    return best_labels, best


def brute_force_partition_fit(h: Hypergraph, ell: int, cap: int) -> int:
    """Oracle: full enumeration over all labelings (parts plus out)."""
    import itertools

    best = len(h.edges)
    values = list(range(ell)) + [OUT]
    for labels in itertools.product(values, repeat=h.n):
        if sum(1 for p in labels if p != OUT) > cap:
            continue
        best = min(best, _removed_count(h, labels))
    return best


def _extract_core(h: Hypergraph, family: Family, eps: float, threshold_of):
    """The part both core extractions share: check eps and freeness, keep
    the shadow members whose degree sum reaches `threshold_of(r, |shadow|)`,
    and take their vertices as the core U. Returns the extraction without
    flags, the family's bound report on H, |H[U]| and the least degree on U."""
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0,1), got {eps}")
    require_free(h, family)
    if not h.edges:
        raise EmptyInputError("core extraction needs a nonempty hypergraph")
    sh = shadow(h)
    p = len(sh)
    threshold = threshold_of(h.r, p)
    members = tuple(s for s in sh.edges if sigma(h, s) >= threshold)
    core = tuple(sorted({v for s in members for v in s}))
    h_u = h.induced(core)
    stats = {
        "shadow_size": float(p),
        "g_size": float(len(members)),
        "g_fraction": len(members) / p,
        "u_size": float(len(core)),
        "h_u_size": float(len(h_u)),
        "shadow_h_u_size": float(len(shadow(h_u))) if h_u.edges else 0.0,
    }
    min_deg = min((h.degrees[v] for v in core), default=math.inf)
    report = BoundReport.of(family, h.r, len(h), p)
    return CoreExtraction(threshold, members, core, stats), report, len(h_u), min_deg


def core_extract_cancellative(h: Hypergraph, eps: float) -> CoreExtraction:
    """Threshold set of high-degree-sum shadow members and its vertex core,
    with the claim statistics the cancellative argument tracks."""
    ext, report, h_u_size, min_deg = _extract_core(
        h, Cancellative(), eps,
        lambda r, p: ((r - 1) / r - 2 * r * math.sqrt(eps)) * p,
    )
    r, p, x, bound = h.r, report.shadow_size, report.x, report.bound
    rt = math.sqrt(eps)
    g, u = len(ext.members), len(ext.core)
    g_low = (1 - 8 * r ** 2 * rt) * p
    deg_low = (1 / r - 3 * r ** 2 * rt) * p
    u_high = (1 + 6 * r ** 3 * rt) * x
    u_low = (1 - 35 * r ** 4 * rt) * x
    h_u_low = (1 - 33 * r ** 4 * rt) * bound
    flags = InequalityReport((
        Inequality("g-size-lower", g_low, g),
        Inequality("min-degree-on-core", deg_low, min_deg),
        Inequality("core-size-upper", u, u_high),
        Inequality("core-size-lower", u_low, u),
        Inequality("induced-size-lower", h_u_low, h_u_size),
    ))
    return replace(ext, flags=flags)


def core_extract_expansion(h: Hypergraph, ell: int, eps: float) -> CoreExtraction:
    """Threshold set for the clique-expansion argument, with the z window
    and the claim statistics reported as flags."""
    ext, report, h_u_size, min_deg = _extract_core(
        h, Expansion(ell), eps,
        lambda r, p: (1 - eps ** 0.25) * ((ell - r + 1) / ell) * (r - 1) * p,
    )
    r, p, x, bound = h.r, report.shadow_size, report.x, report.bound
    q = eps ** 0.25
    density = (ell - r + 1) / ell
    rt = math.sqrt(eps)
    z = float(z_value(h, ell).z)
    g, u = len(ext.members), len(ext.core)
    g_low = (1 - ell ** 2 * r * q) * p
    deg_low = (1 - 2 * q) * density * p
    u_high = (1 + 4 * q) * x
    h_u_low = (1 - 9 * ell ** 3 * r ** 2 * q) * bound
    z_low = (1 - ell * r * rt) * density * p
    z_high = (1 + ell * r * rt) * density * p
    flags = InequalityReport((
        Inequality("g-size-lower", g_low, g),
        Inequality("min-degree-on-core", deg_low, min_deg),
        Inequality("core-size-upper", u, u_high),
        Inequality("induced-size-lower", h_u_low, h_u_size),
        Inequality("z-window-lower", z_low, z),
        Inequality("z-window-upper", z, z_high),
    ))
    return replace(ext, stats={**ext.stats, "z": z}, flags=flags)


def stability_certificate(
    h: Hypergraph,
    family: Family,
    eps: float,
    delta: float,
    mode: str = "exact",
    seed: int = 0,
) -> StabilityCertificate:
    """Per-instance check of the stability conclusion shape: solve x from
    the shadow, test the near-extremal hypothesis, extract the core, fit an
    ell-partition on at most ceil(x) vertices, and compare the removals
    against delta x^r. Each path checks freeness once: the core extraction
    does when the hypothesis holds."""
    if not 0 < eps < 1 or not 0 <= delta < math.inf:
        raise ParameterError(
            f"need 0 < eps < 1 and finite delta >= 0, got eps={eps}, delta={delta}"
        )
    report = bound_report_for(h, family)
    removed_cap = delta * report.x ** h.r
    cert = StabilityCertificate(
        str(family), family.parts(h.r), report, eps, delta,
        hypothesis_met=False, status="hypothesis-not-met", removed_cap=removed_cap,
    )
    if not at_most((1 - eps) * report.bound, report.actual):
        require_free(h, family)
        return cert
    core = (core_extract_cancellative(h, eps) if isinstance(family, Cancellative)
            else core_extract_expansion(h, family.ell, eps))
    fit = partition_fit(h, cert.ell_parts, math.ceil(report.x), mode=mode, seed=seed)
    status = "ok" if at_most(fit.removed, removed_cap) else "removed-exceeds-cap"
    return replace(cert, hypothesis_met=True, status=status, core=core, fit=fit)
