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
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from .bounds import Inequality, InequalityReport, at_least, at_most, shadow_bound
from .errors import EmptyInputError, ParameterError, ResourceBudgetError
from .forbidden import Cancellative, Expansion, Family, require_free
from .hypercore import Hypergraph, shadow, sigma, z_value

EXACT_STATE_BUDGET = 10 ** 7


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
    shadow_size: int
    x: float
    bound: float
    actual: int
    eps: float
    delta: float
    hypothesis_met: bool
    status: str
    removed_cap: float
    core: Optional[CoreExtraction] = None
    fit: Optional[PartitionFit] = None
    eps1_references: dict[str, float] = field(default_factory=dict)

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
    order plus single-vertex-move local search, scored from per-edge codes
    sum((r+1)**label): base r+1, as in base r an edge inside one part would
    carry into the next digit. Heuristic mode returns its labelling as an
    upper bound flagged non-optimal; exact mode hands it to branch-and-bound
    over vertex labelings as the incumbent to beat.
    """
    if ell < 1 or cap < 0:
        raise ParameterError(f"need ell >= 1 and cap >= 0, got ell={ell}, cap={cap}")
    if mode not in ("exact", "heuristic"):
        raise ParameterError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    if exact and ell ** h.n > EXACT_STATE_BUDGET:
        raise ResourceBudgetError(
            f"exact partition fit capped at ell^n <= {EXACT_STATE_BUDGET}"
        )
    order = sorted(range(h.n), key=lambda v: (-h.degrees[v], v))
    labels, removed = _fit_heuristic(h, ell, cap, order, seed, 4 if exact else 20)
    if exact:
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


def _fit_branch_and_bound(h: Hypergraph, ell: int, cap: int, order, best_labels, best):
    """Depth-first labelling of `order`, pruned by the incumbent
    (`best_labels`, `best`); returns an optimal labelling and its removals."""
    n = h.n
    allow_out = n > cap
    incident = h.incidence
    edge_verts = h.edges
    labels = [OUT] * n
    used_mask = [0] * len(edge_verts)   # labels already present per edge
    violated = [False] * len(edge_verts)

    def rec(pos: int, removed: int, in_count: int, max_part: int):
        nonlocal best, best_labels
        if removed >= best:
            return
        if pos == n:
            best = removed
            best_labels = labels.copy()
            return
        v = order[pos]
        choices = list(range(min(max_part + 1, ell - 1) + 1))
        if allow_out:
            choices.append(OUT)
        for p in choices:
            if p != OUT and in_count >= cap:
                continue
            labels[v] = p
            undo = []
            extra = 0
            for i in incident[v]:
                if violated[i]:
                    continue
                if p == OUT or used_mask[i] >> p & 1:
                    violated[i] = True
                    undo.append((i, None))
                    extra += 1
                else:
                    used_mask[i] |= 1 << p
                    undo.append((i, p))
            rec(
                pos + 1,
                removed + extra,
                in_count + (p != OUT),
                max(max_part, p) if p != OUT else max_part,
            )
            for i, mark in undo:
                if mark is None:
                    violated[i] = False
                else:
                    used_mask[i] &= ~(1 << mark)
            labels[v] = OUT
        labels[v] = OUT

    rec(0, 0, 0, -1)
    return best_labels, best


def _fit_heuristic(h: Hypergraph, ell: int, cap: int, order, seed: int, restarts: int):
    """Greedy seeding of `order[:cap]` (of a seeded shuffle of `order` after
    the first restart), then local search; the best labels and removals.
    Each edge keeps the code sum((r+1)**label) over its vertices, OUT as
    digit ell, so digit p counts its vertices in part p. A digit reaches r
    at most, hence base r+1: in base r an edge inside one part would carry
    into the next digit. A vertex's move costs come from the multiset of its
    edges' codes less its own digit, each distinct code decoded once per call.
    """
    r = h.r
    incidence = h.incidence
    unit = [(r + 1) ** p for p in range(ell + 1)]   # unit[OUT] is digit ell
    decoded = {}   # code -> (broken with OUT ignored, with OUT breaking, parts)

    def decode(c):
        digits = [c // u % (r + 1) for u in unit]
        dup = max(digits[:ell]) > 1
        decoded[c] = entry = (dup, dup or digits[OUT] > 0, [p for p in range(ell) if digits[p]])
        return entry

    def costs_of(v, out_breaks):
        """costs[p] = edges through v broken if v takes part p. An OUT
        neighbour breaks its edge when `out_breaks`, else is not yet placed."""
        own = unit[labels[v]]
        broken = 0
        costs = [0] * ell
        for c, k in Counter(map(code.__getitem__, incidence[v])).items():
            c -= own
            entry = decoded.get(c) or decode(c)
            if entry[out_breaks]:
                broken += k
            else:
                for p in entry[2]:
                    costs[p] += k
        return [broken + c for c in costs]

    def move(v, p):
        shift = unit[p] - unit[labels[v]]
        for i in incidence[v]:
            code[i] += shift
        labels[v] = p

    rng = random.Random(seed)
    best_labels, best = None, len(h.edges) + 1
    for attempt in range(restarts):
        seeding = order.copy()
        if attempt > 0:
            rng.shuffle(seeding)
        labels = [OUT] * h.n
        code = [r * unit[OUT]] * len(h.edges)
        for v in seeding[:cap]:
            costs = costs_of(v, out_breaks=False)
            move(v, costs.index(min(costs)))
        # Local search: single-vertex moves between parts, first improvement
        # in vertex and part order (the scan over parts ends at the first
        # cheapest one), until none helps. Left-out vertices stay out: the
        # seeding leaves a vertex out only once the cap is full.
        removed = sum(k for c, k in Counter(code).items() if (decoded.get(c) or decode(c))[1])
        kept = [v for v in range(h.n) if labels[v] != OUT]
        improved = True
        while improved:
            improved = False
            for v in kept:
                costs = costs_of(v, out_breaks=True)
                least = min(costs)
                if least < costs[labels[v]]:
                    removed += least - costs[labels[v]]
                    move(v, costs.index(least))
                    improved = True
        if removed < best:
            best = removed
            best_labels = labels
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
    flags, |shadow|, |H[U]| and the least degree on U."""
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
    return CoreExtraction(threshold, members, core, stats), p, len(h_u), min_deg


def core_extract_cancellative(h: Hypergraph, eps: float) -> CoreExtraction:
    """Threshold set of high-degree-sum shadow members and its vertex core,
    with the claim statistics the cancellative argument tracks."""
    ext, p, h_u_size, min_deg = _extract_core(
        h, Cancellative(), eps,
        lambda r, p: ((r - 1) / r - 2 * r * math.sqrt(eps)) * p,
    )
    r = h.r
    rt = math.sqrt(eps)
    u_ref = r ** ((r - 2) / (r - 1)) * p ** (1 / (r - 1))
    g, u = len(ext.members), len(ext.core)
    g_low = (1 - 8 * r ** 2 * rt) * p
    deg_low = (1 / r - 3 * r ** 2 * rt) * p
    u_high = (1 + 6 * r ** 3 * rt) * u_ref
    u_low = (1 - 35 * r ** 4 * rt) * u_ref
    h_u_low = (1 - 33 * r ** 4 * rt) * (p / r) ** (r / (r - 1))
    flags = InequalityReport((
        Inequality("g-size-lower", g_low, g, at_least(g, g_low)),
        Inequality("min-degree-on-core", deg_low, min_deg, at_least(min_deg, deg_low)),
        Inequality("core-size-upper", u, u_high, at_most(u, u_high)),
        Inequality("core-size-lower", u_low, u, at_least(u, u_low)),
        Inequality("induced-size-lower", h_u_low, h_u_size, at_least(h_u_size, h_u_low)),
    ))
    return replace(ext, flags=flags)


def core_extract_expansion(h: Hypergraph, ell: int, eps: float) -> CoreExtraction:
    """Threshold set for the clique-expansion argument, with the z window
    and the claim statistics reported as flags."""
    ext, p, h_u_size, min_deg = _extract_core(
        h, Expansion(ell), eps,
        lambda r, p: (1 - eps ** 0.25) * ((ell - r + 1) / ell) * (r - 1) * p,
    )
    r = h.r
    q = eps ** 0.25
    density = (ell - r + 1) / ell
    rt = math.sqrt(eps)
    z = float(z_value(h, ell).z)
    u_ref = ell * (p / math.comb(ell, r - 1)) ** (1 / (r - 1))
    g, u = len(ext.members), len(ext.core)
    g_low = (1 - ell ** 2 * r * q) * p
    deg_low = (1 - 2 * q) * density * p
    u_high = (1 + 4 * q) * u_ref
    h_u_low = (
        (1 - 9 * ell ** 3 * r ** 2 * q)
        * math.comb(ell, r)
        * (p / math.comb(ell, r - 1)) ** (r / (r - 1))
    )
    z_low = (1 - ell * r * rt) * density * p
    z_high = (1 + ell * r * rt) * density * p
    flags = InequalityReport((
        Inequality("g-size-lower", g_low, g, at_least(g, g_low)),
        Inequality("min-degree-on-core", deg_low, min_deg, at_least(min_deg, deg_low)),
        Inequality("core-size-upper", u, u_high, at_most(u, u_high)),
        Inequality("induced-size-lower", h_u_low, h_u_size, at_least(h_u_size, h_u_low)),
        Inequality("z-window-lower", z_low, z, at_least(z, z_low)),
        Inequality("z-window-upper", z, z_high, at_most(z, z_high)),
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
    against delta x^r."""
    if not 0 < eps < 1 or not 0 <= delta < math.inf:
        raise ParameterError(
            f"need 0 < eps < 1 and finite delta >= 0, got eps={eps}, delta={delta}"
        )
    require_free(h, family)
    if not h.edges:
        raise EmptyInputError("certificate needs a nonempty hypergraph")
    r = h.r
    p = len(shadow(h))
    x, bound = shadow_bound(family, p, r)
    ell_parts = r if isinstance(family, Cancellative) else family.ell
    removed_cap = delta * x ** r
    cert = StabilityCertificate(
        str(family), ell_parts, p, x, bound, len(h), eps, delta,
        hypothesis_met=False, status="hypothesis-not-met",
        removed_cap=removed_cap, eps1_references={
            "lemma-statement": 35 * r ** 4 * math.sqrt(eps),
            "theorem-invocation": 40 * r ** (2 * r) * math.sqrt(eps),
            "induction-variant": 35 * r ** 4 * eps ** 0.25,
        },
    )
    if not at_least(len(h), (1 - eps) * bound):
        return cert
    if isinstance(family, Cancellative):
        core = core_extract_cancellative(h, eps)
    else:
        core = core_extract_expansion(h, family.ell, eps)
    fit = partition_fit(h, ell_parts, math.ceil(x), mode=mode, seed=seed)
    status = "ok" if at_most(fit.removed, removed_cap) else "removed-exceeds-cap"
    return replace(cert, hypothesis_met=True, status=status, core=core, fit=fit)
