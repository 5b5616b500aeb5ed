"""Numeric bounds: real-binomial Kruskal-Katona inversion, the cancellative
and clique-expansion shadow bounds, and the inequality batteries used by the
stability arguments. The cancellative bound is the clique-expansion bound at
ell = r, so `expansion_bound` is the one formula that evaluates both.

All bound arithmetic is double precision, except L14.2's right side, which
is evaluated in rationals and rounded once. `BoundReport.of` is the one place
a shadow bound meets |H| and the only caller of `shadow_bound`:
`bound_report_for`, the bound sweep, the stability certificate, both core
extractions and L9.4's right side all read its report. Every verdict
compares through `at_most`, the one place the 1e-9 tolerance is applied, at
five sites: the `Inequality` record (the lemma batteries and the stability
claim flags), `BoundReport.holds` and `tight`, and the certificate's
hypothesis and removal tests. The real binomial C(x, k) is evaluated as a
falling factorial, never through the Gamma function. Inequality checks
recompute every quantity from the hypergraph on each call, except the
shadow: `shadow` reads it from the instance, which computes it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError, EmptyInputError
from .forbidden import Cancellative, Expansion, Family, require_free
from .hypercore import Hypergraph, link, shadow, sigma, sigma_hat, z_value

TOLERANCE = 1e-9
_BISECT_TOL = 1e-12


def at_most(a: float, b: float) -> bool:
    """The verdict a <= b, up to TOLERANCE."""
    return a <= b + TOLERANCE


def falling_binomial(x: float, k: int) -> float:
    """C(x, k) for real x via the falling factorial."""
    out = 1.0
    for i in range(k):
        out *= (x - i)
    return out / math.factorial(k)


def solve_binomial_x(s: float, k: int) -> float:
    """The unique x >= k with C(x, k) = s, by monotone bisection."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    lo = float(k)
    hi = float(k + 1)
    while falling_binomial(hi, k) < s:
        hi *= 2
    while hi - lo > _BISECT_TOL:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break  # float resolution reached before the absolute tolerance
        if falling_binomial(mid, k) < s:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: solved parameter, bound, actual size, slack."""

    shadow_size: int
    x: float
    bound: float
    actual: int
    slack: float
    tight: bool

    @classmethod
    def of(cls, family: Optional[Family], r: int, actual: int, shadow_size: int) -> BoundReport:
        """The bound of `family` (None: every r-graph) for an r-graph with
        `actual` edges and `shadow_size` shadow sets: the one place a shadow
        bound meets |H|."""
        x, bound = shadow_bound(family, shadow_size, r)
        slack = bound - actual
        return cls(shadow_size, x, bound, actual, slack, at_most(abs(slack), 0.0))

    @property
    def holds(self) -> bool:
        return at_most(0.0, self.slack)


@dataclass(frozen=True)
class Inequality:
    """The claim lhs <= rhs, with its verdict derived from the two sides."""

    identifier: str
    lhs: float
    rhs: float
    holds: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "holds", at_most(self.lhs, self.rhs))


@dataclass(frozen=True)
class InequalityReport:
    items: tuple[Inequality, ...]

    @property
    def all_hold(self) -> bool:
        return all(i.holds for i in self.items)

    def get(self, identifier: str) -> Inequality:
        return next(i for i in self.items if i.identifier == identifier)


def expansion_bound(shadow_size: float, ell: int, r: int) -> tuple[float, float]:
    """x and the bound C(l, r) (x/l)^r from |shadow| = C(l, r-1) (x/l)^(r-1)."""
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    if shadow_size <= 0:
        raise DomainError(f"shadow size must be positive, got {shadow_size}")
    if ell < r:
        raise DomainError(f"need ell >= r, got ell={ell}, r={r}")
    x = ell * (shadow_size / math.comb(ell, r - 1)) ** (1.0 / (r - 1))
    return x, math.comb(ell, r) * (x / ell) ** r


def shadow_bound(
    family: Optional[Family], shadow_size: float, r: int
) -> tuple[float, float]:
    """x and the bound on |H| for an r-graph H with |shadow| = shadow_size:
    Kruskal-Katona for every r-graph when `family` is None (Theorem 1), the
    cancellative bound (Theorem 3), or the clique-expansion bound (Theorem 6).
    The one place that chooses a bound formula."""
    if family is None:
        x = solve_binomial_x(shadow_size, r - 1)
        return x, falling_binomial(x, r)
    # Theorem 3's bound is Theorem 6's at ell = r: C(r, r-1) (x/r)^(r-1) is
    # x^(r-1) / r^(r-2), and C(r, r) (x/r)^r is (x/r)^r.
    return expansion_bound(shadow_size, family.parts(r), r)


def bound_report_for(h: Hypergraph, family: Optional[Family]) -> BoundReport:
    """The bound of `family` (None: every r-graph) evaluated on H."""
    if not h.edges:
        raise EmptyInputError("shadow bound needs a nonempty hypergraph")
    return BoundReport.of(family, h.r, len(h), len(shadow(h)))


def kk_bound(h: Hypergraph) -> BoundReport:
    """Kruskal-Katona upper bound |H| <= C(x, r) with C(x, r-1) = |shadow|."""
    return bound_report_for(h, None)


def cancellative_report(h: Hypergraph) -> BoundReport:
    return bound_report_for(h, Cancellative())


def expansion_report(h: Hypergraph, ell: int) -> BoundReport:
    return bound_report_for(h, Expansion(ell))


def lemma9_check(h: Hypergraph) -> InequalityReport:
    """The four cancellative degree-sum inequalities, evaluated at the
    lexicographically smallest maximum-degree-sum edge."""
    require_free(h, Cancellative())
    if not h.edges:
        raise EmptyInputError("lemma9_check needs a nonempty hypergraph")
    r = h.r
    sh = shadow(h)
    p = len(sh)
    stats = sigma_hat(h)
    s_hat = stats.sigma_hat
    e = stats.argmax_edge
    size = len(h)
    prefix = p ** ((r - 2) / (r - 1)) / (r * (r - 1) ** (1.0 / (r - 1)))

    inner1 = (p - s_hat / r) * s_hat
    inner2 = sum(h.degrees[v] * (s_hat - h.degrees[v]) for v in e) + (p - s_hat) * s_hat

    link_sets = {v: set(link(h, v).edges) for v in e}
    union_links = set().union(*link_sets.values())
    inner3 = sum(sigma(h, s) for v in e for s in link_sets[v])
    inner3 += sum(sigma(h, s) for s in sh.edges if s not in union_links)

    # The shadow of v's link is the shadow sets through v, less v; at r = 2
    # the link is 1-uniform and its shadow is {empty set} when v has an edge.
    lhs4 = sum(
        h.degrees[v] ** (1.0 / (r - 1)) * sh.degrees[v]
        for v in range(h.n)
        if h.degrees[v] > 0
    ) / (r * (r - 1))
    rhs4 = BoundReport.of(Cancellative(), r, size, p).bound

    exp = 1.0 / (r - 1)
    return InequalityReport(
        (
            Inequality("L9.1", size, prefix * inner1 ** exp),
            Inequality("L9.2", size, prefix * inner2 ** exp),
            Inequality("L9.3", size, prefix * inner3 ** exp),
            Inequality("L9.4", lhs4, rhs4),
        )
    )


def lemma14_check(h: Hypergraph, ell: int) -> InequalityReport:
    """The two clique-expansion inequalities, with z and its binding clique
    recomputed from scratch."""
    require_free(h, Expansion(ell))
    if not h.edges:
        raise EmptyInputError("lemma14_check needs a nonempty hypergraph")
    r = h.r
    sh = shadow(h)
    p = len(sh)
    zv = z_value(h, ell)
    z = zv.z
    r0 = len(zv.witness)
    sum_sigma = sum(sigma(h, s) for s in sh.edges)

    prefix = (
        math.comb(ell - 1, r - 1) ** ((r - 2) / (r - 1))
        / (r * math.comb(ell - 1, r - 2))
        * (r - 1) ** ((r - 2) / (r - 1))
    )
    rhs1 = prefix * p ** ((r - 2) / (r - 1)) * sum_sigma ** (1.0 / (r - 1))
    # In rationals: its terms of size about ell * p^2 cancel, which leaves
    # nothing of a float difference once ell passes about 10^16.
    rhs2 = (
        (ell - r + 1) * (p - 2 * z) * p
        + z * z * ell
        - ((ell - r + 1) * p - z * ell) ** 2 / r0
    )
    return InequalityReport(
        (
            Inequality("L14.1", float(len(h)), rhs1),
            Inequality("L14.2", float(sum_sigma), float(rhs2)),
        )
    )
