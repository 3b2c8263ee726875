"""Interval bound computations used by the rewrite rules.

All functions work on closed integer intervals and are exact: the
returned interval is the true min/max over the full Cartesian product of
the inputs (the test suite checks this against brute force).
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import INT_LIMIT, EmptyDomain, LengthMismatch, checked_int
from .model import Domain


def lin_range(terms: Iterable[tuple[int, Domain]], c: int) -> tuple[int, int]:
    """Bounds of ``sum(a * v for a, v in terms) - c``, each v ranging over
    its domain, as exact Python ints that may leave the supported range.

    Negative coefficients take the domain maximum for the lower bound
    and the minimum for the upper bound; positive coefficients the
    reverse.
    """
    lo = hi = -c
    for a, d in terms:
        if a < 0:
            lo += a * d.hi
            hi += a * d.lo
        else:
            lo += a * d.lo
            hi += a * d.hi
    return lo, hi


def lin_bounds(coeffs: list[int], domains: list[Domain], c: int) -> Domain:
    """Bounds of ``sum(coeffs[i] * v_i) - c`` over the given domains;
    raises OverflowLimit when a bound leaves the supported range."""
    if len(coeffs) != len(domains):
        raise LengthMismatch(
            f"{len(coeffs)} coefficients vs {len(domains)} domains"
        )
    lo, hi = lin_range(zip(coeffs, domains), c)
    return Domain(checked_int(lo), checked_int(hi))


def product_range(d1: Domain, d2: Domain) -> tuple[int, int]:
    """Bounds of ``v1 * v2``: min/max over the four corner products; raises
    OverflowLimit, naming the first corner out of range, if any is."""
    corners = (d1.lo * d2.lo, d1.lo * d2.hi, d1.hi * d2.lo, d1.hi * d2.hi)
    lo, hi = min(corners), max(corners)
    if lo < -INT_LIMIT or hi > INT_LIMIT:
        for c in corners:
            checked_int(c)
    return lo, hi


def product_bounds(d1: Domain, d2: Domain) -> Domain:
    """Bounds of ``v1 * v2`` as a domain (see ``product_range``)."""
    return Domain(*product_range(d1, d2))


def abs_bounds(d: Domain) -> Domain:
    """Bounds of ``|v|`` for v in d."""
    if d.lo >= 0:
        return d
    if d.hi <= 0:
        return Domain(-d.hi, -d.lo)
    return Domain(0, max(-d.lo, d.hi))


def element_domain_restrict(
    i: Domain, value_bounds: list[Domain]
) -> tuple[Domain, Domain]:
    """Restrict the index and result domains of an element constraint.

    The index is clamped to [1, n]; the result interval is the hull of
    the per-index value bounds over the reachable indices.  Raises
    EmptyDomain when no index is reachable (the model is UNSAT).
    """
    n = len(value_bounds)
    lo = max(1, i.lo)
    hi = min(n, i.hi)
    if lo > hi:
        raise EmptyDomain(
            f"element index range [{i.lo}, {i.hi}] disjoint from [1, {n}]"
        )
    reachable = value_bounds[lo - 1 : hi]
    c = Domain(min(d.lo for d in reachable), max(d.hi for d in reachable))
    return Domain(lo, hi), c


def minmax_domain_restrict(
    m: Domain, xs: list[Domain], sign: int
) -> tuple[Domain, list[Domain]]:
    """Restrict domains for ``m = max(xs)`` (sign 1) or ``m = min(xs)``
    (sign -1).

    For max, the result is at least the largest element minimum and each
    element is capped at the result maximum; for min the dual holds.
    Raises EmptyDomain on infeasibility.
    """
    if sign == 1:
        m2 = Domain(
            max(m.lo, max(d.lo for d in xs)), min(m.hi, max(d.hi for d in xs))
        )
        xs2 = [Domain(d.lo, min(d.hi, m2.hi)) for d in xs]
    else:
        m2 = Domain(
            max(m.lo, min(d.lo for d in xs)), min(m.hi, min(d.hi for d in xs))
        )
        xs2 = [Domain(max(d.lo, m2.lo), d.hi) for d in xs]
    return m2, xs2


def compute_big_m(n: Domain, d: Domain, q: Domain, p: Domain) -> int:
    """Minimal big-M for the linearized integer-division system.

    M must dominate the right-hand sides of the six deactivation
    inequalities; the result is exactly their maximum, so it is minimal
    (decrementing violates at least one — checked in the acceptance
    suite).  ``p`` must be product_bounds(d, q).
    """
    candidates = [
        p.hi - n.lo,
        n.hi - p.lo,
        n.hi - d.lo - p.lo + 1,
        -n.lo + d.hi + p.hi + 1,
        n.hi + d.hi - p.lo + 1,
        -n.lo - d.lo + p.hi + 1,
    ]
    return checked_int(max(checked_int(c) for c in candidates))
