"""Interval arithmetic against brute force, plus frozen reference values."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzn2qip.bounds import (
    abs_bounds,
    compute_big_m,
    element_domain_restrict,
    lin_bounds,
    minmax_domain_restrict,
    product_bounds,
)
from fzn2qip.errors import EmptyDomain, LengthMismatch
from fzn2qip.model import Domain


def domains(width=7, lo=-9, hi=9):
    return st.integers(lo, hi).flatmap(
        lambda a: st.integers(a, min(hi, a + width - 1)).map(lambda b: Domain(a, b))
    )


# -- frozen reference values -------------------------------------------


def test_lin_bounds_reference():
    d = lin_bounds([2, -1], [Domain(0, 3), Domain(1, 2)], 3)
    assert d == Domain(-5, 2)


def test_lin_bounds_length_mismatch():
    with pytest.raises(LengthMismatch):
        lin_bounds([1, 2], [Domain(0, 1)], 0)


def test_product_bounds_reference():
    assert product_bounds(Domain(-2, 2), Domain(-3, 3)) == Domain(-6, 6)
    assert product_bounds(Domain(2, 3), Domain(-1, -1)) == Domain(-3, -2)


def test_abs_bounds_reference():
    assert abs_bounds(Domain(-5, -2)) == Domain(2, 5)
    assert abs_bounds(Domain(-2, 3)) == Domain(0, 3)
    assert abs_bounds(Domain(1, 4)) == Domain(1, 4)


def test_element_restrict_reference():
    i_dom, c_dom = element_domain_restrict(
        Domain(0, 5), [Domain(4, 4), Domain(7, 7), Domain(1, 1)]
    )
    assert i_dom == Domain(1, 3)
    assert c_dom == Domain(1, 7)


def test_element_restrict_unsat():
    with pytest.raises(EmptyDomain):
        element_domain_restrict(Domain(5, 9), [Domain(0, 1)])


def test_minmax_restrict_reference():
    m_dom, xs = minmax_domain_restrict(
        Domain(-10, 10), [Domain(0, 3), Domain(1, 2)], 1
    )
    assert m_dom == Domain(1, 3)
    assert xs == [Domain(0, 3), Domain(1, 2)]
    m_dom, xs = minmax_domain_restrict(Domain(2, 2), [Domain(0, 5)], -1)
    assert m_dom == Domain(2, 2)
    assert xs == [Domain(2, 5)]


def test_big_m_reference():
    assert compute_big_m(
        Domain(-3, 3), Domain(-2, 2), Domain(-3, 3), Domain(-6, 6)
    ) == 12
    assert compute_big_m(
        Domain(0, 0), Domain(1, 1), Domain(0, 0), Domain(0, 0)
    ) == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_big_m_symmetric_domains(k):
    d = Domain(-k, k)
    p = product_bounds(d, d)
    assert compute_big_m(d, d, d, p) >= k + k * k


# -- brute-force agreement ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), domains()), min_size=1, max_size=3),
       st.integers(-5, 5))
def test_lin_bounds_exact(pairs, c):
    coeffs = [p[0] for p in pairs]
    ds = [p[1] for p in pairs]
    got = lin_bounds(coeffs, ds, c)
    values = [
        sum(co * v for co, v in zip(coeffs, combo)) - c
        for combo in itertools.product(*(d.values() for d in ds))
    ]
    assert got == Domain(min(values), max(values))


@settings(max_examples=200, deadline=None)
@given(domains(), domains())
def test_product_bounds_exact_hull(d1, d2):
    got = product_bounds(d1, d2)
    values = [a * b for a in d1.values() for b in d2.values()]
    # product bounds are the corner hull, always containing all values
    assert got.lo == min(values) and got.hi == max(values)


@settings(max_examples=200, deadline=None)
@given(domains())
def test_abs_bounds_exact(d):
    got = abs_bounds(d)
    values = [abs(v) for v in d.values()]
    assert got == Domain(min(values), max(values))


@settings(max_examples=150, deadline=None)
@given(domains(width=5, lo=-4, hi=4),
       st.lists(domains(width=5, lo=-4, hi=4), min_size=1, max_size=3))
def test_minmax_restrict_never_loses_solutions(m_dom, xs_doms):
    for sign, pick in ((1, max), (-1, min)):
        try:
            new_m, new_xs = minmax_domain_restrict(m_dom, xs_doms, sign)
        except EmptyDomain:
            new_m = None
        feasible = [
            combo
            for combo in itertools.product(*(d.values() for d in xs_doms))
            if pick(combo) in m_dom
        ]
        if new_m is None:
            assert not feasible
            continue
        for combo in feasible:
            assert pick(combo) in new_m
            for v, d in zip(combo, new_xs):
                assert v in d
