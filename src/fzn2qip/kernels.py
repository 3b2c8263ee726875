"""Feasibility-mask kernel for exhaustive enumeration.

A table of candidate assignments is variable-major: row ``i`` holds the
values of variable ``i``, one column per assignment.  ``feasible_mask``
marks the assignments satisfying every column bound (``lo <= x[i] <=
hi``), every linear equality (``sum(c * x[i]) + constant == 0``), every
linear inequality (``... <= 0``) and every product (``x[res] == x[left]
* x[right]``).  ``linear_form`` sums a form over its nonzero terms only,
one whole row per term, adding or subtracting the row for a
coefficient of +-1, so a check costs time in the variables it reads,
not in the width of the table.  The enumerator passes C-ordered tables
(grown with ``np.repeat``, shrunk with ``compress``), so each row it
reads is contiguous.  The bounds and the products are each
checked once over the rows they gather.

Tables are int64, or object arrays of Python ints when the enumerator
has found that int64 arithmetic could wrap; the same numpy code serves
both.
"""

from __future__ import annotations

import numpy as np


def linear_form(values: np.ndarray, terms, constant: int = 0):
    """``sum(c * values[i] for i, c in terms) + constant`` per column: the
    constant if there are no terms, a lone ``+1`` term's own row if it is 0."""
    acc = None
    for i, c in terms:
        x = values[i]
        if acc is None:
            acc = x if c == 1 else -x if c == -1 else c * x
        elif c == 1:
            acc = acc + x
        elif c == -1:
            acc = acc - x
        else:
            acc = acc + c * x
    if acc is None:
        return constant
    return acc + constant if constant else acc


def feasible_mask(
    values: np.ndarray,
    eqs: list[tuple[list[tuple[int, int]], int]],
    ineqs: list[tuple[list[tuple[int, int]], int]],
    prods: list[tuple[int, int, int]],
    bounds: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Boolean mask of the feasible columns of ``values``.

    ``eqs`` and ``ineqs`` hold ``(terms, constant)`` forms with ``terms``
    a list of ``(row, coefficient)``.  ``prods`` holds ``(res, left,
    right)`` row triples (a ``(k, 3)`` index array serves too).
    ``bounds``, if given, is ``(rows, lows, highs)``: ``k`` row indices
    and their ``(k, 1)`` domain minima and maxima.

    A form's terms are compared with its negated constant, and the mask
    is the conjunction of the checks' own results, with no all-true start
    (a form with no terms gives a bool).
    """
    oks = []
    for forms, holds in ((eqs, np.equal), (ineqs, np.less_equal)):
        for terms, constant in forms:
            oks.append(holds(linear_form(values, terms), -constant))
    if bounds is not None:
        rows, lows, highs = bounds
        x = values.take(rows, axis=0)
        oks.append(np.logical_and.reduce((x >= lows) & (x <= highs)))
    if len(prods):
        res, left, right = values[np.array(prods).T]
        oks.append(np.logical_and.reduce(res == left * right))
    mask = True
    for ok in oks:
        mask = ok if mask is True else mask & ok
    return mask if type(mask) is np.ndarray else np.full(values.shape[1], mask)
