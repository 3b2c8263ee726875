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


def linear_form(values: np.ndarray, terms, constant: int):
    """``sum(c * values[i] for i, c in terms) + constant`` per column; the
    constant itself if there are no terms."""
    acc = constant
    for i, c in terms:
        if c == 1:
            acc = acc + values[i]
        elif c == -1:
            acc = acc - values[i]
        else:
            acc = acc + c * values[i]
    return acc


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
    """
    mask = np.ones(values.shape[1], dtype=bool)
    if bounds is not None:
        rows, lows, highs = bounds
        x = values[rows]
        mask &= np.logical_and.reduce((x >= lows) & (x <= highs))
    for terms, constant in eqs:
        mask &= linear_form(values, terms, constant) == 0
    for terms, constant in ineqs:
        mask &= linear_form(values, terms, constant) <= 0
    if len(prods):
        res, left, right = values[np.array(prods).T]
        mask &= np.logical_and.reduce(res == left * right)
    return mask
