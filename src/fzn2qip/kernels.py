"""Feasibility-mask kernel for exhaustive enumeration.

Given a table of candidate assignments (one row per assignment, one
column per variable), the kernel marks the rows satisfying every linear
equality (``coef @ x + const == 0``), every linear inequality
(``coef @ x + const <= 0``), every product constraint
(``x[res] == x[left] * x[right]``) and, if given, every column bound
(``lows <= x <= highs``).

Tables are int64, or object arrays of Python ints when the enumerator
has found that int64 arithmetic could wrap; the same numpy code serves
both.
"""

from __future__ import annotations

import numpy as np


def feasible_mask(
    values: np.ndarray,
    eq_coef: np.ndarray,
    eq_const: np.ndarray,
    ineq_coef: np.ndarray,
    ineq_const: np.ndarray,
    prod_idx: np.ndarray,
    lows: np.ndarray | None = None,
    highs: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean mask of feasible rows of ``values``."""
    mask = np.ones(values.shape[0], dtype=bool)
    if lows is not None:
        mask &= np.all((values >= lows) & (values <= highs), axis=1)
    if eq_coef.shape[0]:
        mask &= np.all(values @ eq_coef.T + eq_const == 0, axis=1)
    if ineq_coef.shape[0]:
        mask &= np.all(values @ ineq_coef.T + ineq_const <= 0, axis=1)
    if prod_idx.shape[0]:
        res = values[:, prod_idx[:, 0]]
        prod = values[:, prod_idx[:, 1]] * values[:, prod_idx[:, 2]]
        mask &= np.all(res == prod, axis=1)
    return mask
