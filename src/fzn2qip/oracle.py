"""Exhaustive differential checking of compiled problems.

Two independent enumerations are compared:

* the source model, evaluated with direct builtin semantics over the
  declared variable domains: the flat product of the domains is
  enumerated in chunks, one numpy array per variable, and each builtin
  is evaluated column-wise over a whole chunk, in exact Python integers
  when an interval bound shows that int64 could wrap
  (``_COLUMNWISE``; ``eval_builtin`` is the scalar reference it is
  tested against), and
* the compiled problem, enumerated unit by unit (free variables and
  categorical one-hot groups) over variable-major, C-ordered tables
  (one contiguous row per variable, one column per partial assignment;
  grown with ``np.repeat`` and shrunk with ``compress``, never by a
  fancy-index gather, which would return them column-major) with every
  computable variable substituted, each constraint that no substitution
  or one-hot choice makes hold checked by the numeric kernel, summed
  over its nonzero terms only, as soon as its variables are known, and
  solutions projected back onto the source variables.

Both are fully exhaustive, so agreement of the projected solution sets
is a proof of equivalence over the given domains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import kernels
from .errors import CapExceeded
from .frontend import Arr, FzModel, Lit, Ref, SetVal
from .model import Domain, QipProblem

DEFAULT_CAP = 2_000_000
_CHUNK = 1 << 16  # rows per enumeration table
_CELLS = 1 << 20  # values per enumeration table, for wide problems
_INT64_MAX = 2**63 - 1


def truncdiv(n: int, d: int) -> int:
    """Integer division truncating toward zero."""
    q = abs(n) // abs(d)
    return q if (n >= 0) == (d >= 0) else -q


# ----------------------------------------------------------------------
# direct builtin semantics


def _av(arg, asg):
    if isinstance(arg, Lit):
        return arg.value
    if isinstance(arg, Ref):
        return asg[arg.name]
    if isinstance(arg, Arr):
        return [_av(a, asg) for a in arg.items]
    if isinstance(arg, SetVal):
        return arg.values
    raise TypeError(f"cannot evaluate {arg!r}")


def eval_builtin(name: str, args: tuple, asg: dict[str, int]) -> bool:
    """Truth value of one builtin constraint under a full assignment."""
    v = [_av(a, asg) for a in args]
    if name in ("int_eq", "bool_eq", "bool2int"):
        return v[0] == v[1]
    if name == "int_ne":
        return v[0] != v[1]
    if name in ("int_le", "bool_le"):
        return v[0] <= v[1]
    if name in ("int_lt", "bool_lt"):
        return v[0] < v[1]
    if name == "int_plus":
        return v[0] + v[1] == v[2]
    if name == "int_times":
        return v[0] * v[1] == v[2]
    if name == "int_div":
        return v[1] != 0 and truncdiv(v[0], v[1]) == v[2]
    if name == "int_mod":
        return v[1] != 0 and v[0] - truncdiv(v[0], v[1]) * v[1] == v[2]
    if name == "int_abs":
        return abs(v[0]) == v[1]
    if name == "int_min":
        return min(v[0], v[1]) == v[2]
    if name == "int_max":
        return max(v[0], v[1]) == v[2]
    if name == "int_pow":
        return v[1] >= 0 and v[0] ** v[1] == v[2]
    if name == "int_eq_reif":
        return (v[0] == v[1]) == bool(v[2])
    if name == "int_ne_reif":
        return (v[0] != v[1]) == bool(v[2])
    if name == "int_le_reif":
        return (v[0] <= v[1]) == bool(v[2])
    if name == "int_lt_reif":
        return (v[0] < v[1]) == bool(v[2])
    if name in ("int_lin_eq", "bool_lin_eq"):
        return sum(c * x for c, x in zip(v[0], v[1])) == v[2]
    if name in ("int_lin_le", "bool_lin_le"):
        return sum(c * x for c, x in zip(v[0], v[1])) <= v[2]
    if name == "int_lin_ne":
        return sum(c * x for c, x in zip(v[0], v[1])) != v[2]
    if name == "int_lin_eq_reif":
        return (sum(c * x for c, x in zip(v[0], v[1])) == v[2]) == bool(v[3])
    if name == "int_lin_le_reif":
        return (sum(c * x for c, x in zip(v[0], v[1])) <= v[2]) == bool(v[3])
    if name == "int_lin_ne_reif":
        return (sum(c * x for c, x in zip(v[0], v[1])) != v[2]) == bool(v[3])
    if name == "bool_not":
        return v[0] != v[1]
    if name == "bool_and":
        return (v[0] and v[1]) == v[2]
    if name == "bool_or":
        return (v[0] or v[1]) == v[2]
    if name == "bool_xor":
        if len(v) == 2:
            return v[0] != v[1]
        return (v[0] != v[1]) == bool(v[2])
    if name == "bool_eq_reif":
        return (v[0] == v[1]) == bool(v[2])
    if name == "bool_le_reif":
        return (v[0] <= v[1]) == bool(v[2])
    if name == "bool_lt_reif":
        return (v[0] < v[1]) == bool(v[2])
    if name == "bool_clause":
        return any(v[0]) or any(x == 0 for x in v[1])
    if name == "array_bool_and":
        return all(v[0]) == bool(v[1])
    if name == "array_bool_xor":
        # "exactly one" semantics, matching the linear encoding
        return sum(v[0]) == 1
    if name in ("array_int_element", "array_bool_element",
                "array_var_int_element", "array_var_bool_element"):
        i, arr, c = v
        return 1 <= i <= len(arr) and arr[i - 1] == c
    if name == "array_int_maximum":
        return v[0] == max(v[1])
    if name == "array_int_minimum":
        return v[0] == min(v[1])
    if name == "set_in":
        return v[0] in v[1]
    if name == "set_in_reif":
        return (v[0] in v[1]) == bool(v[2])
    raise AssertionError(f"unknown builtin {name}")


# ----------------------------------------------------------------------
# column-wise direct builtin semantics
#
# The same formulas as ``eval_builtin``, over many assignments at once: a
# variable is a numpy array of its values, a literal a Python int, an
# array a list of either, a set a frozenset.  Each entry returns a bool
# array (or a bool scalar when every argument is a literal).  Divisors equal to 0 and
# negative exponents are replaced before the arithmetic and their rows
# answer False.  Bool values are 0/1, so ``and``/``or`` are ``&``/``|``.


def _lin(coefs: list, xs: list):
    acc = 0
    for c, x in zip(coefs, xs):
        acc = acc + c * x
    return acc


def _truncdiv_cols(n, d):
    """``truncdiv`` over columns; ``d`` holds no 0."""
    q = abs(n) // abs(d)
    return np.where((n >= 0) == (d >= 0), q, -q)


def _div(v):
    n, d, q = v
    nz = d != 0
    return nz & (_truncdiv_cols(n, np.where(nz, d, 1)) == q)


def _mod(v):
    n, d, r = v
    nz = d != 0
    d = np.where(nz, d, 1)
    return nz & (n - _truncdiv_cols(n, d) * d == r)


def _pow(v):
    x, y, z = v
    ok = y >= 0
    return ok & (x ** np.where(ok, y, 0) == z)


def _any(cols):
    acc = False
    for c in cols:
        acc = acc | c
    return acc


def _all(cols):
    acc = True
    for c in cols:
        acc = c if acc is True else acc & c  # no True & c: it would copy c
    return acc


def _element(v):
    i, arr, c = v
    return _any((i == k) & (x == c) for k, x in enumerate(arr, start=1))


def _extremum(pick):
    # an empty array has no extremum: unsatisfiable, as the rewriter says
    return lambda v: bool(v[1]) and v[0] == functools.reduce(pick, v[1])


def _member(x, values: frozenset):
    return np.isin(x, list(values))


_COLUMNWISE = {
    "int_eq": lambda v: v[0] == v[1],
    "bool_eq": lambda v: v[0] == v[1],
    "bool2int": lambda v: v[0] == v[1],
    "int_ne": lambda v: v[0] != v[1],
    "int_le": lambda v: v[0] <= v[1],
    "bool_le": lambda v: v[0] <= v[1],
    "int_lt": lambda v: v[0] < v[1],
    "bool_lt": lambda v: v[0] < v[1],
    "int_plus": lambda v: v[0] + v[1] == v[2],
    "int_times": lambda v: v[0] * v[1] == v[2],
    "int_div": _div,
    "int_mod": _mod,
    "int_abs": lambda v: abs(v[0]) == v[1],
    "int_min": lambda v: np.minimum(v[0], v[1]) == v[2],
    "int_max": lambda v: np.maximum(v[0], v[1]) == v[2],
    "int_pow": _pow,
    "int_eq_reif": lambda v: (v[0] == v[1]) == (v[2] != 0),
    "int_ne_reif": lambda v: (v[0] != v[1]) == (v[2] != 0),
    "int_le_reif": lambda v: (v[0] <= v[1]) == (v[2] != 0),
    "int_lt_reif": lambda v: (v[0] < v[1]) == (v[2] != 0),
    "int_lin_eq": lambda v: _lin(v[0], v[1]) == v[2],
    "bool_lin_eq": lambda v: _lin(v[0], v[1]) == v[2],
    "int_lin_le": lambda v: _lin(v[0], v[1]) <= v[2],
    "bool_lin_le": lambda v: _lin(v[0], v[1]) <= v[2],
    "int_lin_ne": lambda v: _lin(v[0], v[1]) != v[2],
    "int_lin_eq_reif": lambda v: (_lin(v[0], v[1]) == v[2]) == (v[3] != 0),
    "int_lin_le_reif": lambda v: (_lin(v[0], v[1]) <= v[2]) == (v[3] != 0),
    "int_lin_ne_reif": lambda v: (_lin(v[0], v[1]) != v[2]) == (v[3] != 0),
    "bool_not": lambda v: v[0] != v[1],
    "bool_and": lambda v: (v[0] & v[1]) == v[2],
    "bool_or": lambda v: (v[0] | v[1]) == v[2],
    "bool_xor": lambda v: (v[0] != v[1]) if len(v) == 2 else (
        (v[0] != v[1]) == (v[2] != 0)),
    "bool_eq_reif": lambda v: (v[0] == v[1]) == (v[2] != 0),
    "bool_le_reif": lambda v: (v[0] <= v[1]) == (v[2] != 0),
    "bool_lt_reif": lambda v: (v[0] < v[1]) == (v[2] != 0),
    "bool_clause": lambda v: _any([*(x != 0 for x in v[0]), *(x == 0 for x in v[1])]),
    "array_bool_and": lambda v: _all(x != 0 for x in v[0]) == (v[1] != 0),
    # "exactly one" semantics, matching the linear encoding
    "array_bool_xor": lambda v: _lin([1] * len(v[0]), v[0]) == 1,
    "array_int_element": _element,
    "array_bool_element": _element,
    "array_var_int_element": _element,
    "array_var_bool_element": _element,
    "array_int_maximum": _extremum(np.maximum),
    "array_int_minimum": _extremum(np.minimum),
    "set_in": lambda v: _member(v[0], v[1]),
    "set_in_reif": lambda v: _member(v[0], v[1]) == (v[2] != 0),
}


def _pow_bound(base: int, exp: int) -> int:
    """Bound on ``|x ** y|`` for ``|x| <= base``, ``0 <= y <= exp``,
    without computing a power far beyond int64."""
    if base <= 1 or exp <= 0:
        return 1
    if exp * (base.bit_length() - 1) > 64:
        return _INT64_MAX + 1
    return base**exp


def _worst_value(name: str, v: list) -> int:
    """Largest magnitude of an intermediate that ``_COLUMNWISE`` computes
    for one constraint, from the magnitudes ``v`` of its arguments (a
    list for an array); 0 if it computes none beyond its arguments.
    ``int_div``/``int_mod`` compute none: ``|q|``, ``|q*d|`` and
    ``|n - q*d|`` are at most ``|n|``."""
    if name == "int_plus":
        return v[0] + v[1]
    if name == "int_times":
        return v[0] * v[1]
    if name == "int_pow":
        return _pow_bound(v[0], v[1])
    if name.startswith(("int_lin_", "bool_lin_")):
        return sum(c * x for c, x in zip(v[0], v[1]))
    if name == "array_bool_xor":
        return sum(v[0])
    return 0


def _magnitude(arg, mag: dict[str, int], worst: list[int]):
    """Largest magnitude of an argument's values (a list for an array) over
    the domain magnitudes ``mag``; a literal's or a set's joins ``worst``."""
    t = type(arg)
    if t is Ref:
        return mag[arg.name]
    if t is Arr:
        return [_magnitude(a, mag, worst) for a in arg.items]
    worst.append(abs(arg.value) if t is Lit else max(map(abs, arg.values), default=0))
    return worst[-1]


def _source_dtype(model: FzModel):
    """int64, or object (exact Python ints) if a value or intermediate of
    some constraint can leave the int64 range over the domains."""
    mag = {n: max(-d.domain.lo, d.domain.hi) for n, d in model.vars.items()}
    worst = [max(mag.values(), default=0)]
    for c in model.constraints:
        worst.append(_worst_value(c.name, [_magnitude(a, mag, worst) for a in c.args]))
    return object if max(worst) > _INT64_MAX else np.int64


def _cv(arg, table: np.ndarray, index: dict[str, int]):
    """An argument over ``table``: a variable becomes its row of values."""
    t = type(arg)
    if t is Ref:
        return table[index[arg.name]]
    if t is Lit:
        return arg.value
    if t is Arr:
        return [_cv(a, table, index) for a in arg.items]
    if t is SetVal:
        return arg.values
    raise TypeError(f"cannot evaluate {arg!r}")


def _holds(name: str, args: tuple, table: np.ndarray, index: dict[str, int]):
    """Truth of one builtin constraint for every assignment in ``table``,
    whose row ``index[v]`` holds the values of variable ``v``; a bool
    scalar if ``args`` name no variable."""
    return _COLUMNWISE[name]([_cv(a, table, index) for a in args])


def _source_table(radix: list[int], lows: np.ndarray, start: int, stop: int,
                  dtype) -> np.ndarray:
    """Assignments ``start..stop-1`` of the flat product of the domains,
    decoded by mixed radix (the last variable fastest), one per column.
    Row ``j`` holds the values of variable ``j``, so each variable's
    values are contiguous; ``lows`` holds the domain minima, shape (n, 1),
    added in the same call that makes the table."""
    if not radix:
        return np.empty((0, stop - start), dtype=dtype)
    return np.add(np.unravel_index(np.arange(start, stop), radix), lows, dtype=dtype)


# ----------------------------------------------------------------------
# source-model enumeration


def _size(domain: Domain) -> int:
    # not len(domain): len() fails above sys.maxsize, as -2**62..2**62 is
    return domain.hi - domain.lo + 1


def enumerate_fzn(model: FzModel, cap: int = DEFAULT_CAP) -> tuple[list[str], set]:
    """All satisfying assignments of the model, as (names, set of tuples).

    The flat product of the domains is enumerated in tables of at most
    ``_CHUNK`` assignments (fewer when there are many variables, so a
    table has at most ``_CELLS`` values), and every constraint is
    evaluated over a whole table by its ``_COLUMNWISE`` entry.  The mask
    is the conjunction of their results, with no all-true start.  On the
    corpus a call costs about 48 us after its model's compile, as in a
    ``corpus`` op, and 20 us in a tight loop (2-core shared host).
    """
    index, radix, lows = {}, [], []
    for j, (name, decl) in enumerate(model.vars.items()):
        index[name] = j
        radix.append(_size(decl.domain))
        lows.append(decl.domain.lo)
    names = list(index)
    size = math.prod(radix)
    if size > cap:
        raise CapExceeded(size, cap, list(zip(names, radix)))
    dtype = _source_dtype(model)
    lows = np.array(lows, dtype=dtype).reshape(-1, 1)
    chunk = max(1, min(_CHUNK, _CELLS // max(1, len(names))))
    solutions = set()
    for start in range(0, size, chunk):
        table = _source_table(radix, lows, start, min(start + chunk, size), dtype)
        mask = _all(_holds(c.name, c.args, table, index) for c in model.constraints)
        if np.ndim(mask) == 0:  # no constraint reads a variable
            mask = np.full(table.shape[1], bool(mask))
        solutions.update(map(tuple, table.compress(mask, axis=1).T.tolist()))
    return names, solutions


# ----------------------------------------------------------------------
# compiled-problem enumeration


@dataclass(slots=True)
class _Step:
    """One substitution computing a variable from earlier columns."""

    kind: str  # "product" | "equality"
    row: int  # index of the product or equality it solves, which then holds
    target: int
    inputs: list[int]
    coefs: list[int]  # equality only
    constant: int = 0
    sign: int = 1  # coefficient of the target in the equality (+-1)


def _plan(step: _Step, defs: dict, readers: dict, done: set) -> bool:
    """Add ``step`` unless an input depends on its target (a cycle): its
    dependents, searched through ``readers``, are few when planned in order."""
    inputs = step.inputs
    stack, seen = [step.target], set()
    while stack:
        v = stack.pop()
        if v in inputs:
            return False
        if v not in seen:
            seen.add(v)
            stack.extend(readers.get(v, ()))
    defs[step.target] = step
    done.add(step.target)
    for i in inputs:
        readers.setdefault(i, []).append(step.target)
    return True


def _build_substitution(eqs: list, prods: list, aux: set[int],
                        known: set[int]) -> list[_Step]:
    """Greedy plan of variables computable from the enumerated ones.

    ``eqs`` holds the equalities as ``(terms, constant)`` with ``terms``
    a list of ``(column, coefficient)``, and ``prods`` the products as
    ``(result, left, right)`` columns.  Columns in ``known`` are fixed
    without a step.  Each sweep plans the products first: a product
    determines its result.  An equality then determines its single
    undetermined term; when it has several, it determines its single
    undetermined column in ``aux`` (the auxiliaries), counting model
    variables as known (they are enumerated instead).  Only a term with
    coefficient +-1 is determined, and a rule is skipped if using it
    would make the computation cyclic.  Returns the steps with inputs
    before targets.
    """
    if not (eqs or prods):
        return []
    defs: dict[int, _Step] = {}
    readers: dict[int, list[int]] = {}  # column -> targets of steps reading it
    done = set(known)  # the columns fixed or computed so far
    changed = True
    while changed:
        changed = False
        for j, (t, left, right) in enumerate(prods):
            if t not in done:
                changed |= _plan(_Step("product", j, t, [left, right], []),
                                 defs, readers, done)
        for j, (terms, constant) in enumerate(eqs):
            undet = [(i, c) for i, c in terms if i not in done]
            if len(undet) > 1:
                undet = [(i, c) for i, c in undet if i in aux]
            if len(undet) != 1 or abs(undet[0][1]) != 1:
                continue
            t, sign = undet[0]
            changed |= _plan(_Step("equality", j, t, [i for i, _ in terms if i != t],
                                   [c for i, c in terms if i != t], constant, sign),
                             defs, readers, done)

    # topological order (iterative post-order): inputs before targets
    ordered: list[_Step] = []
    visited: set[int] = set()
    for root in defs:
        stack = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                ordered.append(defs[t])
            elif t not in visited and t in defs:
                visited.add(t)
                stack.append((t, True))
                stack.extend((i, False) for i in defs[t].inputs)
    return ordered


@dataclass(slots=True)
class _Unit:
    """One enumeration unit: a free variable, whose choice p sets it to
    ``lo + p``, or a categorical one-hot group, whose choice p sets its
    p-th bit to 1 and leaves the others 0.  A group also sets each of
    ``targets``, the variables that steps compute from its bits alone, to
    its value for choice p: column p of ``lookup``."""

    name: str
    cols: list[int]
    size: int
    lo: int = 0  # value of choice 0 of a variable
    onehot: bool = False
    sums: list[int] | tuple = ()  # its sum(bits) = 1 equalities
    targets: list[int] | tuple = ()
    lookup: np.ndarray | None = None  # (len(targets), size)

    def write(self, view: np.ndarray, r0: int) -> None:
        """Write choice ``r0 + p`` into each ``view[:, j, p]``, whose rows
        ``cols`` hold 0 (no earlier stage writes them)."""
        m = view.shape[2]
        if not self.onehot:
            view[self.cols[0]] = np.arange(self.lo + r0, self.lo + r0 + m)
            return
        view[self.cols[r0:r0 + m], :, np.arange(m)] = 1
        if self.targets:
            view[self.targets] = self.lookup[:, None, r0:r0 + m]


def _categorical_groups(groups: list, index: dict[str, int], doms: list[Domain],
                        eqs: list) -> list[_Unit]:
    """The one-hot ``groups`` that can be enumerated as one unit of k choices.

    A group qualifies only when ``eqs`` (the equalities as ``(terms,
    constant)`` over columns) contains its exact ``sum(bits) - 1 = 0``
    equality and every bit domain lies in 0..1: then exactly one bit is
    1 on every solution.
    """
    if not groups:
        return []
    sums: dict[frozenset, list[int]] = {}
    for j, (terms, constant) in enumerate(eqs):
        if constant == -1 and all(c == 1 for _, c in terms):
            sums.setdefault(frozenset(i for i, _ in terms), []).append(j)
    units: list[_Unit] = []
    taken: set[int] = set()
    for g in groups:
        cols = [index[b] for b, _ in g.bits]
        rows = sums.get(frozenset(cols))
        if (cols and rows is not None and len(set(cols)) == len(cols)
                and taken.isdisjoint(cols)
                and all(doms[c].lo >= 0 and doms[c].hi <= 1 for c in cols)):
            taken.update(cols)
            units.append(_Unit(f"onehot:{g.int_var}", cols, len(cols), onehot=True,
                               sums=rows))
    return units


def _lookup(unit: _Unit, steps: list[_Step], dtype) -> np.ndarray:
    """The values of the ``steps``' targets for each choice of the one-hot
    ``unit``, one row per step and one column per choice.  The steps read
    only the unit's bits and earlier targets.  Each step's arithmetic runs
    on all k choices at once: bit p is 1 for choice p alone, so a term
    ``c * bit_p`` adds ``c`` to choice p."""
    pos = {c: p for p, c in enumerate(unit.cols)}
    row = {s.target: r for r, s in enumerate(steps)}  # its row of the result
    out = np.empty((len(steps), unit.size), dtype=dtype)
    for r, s in enumerate(steps):
        if s.kind == "product":
            left, right = (out[row[i]] if i in row  # else bit i over the choices
                           else np.eye(1, unit.size, pos[i], dtype=dtype)[0] for i in s.inputs)
            np.multiply(left, right, out=out[r])
        else:
            terms = list(zip(s.inputs, s.coefs))
            acc = np.full(unit.size, s.constant, dtype=dtype)
            on = [(pos[i], c) for i, c in terms if i in pos]
            if on:
                at, coefs = zip(*on)
                acc[list(at)] += np.array(coefs, dtype=dtype)
            acc += kernels.linear_form(out, [(row[i], c) for i, c in terms if i in row])
            out[r] = -s.sign * acc
    return out


def _table_dtype(worst: int):
    """int64, or object (exact Python ints) if ``worst``, the largest
    magnitude bound over the domains of a row (a linear form's ``sum(|c|
    * |x|) + |constant|``, a product's ``|left| * |right|``), leaves the
    int64 range.  A step computes its equality without the +-1 target
    term, so no step needs a bound of its own.

    An assignment holding a value outside its domain may compute garbage,
    but the earliest such value (in step order) is exact and fails its
    own domain check in the same stage, so the assignment is dropped
    anyway.
    """
    return object if worst > _INT64_MAX else np.int64


def _advance(table: np.ndarray, steps: list[_Step], checks: tuple | None) -> np.ndarray:
    """Compute a stage's steps on ``table``, one row per variable and one
    column per partial assignment, and keep the columns passing the
    stage's ``feasible_mask`` arguments ``checks``, if it has any."""
    for s in steps:
        if s.kind == "product":
            np.multiply(table[s.inputs[0]], table[s.inputs[1]], out=table[s.target])
        else:
            acc = kernels.linear_form(table, zip(s.inputs, s.coefs), s.constant)
            np.multiply(acc, -s.sign, out=table[s.target])
    if checks is not None:
        mask = kernels.feasible_mask(table, *checks)
        if np.count_nonzero(mask) < mask.size:  # a wide table is costly to copy
            table = table.compress(mask, axis=1)  # C-ordered, as table[:, mask] is not
    return table


@dataclass
class QipEnumeration:
    names: list[str]  # all problem variables, declaration order
    model_names: list[str]
    solutions: set  # tuples over model_names
    free_names: list[str]  # enumeration units; a categorical group is "onehot:<int_var>"
    space_size: int
    best_value: int | None = None  # optimal objective value, in the source's sense
    full_solutions: set | None = None  # tuples over names, if requested


def _first_col(unit: _Unit) -> int:
    return min(unit.cols)


def enumerate_qip(
    problem: QipProblem, cap: int = DEFAULT_CAP, keep_full: bool = False
) -> QipEnumeration:
    """Exhaustively enumerate the compiled problem, one unit at a time.

    The units are the variables with no substitution rule and the
    categorical one-hot groups; the cap applies to the product of their
    sizes.  A table is variable-major: row ``i`` holds variable ``i``'s
    values, one column per partial assignment, so a step or a check
    reads and writes whole contiguous rows.  Units of size 1 are preset
    in the seed column and the others are added smallest first.  A unit
    expands a table with ``np.repeat`` over whole parent columns, all
    their choices at once, or, if it has more choices than a table
    holds, over one parent column and a table-sized slice of its
    choices; a check keeps the surviving columns with ``compress``.  So
    every table stays C-ordered.  A one-hot group's choice also writes
    the variables that steps compute from its bits alone, from a lookup
    of their values per choice made once per call.  After each unit,
    every other step whose inputs are known is computed, and one
    ``kernels.feasible_mask`` call checks every constraint, product and
    domain of a non-free variable whose variables are all known, so only
    surviving assignments meet the next unit.

    Every domain is checked on every assignment, and so is every row
    except those that hold by construction: the equality or product a
    step solves, and a one-hot unit's ``sum(bits) - 1 = 0``.  int64
    arithmetic is exact modulo 2^64 and ``sign**2 = 1``, so a step's
    equality ``sign * (-sign * S) + S`` is 0 even when a value wraps; a
    product check would recompute the step's own product; a choice sets
    exactly one bit of its unit to 1; and a lookup value is the step's
    own result.  A dropped check would pass on every column.

    Planning makes one pass over the variables and one over the rows,
    then places each step, row and non-free domain once, in plain loops;
    a stage that checks nothing gets no ``feasible_mask`` arguments.  On
    the compiled corpus a call costs about 85 us after its model's compile,
    as in a ``corpus`` op, and 44 us in a tight loop (2-core shared host).

    Tables hold at most ``_CHUNK`` assignments (fewer when there are
    many variables, so a table has at most ``_CELLS`` values) and are
    expanded depth first, one table per unit of size >= 2 at a time, so
    at most log2(cap) tables are alive.
    """
    names = list(problem.vars)
    n = len(names)
    index, doms, mag, aux, fixed, model_cols = {}, [], [], set(), set(), []
    for i, (name, v) in enumerate(problem.vars.items()):
        index[name] = i
        d = v.domain
        doms.append(d)
        mag.append(max(-d.lo, d.hi))  # max(|lo|, |hi|), as lo <= hi
        if v.origin is None:
            model_cols.append(i)
        else:
            aux.add(i)
        if d.lo == d.hi:
            fixed.add(i)

    # the rows as (terms over columns, constant); the largest magnitude
    # bound of a row picks the table dtype
    forms, worst = [], 0
    for exprs in (problem.equalities, problem.inequalities, (problem.objective,)):
        rows = []
        for e in exprs:
            terms, bound = [], abs(e.constant)
            for v, c in e.terms.items():
                terms.append((index[v], c))
                bound += abs(c) * mag[index[v]]
            rows.append((terms, e.constant))
            worst = max(worst, bound)
        forms.append(rows)
    eqs, ineqs, (obj,) = forms
    prods = [(index[p.result], index[p.left], index[p.right]) for p in problem.products]
    worst = max([worst, *(mag[left] * mag[right] for _, left, right in prods)])

    groups = _categorical_groups(problem.onehot_groups, index, doms, eqs)
    grouped = {c for u in groups for c in u.cols}
    steps = _build_substitution(eqs, prods, aux, grouped | fixed)
    computed = grouped.union([s.target for s in steps])  # the non-free variables
    units = groups + [_Unit(names[i], [i], _size(doms[i]), doms[i].lo)
                      for i in range(n) if i not in computed]
    if groups:
        units.sort(key=_first_col)

    # stage 0 fills the seed column, the units of size 1 preset;
    # stage k adds the k-th enumerated unit
    size, seed, order, stage = 1, [0] * n, [], [0] * n
    for u in units:
        size *= u.size
        if u.size > 1:
            order.append(u)
        else:
            seed[u.cols[0]] = 1 if u.onehot else u.lo
    if size > cap:
        raise CapExceeded(size, cap, [(u.name, u.size) for u in units])
    dtype = _table_dtype(worst)
    order.sort(key=attrgetter("size"))
    for k, u in enumerate(order, start=1):
        for c in u.cols:
            stage[c] = k
    # each stage's steps, then the rows no step or one-hot choice makes
    # hold, each at the first stage that knows its variables, and the
    # domains of the non-free variables
    work = [([], [], [], [], []) for _ in range(len(order) + 1)]
    solved = set()  # (kind, row) of each row that holds by construction
    for s in steps:
        k = stage[s.target] = max([stage[i] for i in s.inputs], default=0)
        work[k][0].append(s)
        solved.add((s.kind, s.row))
    for u in groups:  # the steps computing from a group's bits alone
        solved.update(("equality", j) for j in u.sums)
        k, own, mine = stage[u.cols[0]], set(u.cols), []
        if k == 0:
            continue  # a group of one bit, preset in the seed column
        for s in work[k][0]:
            if own.issuperset(s.inputs):
                own.add(s.target)
                mine.append(s)
        if mine:
            u.targets = [s.target for s in mine]
            u.lookup = _lookup(u, mine, dtype)
            work[k][0][:] = [s for s in work[k][0] if s.target not in own]
    for slot, kind, rows in ((1, "equality", eqs), (2, "inequality", ineqs)):
        for j, row in enumerate(rows):
            if (kind, j) not in solved:
                k = 0
                for i, _ in row[0]:
                    k = max(k, stage[i])
                work[k][slot].append(row)
    for j, cols in enumerate(prods):
        if ("product", j) not in solved:
            work[max(stage[cols[0]], stage[cols[1]], stage[cols[2]])][3].append(cols)
    for c in sorted(computed):
        work[stage[c]][4].append(c)
    stages = []  # per stage: None, or its steps and feasible_mask arguments
    for stage_steps, *checks, bounded in work:
        if bounded:
            lims = np.array([(doms[c].lo, doms[c].hi) for c in bounded], dtype=dtype)
            checks.append((np.array(bounded), lims[:, :1], lims[:, 1:]))
        elif not any(checks):
            stages.append((stage_steps, None) if stage_steps else None)
            continue
        stages.append((stage_steps, checks))

    result = QipEnumeration(names, [names[i] for i in model_cols], set(),
                            [u.name for u in units], size,
                            full_solutions=set() if keep_full else None)
    table = np.array(seed, dtype=dtype).reshape(n, 1)
    if stages[0]:
        table = _advance(table, *stages[0])
    chunk = max(1, min(_CHUNK, _CELLS // max(1, n)))
    # depth-first: (next unit, table, first flat index of table x unit not
    # done); only tables with columns are pushed
    stack = [(0, table, 0)] if table.shape[1] else []
    while stack:
        k, table, start = stack.pop()
        if k == len(order):  # a table of solutions
            # zip yields no tuple for no rows: then each column is ()
            result.solutions.update(zip(*table.take(model_cols, axis=0).tolist())
                                    if model_cols else [()])
            if keep_full:
                result.full_solutions.update(zip(*table.tolist()) if n else [()])
            if obj[0]:
                best = int(np.min(kernels.linear_form(table, *obj)))
                if result.best_value is None or best < result.best_value:
                    result.best_value = best
            continue
        unit = order[k]
        choices = unit.size
        total = table.shape[1] * choices
        if choices <= chunk:  # whole parent columns, all their choices
            stop = min(start + chunk // choices * choices, total)
        else:  # one parent column, a slice of its choices
            stop = min(start + chunk, start // choices * choices + choices)
        if stop < total:
            stack.append((k, table, stop))
        j0, j1 = start // choices, -(-stop // choices)
        m, r0 = (stop - start) // (j1 - j0), start % choices  # choices r0..r0+m-1
        rows = table[:, j0:j1].repeat(m, axis=1)
        unit.write(rows.reshape(n, j1 - j0, m), r0)  # column j*m + p: choice r0 + p
        if stages[k + 1]:
            rows = _advance(rows, *stages[k + 1])
        if rows.shape[1]:
            stack.append((k + 1, rows, 0))
    if problem.objective_negated and result.best_value is not None:
        result.best_value = -result.best_value  # a maximum, minimized negated
    return result


# ----------------------------------------------------------------------
# differential comparison


@dataclass
class EquivalenceResult:
    equal: bool
    fzn_count: int
    qip_count: int
    direction: str = ""  # "fzn-only" | "qip-only"
    witness: dict[str, int] | None = None

    def describe(self) -> str:
        if self.equal:
            return f"Equal ({self.fzn_count} solutions)"
        side = "source model only" if self.direction == "fzn-only" else (
            "compiled problem only"
        )
        w = " ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
        return (
            f"Counterexample ({side}): {w} "
            f"[{self.fzn_count} vs {self.qip_count} solutions]"
        )


def check_equivalence(
    model: FzModel, problem: QipProblem | None, cap: int = DEFAULT_CAP
) -> EquivalenceResult:
    """Compare the full solution sets of a model and its compilation.

    ``problem`` None means that compilation proved the model
    unsatisfiable: the compiled side has no solution.
    """
    fzn_names, fzn_sols = enumerate_fzn(model, cap)
    qip_sols = set()
    if problem is not None:
        qe = enumerate_qip(problem, cap)
        # align the projections on the source variable order
        order = [qe.model_names.index(n) for n in fzn_names]
        qip_sols = qe.solutions
        if order != list(range(len(qe.model_names))):
            qip_sols = {tuple(t[i] for i in order) for t in qe.solutions}
    counts = len(fzn_sols), len(qip_sols)
    for direction, only in (("fzn-only", fzn_sols - qip_sols),
                            ("qip-only", qip_sols - fzn_sols)):
        if only:
            witness = dict(zip(fzn_names, min(only)))
            return EquivalenceResult(False, *counts, direction, witness)
    return EquivalenceResult(True, *counts)


@dataclass
class OptimumResult:
    fzn_status: str  # "optimal" | "unsat"
    fzn_value: int | None
    qip_status: str
    qip_value: int | None

    @property
    def agrees(self) -> bool:
        return (self.fzn_status, self.fzn_value) == (self.qip_status, self.qip_value)


def solve_optimum(
    model: FzModel, problem: QipProblem, cap: int = DEFAULT_CAP
) -> OptimumResult:
    """Optimal objective value on both sides (requires an objective)."""
    fzn_names, fzn_sols = enumerate_fzn(model, cap)
    obj_i = fzn_names.index(model.solve.var)
    pick = min if model.solve.kind == "minimize" else max
    fzn_value = pick(t[obj_i] for t in fzn_sols) if fzn_sols else None
    fzn_status = "optimal" if fzn_sols else "unsat"

    qip_value = enumerate_qip(problem, cap).best_value
    qip_status = "unsat" if qip_value is None else "optimal"
    return OptimumResult(fzn_status, fzn_value, qip_status, qip_value)
