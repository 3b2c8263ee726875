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
  categorical one-hot groups) with every computable variable
  substituted, each constraint checked by the numeric kernel as soon as
  its columns are known, and solutions projected back onto the source
  variables.

Both are fully exhaustive, so agreement of the projected solution sets
is a proof of equivalence over the given domains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CapExceeded
from .frontend import Arr, FzModel, Lit, Ref, SetVal
from .model import Domain, QipProblem

DEFAULT_CAP = 2_000_000
_CHUNK = 1 << 16  # rows per enumeration table
_CELLS = 1 << 20  # values per enumeration table, for wide problems
_BLOCK = 1 << 11  # coefficients per dense check block
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
        acc = acc & c
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


def _source_dtype(model: FzModel):
    """int64, or object (exact Python ints) if a value or intermediate of
    some constraint can leave the int64 range over the domains."""
    mag = {n: max(abs(d.domain.lo), abs(d.domain.hi)) for n, d in model.vars.items()}
    worst = [max(mag.values(), default=0)]

    def bound(arg):
        t = type(arg)
        if t is Ref:
            return mag[arg.name]
        if t is Lit:
            worst.append(abs(arg.value))
            return worst[-1]
        if t is Arr:
            return [bound(a) for a in arg.items]
        worst.append(max(map(abs, arg.values), default=0))
        return worst[-1]

    for c in model.constraints:
        worst.append(_worst_value(c.name, [bound(a) for a in c.args]))
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
    values are contiguous; ``lows`` holds the domain minima, shape (n, 1)."""
    table = np.empty((len(radix), stop - start), dtype=dtype)
    if radix:
        table[:] = np.unravel_index(np.arange(start, stop), radix)
    table += lows
    return table


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
    evaluated over a whole table by its ``_COLUMNWISE`` entry.
    """
    names = list(model.vars)
    sizes = {name: _size(decl.domain) for name, decl in model.vars.items()}
    size = math.prod(sizes.values())
    if size > cap:
        raise CapExceeded(size, cap, sorted(sizes.items(), key=lambda nv: -nv[1])[:3])
    index = {name: j for j, name in enumerate(names)}
    radix = list(sizes.values())
    dtype = _source_dtype(model)
    lows = np.array([decl.domain.lo for decl in model.vars.values()], dtype=dtype)
    lows = lows.reshape(-1, 1)
    chunk = max(1, min(_CHUNK, _CELLS // max(1, len(names))))
    solutions = set()
    for start in range(0, size, chunk):
        table = _source_table(radix, lows, start, min(start + chunk, size), dtype)
        mask = np.ones(table.shape[1], dtype=bool)
        for c in model.constraints:
            mask &= _holds(c.name, c.args, table, index)
        solutions.update(map(tuple, table[:, mask].T.tolist()))
    return names, solutions


# ----------------------------------------------------------------------
# compiled-problem enumeration


@dataclass
class _Step:
    """One substitution computing a variable from earlier columns."""

    kind: str  # "product" | "equality"
    target: int
    inputs: list[int]
    coefs: list[int] = field(default_factory=list)  # equality only
    constant: int = 0
    sign: int = 1  # coefficient of the target in the equality (+-1)


def _build_substitution(problem: QipProblem, known: set[int]) -> list[_Step]:
    """Greedy plan of variables computable from the enumerated ones.

    Columns in ``known`` are fixed without a step.  Each sweep plans the
    products first: a product determines its result.  An equality then
    determines its single undetermined term; when it has several, it
    determines its single undetermined auxiliary, counting model
    variables as known (they are enumerated instead).  Only a term with
    coefficient +-1 is determined, and a rule is skipped if using it
    would make the computation cyclic.  Returns the steps with inputs
    before targets.
    """
    index = {name: i for i, name in enumerate(problem.vars)}
    aux = {index[n] for n, v in problem.vars.items() if not v.is_model}
    equalities = [([(index[n], c) for n, c in e.terms.items()], e.constant)
                  for e in problem.equalities]
    products = [(index[p.result], index[p.left], index[p.right])
                for p in problem.products]
    defs: dict[int, _Step] = {}
    readers: dict[int, list[int]] = {}  # column -> targets of steps reading it

    def plan(step: _Step) -> bool:
        # cyclic iff an input depends on the target: search the target's
        # dependents, which are few when steps are planned in order
        inputs = set(step.inputs)
        stack, seen = [step.target], set()
        while stack:
            v = stack.pop()
            if v in inputs:
                return False
            if v not in seen:
                seen.add(v)
                stack.extend(readers.get(v, ()))
        defs[step.target] = step
        for i in inputs:
            readers.setdefault(i, []).append(step.target)
        return True

    def undetermined(i: int) -> bool:
        return i not in defs and i not in known

    changed = True
    while changed:
        changed = False
        for t, left, right in products:
            if undetermined(t):
                changed |= plan(_Step("product", t, [left, right]))
        for terms, constant in equalities:
            undet = [(i, c) for i, c in terms if undetermined(i)]
            if len(undet) > 1:
                undet = [(i, c) for i, c in undet if i in aux]
            if len(undet) != 1 or abs(undet[0][1]) != 1:
                continue
            t, sign = undet[0]
            rest = [(i, c) for i, c in terms if i != t]
            changed |= plan(_Step("equality", t, [i for i, _ in rest],
                                  [c for _, c in rest], constant, sign))

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


@dataclass
class _Unit:
    """One enumeration column: a free variable, or a categorical one-hot
    group whose choice j sets its j-th bit to 1 and the others to 0."""

    name: str
    cols: list[int]
    size: int
    lo: int = 0  # value of choice 0 of a variable
    onehot: bool = False

    def choices(self, idx: np.ndarray) -> np.ndarray:
        """Values of ``cols`` for the choice numbers ``idx``, one row each."""
        if self.onehot:
            return (idx[:, None] == np.arange(self.size)).astype(np.int64)
        return (idx + self.lo)[:, None]


def _categorical_groups(problem: QipProblem, index: dict[str, int]) -> list[_Unit]:
    """One-hot groups that can be enumerated as one column of k choices.

    A group qualifies only when the problem contains its exact
    ``sum(bits) - 1 = 0`` equality and every bit domain lies in 0..1:
    then exactly one bit is 1 on every solution.
    """
    sums = {frozenset(e.terms) for e in problem.equalities
            if e.constant == -1 and all(c == 1 for c in e.terms.values())}
    units: list[_Unit] = []
    taken: set[int] = set()
    for g in problem.onehot_groups:
        bits = [b for b, _ in g.bits]
        if not bits or frozenset(bits) not in sums or len(set(bits)) != len(bits):
            continue
        cols = [index[b] for b in bits]
        doms = [problem.vars[b].domain for b in bits]
        if taken.isdisjoint(cols) and all(d.lo >= 0 and d.hi <= 1 for d in doms):
            taken.update(cols)
            units.append(_Unit(f"onehot:{g.int_var}", cols, len(cols), onehot=True))
    return units


def _table_dtype(problem: QipProblem, index: dict[str, int], steps: list[_Step]):
    """int64, or object (exact Python ints) if some linear form, step or
    product can leave the int64 range over the domains.

    Rows holding a value outside its domain may compute garbage, but the
    earliest such value (in step order) is exact and fails its own
    domain check in the same stage, so those rows are dropped anyway.
    """
    mag = [max(abs(v.domain.lo), abs(v.domain.hi)) for v in problem.vars.values()]

    def lin(terms, constant: int) -> int:
        return sum(abs(c) * mag[i] for i, c in terms) + abs(constant)

    worst = [lin(((index[n], c) for n, c in e.terms.items()), e.constant)
             for e in (*problem.equalities, *problem.inequalities, problem.objective)]
    worst += [mag[index[p.left]] * mag[index[p.right]] for p in problem.products]
    worst += [lin(zip(s.inputs, s.coefs), s.constant) for s in steps
              if s.kind == "equality"]
    return object if max(worst, default=0) > _INT64_MAX else np.int64


def _check_blocks(eqs: list, ineqs: list, prods: list, bounded: list[int],
                  doms: list[Domain], dtype) -> list[tuple]:
    """One stage's checks as ``(columns, feasible_mask arguments)`` blocks.

    The domains of the ``bounded`` columns come first, in one block.  The
    dense matrices of the other blocks span only the columns they read
    and hold at most about ``_BLOCK`` coefficients, which bounds their
    memory and lets each block see only the rows the earlier ones kept.
    """
    blocks = []
    if bounded:
        cols, no_rows = _block([], set(bounded), dtype)
        lows = np.array([doms[c].lo for c in cols], dtype=dtype)
        highs = np.array([doms[c].hi for c in cols], dtype=dtype)
        blocks.append((cols, (*no_rows, lows, highs)))
    items = ([("eq", e) for e in eqs] + [("ineq", e) for e in ineqs]
             + [("prod", p) for p in prods])
    part, cols = [], set()
    for kind, item in items:
        item_cols = {i for i, _ in item[0]} if kind != "prod" else set(item)
        if part and (len(part) + 1) * len(cols | item_cols) > _BLOCK:
            blocks.append(_block(part, cols, dtype))
            part, cols = [], set()
        part.append((kind, item))
        cols |= item_cols
    if part:
        blocks.append(_block(part, cols, dtype))
    return blocks


def _block(part: list, cols: set[int], dtype) -> tuple:
    """Columns and dense ``feasible_mask`` arguments of the checks in ``part``."""
    order = sorted(cols)
    local = {c: j for j, c in enumerate(order)}

    def dense(forms):
        coef = np.zeros((len(forms), len(order)), dtype=dtype)
        for r, (terms, _) in enumerate(forms):
            for i, c in terms:
                coef[r, local[i]] = c
        return coef, np.array([k for _, k in forms], dtype=dtype)

    prod_idx = np.array([[local[i] for i in p] for kind, p in part if kind == "prod"],
                        dtype=np.int64).reshape(-1, 3)
    return order, (*dense([e for kind, e in part if kind == "eq"]),
                   *dense([e for kind, e in part if kind == "ineq"]), prod_idx)


def _advance(rows: np.ndarray, steps: list[_Step], blocks: list[tuple]) -> np.ndarray:
    """Compute a stage's steps on ``rows`` and keep the rows passing its checks."""
    for s in steps:
        if s.kind == "product":
            rows[:, s.target] = rows[:, s.inputs[0]] * rows[:, s.inputs[1]]
        else:
            acc = rows[:, s.inputs] @ np.array(s.coefs, dtype=rows.dtype)
            rows[:, s.target] = -s.sign * (acc + s.constant)
    for cols, args in blocks:
        mask = kernels.feasible_mask(rows[:, cols], *args)
        if not mask.all():  # a wide table is costly to copy
            rows = rows[mask]
            if not len(rows):
                break
    return rows


@dataclass
class QipEnumeration:
    names: list[str]  # all problem variables, declaration order
    model_names: list[str]
    solutions: set  # tuples over model_names
    free_names: list[str]  # enumeration units; a categorical group is "onehot:<int_var>"
    space_size: int
    best_value: int | None = None  # minimal internal objective value
    best_assignment: dict[str, int] | None = None
    full_solutions: set | None = None  # tuples over names, if requested


def enumerate_qip(
    problem: QipProblem, cap: int = DEFAULT_CAP, keep_full: bool = False
) -> QipEnumeration:
    """Exhaustively enumerate the compiled problem, one unit at a time.

    The units are the variables with no substitution rule and the
    categorical one-hot groups; the cap applies to the product of their
    sizes.  Units of size 1 are preset in the seed row and the others are
    added smallest first.  After each unit, every step whose inputs are
    known is computed, and every constraint, product and domain of a
    non-free column whose variables are all known is checked, so only
    surviving rows meet the next unit.  Every constraint and every domain
    is checked on every row.  Tables hold at most ``_CHUNK`` rows (fewer
    when rows are wide, so a table has at most ``_CELLS`` values) and are
    expanded depth first, one table per unit of size >= 2 at a time, so
    at most log2(cap) tables are alive.
    """
    names = list(problem.vars)
    index = {name: i for i, name in enumerate(names)}
    doms = [v.domain for v in problem.vars.values()]
    units = _categorical_groups(problem, index)
    grouped = {c for u in units for c in u.cols}
    singletons = {i for i, d in enumerate(doms) if d.lo == d.hi}
    steps = _build_substitution(problem, grouped | singletons)
    computed = grouped | {s.target for s in steps}  # the non-free columns
    units += [_Unit(names[i], [i], _size(doms[i]), doms[i].lo)
              for i in range(len(names)) if i not in computed]
    units.sort(key=lambda u: min(u.cols))

    size = math.prod(u.size for u in units)
    if size > cap:
        largest = sorted(units, key=lambda u: -u.size)[:3]
        raise CapExceeded(size, cap, [(u.name, u.size) for u in largest])

    # stage 0 fills the seed row; stage k adds the k-th enumerated unit
    order = sorted((u for u in units if u.size > 1), key=lambda u: u.size)
    stage = [0] * len(names)
    for k, u in enumerate(order, start=1):
        for c in u.cols:
            stage[c] = k
    n_stages = len(order) + 1
    stage_steps: list[list[_Step]] = [[] for _ in range(n_stages)]
    for s in steps:
        stage[s.target] = max((stage[i] for i in s.inputs), default=0)
        stage_steps[stage[s.target]].append(s)
    eqs: list[list] = [[] for _ in range(n_stages)]
    ineqs: list[list] = [[] for _ in range(n_stages)]
    prods: list[list] = [[] for _ in range(n_stages)]
    bounded: list[list[int]] = [[] for _ in range(n_stages)]  # non-free columns
    for exprs, out in ((problem.equalities, eqs), (problem.inequalities, ineqs)):
        for e in exprs:
            terms = [(index[n], c) for n, c in e.terms.items()]
            out[max((stage[i] for i, _ in terms), default=0)].append((terms, e.constant))
    for p in problem.products:
        cols = (index[p.result], index[p.left], index[p.right])
        prods[max(stage[i] for i in cols)].append(cols)
    for c in sorted(computed):
        bounded[stage[c]].append(c)
    dtype = _table_dtype(problem, index, steps)
    stages = [(stage_steps[k],
               _check_blocks(eqs[k], ineqs[k], prods[k], bounded[k], doms, dtype))
              for k in range(n_stages)]

    model_cols = [i for i, n in enumerate(names) if problem.vars[n].is_model]
    obj_vec = np.zeros(len(names), dtype=dtype)
    for n, c in problem.objective.terms.items():
        obj_vec[index[n]] = c
    has_obj = bool(problem.objective.terms) or problem.objective_sense == "min"
    result = QipEnumeration(
        names=names,
        model_names=[names[i] for i in model_cols],
        solutions=set(),
        free_names=[u.name for u in units],
        space_size=size,
        full_solutions=set() if keep_full else None,
    )

    def collect(feas: np.ndarray) -> None:
        result.solutions.update(map(tuple, feas[:, model_cols].tolist()))
        if keep_full:
            result.full_solutions.update(map(tuple, feas.tolist()))
        if has_obj:
            objs = feas @ obj_vec + problem.objective.constant
            k = int(np.argmin(objs))
            if result.best_value is None or objs[k] < result.best_value:
                result.best_value = int(objs[k])
                result.best_assignment = dict(zip(names, feas[k].tolist()))

    seed = np.zeros((1, len(names)), dtype=dtype)
    for u in units:
        if u.size == 1:
            seed[:, u.cols] = u.choices(np.zeros(1, dtype=np.int64))
    chunk = max(1, min(_CHUNK, _CELLS // max(1, len(names))))
    # depth-first: (next unit, table, first flat index of table x unit not done)
    stack = [(0, _advance(seed, *stages[0]), 0)]
    while stack:
        k, table, start = stack.pop()
        if k == len(order):
            if len(table):
                collect(table)
            continue
        unit = order[k]
        total = len(table) * unit.size
        stop = min(start + chunk, total)
        if stop < total:
            stack.append((k, table, stop))
        idx = np.arange(start, stop, dtype=np.int64)
        rows = table[idx // unit.size]
        rows[:, unit.cols] = unit.choices(idx % unit.size)
        rows = _advance(rows, *stages[k + 1])
        if len(rows):
            stack.append((k + 1, rows, 0))
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
    model: FzModel, problem: QipProblem, cap: int = DEFAULT_CAP
) -> EquivalenceResult:
    """Compare the full solution sets of a model and its compilation."""
    fzn_names, fzn_sols = enumerate_fzn(model, cap)
    qe = enumerate_qip(problem, cap)
    # align the projections on the source variable order
    order = [qe.model_names.index(n) for n in fzn_names]
    qip_sols = {tuple(t[i] for i in order) for t in qe.solutions}
    if fzn_sols == qip_sols:
        return EquivalenceResult(True, len(fzn_sols), len(qip_sols))
    only_fzn = fzn_sols - qip_sols
    if only_fzn:
        combo = min(only_fzn)
        return EquivalenceResult(
            False, len(fzn_sols), len(qip_sols), "fzn-only",
            dict(zip(fzn_names, combo)),
        )
    combo = min(qip_sols - fzn_sols)
    return EquivalenceResult(
        False, len(fzn_sols), len(qip_sols), "qip-only",
        dict(zip(fzn_names, combo)),
    )


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

    qe = enumerate_qip(problem, cap)
    if qe.best_value is None:
        return OptimumResult(fzn_status, fzn_value, "unsat", None)
    value = -qe.best_value if problem.objective_negated else qe.best_value
    return OptimumResult(fzn_status, fzn_value, "optimal", value)
