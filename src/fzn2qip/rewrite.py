"""Translation of FlatZinc builtins into the quadratic normal form.

Each supported builtin becomes a conjunction of linear equalities
(``expr = 0``), linear inequalities (``expr <= 0``) and binary variable
products, with auxiliary variables bounded via the interval formulas in
``bounds``.  Domain restrictions happen in a single pass in model order;
an empty restricted domain proves the model unsatisfiable and aborts
compilation.

Every linear builtin (each comparison ``=``, ``<=``, ``<``, ``!=``,
binary or linear, plain or reified, and the Boolean gates, sums and
clauses listed in ``_FORMS``) is one relation ``s rel 0`` on the linear
form ``s = sum(a_i * x_i) - c``, rewritten in one place
(``_rw_relation``).  A binary builtin is the form ``[1, -1], [a, b], 0``,
literals fold into the constant, a literal reification argument leaves
the relation or its negation, and strict inequalities are
integer-tightened (``s < 0`` becomes ``s + 1 <= 0``).  ``=`` and ``<=``
are one row each; ``!=`` and the reified forms take the bounds of s as
big-M constants and add at most one binary auxiliary and no product,
unless the bounds decide the relation: then they are one row.
The extremum builtins are big-M rows with selector binaries and no
product either (``_rw_extremum``).  The four element builtins are one
rewrite (``_rw_element``), the only one that makes a one-hot group, and
``bool_and(a, b, r)`` is ``array_bool_and([a, b], r)``.  Set membership
is one rewrite on the segments of the domain (``_rw_set_in``, after the
order encoding of Tamura et al. 2009), whose row ``sum(b) = 1`` the
enumerator reads as one unit.  Every rewrite takes its scalar
arguments as the checked model gives them, a variable (``Ref``) or a
literal (``Lit``), and builds each emitted row once, from coefficient
and variable, literal or linear-form parts (``_combine``).  So a
literal stays a constant: a product with a literal factor is linear
and a product of two literals is a literal (``RewriteContext.times``).
A literal element index reaches one entry and makes no one-hot group.
A product row's result is a fresh auxiliary, or, for
``int_times(a, b, c)`` and ``int_pow(x, 2, z)`` over variables, the
result variable itself when it is declared after its operands
(``RewriteContext.times_onto``).
Either way operand-before-result acyclicity holds by construction.
A last pass leaves out the rows the final domains make hold, bar one per
constraint, and the auxiliaries only they read (``_drop_decided_rows``).
"""

from __future__ import annotations

from . import bounds
from .errors import (
    CompileUnsat,
    EmptyDomain,
    UnsupportedExponent,
    checked_int,
)
from .frontend import FzModel, Lit, Ref
from .model import BINARY, Domain, LinExpr, QipProblem, QipVar, Record, collector_paused


class RewriteOptions(Record):
    _fields = ("verbatim_div", "corrupt_div_big_m", "corrupt_bool_and")

    def __init__(self, verbatim_div: bool = False, corrupt_div_big_m: bool = False,
                 corrupt_bool_and: bool = False):
        # emit the division system without the zero-numerator indicator
        self.verbatim_div = verbatim_div
        # negative-control knobs for the differential-testing suite
        self.corrupt_div_big_m = corrupt_div_big_m
        self.corrupt_bool_and = corrupt_bool_and


class RewriteContext:
    """Mutable state threaded through the per-constraint rewrites.

    A scalar argument enters a rewrite as the checked model gives it: a
    variable (``Ref``) or a literal (``Lit``).  The helpers below take
    and give the same, so literals stay folded and no rewrite declares
    a variable for one.  A literal is range-checked before any
    arithmetic on it (``dom``, ``times``, ``_combine``).
    """

    def __init__(self, problem: QipProblem, options: RewriteOptions,
                 rank: dict[str, int]):
        self.problem = problem
        self.options = options
        self.rank = rank  # declaration index of each model variable
        self.builtin = ""  # name of the constraint being rewritten
        self.source = ""  # its provenance, ``builtin#idx``

    # -- helpers --------------------------------------------------------

    def dom(self, x: Ref | Lit) -> Domain:
        """Domain of a variable, or the one value of a literal."""
        if type(x) is Lit:
            return Domain(x.value, x.value)
        return self.problem.vars[x.name].domain

    def fresh(self, role: str, domain: Domain) -> Ref:
        return Ref(self.problem.fresh_var(self.builtin, role, domain, self.source).name)

    def times(self, role: str, a: Ref | Lit, b: Ref | Lit) -> Ref | Lit | LinExpr:
        """``a * b``: a literal for two literals, a linear form for one,
        else a fresh product variable."""
        if type(a) is Lit:
            if type(b) is Lit:
                return Lit(checked_int(checked_int(a.value) * checked_int(b.value)))
            return LinExpr({b.name: a.value})
        if type(b) is Lit:
            return LinExpr({a.name: b.value})
        y = self.fresh(role, bounds.product_bounds(self.dom(a), self.dom(b)))
        self.problem.add_product(y.name, a.name, b.name, self.source)
        return y

    def times_onto(self, c: Ref | Lit, role: str, a: Ref | Lit, b: Ref | Lit) -> None:
        """``c = a * b``: the product row onto c itself when all three are
        variables and c is declared after a and b, else c equals
        ``times``."""
        if type(a) is Ref and type(b) is Ref and type(c) is Ref:
            rank = self.rank
            if rank[c.name] > rank[a.name] and rank[c.name] > rank[b.name]:
                variables = self.problem.vars  # the bounds are an overflow check
                bounds.product_range(variables[a.name].domain, variables[b.name].domain)
                self.problem.add_product(c.name, a.name, b.name, self.source)
                return
        self.eq0(_combine((1, c), (-1, self.times(role, a, b))))

    def onehot(self, x: Ref) -> dict[int, Ref]:
        """Indicator of each value of x: its one-hot bit.  The first
        request makes the group over the domain of x; domains only
        shrink, so each later value has a bit."""
        return {v: Ref(bit) for bit, v in self.problem.onehot_get_or_create(
            x.name, self.dom(x).values()).bits}

    def restrict(self, x: Ref | Lit, d: Domain) -> None:
        """Restrict x to d; raises EmptyDomain when nothing is left, also
        for a literal outside d."""
        if type(x) is Lit:
            Domain(x.value, x.value).intersect(d)
        else:
            self.problem.restrict_domain(x.name, d)

    def eq0(self, expr: LinExpr) -> None:
        self.problem.add_equality(expr, self.source)

    def le0(self, expr: LinExpr) -> None:
        self.problem.add_inequality(expr, self.source)


def _combine(*parts: tuple[int, Ref | Lit | LinExpr], constant: int = 0) -> LinExpr:
    """The row ``sum(k * x for k, x in parts) + constant``."""
    out = LinExpr(constant=constant)
    for k, x in parts:
        kind = type(x)
        if kind is Ref:
            out.add_term(x.name, k)
        elif kind is Lit:
            out.add_const(checked_int(k) * checked_int(x.value))
        else:
            out.add_const(k * x.constant)
            for var, coef in x.terms.items():
                out.add_term(var, k * coef)
    return out


def _label(x: Ref | Lit) -> str:
    """The name of a variable, or the value of a literal."""
    return x.name if type(x) is Ref else str(x.value)


# ----------------------------------------------------------------------
# shared pieces


def _emit_div(ctx: RewriteContext, n: Ref | Lit, d: Ref | Lit,
              q: Ref | Lit) -> Ref | Lit | LinExpr:
    """Emit the linearized truncating-division system; returns the
    product p = d*q."""
    dd = ctx.dom(d)
    if dd.lo == 0 and dd.hi == 0:
        raise EmptyDomain(f"divisor '{_label(d)}' is fixed to zero")
    lo = 1 if dd.lo == 0 else dd.lo
    hi = -1 if dd.hi == 0 else dd.hi
    ctx.restrict(d, Domain(lo, hi))
    dd = ctx.dom(d)
    nd = ctx.dom(n)
    qd = ctx.dom(q)
    m = bounds.compute_big_m(nd, dd, qd, bounds.product_bounds(dd, qd))
    if ctx.options.corrupt_div_big_m:
        m -= 1

    p = ctx.times("p", d, q)

    alpha = ctx.fresh("a", BINARY)
    beta = ctx.fresh("b", BINARY)
    gamma = ctx.times("g", alpha, beta)

    zeta_active = (0 in nd) and not ctx.options.verbatim_div
    relax = max(m, 1)
    zeta = ctx.fresh("z", BINARY) if zeta_active else None

    def ineq(*parts: tuple[int, Ref | Lit | LinExpr], constant: int,
             relaxed: bool) -> None:
        if relaxed and zeta is not None:
            parts += ((-relax, zeta),)
        ctx.le0(_combine(*parts, constant=constant))

    # numerator and divisor sign selectors
    ineq((-1, n), (-(nd.lo - 1), alpha), constant=nd.lo, relaxed=True)
    ineq((1, n), (-(nd.hi + 1), alpha), constant=1, relaxed=True)
    ineq((-1, d), (-(dd.lo - 1), beta), constant=dd.lo, relaxed=False)
    ineq((1, d), (-(dd.hi + 1), beta), constant=1, relaxed=False)
    # magnitude cap: d*q between n and n depending on the numerator sign
    ineq((1, p), (-1, n), (m, alpha), constant=-m, relaxed=False)
    ineq((1, n), (-1, p), (-m, alpha), constant=0, relaxed=False)
    # the four quotient cases, switched by the sign selectors
    ineq((1, n), (-1, d), (-1, p), (m, gamma), constant=-m + 1, relaxed=True)
    ineq((1, p), (-1, n), (1, d), (-m, alpha), (-m, beta), (m, gamma),
         constant=1, relaxed=True)
    ineq((1, n), (1, d), (-1, p), (m, alpha), (-m, gamma),
         constant=-m + 1, relaxed=True)
    ineq((1, p), (-1, n), (-1, d), (m, beta), (-m, gamma),
         constant=-m + 1, relaxed=True)

    if zeta is not None:
        # zero numerator: force q = 0 and deactivate the sign selectors
        mn = max(abs(nd.lo), abs(nd.hi))
        mq = max(abs(qd.lo), abs(qd.hi))
        for k, x, mx in ((1, n, mn), (-1, n, mn), (1, q, mq), (-1, q, mq)):
            ctx.le0(_combine((k, x), (mx, zeta), constant=-mx))
    return p


# ----------------------------------------------------------------------
# per-builtin rewrites


def _rw_element(ctx, item):
    """``c = xs[i]``: ``c = sum(x_j * [i = j])`` over the reachable j.

    A literal entry v goes into the row as the term ``v * [i = j]``.
    When every reachable entry is the same literal or variable x, the
    row is ``c - x = 0`` and i needs no one-hot group.
    """
    i, xs, c = item.args
    elems = xs.items
    i_dom, c_dom = bounds.element_domain_restrict(ctx.dom(i),
                                                  [ctx.dom(e) for e in elems])
    ctx.restrict(i, i_dom)
    ctx.restrict(c, c_dom)
    i_dom = ctx.dom(i)  # narrower than computed when c is i
    reachable = elems[i_dom.lo - 1 : i_dom.hi]
    if all(e == reachable[0] for e in reachable):
        ctx.eq0(_combine((1, c), (-1, reachable[0])))
        return
    bits = ctx.onehot(i)
    parts = [(-1, c)]
    for j in i_dom.values():
        e = elems[j - 1]
        if type(e) is Lit:
            parts.append((e.value, bits[j]))
        else:
            parts.append((1, ctx.times(f"z{j}", e, bits[j])))
    ctx.eq0(_combine(*parts))


def _rw_abs(ctx, item):
    x, y = item.args
    ctx.restrict(y, bounds.abs_bounds(ctx.dom(x)))
    b = ctx.fresh("b", BINARY)
    z = ctx.times("z", b, x)
    ctx.eq0(_combine((1, y), (-1, x), (2, z)))


def _rw_div(ctx, item):
    _emit_div(ctx, *item.args)


def _rw_mod(ctx, item):
    n, d, r = item.args
    nd = ctx.dom(n)
    u = max(abs(nd.lo), abs(nd.hi))
    q = ctx.fresh("q", Domain(-u, u))
    p = _emit_div(ctx, n, d, q)
    ctx.eq0(_combine((1, p), (1, r), (-1, n)))
    dd = ctx.dom(d)  # after endpoint-zero pruning
    ud = max(abs(dd.lo), abs(dd.hi))
    r_lo, r_hi = -(ud - 1), ud - 1
    if nd.lo >= 0:
        r_lo = 0
    if nd.hi <= 0:
        r_hi = 0
    ctx.restrict(r, Domain(r_lo, r_hi))


def _binary(rel: str):
    """``rel(a, b[, r])`` states ``a - b rel 0``."""
    return lambda args: (rel, [1, -1], args[:2], 0, *args[2:])


def _lin(rel: str):
    """``rel(as, xs, c[, r])`` states ``sum(as * xs) - c rel 0``."""
    return lambda args: (rel, [a.value for a in args[0].items],
                         args[1].items, args[2].value, *args[3:])


# every linear builtin as (relation, coefficients, terms, constant[, r]),
# built from its arguments: sum(coefficients * terms) - constant rel 0
_FORMS = {
    "array_bool_xor": lambda args: ("eq", [1] * len(args[0].items),
                                    args[0].items, 1),
    "bool2int": _binary("eq"),
    # some positive literal is 1 or some negative one is 0
    "bool_clause": lambda args: (
        "le", [-1] * len(args[0].items) + [1] * len(args[1].items),
        args[0].items + args[1].items, len(args[1].items) - 1),
    "bool_eq": _binary("eq"), "bool_eq_reif": _binary("eq"),
    "bool_le": _binary("le"), "bool_le_reif": _binary("le"),
    "bool_lin_eq": lambda args: ("eq", [a.value for a in args[0].items] + [-1],
                                 (*args[1].items, args[2]), 0),
    "bool_lin_le": _lin("le"),
    "bool_lt": _binary("lt"), "bool_lt_reif": _binary("lt"),
    "bool_not": lambda args: ("eq", [1, 1], args, 1),
    # r <-> 1 - a - b <= 0
    "bool_or": lambda args: ("le", [-1, -1], args[:2], -1, args[2]),
    "bool_xor": lambda args: (("eq", [1, 1], args, 1) if len(args) == 2
                              else ("ne", [1, -1], args[:2], 0, args[2])),
    "int_eq": _binary("eq"), "int_eq_reif": _binary("eq"),
    "int_le": _binary("le"), "int_le_reif": _binary("le"),
    "int_lt": _binary("lt"), "int_lt_reif": _binary("lt"),
    "int_ne": _binary("ne"), "int_ne_reif": _binary("ne"),
    "int_lin_eq": _lin("eq"), "int_lin_eq_reif": _lin("eq"),
    "int_lin_le": _lin("le"), "int_lin_le_reif": _lin("le"),
    "int_lin_ne": _lin("ne"), "int_lin_ne_reif": _lin("ne"),
    "int_plus": lambda args: ("eq", [1, 1, -1], args, 0),
}


def _rw_relation(ctx, item):
    """``s rel 0`` over ``s = sum(a_i * x_i) - c``, plain or reified by r.

    ``_FORMS`` gives the relation, the a_i, the x_i, c and r.  Literals
    fold into the constant of s, and ``lt`` is ``le`` with c - 1.  A
    literal r leaves the relation (true) or its negation (false).  The
    bounds [lo, hi] of s are the big-M constants of the rows, which hold
    s itself, so s needs no auxiliary variable.  When the bounds decide
    the relation, a reified one is the row ``r = 1`` or ``r = 0``, and a
    plain ``ne`` the one row ``s >= 1`` or ``s <= -1`` that holds.
    """
    rel, coeffs, xs, c, *rest = _FORMS[item.name](item.args)
    r = rest[0] if rest else None
    if rel == "lt":
        rel, c = "le", c - 1
    s = _combine(*zip(coeffs, xs)).add_const(-c)
    if type(r) is Lit:
        if not r.value:
            if rel == "le":
                s = _combine((-1, s), constant=1)  # s >= 1
            else:
                rel = "ne" if rel == "eq" else "eq"
        r = None
    if r is None and rel != "ne":
        # no bounds: s may be exact while its bounds leave the safe range
        (ctx.eq0 if rel == "eq" else ctx.le0)(s)
        return
    s_dom = bounds.lin_bounds(coeffs, [ctx.dom(x) for x in xs], c)
    lo, hi = s_dom.lo, s_dom.hi
    if rel == "le":
        decided, holds = hi <= 0 or lo > 0, hi <= 0
    else:
        decided = lo == hi == 0 or not lo <= 0 <= hi
        holds = (lo == hi == 0) == (rel == "eq")
    if decided:
        if r is not None:
            ctx.eq0(_combine((1, r), constant=-int(holds)))  # r = holds
        elif holds:
            # an ne whose bounds exclude 0: the one row of its sign
            ctx.le0(_combine((-1, s), constant=1) if lo > 0 else s.add_const(1))
        else:
            raise EmptyDomain("the compared values are always equal")
        return
    if r is not None:
        if rel == "le":
            # r = 1: s <= 0; r = 0: s >= 1
            ctx.le0(_combine((1, s), (hi, r), constant=-hi))
            ctx.le0(_combine((-1, s), (lo - 1, r), constant=1))
            return
        # t = 1 forces s = 0 and relaxes the s != 0 rows below
        t = r if rel == "eq" else _combine((-1, r), constant=1)
        ctx.le0(_combine((1, s), (hi, t), constant=-hi))
        ctx.le0(_combine((-1, s), (-lo, t), constant=lo))
    else:
        t = Lit(0)
    # s != 0 when t = 0: b = 0 gives s <= -1, b = 1 gives s >= 1
    # (lo <= 0 <= hi here, so hi + 1 and 1 - lo are positive)
    b = ctx.fresh("b", BINARY)
    ctx.le0(_combine((1, s), (-(hi + 1), b), (-(hi + 1), t), constant=1))
    ctx.le0(_combine((-1, s), (1 - lo, b), (lo - 1, t), constant=lo))


def _rw_extremum(ctx, item):
    """``m = max(xs)`` (sign 1) or ``m = min(xs)`` (sign -1), no product.

    Every x_j has ``sign * (x_j - m) <= 0``, and the selected one also
    ``sign * (m - x_j) <= M_j * (1 - sel_j)``, with M_j the upper bound of
    ``sign * (m - x_j)``.  Binaries b_2..b_n select x_2..x_n and x_1 is
    selected by ``1 - sum(b)``, so ``sum(b) <= 1``.
    """
    sign = 1 if item.name in ("int_max", "array_int_maximum") else -1
    if item.name.startswith("int_"):
        m, xs = item.args[2], item.args[:2]
    else:
        m, xs = item.args[0], item.args[1].items
    if not xs:
        raise EmptyDomain("extremum of an empty array")
    m_dom, x_doms = bounds.minmax_domain_restrict(ctx.dom(m), [ctx.dom(x) for x in xs], sign)
    for x, d in zip((m, *xs), (m_dom, *x_doms)):
        ctx.restrict(x, d)
    bits = [ctx.fresh("b", BINARY) for _ in xs[1:]]
    picked = _combine(*((1, bit) for bit in bits))
    if len(bits) > 1:
        ctx.le0(_combine((1, picked), constant=-1))
    for x, sel in zip(xs, [_combine((-1, picked), constant=1), *bits]):
        s = _combine((sign, x), (-sign, m))  # sign * (x - m)
        big_m = -bounds.lin_bounds([sign, -sign], [ctx.dom(x), ctx.dom(m)], 0).lo
        ctx.le0(s)
        ctx.le0(_combine((-1, s), (big_m, sel), constant=-big_m))


def _rw_int_times(ctx, item):
    a, b, c = item.args
    ctx.times_onto(c, "p", a, b)


def _rw_int_pow(ctx, item):
    x, y, z = item.args
    ctx.dom(x)  # a literal base is range-checked whatever the exponent
    yd = ctx.dom(y)
    if yd.lo != yd.hi:
        raise UnsupportedExponent("exponent must be a fixed value")
    n = yd.lo
    if n < 0:
        raise UnsupportedExponent(f"negative exponent {n}")
    if n == 0:
        ctx.eq0(_combine((1, z), constant=-1))
        return
    if n == 2:
        ctx.times_onto(z, "e2", x, x)
        return

    def power(k: int) -> Ref | Lit:
        if k == 1:
            return x
        u = power(k // 2)
        if k % 2 == 0:
            return ctx.times(f"e{k}", u, u)
        return ctx.times(f"e{k}", x, ctx.times(f"e{k - 1}", u, u))

    ctx.eq0(_combine((1, z), (-1, power(n))))


def _rw_array_bool_and(ctx, item):
    """``r = and(xs)``: ``r - x <= 0`` for each x, and
    ``sum(xs) - r <= n - 1``; for no x, that row alone gives r = 1.
    ``bool_and(a, b, r)`` is ``array_bool_and([a, b], r)``."""
    xs = item.args[0].items if item.name == "array_bool_and" else item.args[:2]
    r = item.args[-1]
    for x in xs:
        ctx.le0(_combine((1, r), (-1, x)))
    if not ctx.options.corrupt_bool_and:
        ctx.le0(_combine((-1, r), *((1, x) for x in xs), constant=1 - len(xs)))


def _rw_set_in(ctx, item):
    """``r = [x in S]``; ``set_in(x, S)`` is ``set_in_reif(x, S, 1)``.

    The segments of dom(x) are the maximal runs of S in it and the gaps
    between them.  A literal r keeps the runs (1) or the gaps (0) and
    restricts x to their hull.  One binary b per segment, ``sum(b) = 1``
    (one segment: the literal 1), and ``sum(lo * b) <= x <= sum(hi * b)``,
    or ``x = sum(v * b)`` when each segment is one value v, so x is
    computed.  A variable r is the sum of the runs' b."""
    x, s, r = (*item.args, Lit(1))[:3]
    d = ctx.dom(x)
    segments, at = [], d.lo  # (lo, hi, in S); at: the first value not placed
    for lo, hi in s.runs:
        lo, hi = max(lo, at), min(hi, d.hi)
        if lo <= hi:
            if at < lo:
                segments.append((at, lo - 1, False))
            segments.append((lo, hi, True))
            at = hi + 1
    if at <= d.hi:
        segments.append((at, d.hi, False))
    if type(r) is Lit:
        segments = [seg for seg in segments if seg[2] == bool(r.value)]
        if not segments:
            raise EmptyDomain(f"'{_label(x)}' cannot take any value "
                              f"{'of' if r.value else 'outside'} the set")
        ctx.restrict(x, Domain(segments[0][0], segments[-1][1]))
    bits = [Lit(1)]
    if len(segments) > 1:
        bits = [ctx.fresh("b", BINARY) for _ in segments]
        ctx.eq0(_combine(*((1, b) for b in bits), constant=-1))
    if all(lo == hi for lo, hi, _ in segments):
        ctx.eq0(_combine((1, x), *((-lo, b) for (lo, _, _), b in zip(segments, bits))))
    else:
        ctx.le0(_combine((-1, x), *((lo, b) for (lo, _, _), b in zip(segments, bits))))
        ctx.le0(_combine((1, x), *((-hi, b) for (_, hi, _), b in zip(segments, bits))))
    if type(r) is Ref:
        ctx.eq0(_combine((1, r), *((-1, b) for (*_, run), b in zip(segments, bits)
                                   if run)))


_DISPATCH = {name: _rw_relation for name in _FORMS} | {
    "array_bool_and": _rw_array_bool_and,
    "array_bool_element": _rw_element,
    "array_int_element": _rw_element,
    "array_int_maximum": _rw_extremum,
    "array_int_minimum": _rw_extremum,
    "array_var_bool_element": _rw_element,
    "array_var_int_element": _rw_element,
    "bool_and": _rw_array_bool_and,
    "int_abs": _rw_abs,
    "int_div": _rw_div,
    "int_max": _rw_extremum,
    "int_min": _rw_extremum,
    "int_mod": _rw_mod,
    "int_pow": _rw_int_pow,
    "int_times": _rw_int_times,
    "set_in": _rw_set_in,
    "set_in_reif": _rw_set_in,
}


def _holds(row: LinExpr, is_equality: bool, variables: dict[str, QipVar]) -> bool:
    """Whether ``row = 0`` (``row <= 0``) holds on every point of the
    domains, by exact interval bounds."""
    lo, hi = bounds.lin_range(((a, variables[v].domain) for v, a in row.terms.items()),
                              -row.constant)
    return lo == hi == 0 if is_equality else hi <= 0


def _drop_decided_rows(problem: QipProblem) -> None:
    """Leave out every row that the final domains make hold, then every
    auxiliary that no row or product reads (a group's rows read its
    bits, and the objective reads a model variable).

    One kind of row stays whatever the bounds say: the first row of a
    source constraint whose rows all hold, so that every ``builtin#idx``
    still ships in ``meta.*_sources``.  The solution set is unchanged: a
    dropped row holds on every point, and a dropped auxiliary is then
    free over its nonempty domain.
    """
    variables = problem.vars
    lists = ((problem.equalities, problem.equality_sources, True),
             (problem.inequalities, problem.inequality_sources, False))
    covered = set(problem.product_sources)  # sources that keep a row
    held = []
    for rows, sources, is_equality in lists:
        js = []
        for j, row in enumerate(rows):
            if not _holds(row, is_equality, variables):
                covered.add(sources[j])
            else:
                js.append(j)
        held.append(js)
    for (rows, sources, _), js in zip(lists, held):
        drop = set()
        for j in js:
            if sources[j] in covered:
                drop.add(j)
            else:
                covered.add(sources[j])
        if drop:
            rows[:] = [row for j, row in enumerate(rows) if j not in drop]
            sources[:] = [src for j, src in enumerate(sources) if j not in drop]
    unread = {name for name, var in variables.items() if not var.is_model}
    if unread:
        for row in (*problem.equalities, *problem.inequalities):
            unread.difference_update(row.terms)
        for p in problem.products:
            unread.difference_update((p.result, p.left, p.right))
        for name in unread:
            del variables[name]


@collector_paused
def compile_model(model: FzModel, options: RewriteOptions | None = None) -> QipProblem:
    """Compile a checked model into a validated problem.

    Raises CompileUnsat when a domain restriction proves infeasibility.
    """
    options = options or RewriteOptions()
    prob = QipProblem()
    for decl in model.vars.values():
        prob.add_var(QipVar(decl.name, decl.domain))
    ctx = RewriteContext(prob, options, {name: i for i, name in enumerate(model.vars)})
    for idx, item in enumerate(model.constraints):
        ctx.builtin, ctx.source = item.name, f"{item.name}#{idx}"
        try:
            _DISPATCH[item.name](ctx, item)
        except EmptyDomain as exc:
            raise CompileUnsat(
                f"constraint {ctx.source} is unsatisfiable: {exc.message}"
            ) from exc
    if model.solve.kind == "minimize":
        prob.objective = LinExpr({model.solve.var: 1})
    elif model.solve.kind == "maximize":
        prob.objective_negated = True
        prob.objective = LinExpr({model.solve.var: -1})
    _drop_decided_rows(prob)
    violations = prob.validate()
    if violations:
        raise AssertionError(f"internal error, invalid output: {violations}")
    return prob
