"""The quadratic integer program normal form.

A problem is a linear objective, minimized when it has terms, plus three
kinds of constraints over bounded integer variables:

* equalities, each stored as a linear form that must equal 0,
* inequalities, each stored as a linear form that must be <= 0,
* products ``result = left * right`` where both operands are declared
  strictly before the result (acyclicity).

Integer variables may additionally own a one-hot bit group: a set of
binary indicator variables, one per value, tied to the variable by the
equality pair ``sum(bits) = 1`` and ``var = sum(value * bit)``.  Exactly
one group per variable exists, fixed when it is made: the pair restricts
the variable to the group's values, so a value the group lacks is 0.

Each row and product has a provenance tag in ``meta.*_sources``: the
``builtin#idx`` of its source constraint, or ``onehot:<var>`` for a
group's pair.  An auxiliary's ``origin`` is the tag of what made it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    EmptyDomain,
    OverflowLimit,
    SchemaError,
    checked_int,
)


@dataclass(frozen=True)
class Domain:
    """Nonempty closed integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise EmptyDomain(f"empty domain [{self.lo}, {self.hi}]")
        checked_int(self.lo)
        checked_int(self.hi)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def intersect(self, other: "Domain") -> "Domain":
        return Domain(max(self.lo, other.lo), min(self.hi, other.hi))


BINARY = Domain(0, 1)


@dataclass
class QipVar:
    """A problem variable; ``declared`` keeps the pre-restriction domain."""

    name: str
    domain: Domain
    origin: str | None = None  # provenance tag; None means a model variable
    declared: Domain = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.declared is None:
            self.declared = self.domain

    @property
    def is_model(self) -> bool:
        return self.origin is None


class LinExpr:
    """Integer-coefficient linear form ``sum(coef * var) + constant``.

    Zero coefficients are never stored; term order is canonicalized (by
    variable name) only at serialization time.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: dict[str, int] | None = None, constant: int = 0):
        self.terms: dict[str, int] = (
            {var: checked_int(coef) for var, coef in terms.items() if coef}
            if terms else {})
        self.constant = checked_int(constant)

    def add_term(self, var: str, coef: int) -> "LinExpr":
        if coef:
            new = checked_int(self.terms.get(var, 0) + coef)
            if new:
                self.terms[var] = new
            else:
                self.terms.pop(var, None)
        return self

    def add_const(self, value: int) -> "LinExpr":
        self.constant = checked_int(self.constant + value)
        return self

    def sorted_terms(self) -> list[tuple[str, int]]:
        return sorted(self.terms.items())

    def evaluate(self, assignment: dict[str, int]) -> int:
        return sum(c * assignment[v] for v, c in self.terms.items()) + self.constant

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinExpr)
            and self.terms == other.terms
            and self.constant == other.constant
        )

    def __repr__(self) -> str:
        parts = [f"{c:+d}*{v}" for v, c in self.sorted_terms()]
        parts.append(f"{self.constant:+d}")
        return " ".join(parts)


@dataclass
class ProductConstraint:
    """result = left * right."""

    result: str
    left: str
    right: str


@dataclass
class OneHotGroup:
    """Binding of an integer variable to its indicator bits."""

    int_var: str
    bits: list[tuple[str, int]] = field(default_factory=list)

    def bit_for(self, value: int) -> str:
        for name, v in self.bits:
            if v == value:
                return name
        raise KeyError(value)


class QipProblem:
    """A problem under construction or a finished, validated problem."""

    def __init__(self):
        self.vars: dict[str, QipVar] = {}
        self.objective_negated: bool = False
        self.objective: LinExpr = LinExpr()
        self.equalities: list[LinExpr] = []
        self.inequalities: list[LinExpr] = []
        self.products: list[ProductConstraint] = []
        self.onehot_groups: list[OneHotGroup] = []
        # provenance strings, aligned with the three constraint lists
        self.equality_sources: list[str] = []
        self.inequality_sources: list[str] = []
        self.product_sources: list[str] = []
        self._fresh_counters: dict[tuple[str, str], int] = {}
        self._onehot_index: dict[str, OneHotGroup] = {}  # int var -> group

    # ------------------------------------------------------------------
    # construction

    def add_var(self, var: QipVar) -> QipVar:
        if var.name in self.vars:
            raise ValueError(f"duplicate variable '{var.name}'")
        self.vars[var.name] = var
        return var

    def fresh_var(self, builtin: str, role: str, domain: Domain, origin: str) -> QipVar:
        """Create a deterministically named auxiliary made by ``origin``.

        The name is ``__<builtin>_<k>_<role>`` where k counts prior
        fresh variables with the same builtin and role.
        """
        key = (builtin, role)
        k = self._fresh_counters.get(key, 0) + 1
        self._fresh_counters[key] = k
        return self.add_var(QipVar(f"__{builtin}_{k}_{role}", domain, origin))

    def restrict_domain(self, name: str, new: Domain) -> None:
        var = self.vars[name]
        var.domain = var.domain.intersect(new)

    def add_equality(self, expr: LinExpr, source: str = "") -> None:
        self.equalities.append(expr)
        self.equality_sources.append(source)

    def add_inequality(self, expr: LinExpr, source: str = "") -> None:
        self.inequalities.append(expr)
        self.inequality_sources.append(source)

    def add_product(self, result: str, left: str, right: str, source: str = "") -> None:
        self.products.append(ProductConstraint(result, left, right))
        self.product_sources.append(source)

    # ------------------------------------------------------------------
    # one-hot registry

    def onehot_get_or_create(self, int_var: str, values: set[int]) -> OneHotGroup:
        """Return the variable's one-hot group.

        The first request makes the group over ``values``, in value order,
        and appends its two ``onehot:<var>`` equalities.  A later request
        gets the same group: those equalities already restrict the
        variable to its values, so a value the group lacks is never taken.
        """
        group = self._onehot_index.get(int_var)
        if group is None:
            group = self._onehot_index[int_var] = OneHotGroup(int_var)
            self.onehot_groups.append(group)
            tag = f"onehot:{int_var}"
            for v in sorted(values):
                bit = self.fresh_var("onehot", f"{int_var}_{_vtag(v)}", BINARY, tag)
                group.bits.append((bit.name, v))
            self.add_equality(LinExpr({b: 1 for b, _ in group.bits}, -1), tag)
            self.add_equality(LinExpr({int_var: -1} | {b: v for b, v in group.bits}),
                              tag)
        return group

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> list[str]:
        """Return descriptions of every broken invariant (empty if ok)."""
        violations: list[str] = []
        order = {name: i for i, name in enumerate(self.vars)}

        def check_expr(expr: LinExpr, where: str) -> None:
            for v, c in expr.terms.items():
                if v not in order:
                    violations.append(f"{where}: undeclared variable '{v}'")
                if c == 0:
                    violations.append(f"{where}: non-canonical expr (zero coefficient)")

        for i, e in enumerate(self.equalities):
            check_expr(e, f"equality[{i}]")
        for i, e in enumerate(self.inequalities):
            check_expr(e, f"inequality[{i}]")
        check_expr(self.objective, "objective")
        for i, p in enumerate(self.products):
            for v in (p.result, p.left, p.right):
                if v not in order:
                    violations.append(f"product[{i}]: undeclared variable '{v}'")
            if p.result in order and p.left in order and p.right in order:
                if order[p.left] >= order[p.result] or order[p.right] >= order[p.result]:
                    violations.append(
                        f"product[{i}]: product-order ({p.result} = {p.left}*{p.right})"
                    )
        owners = set()
        for g in self.onehot_groups:
            if g.int_var not in order:
                violations.append(f"one-hot: undeclared variable '{g.int_var}'")
            if g.int_var in owners:
                violations.append(f"one-hot: variable '{g.int_var}' owns two groups")
            owners.add(g.int_var)
            seen_values = set()
            for bit, v in g.bits:
                if bit not in order:
                    violations.append(f"one-hot({g.int_var}): undeclared bit '{bit}'")
                elif self.vars[bit].domain != BINARY:
                    violations.append(f"one-hot({g.int_var}): bit '{bit}' not binary")
                if v in seen_values:
                    violations.append(f"one-hot({g.int_var}): duplicate value {v}")
                seen_values.add(v)
                if g.int_var in order and v not in self.vars[g.int_var].declared:
                    violations.append(
                        f"one-hot({g.int_var}): value {v} outside declared domain"
                    )
        for name, rows, sources in (
            ("equality", self.equalities, self.equality_sources),
            ("inequality", self.inequalities, self.inequality_sources),
            ("product", self.products, self.product_sources),
        ):
            if len(sources) != len(rows):
                violations.append(
                    f"meta.{name}_sources: length {len(sources)}, expected {len(rows)}"
                )
        return violations

    # ------------------------------------------------------------------
    # serialization

    def serialize(self) -> str:
        """Return the problem as canonical JSON text ending in a newline.

        The text is exactly ``json.dumps(document, indent=1) + "\\n"``.  It
        is written by the record templates below, since any ``indent``
        sends json.dumps to its pure-Python encoder.
        """
        s = _str
        variables = [
            _VAR % (
                s(v.name), v.domain.lo, v.domain.hi, v.declared.lo, v.declared.hi,
                '"model"' if v.origin is None else s(v.origin),
            )
            for v in self.vars.values()
        ]
        return _DOC % (
            _list(variables, " "),
            "true" if self.objective_negated else "false",
            _list([_OBJ_TERM % (s(v), c) for v, c in self.objective.sorted_terms()],
                  "  "),
            self.objective.constant,
            _list([_expr(e) for e in self.equalities], " "),
            _list([_expr(e) for e in self.inequalities], " "),
            _list([_PRODUCT % (s(p.result), s(p.left), s(p.right))
                   for p in self.products], " "),
            _list([_GROUP % (s(g.int_var),
                             _list([_BIT % (s(b), v) for b, v in g.bits], "   "))
                   for g in self.onehot_groups], " "),
            _list([_SOURCE % s(x) for x in self.equality_sources], "  "),
            _list([_SOURCE % s(x) for x in self.inequality_sources], "  "),
            _list([_SOURCE % s(x) for x in self.product_sources], "  "),
        )


# Serialization templates: one per record, each indented as json.dumps
# with indent=1 places it.  Strings go through the encoder json.dumps
# uses by default (ensure_ascii=True); integers print as repr.
_str = json.encoder.encode_basestring_ascii
_DOC = """{
 "variables": %s,
 "objective": {
  "negated": %s,
  "terms": %s,
  "constant": %d
 },
 "equalities": %s,
 "inequalities": %s,
 "products": %s,
 "onehot_groups": %s,
 "meta": {
  "equality_sources": %s,
  "inequality_sources": %s,
  "product_sources": %s
 }
}
"""
_VAR = """  {
   "name": %s,
   "lo": %d,
   "hi": %d,
   "declared_lo": %d,
   "declared_hi": %d,
   "origin": %s
  }"""
_OBJ_TERM = """   {
    "var": %s,
    "coef": %d
   }"""
_TERM = """    {
     "var": %s,
     "coef": %d
    }"""
_EXPR = """  {
   "terms": %s,
   "constant": %d
  }"""
_PRODUCT = """  {
   "result": %s,
   "left": %s,
   "right": %s
  }"""
_GROUP = """  {
   "int_var": %s,
   "bits": %s
  }"""
_BIT = """    {
     "var": %s,
     "value": %d
    }"""
_SOURCE = "   %s"


def _list(items: list[str], indent: str) -> str:
    """A JSON array of pre-rendered items; ``indent`` precedes its ']'."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _expr(e: LinExpr) -> str:
    return _EXPR % (
        _list([_TERM % (_str(v), c) for v, c in e.sorted_terms()], "   "),
        e.constant,
    )


def deserialize(text: str) -> QipProblem:
    """Parse and validate serialized problem text.

    Only what ``serialize`` writes is read: each key it writes, each
    value of the JSON type it writes, no other key and no key twice.
    Raises SchemaError on bad input, naming the field of a malformed
    value or the key that is unknown or repeated, or the first violation
    when the document parses but breaks an invariant of
    ``QipProblem.validate``.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    for key in _TOP_KEYS:
        if key not in obj:
            raise SchemaError(f"missing top-level key '{key}'")
    for key in obj:
        if key not in _TOP_KEYS:
            raise SchemaError(f"unknown top-level key '{key}'")

    prob = QipProblem()

    def read_expr(e, where: str, name: str, keys=("terms", "constant")) -> LinExpr:
        try:
            expr = LinExpr(constant=_field(e, "constant", int))
            for t in _field(e, "terms", list):
                var = _field(t, "var", str)
                if var in expr.terms:
                    raise SchemaError(f"{name}: variable '{var}' listed twice")
                # kept as written, so that validate sees a zero coefficient
                expr.terms[var] = checked_int(_field(t, "coef", int))
                _only(t, ("var", "coef"))
            _only(e, keys)
            return expr
        except (KeyError, TypeError, OverflowLimit) as exc:
            raise SchemaError(f"malformed {where}: {exc}") from exc

    try:
        for v in _field(obj, "variables", list):
            origin = _field(v, "origin", str)
            var = QipVar(_field(v, "name", str),
                         Domain(_field(v, "lo", int), _field(v, "hi", int)),
                         None if origin == "model" else origin)
            var.declared = Domain(_field(v, "declared_lo", int),
                                  _field(v, "declared_hi", int))
            _only(v, ("name", "lo", "hi", "declared_lo", "declared_hi", "origin"))
            prob.add_var(var)
        objective = obj["objective"]
        prob.objective_negated = _field(objective, "negated", bool)
        prob.objective = read_expr(objective, "objective", "objective",
                                   ("negated", "terms", "constant"))
        for i, e in enumerate(_field(obj, "equalities", list)):
            prob.equalities.append(read_expr(e, "equality", f"equality[{i}]"))
        for i, e in enumerate(_field(obj, "inequalities", list)):
            prob.inequalities.append(read_expr(e, "inequality", f"inequality[{i}]"))
        for p in _field(obj, "products", list):
            prob.products.append(ProductConstraint(
                _field(p, "result", str), _field(p, "left", str), _field(p, "right", str)))
            _only(p, ("result", "left", "right"))
        for g in _field(obj, "onehot_groups", list):
            group = OneHotGroup(_field(g, "int_var", str))
            for b in _field(g, "bits", list):
                group.bits.append((_field(b, "var", str), _field(b, "value", int)))
                _only(b, ("var", "value"))
            _only(g, ("int_var", "bits"))
            prob.onehot_groups.append(group)
        meta = obj["meta"]
        prob.equality_sources = _strings(meta, "equality_sources")
        prob.inequality_sources = _strings(meta, "inequality_sources")
        prob.product_sources = _strings(meta, "product_sources")
        _only(meta, ("equality_sources", "inequality_sources", "product_sources"))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, EmptyDomain, OverflowLimit) as exc:
        raise SchemaError(f"malformed document: {exc}") from exc
    violations = prob.validate()
    if violations:
        raise SchemaError(f"invalid problem: {violations[0]}")
    return prob


_TOP_KEYS = ("variables", "objective", "equalities", "inequalities", "products",
             "onehot_groups", "meta")
_KINDS = {int: "an integer", bool: "a boolean", str: "a string", list: "an array"}


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key written twice, of which json.loads
    would keep the last, is a ``SchemaError``."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key '{key}'")
            seen.add(key)
    return record


def _only(record: dict, keys: tuple[str, ...]) -> None:
    """Raise if ``record``, whose fields have been read, has a key
    ``serialize`` does not write there."""
    for key in record:
        if key not in keys:
            raise TypeError(f"unknown key '{key}'")


def _field(record: dict, key: str, kind: type):
    """``record[key]``, which must be a JSON value of type ``kind``; the
    type test is exact, so ``true`` is not an integer nor ``3.0`` one."""
    value = record[key]
    if type(value) is not kind:
        raise TypeError(f"'{key}' is not {_KINDS[kind]}")
    return value


def _strings(record: dict, key: str) -> list[str]:
    """``record[key]``, which must be a JSON array of strings."""
    values = _field(record, key, list)
    if any(type(x) is not str for x in values):
        raise TypeError(f"'{key}' holds a value that is not a string")
    return values


def _vtag(value: int) -> str:
    # negative values in names use an 'm' prefix ('-' would be unreadable)
    return str(value) if value >= 0 else f"m{-value}"
