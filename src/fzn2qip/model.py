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
The text has no group record: the bits of ``var`` are the terms of its
first ``onehot:<var>`` row (and the auxiliaries of that origin), and a
bit's value is its coefficient in the second (absent: 0).

The text's format is one schema, ``_SCHEMA``.  The writer's record
templates are made from it, and ``deserialize`` checks its input against
it; a mismatch is a SchemaError that names its path from the root
(``equality[0].terms[0]: missing key 'coef'``).
"""

from __future__ import annotations

import json

from .errors import (
    INT_LIMIT,
    EmptyDomain,
    SchemaError,
    checked_int,
)


class Record:
    """Base of the package's records: value equality and a repr over
    ``_fields``, the attributes that make a record's value.

    Each record writes its own ``__init__``, a plain assignment of its
    fields, and a record compared on a hot path its own ``__eq__``.  A
    record with equality is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({shown})"


class Domain(Record):
    """Nonempty closed integer interval [lo, hi].

    A slotted record, mutable as the others are: building one is a range
    check and two stores.  No code assigns to a domain's fields; a
    restriction replaces the domain.
    """

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise EmptyDomain(f"empty domain [{lo}, {hi}]")
        if lo < -INT_LIMIT or hi > INT_LIMIT:  # lo is named first, as lo <= hi
            checked_int(lo)
            checked_int(hi)
        self.lo = lo
        self.hi = hi

    def __eq__(self, other) -> bool:  # hot: typecheck compares each bool's domain
        if other.__class__ is Domain:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def intersect(self, other: "Domain") -> "Domain":
        return Domain(max(self.lo, other.lo), min(self.hi, other.hi))


BINARY = Domain(0, 1)


class QipVar(Record):
    """A problem variable; ``declared`` keeps the pre-restriction domain.
    ``origin`` is its provenance tag; None means a model variable."""

    __slots__ = _fields = ("name", "domain", "origin", "declared")

    def __init__(self, name: str, domain: Domain, origin: str | None = None,
                 declared: Domain | None = None):
        self.name = name
        self.domain = domain
        self.origin = origin
        self.declared = domain if declared is None else declared

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


class ProductConstraint(Record):
    """result = left * right."""

    __slots__ = _fields = ("result", "left", "right")

    def __init__(self, result: str, left: str, right: str):
        self.result = result
        self.left = left
        self.right = right


class OneHotGroup(Record):
    """Binding of an integer variable to its indicator bits (in memory):
    ``bits`` holds (bit name, value) pairs."""

    _fields = ("int_var", "bits")

    def __init__(self, int_var: str, bits: list[tuple[str, int]] | None = None):
        self.int_var = int_var
        self.bits = [] if bits is None else bits


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
            result, left, right = order.get(p.result), order.get(p.left), order.get(p.right)
            if result is None or left is None or right is None:
                for v in (p.result, p.left, p.right):
                    if v not in order:
                        violations.append(f"product[{i}]: undeclared variable '{v}'")
            elif left >= result or right >= result:
                violations.append(
                    f"product[{i}]: product-order ({p.result} = {p.left}*{p.right})"
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
            _list([_SOURCE % s(x) for x in self.equality_sources], "  "),
            _list([_SOURCE % s(x) for x in self.inequality_sources], "  "),
            _list([_SOURCE % s(x) for x in self.product_sources], "  "),
        )


# The text's format: an object maps its keys to the schemas of their
# values, an array is (item name, item schema), and a leaf is int, bool or
# str.  A message names an item by its name and index: ``variable[1]``.
_TERMS = ("terms", {"var": str, "coef": int})
_ROW = {"terms": _TERMS, "constant": int}
_SCHEMA = {
    "variables": ("variable", {"name": str, "lo": int, "hi": int, "declared_lo": int,
                               "declared_hi": int, "origin": str}),
    "objective": {"negated": bool, "terms": _TERMS, "constant": int},
    "equalities": ("equality", _ROW),
    "inequalities": ("inequality", _ROW),
    "products": ("product", {"result": str, "left": str, "right": str}),
    "meta": {"equality_sources": ("equality_sources", str),
             "inequality_sources": ("inequality_sources", str),
             "product_sources": ("product_sources", str)},
}
_KINDS = {int: "an integer", bool: "a boolean", str: "a string"}
_INT_MIN = -INT_LIMIT


def _template(schema, depth: int) -> str:
    """The %-template of a value of ``schema`` at nesting ``depth``, laid
    out as json.dumps with indent=1 lays it out: ``%d`` for an integer,
    ``%s`` for any other leaf and for an array, a nested object inline."""
    if type(schema) is not dict:
        return "%d" if schema is int else "%s"
    fields = [f'{" " * (depth + 1)}"{key}": {_template(sub, depth + 1)}'
              for key, sub in schema.items()]
    return "{\n" + ",\n".join(fields) + "\n" + " " * depth + "}"


def _item(array, depth: int) -> str:
    return " " * depth + _template(array[1], depth)


# One template per record, made once.  Strings go through the encoder
# json.dumps uses by default (ensure_ascii=True); integers print as repr.
_str = json.encoder.encode_basestring_ascii
_DOC = _template(_SCHEMA, 0) + "\n"
_VAR = _item(_SCHEMA["variables"], 2)
_OBJ_TERM = _item(_TERMS, 3)
_TERM = _item(_TERMS, 4)
_EXPR = _item(_SCHEMA["equalities"], 2)
_PRODUCT = _item(_SCHEMA["products"], 2)
_SOURCE = _item(_SCHEMA["meta"]["equality_sources"], 3)


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

    Only what ``serialize`` writes is read: ``_SCHEMA``'s keys, no key
    twice, values of their exact JSON type and integers within +-2^62; no
    empty bounds, no variable or term listed twice, and a problem that
    ``QipProblem.validate`` passes.  Else raises SchemaError, naming the
    path of the first mismatch or the first violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    try:
        keys = _check(doc, _SCHEMA)
    except SchemaError:
        keys = -1  # the mismatch may be a key written twice
    # Each key written is followed by a colon, so the text has at least as
    # many colons as keys; one more than the objects hold is a key written
    # twice, or a colon in a string.  Only then are the pairs looked at.
    if keys < text.count(":"):
        doc = json.loads(text, object_pairs_hook=_object)
        _check(doc, _SCHEMA)
    prob = QipProblem()
    for i, v in enumerate(doc["variables"]):
        try:
            prob.add_var(QipVar(v["name"], Domain(v["lo"], v["hi"]),
                                None if v["origin"] == "model" else v["origin"],
                                Domain(v["declared_lo"], v["declared_hi"])))
        except (EmptyDomain, ValueError) as exc:  # ValueError: a duplicate name
            raise SchemaError(f"variable[{i}]: {exc}") from None
    prob.objective_negated = doc["objective"]["negated"]
    prob.objective = _read_row(doc["objective"], ("objective",))
    prob.equalities = [_read_row(e, (("equality", i),))
                       for i, e in enumerate(doc["equalities"])]
    prob.inequalities = [_read_row(e, (("inequality", i),))
                         for i, e in enumerate(doc["inequalities"])]
    prob.products = [ProductConstraint(p["result"], p["left"], p["right"])
                     for p in doc["products"]]
    prob.equality_sources = doc["meta"]["equality_sources"]
    prob.inequality_sources = doc["meta"]["inequality_sources"]
    prob.product_sources = doc["meta"]["product_sources"]
    violations = prob.validate()
    if violations:
        raise SchemaError(f"invalid problem: {violations[0]}")
    return prob


class _Repeated:
    """A JSON object that writes ``key`` twice (json.loads keeps the last)."""

    def __init__(self, key: str):
        self.key = key


def _object(pairs: list[tuple[str, object]]) -> dict | _Repeated:
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _Repeated(key)
            seen.add(key)
    return record


def _check(value, schema: dict, path: tuple = ()) -> int:
    """Raise SchemaError unless ``value`` is an object of ``schema``; else
    return the number of keys of the objects in ``value``, its own too.

    ``path`` holds the keys and (item name, index) pairs from the root to
    ``value``; it is spelled out only in a message.  A leaf's type test is
    exact, so ``true`` is not an integer nor ``3.0`` one.
    """
    if type(value) is not dict:
        if type(value) is _Repeated:
            raise SchemaError(f"{_where(path)}: duplicate key '{value.key}'")
        raise SchemaError(f"{_where(path)} is not an object")
    keys = len(schema)
    try:
        if len(value) != keys:  # a key unknown; a missing one is a KeyError
            raise KeyError
        for key, sub in schema.items():
            v = value[key]
            if type(v) is sub:  # a leaf of its type, tested first as most are
                if sub is int and not _INT_MIN <= v <= INT_LIMIT:
                    raise SchemaError(_where((*path, key)) + _misfit(v, sub))
            elif type(sub) is dict:
                keys += _check(v, sub, (*path, key))
            elif type(sub) is not tuple or type(v) is not list:
                raise SchemaError(_where((*path, key)) + _misfit(v, sub))
            else:
                name, sub = sub
                for k, item in enumerate(v):
                    if type(sub) is dict:
                        keys += _check(item, sub, (*path, (name, k)))
                    elif type(item) is not sub or sub is int and not (
                            _INT_MIN <= item <= INT_LIMIT):
                        raise SchemaError(_where((*path, (name, k))) + _misfit(item, sub))
    except KeyError:
        missing = [key for key in schema if key not in value]
        key = missing[0] if missing else next(k for k in value if k not in schema)
        raise SchemaError(f"{_where(path)}: {'missing' if missing else 'unknown'} "
                          f"key '{key}'") from None
    return keys


def _where(path: tuple) -> str:
    return ".".join(step if type(step) is str else f"{step[0]}[{step[1]}]"
                    for step in path) or "top level"


def _misfit(value, schema) -> str:
    """How ``value`` fails to be a leaf or an array of ``schema``."""
    if type(schema) is tuple:
        return " is not an array"
    if type(value) is not schema:
        return f" is not {_KINDS[schema]}"
    return f": integer {value} exceeds the supported range"


def _read_row(record: dict, path: tuple) -> LinExpr:
    """The linear form of a checked row record; a zero coefficient stays,
    for validate to see."""
    expr = LinExpr(constant=record["constant"])
    for k, t in enumerate(record["terms"]):
        if t["var"] in expr.terms:
            raise SchemaError(f"{_where((*path, ('terms', k)))}: "
                              f"variable '{t['var']}' listed twice")
        expr.terms[t["var"]] = t["coef"]
    return expr


def _vtag(value: int) -> str:
    # negative values in names use an 'm' prefix ('-' would be unreadable)
    return str(value) if value >= 0 else f"m{-value}"
