"""Parser and type checker for the supported FlatZinc subset.

Supported items: int/bool parameters and parameter arrays, var
declarations with range domains, alias arrays of vars, constraint items
over the supported builtin predicates, and one solve item.  Annotations
(``:: ...``) are parsed and discarded, except ``var_is_introduced``
which is recorded on the declaration.  Anything else (floats, set
variables, unknown predicates) is rejected with a named diagnostic.
"""

from __future__ import annotations

import re

from .errors import (
    ArityMismatch,
    EmptyDeclaredDomain,
    FznSyntaxError,
    KindMismatch,
    UndeclaredIdentifier,
    UnsupportedItem,
)
from .model import BINARY, Domain, Record

# ----------------------------------------------------------------------
# argument AST (post-parse; typecheck normalizes further)


class Lit(Record):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other) -> bool:  # hot: the element rewrite compares entries
        if other.__class__ is Lit:
            return self.value == other.value
        return NotImplemented


class BoolLit(Record):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool):
        self.value = value


class Ref(Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other) -> bool:  # hot: the element rewrite compares entries
        if other.__class__ is Ref:
            return self.name == other.name
        return NotImplemented


class Arr(Record):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class SetVal(Record):
    """A set of integers as sorted, disjoint, non-adjacent runs ``(lo, hi)``."""

    __slots__ = _fields = ("runs",)

    def __init__(self, runs: tuple[tuple[int, int], ...]):
        self.runs = runs

    @classmethod
    def of(cls, values) -> "SetVal":
        """The set of ``values``, adjacent ones merged into one run."""
        runs = []
        for v in sorted(set(values)):
            if runs and runs[-1][1] == v - 1:
                runs[-1] = (runs[-1][0], v)
            else:
                runs.append((v, v))
        return cls(tuple(runs))


class VarDecl(Record):
    __slots__ = _fields = ("name", "kind", "domain", "is_introduced")

    def __init__(self, name: str, kind: str, domain: Domain, is_introduced: bool = False):
        self.name = name
        self.kind = kind  # "int" | "bool"
        self.domain = domain
        self.is_introduced = is_introduced


class ConstraintItem(Record):
    """A constraint; ``tok``, the index of its name token, is not compared."""

    __slots__ = ("name", "args", "tok")
    _fields = ("name", "args")

    def __init__(self, name: str, args: tuple, tok: int = 0):
        self.name = name
        self.args = args
        self.tok = tok


class SolveItem(Record):
    """The solve item; ``tok``, the index of its objective token, is not
    compared."""

    __slots__ = ("kind", "var", "tok")
    _fields = ("kind", "var")

    def __init__(self, kind: str, var: str | None = None, tok: int = 0):
        self.kind = kind  # "satisfy" | "minimize" | "maximize"
        self.var = var
        self.tok = tok


class FzModel(Record):
    """A model; ``source``, its text (for positions), is not compared."""

    _fields = ("params", "arrays", "vars", "constraints", "solve")

    def __init__(self, params: dict | None = None, arrays: dict | None = None,
                 vars: dict | None = None, constraints: list | None = None,
                 solve: SolveItem | None = None, source: str = ""):
        self.params = {} if params is None else params
        self.arrays = {} if arrays is None else arrays  # var alias arrays, name -> Arr
        self.vars = {} if vars is None else vars  # name -> VarDecl, ordered
        self.constraints = [] if constraints is None else constraints
        self.solve = SolveItem("satisfy") if solve is None else solve
        self.source = source


# ----------------------------------------------------------------------
# builtin signatures
#
# arg kind codes:
#   iv  int var or int literal          ia  array of int constants
#   bv  bool var or bool/0-1 literal    ba  array of bool constants
#   iva array of int vars/literals      bva array of bool vars/literals
#   ic  int constant                    set set of int values

SIGNATURES: dict[str, list[list[str]]] = {
    "array_bool_and": [["bva", "bv"]],
    "array_bool_element": [["iv", "ba", "bv"]],
    "array_bool_xor": [["bva"]],
    "array_int_element": [["iv", "ia", "iv"]],
    "array_int_maximum": [["iv", "iva"]],
    "array_int_minimum": [["iv", "iva"]],
    "array_var_bool_element": [["iv", "bva", "bv"]],
    "array_var_int_element": [["iv", "iva", "iv"]],
    "bool2int": [["bv", "iv"]],
    "bool_and": [["bv", "bv", "bv"]],
    "bool_clause": [["bva", "bva"]],
    "bool_eq": [["bv", "bv"]],
    "bool_eq_reif": [["bv", "bv", "bv"]],
    "bool_le": [["bv", "bv"]],
    "bool_le_reif": [["bv", "bv", "bv"]],
    "bool_lin_eq": [["ia", "bva", "iv"]],
    "bool_lin_le": [["ia", "bva", "ic"]],
    "bool_lt": [["bv", "bv"]],
    "bool_lt_reif": [["bv", "bv", "bv"]],
    "bool_not": [["bv", "bv"]],
    "bool_or": [["bv", "bv", "bv"]],
    "bool_xor": [["bv", "bv"], ["bv", "bv", "bv"]],
    "int_abs": [["iv", "iv"]],
    "int_div": [["iv", "iv", "iv"]],
    "int_eq": [["iv", "iv"]],
    "int_eq_reif": [["iv", "iv", "bv"]],
    "int_le": [["iv", "iv"]],
    "int_le_reif": [["iv", "iv", "bv"]],
    "int_lin_eq": [["ia", "iva", "ic"]],
    "int_lin_eq_reif": [["ia", "iva", "ic", "bv"]],
    "int_lin_le": [["ia", "iva", "ic"]],
    "int_lin_le_reif": [["ia", "iva", "ic", "bv"]],
    "int_lin_ne": [["ia", "iva", "ic"]],
    "int_lin_ne_reif": [["ia", "iva", "ic", "bv"]],
    "int_lt": [["iv", "iv"]],
    "int_lt_reif": [["iv", "iv", "bv"]],
    "int_max": [["iv", "iv", "iv"]],
    "int_min": [["iv", "iv", "iv"]],
    "int_mod": [["iv", "iv", "iv"]],
    "int_ne": [["iv", "iv"]],
    "int_ne_reif": [["iv", "iv", "bv"]],
    "int_plus": [["iv", "iv", "iv"]],
    "int_pow": [["iv", "iv", "iv"]],
    "int_times": [["iv", "iv", "iv"]],
    "set_in": [["iv", "set"]],
    "set_in_reif": [["iv", "set", "bv"]],
}


# ----------------------------------------------------------------------
# scanner
#
# One group-free pattern, so ``findall`` returns the token strings.  ASCII
# whitespace matches no alternative and is skipped; the last alternative
# takes any other character no rule accepts, as a token of length 1.
# ASCII: \d and \s take no other script's digits or spaces.

_TOKEN_RE = re.compile(
    r"""
    [A-Za-z_]\w*
  | [()\[\]{},;=\-+]
  | \d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)?
  | \.\. | ::?
  | %[^\n]*
  | "[^"\n]*"
  | \S
    """,
    re.VERBOSE | re.ASCII,
)

_DIGITS = frozenset("0123456789")
# the tokens of length 1 that a rule other than the last accepts
_ONE_CHAR_TOKENS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                             "0123456789_()[]{},;:=-+%")


class Token(Record):
    """A token's text and its 1-based line and column; unpacks as the
    triple ``text, line, col``."""

    __slots__ = _fields = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col

    def __iter__(self):
        return iter((self.text, self.line, self.col))


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, each with its 1-based line and column.

    The scan of ``parse_model``, with positions.  Only the skipped
    whitespace holds a newline: comments and strings stop before one.
    """
    tokens = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN_RE.finditer(source):
        start, text = m.start(), m.group()
        newlines = source.count("\n", end, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", end, start) + 1
        end = m.end()
        if len(text) == 1 and text not in _ONE_CHAR_TOKENS:
            raise FznSyntaxError(f"unexpected character {text!r}",
                                 line, start - line_start + 1)
        if text[0] != "%":
            tokens.append(Token(text, line, start - line_start + 1))
    line += source.count("\n", end)
    line_start = source.rfind("\n") + 1
    tokens.append(Token("", line, len(source) - line_start + 1))
    return tokens


def _position(source: str, k: int) -> tuple[int, int]:
    """Line and column of token ``k`` of ``source``, for a diagnostic."""
    tok = tokenize(source)[k]
    return tok.line, tok.col


# ----------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over the token strings; ``toks[-1]`` is "" (eof).

    A method takes the index of its first token and returns the index
    after what it parsed.  An index moves on only over a token checked
    not to be eof.  Every token but a string is ASCII once the scan is
    checked, so ``str.isdigit`` and ``str.isidentifier`` classify them.
    """

    def __init__(self, source: str, toks: list[str]):
        self.source = source
        self.toks = toks

    def error(self, cls, k: int, *args):
        return cls(*args, *_position(self.source, k))

    def expected(self, k: int, what: str):
        return self.error(FznSyntaxError, k, f"expected {what}, found {self.toks[k]!r}")

    def want(self, i: int, text: str) -> int:
        """The index after token ``i``, which must be ``text``."""
        if self.toks[i] != text:
            raise self.expected(i, f"'{text}'")
        return i + 1

    def name(self, k: int, what: str) -> str:
        if not self.toks[k].isidentifier():
            raise self.expected(k, what)
        return self.toks[k]

    # -- leaves ---------------------------------------------------------

    def integer(self, i: int) -> tuple[int, int]:
        neg = self.toks[i] == "-"
        i += neg
        t = self.toks[i]
        if not t.isdigit():
            if t[:1] in _DIGITS:
                raise self.error(UnsupportedItem, i, "float")
            raise self.expected(i, "integer")
        try:
            value = int(t)
        except ValueError:  # more digits than int() converts
            raise self.error(UnsupportedItem, i,
                             f"integer literal of {len(t)} digits") from None
        return (-value if neg else value), i + 1

    def bounds(self, i: int) -> tuple[int, int, int]:
        """``lo..hi`` at ``i``: lo, hi and the index after."""
        lo, i = self.integer(i)
        if self.toks[i] != "..":
            raise self.expected(i, "'..'")
        hi, i = self.integer(i + 1)
        return lo, hi, i

    def seq(self, i: int, item, close: str) -> tuple[list, int]:
        """Comma-separated ``item``s from ``i`` up to and past ``close``."""
        toks = self.toks
        items = []
        if toks[i] == close:
            return items, i + 1
        while True:
            value, i = item(i)
            items.append(value)
            t = toks[i]
            if t == ",":
                i += 1
            elif t == close:
                return items, i + 1
            else:
                raise self.expected(i, f"',' or '{close}'")

    def annotations(self, i: int) -> tuple[list[str], int]:
        toks = self.toks
        names = []
        while toks[i] == "::":
            names.append(self.name(i + 1, "annotation name"))
            i += 2
            if toks[i] == "(":
                depth = 1
                while depth:
                    i += 1
                    if not toks[i]:
                        raise self.error(FznSyntaxError, i, "unterminated annotation")
                    depth += (toks[i] == "(") - (toks[i] == ")")
                i += 1
        return names, i

    def expr(self, i: int):
        t = self.toks[i]
        if t.isidentifier():
            if t == "true" or t == "false":
                return BoolLit(t == "true"), i + 1
            return Ref(t), i + 1
        if t == "-" or t[:1] in _DIGITS:
            lo, i = self.integer(i)
            if self.toks[i] != "..":
                return Lit(lo), i
            hi, i = self.integer(i + 1)
            return SetVal(((lo, hi),) if lo <= hi else ()), i
        if t == "[":
            items, i = self.seq(i + 1, self.element, "]")
            return Arr(tuple(items)), i
        if t == "{":
            values, i = self.seq(i + 1, self.integer, "}")
            return SetVal.of(values), i
        raise self.error(FznSyntaxError, i, f"unexpected token {t!r}")

    def element(self, i: int):
        if self.toks[i] == "[":  # FlatZinc arrays are flat
            raise self.error(FznSyntaxError, i, "nested array")
        return self.expr(i)

    # -- items ----------------------------------------------------------

    def model(self) -> FzModel:
        toks = self.toks
        model = FzModel(source=self.source)
        have_solve = False
        i = 0
        while toks[i]:
            t = toks[i]
            if t == "constraint":
                i = self.constraint(model, i + 1)
            elif t == "var":
                i = self.var_decl(model, i + 1)
            elif t == "array":
                i = self.array_decl(model, i + 1)
            elif t == "int" or t == "bool":
                i = self.param_decl(model, t, i + 1)
            elif t == "solve":
                if have_solve:
                    raise self.error(FznSyntaxError, i, "duplicate solve item")
                i = self.solve(model, i + 1)
                have_solve = True
            elif t == "predicate":
                raise self.error(UnsupportedItem, i, "predicate declaration")
            elif t == "float" or t == "set":
                raise self.error(UnsupportedItem, i, t)
            else:
                raise self.error(FznSyntaxError, i, f"unexpected token {t!r}")
        if not have_solve:
            raise self.error(FznSyntaxError, i, "missing solve item")
        return model

    def declared(self, model: FzModel, k: int) -> str:
        """Name token ``k``, which no earlier item declares."""
        name = self.toks[k]
        if name in model.vars or name in model.params or name in model.arrays:
            raise self.error(FznSyntaxError, k, f"duplicate declaration of '{name}'")
        return name

    def head(self, i: int, what: str) -> tuple[list[str], int]:
        """``: name :: anns`` of a declaration: its annotations, index after."""
        toks = self.toks
        if toks[i] != ":":
            raise self.expected(i, "':'")
        if not toks[i + 1].isidentifier():
            raise self.expected(i + 1, what)
        if toks[i + 2] != "::":
            return [], i + 2
        return self.annotations(i + 2)

    def param_decl(self, model: FzModel, kind: str, i: int) -> int:
        at = i + 1
        _, i = self.head(i, "parameter name")
        value, i = self.expr(self.want(i, "="))
        i = self.want(i, ";")
        name = self.declared(model, at)
        if kind == "int":
            if type(value) is not Lit:
                raise self.error(FznSyntaxError, at, "int parameter needs an integer value")
            model.params[name] = value.value
        else:
            if type(value) is not BoolLit:
                raise self.error(FznSyntaxError, at, "bool parameter needs true/false")
            model.params[name] = int(value.value)
        return i

    def var_decl(self, model: FzModel, i: int) -> int:
        t = self.toks[i]
        if t == "bool":
            kind, lo, hi, i = "bool", 0, 1, i + 1
        elif t == "int":
            raise self.error(UnsupportedItem, i, "unbounded var int")
        elif t == "float" or t == "set":
            raise self.error(UnsupportedItem, i, t)
        elif t == "{":
            raise self.error(UnsupportedItem, i, "set-literal domain")
        else:
            kind = "int"
            lo, hi, i = self.bounds(i)
        at = i + 1
        anns, i = self.head(i, "variable name")
        assigned = None
        if self.toks[i] == "=":
            assigned, i = self.expr(i + 1)
        if self.toks[i] != ";":
            raise self.expected(i, "';'")
        i += 1
        name = self.declared(model, at)
        if lo > hi:
            raise self.error(EmptyDeclaredDomain, at,
                             f"variable '{name}' has the empty domain {lo}..{hi}")
        model.vars[name] = VarDecl(name, kind, Domain(lo, hi), "var_is_introduced" in anns)
        if assigned is not None:
            builtin = "bool_eq" if kind == "bool" else "int_eq"
            model.constraints.append(ConstraintItem(builtin, (Ref(name), assigned), at))
        return i

    def array_decl(self, model: FzModel, i: int) -> int:
        toks = self.toks
        open_at = i
        lo, length, i = self.bounds(self.want(i, "["))
        i = self.want(i, "]")
        if lo != 1:
            raise self.error(FznSyntaxError, open_at, "array index set must start at 1")
        i = self.want(i, "of")
        is_var = toks[i] == "var"
        i += is_var
        t = toks[i]
        if t == "int" or t == "bool":
            i += 1
        elif t == "float" or t == "set":
            raise self.error(UnsupportedItem, i, t)
        elif is_var and (t == "-" or t.isdigit()):
            _, _, i = self.bounds(i)  # array [1..n] of var lo..hi: an alias only
        else:
            raise self.error(FznSyntaxError, i, f"unexpected array element type {t!r}")
        at = i + 1
        _, i = self.head(i, "array name")
        name = toks[at]
        if toks[i] != "=":
            if is_var:
                raise self.error(UnsupportedItem, at, "var array without defining value")
            raise self.error(FznSyntaxError, at, "parameter array needs a value")
        value, i = self.expr(i + 1)
        i = self.want(i, ";")
        if type(value) is not Arr:
            raise self.error(FznSyntaxError, at, "array value must be a literal array")
        if len(value.items) != length:
            raise self.error(FznSyntaxError, at, f"array '{name}' declares length "
                             f"{length} but has {len(value.items)} elements")
        self.declared(model, at)
        if is_var:
            model.arrays[name] = value
            return i
        if any(type(x) is not Lit and type(x) is not BoolLit for x in value.items):
            raise self.error(FznSyntaxError, at, "parameter array elements must be literals")
        model.params[name] = Arr(tuple(Lit(int(x.value)) for x in value.items))
        return i

    def constraint(self, model: FzModel, i: int) -> int:
        toks = self.toks
        name = toks[i]
        if name not in SIGNATURES:  # every builtin's name is an identifier
            self.name(i, "predicate name")
            raise self.error(UnsupportedItem, i, f"predicate '{name}'")
        if toks[i + 1] != "(":
            raise self.expected(i + 1, "'('")
        args, j = self.seq(i + 2, self.expr, ")")
        if toks[j] == "::":
            _, j = self.annotations(j)
        model.constraints.append(ConstraintItem(name, tuple(args), i))
        if toks[j] != ";":
            raise self.expected(j, "';'")
        return j + 1

    def solve(self, model: FzModel, i: int) -> int:
        _, i = self.annotations(i)
        kind = self.name(i, "'satisfy', 'minimize' or 'maximize'")
        if kind == "satisfy":
            model.solve = SolveItem("satisfy")
            return self.want(i + 1, ";")
        if kind == "minimize" or kind == "maximize":
            model.solve = SolveItem(kind, self.name(i + 1, "objective variable"), i + 1)
            return self.want(i + 2, ";")
        raise self.error(FznSyntaxError, i, f"expected solve kind, found {kind!r}")


def parse_model(source: str) -> FzModel:
    """Parse FlatZinc source text into an (unchecked) model."""
    toks = _TOKEN_RE.findall(source)
    if "%" in source:
        toks = [t for t in toks if t[0] != "%"]
    if 1 in map(len, set(toks) - _ONE_CHAR_TOKENS):
        tokenize(source)  # raises at the first token no rule accepts
    toks.append("")
    return _Parser(source, toks).model()


# ----------------------------------------------------------------------
# type checking


def _located(cls, model: FzModel, item: ConstraintItem | SolveItem, *args):
    """``cls(*args)`` at token ``item.tok``: a predicate or objective name."""
    return cls(*args, *_position(model.source, item.tok))


# the kind codes of each builtin form, by (name, number of arguments)
_ARG_KINDS = {(name, len(sig)): sig for name, sigs in SIGNATURES.items() for sig in sigs}
_LINEAR = frozenset(name for name in SIGNATURES if name.startswith(("int_lin_", "bool_lin_")))


def _fold(arg, model: FzModel, item: ConstraintItem):
    """Resolve parameter references and bool literals inside an argument."""
    kind = type(arg)
    if kind is Ref:
        name = arg.name
        if name in model.vars:
            return arg
        if name in model.params:
            value = model.params[name]
            return value if type(value) is Arr else Lit(value)
        if name in model.arrays:
            return Arr(tuple(_fold(x, model, item) for x in model.arrays[name].items))
        raise _located(UndeclaredIdentifier, model, item, name)
    if kind is BoolLit:
        return Lit(1 if arg.value else 0)
    if kind is Arr:
        return Arr(tuple(_fold(x, model, item) for x in arg.items))
    return arg


def _check_arg(arg, kind: str, model: FzModel, item: ConstraintItem):
    """``arg`` if it fits the kind code ``kind``; else a KindMismatch."""
    arg_type = type(arg)
    if kind == "iv":
        if arg_type is Ref or arg_type is Lit:  # bool vars double as binary ints
            return arg
        msg = "expected an int variable or literal"
    elif kind == "bv":
        if arg_type is Lit:
            if arg.value in (0, 1):
                return arg
            msg = f"literal {arg.value} is not a bool"
        elif arg_type is Ref:
            if model.vars[arg.name].kind == "bool":
                return arg
            msg = f"'{arg.name}' is not a bool variable"
        else:
            msg = "expected a bool variable or literal"
    elif kind == "ic":
        if arg_type is Lit:
            return arg
        msg = "expected an integer constant"
    elif kind == "ia" or kind == "ba":
        if arg_type is not Arr:
            msg = "expected a constant array"
        else:
            for x in arg.items:
                if type(x) is not Lit:
                    msg = "expected an array of constants"
                    break
                if kind == "ba" and x.value not in (0, 1):
                    msg = f"array value {x.value} is not a bool"
                    break
            else:
                return arg
    elif kind == "iva" or kind == "bva":
        if arg_type is Arr:
            return Arr(tuple([_check_arg(x, kind[:2], model, item) for x in arg.items]))
        msg = "expected an array of variables"
    elif kind == "set":
        if arg_type is SetVal:
            return arg
        msg = "expected a set of integers"
    else:
        raise AssertionError(f"unknown kind code {kind}")
    raise _located(KindMismatch, model, item, f"{item.name}: {msg}")


def typecheck(model: FzModel) -> FzModel:
    """Return a checked model: identifiers resolved, literals folded.

    Parameters and alias arrays are folded into the constraints and
    cleared, so the result is self-contained.
    """
    variables = model.vars
    checked = FzModel(vars=dict(variables), solve=model.solve, source=model.source)
    for name, decl in variables.items():
        if decl.kind == "bool" and decl.domain != BINARY:
            raise KindMismatch(f"bool variable '{name}' must have domain [0, 1]")
    constraints = checked.constraints
    for item in model.constraints:
        name, args = item.name, item.args
        sig = _ARG_KINDS.get((name, len(args)))
        if sig is None:
            arities = " or ".join(str(len(s)) for s in SIGNATURES[name])
            raise _located(ArityMismatch, model, item,
                           f"{name} takes {arities} arguments, got {len(args)}")
        # every argument is folded before any is checked, so an undeclared
        # name is reported first; a variable folds to itself
        folded = []
        for a in args:
            folded.append(a if type(a) is Ref and a.name in variables
                          else _fold(a, model, item))
        args = []
        for a, kind in zip(folded, sig):
            args.append(_check_arg(a, kind, model, item))
        args = tuple(args)
        if name in _LINEAR and len(args[0].items) != len(args[1].items):
            raise _located(ArityMismatch, model, item,
                           f"{name}: coefficient and variable arrays differ in length")
        constraints.append(ConstraintItem(name, args, item.tok))
    solve = model.solve
    if solve.var is not None and solve.var not in model.vars:
        if solve.var in model.params or solve.var in model.arrays:
            raise _located(KindMismatch, model, solve,
                           f"{solve.kind}: '{solve.var}' is not a variable")
        raise _located(UndeclaredIdentifier, model, solve, solve.var)
    return checked


# ----------------------------------------------------------------------
# pretty printing (round-trips through parse_model + typecheck)


def _expr_to_fzn(arg) -> str:
    if isinstance(arg, Lit):
        return str(arg.value)
    if isinstance(arg, Ref):
        return arg.name
    if isinstance(arg, Arr):
        return "[" + ", ".join(_expr_to_fzn(a) for a in arg.items) + "]"
    if isinstance(arg, SetVal):
        if len(arg.runs) == 1:  # a range; FlatZinc has none for several runs
            return "%d..%d" % arg.runs[0]
        return "{" + ", ".join(str(v) for lo, hi in arg.runs
                               for v in range(lo, hi + 1)) + "}"
    raise AssertionError(f"cannot print {arg!r}")


def model_to_fzn(model: FzModel) -> str:
    """Render a checked model back to FlatZinc text."""
    lines = []
    for decl in model.vars.values():
        ann = " :: var_is_introduced" if decl.is_introduced else ""
        if decl.kind == "bool":
            lines.append(f"var bool: {decl.name}{ann};")
        else:
            lines.append(
                f"var {decl.domain.lo}..{decl.domain.hi}: {decl.name}{ann};"
            )
    for item in model.constraints:
        args = ", ".join(_expr_to_fzn(a) for a in item.args)
        lines.append(f"constraint {item.name}({args});")
    if model.solve.kind == "satisfy":
        lines.append("solve satisfy;")
    else:
        lines.append(f"solve {model.solve.kind} {model.solve.var};")
    return "\n".join(lines) + "\n"
