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
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    ArityMismatch,
    EmptyDomain,
    FznSyntaxError,
    KindMismatch,
    UndeclaredIdentifier,
    UnsupportedItem,
)
from .model import Domain

# ----------------------------------------------------------------------
# argument AST (post-parse; typecheck normalizes further)


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Arr:
    items: tuple


@dataclass(frozen=True)
class SetVal:
    values: frozenset


@dataclass
class VarDecl:
    name: str
    kind: str  # "int" | "bool"
    domain: Domain
    is_introduced: bool = False


@dataclass
class ConstraintItem:
    name: str
    args: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class SolveItem:
    kind: str  # "satisfy" | "minimize" | "maximize"
    var: str | None = None


@dataclass
class FzModel:
    params: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)  # var alias arrays, name -> Arr
    vars: dict = field(default_factory=dict)  # name -> VarDecl, ordered
    constraints: list = field(default_factory=list)
    solve: SolveItem = field(default_factory=lambda: SolveItem("satisfy"))


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
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<float>\d+\.\d+([eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<dotdot>\.\.)
  | (?P<coloncolon>::)
  | (?P<punct>[()\[\]{},;:=\-+])
  | (?P<bad>.)
    """,
    # ASCII: \d and \s take no other script's digits or spaces
    re.VERBOSE | re.DOTALL | re.ASCII,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, each with its 1-based line and column.

    One ``finditer`` pass covers the whole text: ``bad`` matches any
    character no other group does.  Only whitespace can hold a newline
    (comments and strings stop before one), so the line and the offset of
    its first character change only on whitespace.
    """
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
        elif kind == "comment":
            continue
        elif kind == "bad":
            raise FznSyntaxError(f"unexpected character {m.group()!r}",
                                 line, m.start() - line_start + 1)
        else:
            text = m.group()
            append(Token(text if kind == "punct" else kind, text,
                         line, m.start() - line_start + 1))
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# ----------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.cur
        if tok.kind != kind:
            raise FznSyntaxError(
                f"expected {what or kind}, found {tok.text!r}", tok.line, tok.col
            )
        return self.advance()

    def expect_ident(self, word: str) -> Token:
        tok = self.cur
        if tok.kind != "ident" or tok.text != word:
            raise FznSyntaxError(
                f"expected '{word}', found {tok.text!r}", tok.line, tok.col
            )
        return self.advance()

    # -- leaves ---------------------------------------------------------

    def parse_int(self) -> int:
        neg = self.accept("-") is not None
        tok = self.cur
        if tok.kind == "float":
            raise UnsupportedItem("float", tok.line, tok.col)
        tok = self.expect("int", "integer")
        return -int(tok.text) if neg else int(tok.text)

    def parse_annotations(self) -> list[str]:
        names = []
        while self.accept("coloncolon"):
            tok = self.expect("ident", "annotation name")
            names.append(tok.text)
            if self.accept("(", None):
                depth = 1
                while depth:
                    t = self.advance()
                    if t.kind == "eof":
                        raise FznSyntaxError(
                            "unterminated annotation", t.line, t.col
                        )
                    if t.kind == "(":
                        depth += 1
                    elif t.kind == ")":
                        depth -= 1
        return names

    def parse_expr(self):
        tok = self.cur
        if tok.kind == "float":
            raise UnsupportedItem("float", tok.line, tok.col)
        if tok.kind in ("int", "-"):
            lo = self.parse_int()
            if self.accept("dotdot"):
                hi = self.parse_int()
                return SetVal(frozenset(range(lo, hi + 1)))
            return Lit(lo)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "true":
                return BoolLit(True)
            if tok.text == "false":
                return BoolLit(False)
            return Ref(tok.text)
        if self.accept("["):
            items = []
            if not self.accept("]"):
                while True:
                    if self.cur.kind == "[":  # FlatZinc arrays are flat
                        raise FznSyntaxError("nested array", self.cur.line,
                                             self.cur.col)
                    items.append(self.parse_expr())
                    if self.accept("]"):
                        break
                    self.expect(",", "',' or ']'")
            return Arr(tuple(items))
        if self.accept("{"):
            values = []
            if not self.accept("}"):
                while True:
                    values.append(self.parse_int())
                    if self.accept("}"):
                        break
                    self.expect(",", "',' or '}'")
            return SetVal(frozenset(values))
        raise FznSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    # -- items ----------------------------------------------------------

    def parse_model(self) -> FzModel:
        model = FzModel()
        have_solve = False
        while self.cur.kind != "eof":
            tok = self.cur
            if tok.kind == "ident" and tok.text == "predicate":
                raise UnsupportedItem("predicate declaration", tok.line, tok.col)
            if tok.kind == "ident" and tok.text == "constraint":
                self.advance()
                model.constraints.append(self.parse_constraint())
            elif tok.kind == "ident" and tok.text == "solve":
                if have_solve:
                    raise FznSyntaxError("duplicate solve item", tok.line, tok.col)
                self.advance()
                model.solve = self.parse_solve()
                have_solve = True
            elif tok.kind == "ident" and tok.text == "var":
                self.advance()
                self.parse_var_decl(model)
            elif tok.kind == "ident" and tok.text == "array":
                self.advance()
                self.parse_array_decl(model)
            elif tok.kind == "ident" and tok.text in ("int", "bool"):
                self.advance()
                self.parse_param_decl(model, tok.text)
            elif tok.kind == "ident" and tok.text in ("float", "set"):
                raise UnsupportedItem(tok.text, tok.line, tok.col)
            else:
                raise FznSyntaxError(
                    f"unexpected token {tok.text!r}", tok.line, tok.col
                )
        if not have_solve:
            tok = self.cur
            raise FznSyntaxError("missing solve item", tok.line, tok.col)
        return model

    def _declare(self, model: FzModel, name: str, tok: Token) -> None:
        if name in model.vars or name in model.params or name in model.arrays:
            raise FznSyntaxError(f"duplicate declaration of '{name}'", tok.line, tok.col)

    def parse_param_decl(self, model: FzModel, kind: str) -> None:
        self.expect(":", "':'")
        name_tok = self.expect("ident", "parameter name")
        self.parse_annotations()
        self.expect("=", "'='")
        value = self.parse_expr()
        self.expect(";", "';'")
        self._declare(model, name_tok.text, name_tok)
        if kind == "int":
            if not isinstance(value, Lit):
                raise FznSyntaxError(
                    "int parameter needs an integer value", name_tok.line, name_tok.col
                )
            model.params[name_tok.text] = value.value
        else:
            if not isinstance(value, BoolLit):
                raise FznSyntaxError(
                    "bool parameter needs true/false", name_tok.line, name_tok.col
                )
            model.params[name_tok.text] = 1 if value.value else 0

    def parse_var_domain(self) -> tuple[str, int, int]:
        tok = self.cur
        if tok.kind == "ident" and tok.text == "bool":
            self.advance()
            return "bool", 0, 1
        if tok.kind == "ident" and tok.text == "int":
            raise UnsupportedItem("unbounded var int", tok.line, tok.col)
        if tok.kind == "ident" and tok.text in ("float", "set"):
            raise UnsupportedItem(tok.text, tok.line, tok.col)
        if tok.kind == "{":
            raise UnsupportedItem("set-literal domain", tok.line, tok.col)
        if tok.kind == "float":
            raise UnsupportedItem("float", tok.line, tok.col)
        lo = self.parse_int()
        self.expect("dotdot", "'..'")
        hi = self.parse_int()
        return "int", lo, hi

    def parse_var_decl(self, model: FzModel) -> None:
        kind, lo, hi = self.parse_var_domain()
        self.expect(":", "':'")
        name_tok = self.expect("ident", "variable name")
        anns = self.parse_annotations()
        assigned = None
        if self.accept("="):
            assigned = self.parse_expr()
        self.expect(";", "';'")
        self._declare(model, name_tok.text, name_tok)
        if lo > hi:
            raise EmptyDomain(name_tok.text)
        model.vars[name_tok.text] = VarDecl(
            name_tok.text, kind, Domain(lo, hi), "var_is_introduced" in anns
        )
        if assigned is not None:
            builtin = "bool_eq" if kind == "bool" else "int_eq"
            model.constraints.append(
                ConstraintItem(
                    builtin,
                    (Ref(name_tok.text), assigned),
                    name_tok.line,
                    name_tok.col,
                )
            )

    def parse_array_decl(self, model: FzModel) -> None:
        open_tok = self.expect("[", "'['")
        lo = self.parse_int()
        self.expect("dotdot", "'..'")
        hi = self.parse_int()
        self.expect("]", "']'")
        if lo != 1:
            raise FznSyntaxError("array index set must start at 1",
                                 open_tok.line, open_tok.col)
        length = hi
        self.expect_ident("of")
        is_var = self.accept("ident", "var") is not None
        elem_tok = self.cur
        if elem_tok.kind == "ident" and elem_tok.text in ("int", "bool"):
            self.advance()
        elif elem_tok.kind == "ident" and elem_tok.text in ("float", "set"):
            raise UnsupportedItem(elem_tok.text, elem_tok.line, elem_tok.col)
        elif is_var and (elem_tok.kind in ("int", "-")):
            # array [1..n] of var lo..hi — only supported as pure alias
            self.parse_int()
            self.expect("dotdot", "'..'")
            self.parse_int()
        else:
            raise FznSyntaxError(
                f"unexpected array element type {elem_tok.text!r}",
                elem_tok.line, elem_tok.col,
            )
        self.expect(":", "':'")
        name_tok = self.expect("ident", "array name")
        self.parse_annotations()
        if not self.accept("="):
            if is_var:
                raise UnsupportedItem(
                    "var array without defining value", name_tok.line, name_tok.col
                )
            raise FznSyntaxError("parameter array needs a value",
                                 name_tok.line, name_tok.col)
        value = self.parse_expr()
        self.expect(";", "';'")
        if not isinstance(value, Arr):
            raise FznSyntaxError("array value must be a literal array",
                                 name_tok.line, name_tok.col)
        if len(value.items) != length:
            raise FznSyntaxError(
                f"array '{name_tok.text}' declares length {length} "
                f"but has {len(value.items)} elements",
                name_tok.line, name_tok.col,
            )
        self._declare(model, name_tok.text, name_tok)
        if is_var:
            model.arrays[name_tok.text] = value
        else:
            items = []
            for item in value.items:
                if isinstance(item, BoolLit):
                    items.append(Lit(1 if item.value else 0))
                elif isinstance(item, Lit):
                    items.append(item)
                else:
                    raise FznSyntaxError(
                        "parameter array elements must be literals",
                        name_tok.line, name_tok.col,
                    )
            model.params[name_tok.text] = Arr(tuple(items))

    def parse_constraint(self) -> ConstraintItem:
        name_tok = self.expect("ident", "predicate name")
        name = name_tok.text
        if name not in SIGNATURES:
            raise UnsupportedItem(f"predicate '{name}'", name_tok.line, name_tok.col)
        self.expect("(", "'('")
        args = []
        if not self.accept(")"):
            while True:
                args.append(self.parse_expr())
                if self.accept(")"):
                    break
                self.expect(",", "',' or ')'")
        self.parse_annotations()
        self.expect(";", "';'")
        return ConstraintItem(name, tuple(args), name_tok.line, name_tok.col)

    def parse_solve(self) -> SolveItem:
        self.parse_annotations()
        tok = self.expect("ident", "'satisfy', 'minimize' or 'maximize'")
        if tok.text == "satisfy":
            self.expect(";", "';'")
            return SolveItem("satisfy")
        if tok.text in ("minimize", "maximize"):
            obj = self.expect("ident", "objective variable")
            self.expect(";", "';'")
            return SolveItem(tok.text, obj.text)
        raise FznSyntaxError(
            f"expected solve kind, found {tok.text!r}", tok.line, tok.col
        )


def parse_model(source: str) -> FzModel:
    """Parse FlatZinc source text into an (unchecked) model."""
    return _Parser(tokenize(source)).parse_model()


# ----------------------------------------------------------------------
# type checking


def _fold(arg, model: FzModel, line: int, col: int):
    """Resolve parameter references and bool literals inside an argument."""
    if isinstance(arg, BoolLit):
        return Lit(1 if arg.value else 0)
    if isinstance(arg, Ref):
        if arg.name in model.params:
            value = model.params[arg.name]
            return value if isinstance(value, Arr) else Lit(value)
        if arg.name in model.arrays:
            return Arr(
                tuple(_fold(item, model, line, col)
                      for item in model.arrays[arg.name].items)
            )
        if arg.name in model.vars:
            return arg
        raise UndeclaredIdentifier(arg.name, line, col)
    if isinstance(arg, Arr):
        return Arr(tuple(_fold(item, model, line, col) for item in arg.items))
    return arg


def _check_arg(arg, kind: str, model: FzModel, item: ConstraintItem):
    line, col = item.line, item.col

    def bad(msg: str):
        return KindMismatch(f"{item.name}: {msg}", line, col)

    if kind == "iv":
        if isinstance(arg, Lit):
            return arg
        if isinstance(arg, Ref):
            return arg  # bool vars double as binary ints
        raise bad("expected an int variable or literal")
    if kind == "bv":
        if isinstance(arg, Lit):
            if arg.value not in (0, 1):
                raise bad(f"literal {arg.value} is not a bool")
            return arg
        if isinstance(arg, Ref):
            if model.vars[arg.name].kind != "bool":
                raise bad(f"'{arg.name}' is not a bool variable")
            return arg
        raise bad("expected a bool variable or literal")
    if kind == "ic":
        if isinstance(arg, Lit):
            return arg
        raise bad("expected an integer constant")
    if kind in ("ia", "ba"):
        if not isinstance(arg, Arr):
            raise bad("expected a constant array")
        for item_ in arg.items:
            if not isinstance(item_, Lit):
                raise bad("expected an array of constants")
            if kind == "ba" and item_.value not in (0, 1):
                raise bad(f"array value {item_.value} is not a bool")
        return arg
    if kind in ("iva", "bva"):
        if not isinstance(arg, Arr):
            raise bad("expected an array of variables")
        checked = tuple(
            _check_arg(item_, "bv" if kind == "bva" else "iv", model, item)
            for item_ in arg.items
        )
        return Arr(checked)
    if kind == "set":
        if not isinstance(arg, SetVal):
            raise bad("expected a set of integers")
        return arg
    raise AssertionError(f"unknown kind code {kind}")


def typecheck(model: FzModel) -> FzModel:
    """Return a checked model: identifiers resolved, literals folded.

    Parameters and alias arrays are folded into the constraints and
    cleared, so the result is self-contained.
    """
    checked = FzModel(vars=dict(model.vars), solve=model.solve)
    for name, decl in model.vars.items():
        if decl.kind == "bool" and decl.domain != Domain(0, 1):
            raise KindMismatch(f"bool variable '{name}' must have domain [0, 1]")
        if decl.domain.lo > decl.domain.hi:
            raise EmptyDomain(name)
    for item in model.constraints:
        sigs = SIGNATURES[item.name]
        sig = next((s for s in sigs if len(s) == len(item.args)), None)
        if sig is None:
            arities = " or ".join(str(len(s)) for s in sigs)
            raise ArityMismatch(
                f"{item.name} takes {arities} arguments, got {len(item.args)}",
                item.line, item.col,
            )
        folded = tuple(_fold(a, model, item.line, item.col) for a in item.args)
        args = tuple(_check_arg(a, k, model, item) for a, k in zip(folded, sig))
        if item.name.startswith(("int_lin_", "bool_lin_")):
            if len(args[0].items) != len(args[1].items):
                raise ArityMismatch(
                    f"{item.name}: coefficient and variable arrays differ in length",
                    item.line, item.col,
                )
        checked.constraints.append(ConstraintItem(item.name, args, item.line, item.col))
    if model.solve.var is not None:
        if model.solve.var not in model.vars:
            raise UndeclaredIdentifier(model.solve.var)
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
        return "{" + ", ".join(str(v) for v in sorted(arg.values)) + "}"
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
