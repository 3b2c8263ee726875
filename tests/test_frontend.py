"""Parser and typechecker tests, including the print/parse round trip."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fzn2qip.errors import (
    ArityMismatch,
    EmptyDomain,
    FznSyntaxError,
    KindMismatch,
    UndeclaredIdentifier,
    UnsupportedItem,
)
from fzn2qip.frontend import (
    SIGNATURES,
    Arr,
    Lit,
    Ref,
    SetVal,
    model_to_fzn,
    parse_model,
    tokenize,
    typecheck,
)
from fzn2qip.fuzz import generate
from fzn2qip.model import Domain


def check(src):
    return typecheck(parse_model(src))


def test_basic_model():
    m = check("""
        var 1..3: x;
        var bool: b;
        constraint int_eq(x, 2);
        solve satisfy;
    """)
    assert list(m.vars) == ["x", "b"]
    assert m.vars["x"].domain == Domain(1, 3)
    assert m.vars["b"].kind == "bool"
    assert m.constraints[0].name == "int_eq"
    assert m.constraints[0].args == (Ref("x"), Lit(2))


def test_comments_and_annotations():
    m = check("""
        % a comment
        var 0..1: x :: var_is_introduced;
        constraint int_le(x, 1) :: domain;
        solve satisfy;
    """)
    assert m.vars["x"].is_introduced
    assert m.constraints[0].name == "int_le"


def test_parameters_fold():
    m = check("""
        int: k = 3;
        var 0..5: x;
        constraint int_eq(x, k);
        solve satisfy;
    """)
    assert m.constraints[0].args == (Ref("x"), Lit(3))
    assert not m.params


def test_param_array_and_alias_array_fold():
    m = check("""
        array [1..3] of int: a = [4, 7, 1];
        var 1..3: i;
        var 0..9: c;
        array [1..2] of var int: xs = [i, c];
        constraint array_int_element(i, a, c);
        constraint array_int_maximum(c, xs);
        solve satisfy;
    """)
    assert m.constraints[0].args[1] == Arr((Lit(4), Lit(7), Lit(1)))
    assert m.constraints[1].args[1] == Arr((Ref("i"), Ref("c")))


def test_assignment_becomes_equality():
    m = check("""
        var 0..5: x;
        var 0..5: y = x;
        solve satisfy;
    """)
    assert any(c.name == "int_eq" for c in m.constraints)


def test_set_argument():
    m = check("""
        var 1..6: x;
        constraint set_in(x, {2, 4, 9});
        solve satisfy;
    """)
    assert m.constraints[0].args[1] == SetVal(frozenset({2, 4, 9}))


def test_empty_domain_names_the_variable():
    with pytest.raises(EmptyDomain) as exc:
        parse_model("var 5..2: x;\nsolve satisfy;\n")
    assert "x" in str(exc.value)


def test_unsupported_items():
    with pytest.raises(UnsupportedItem):
        parse_model("var float: x;\nsolve satisfy;\n")
    with pytest.raises(UnsupportedItem):
        parse_model("var int: x;\nsolve satisfy;\n")
    with pytest.raises(UnsupportedItem):
        parse_model(
            "var 0..1: x;\nconstraint totally_unknown(x);\nsolve satisfy;\n"
        )


def test_syntax_errors_carry_location():
    with pytest.raises(FznSyntaxError) as exc:
        parse_model("var 0..1: x\nsolve satisfy;\n")
    assert exc.value.line >= 1
    with pytest.raises(FznSyntaxError):
        parse_model("var 0..1: x;\n")  # missing solve item


def test_typecheck_diagnostics():
    with pytest.raises(UndeclaredIdentifier):
        check("var 0..1: x;\nconstraint int_eq(x, y);\nsolve satisfy;\n")
    with pytest.raises(ArityMismatch):
        check("var 0..1: x;\nconstraint int_eq(x);\nsolve satisfy;\n")
    with pytest.raises(ArityMismatch):
        check(
            "var 0..1: x;\nconstraint int_lin_eq([1, 2], [x], 0);\n"
            "solve satisfy;\n"
        )
    with pytest.raises(KindMismatch):
        check("var 0..5: x;\nconstraint bool_not(x, x);\nsolve satisfy;\n")


def test_solve_items():
    m = check("var 1..3: x;\nsolve minimize x;\n")
    assert m.solve.kind == "minimize" and m.solve.var == "x"
    m = check("var 1..3: x;\nsolve maximize x;\n")
    assert m.solve.kind == "maximize"
    with pytest.raises(UndeclaredIdentifier):
        check("var 1..3: x;\nsolve minimize zz;\n")


@st.composite
def models(draw):
    n = draw(st.integers(1, 3))
    lines = []
    names = []
    for i in range(n):
        lo = draw(st.integers(-4, 4))
        hi = draw(st.integers(lo, 4))
        names.append(f"v{i}")
        lines.append(f"var {lo}..{hi}: v{i};")
    a = draw(st.sampled_from(names))
    b = draw(st.sampled_from(names))
    op = draw(st.sampled_from(["int_eq", "int_ne", "int_le", "int_lt"]))
    lines.append(f"constraint {op}({a}, {b});")
    lines.append("solve satisfy;")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(models())
def test_print_parse_round_trip(src):
    m1 = check(src)
    text = model_to_fzn(m1)
    m2 = check(text)
    assert list(m1.vars) == list(m2.vars)
    assert m1.constraints == m2.constraints
    assert model_to_fzn(m2) == text


# ----------------------------------------------------------------------
# tokenizer identity against the position-by-position reference loop

_REF_TOKEN_RE = re.compile(
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
    """,
    re.VERBOSE | re.ASCII,
)


def _reference_tokenize(source):
    """Anchored match at each position; line and column tracked per token."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _REF_TOKEN_RE.match(source, pos)
        if m is None:
            raise FznSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup or "punct"
        if kind == "punct":
            kind = text
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def _outcome(tokenizer, source):
    try:
        return [tuple(t) for t in tokenizer(source)]
    except FznSyntaxError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _assert_same_tokens(source):
    expected = _outcome(_reference_tokenize, source)
    assert _outcome(tokenize, source) == expected
    return expected


CORPUS_TEXTS = [generate(b, seed) for b in sorted(SIGNATURES) for seed in range(50)]


def test_tokenize_matches_reference_on_corpus():
    for source in CORPUS_TEXTS:
        assert _assert_same_tokens(source)[-1][0] == "eof"


@pytest.mark.parametrize("source", [
    "",
    "% only a comment",
    "var 0..1: x; % trailing comment without newline",
    "% head\n\n\tvar 1..3: x;\t% tab\n\n\nsolve satisfy;\n",
    "var 0..1: x;\r\nconstraint int_le(x, 1);\r\nsolve satisfy;\r\n",
    "var 0..1: x :: output_var;\n\t\t\n  solve   satisfy ;\n\n",
    'array [1..1] of var int: a :: output_array([1..1]) = [x];\n"s" 1.5e3 2E7\n',
    "var 0..1: x;\n\n  \tconstraint int_le(x, 1) ? 2;\nsolve satisfy;\n",
    "var 0..1: x;\r\n% c\r\n\t@",
    "\x0b\x0c\u2028var\u00a0x \u00e9",
])
def test_tokenize_matches_reference_on_crafted_texts(source):
    _assert_same_tokens(source)


def test_tokenize_bad_character_position():
    src = "var 0..1: x;\n% note\n\t  constraint int_le(x, 1) ? 2;\n"
    assert _assert_same_tokens(src) == (
        "error", "unexpected character '?'", 3, 28
    )


_MUTATION_CHARS = "\n\r\t %\".:;,()[]{}-+09eExé?@\x00\u2028"


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CORPUS_TEXTS),
    st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                       st.sampled_from(["replace", "insert", "delete"]),
                       st.sampled_from(_MUTATION_CHARS)),
             min_size=1, max_size=6),
)
def test_tokenize_matches_reference_on_mutated_corpus(source, edits):
    chars = list(source)
    for where, op, ch in edits:
        i = int(where * len(chars))
        if op == "insert":
            chars.insert(i, ch)
        elif chars and op == "replace":
            chars[i] = ch
        elif chars:
            del chars[i]
    _assert_same_tokens("".join(chars))
