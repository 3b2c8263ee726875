"""Parser and typechecker tests, including the print/parse round trip."""

import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fzn2qip.errors import (
    ArityMismatch,
    Diagnostic,
    EmptyDomain,
    Fzn2QipError,
    FznSyntaxError,
    KindMismatch,
    UndeclaredIdentifier,
    UnsupportedItem,
)
from fzn2qip.frontend import (
    _TOKEN_RE,
    SIGNATURES,
    Arr,
    BoolLit,
    ConstraintItem,
    FzModel,
    Lit,
    Ref,
    SetVal,
    VarDecl,
    model_to_fzn,
    _split_scan,
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


def _refs(model: FzModel) -> list[Ref]:
    """Every Ref in the model's constraint arguments, arrays unpacked."""
    out = []
    for item in model.constraints:
        for a in item.args:
            out += [x for x in (a.items if type(a) is Arr else (a,)) if type(x) is Ref]
    return out


def test_one_ref_per_name_and_none_shared_between_parses():
    src = """
        var 0..5: x;
        var 0..5: y = x;
        var bool: b;
        constraint int_le(x, y);
        constraint int_lin_le([1, 2], [x, y], 7);
        constraint bool_eq(b, true);
        constraint int_plus(z, x, y);
        var 0..9: z;
        solve satisfy;
    """
    first, second = parse_model(src), parse_model(src)
    one = {}
    for ref in _refs(first):
        assert one.setdefault(ref.name, ref) is ref, ref.name
    assert sorted(one) == ["b", "x", "y", "z"]
    assert first.constraints[0].args[0] is one["y"]  # y = x, made at y's declaration
    assert first.constraints[3].args[1] == BoolLit(True)
    assert not {id(r) for r in _refs(first)} & {id(r) for r in _refs(second)}
    assert first == second


def test_a_variable_named_true_still_reads_as_a_literal():
    """``true`` and ``false`` read as literals wherever they appear; a
    variable given that name is still the left side of its assignment."""
    m = parse_model("var bool: true = false;\nconstraint bool_eq(true, true);\nsolve satisfy;\n")
    assert m.constraints[0].args == (Ref("true"), BoolLit(False))
    assert m.constraints[1].args == (BoolLit(True), BoolLit(True))


def test_typecheck_keeps_unchanged_items_and_leaves_the_parsed_model():
    m = parse_model("""
        int: k = 2;
        var 0..3: x;
        var 0..3: y;
        var bool: b;
        constraint int_times(x, y, x);
        constraint int_le(x, k);
        constraint int_lin_le([1, 2], [x, y], 3);
        constraint bool_eq(b, true);
        solve satisfy;
    """)
    checked = typecheck(m)
    same = [a is b for a, b in zip(m.constraints, checked.constraints)]
    assert same == [True, False, True, False]
    assert checked.constraints[1].args == (Ref("x"), Lit(2))
    assert checked.constraints[3].args == (Ref("b"), Lit(1))
    assert m.constraints[1].args == (Ref("x"), Ref("k"))
    assert m.constraints[3].args == (Ref("b"), BoolLit(True))


def test_typecheck_of_list_arguments_returns_tuples_and_leaves_the_model():
    """A hand-built model may hold lists where the parser makes tuples:
    the checked model holds tuples, and the given one is not changed."""
    def build():
        return FzModel(
            vars={n: VarDecl(n, "int", Domain(0, 3)) for n in ("x", "y")},
            constraints=[ConstraintItem("int_lin_le", [Arr([Lit(1), Lit(2)]),
                                                       Arr([Ref("x"), Ref("y")]), Lit(3)]),
                         ConstraintItem("int_le", [Ref("x"), Ref("y")])])

    model = build()
    checked = typecheck(model)
    assert model == build()
    assert type(model.constraints[0].args) is list
    assert type(model.constraints[0].args[1].items) is list
    for item in checked.constraints:
        assert type(item.args) is tuple
        assert all(type(a.items) is tuple for a in item.args if type(a) is Arr)
    assert checked.constraints[0].args == (Arr((Lit(1), Lit(2))), Arr((Ref("x"), Ref("y"))),
                                           Lit(3))
    assert checked.constraints[1].args == (Ref("x"), Ref("y"))


def test_set_argument():
    m = check("""
        var 1..6: x;
        constraint set_in(x, {9, 2, 3, 4, 2});
        constraint set_in(x, 5..7);
        constraint set_in(x, 7..5);
        constraint set_in(x, {});
        solve satisfy;
    """)
    # sorted, disjoint, non-adjacent runs: adjacent values are merged
    assert [c.args[1] for c in m.constraints] == [
        SetVal(((2, 4), (9, 9))), SetVal(((5, 7),)), SetVal(()), SetVal(())]
    assert SetVal.of([3, 1, 2, 5]) == SetVal(((1, 3), (5, 5)))
    # one run prints as a range, however wide; several runs value by value
    assert model_to_fzn(m).splitlines()[1:5] == [
        "constraint set_in(x, {2, 3, 4, 9});", "constraint set_in(x, 5..7);",
        "constraint set_in(x, {});", "constraint set_in(x, {});"]
    wide = model_to_fzn(check("var 0..5: x; constraint set_in(x, -3..1000000); "
                              "solve satisfy;"))
    assert "constraint set_in(x, -3..1000000);" in wide and len(wide) < 80


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
@example("var 0..5: x;\nconstraint set_in(x, 0..1000000);\nsolve satisfy;\n")
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
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("", line, col))
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
        assert _assert_same_tokens(source)[-1][0] == ""


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


def _edited(source, edits):
    chars = list(source)
    for where, op, ch in edits:
        i = int(where * len(chars))
        if op == "insert":
            chars.insert(i, ch)
        elif chars and op == "replace":
            chars[i] = ch
        elif chars:
            del chars[i]
    return "".join(chars)


def _edits(alphabet):
    return st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                              st.sampled_from(["replace", "insert", "delete"]),
                              st.sampled_from(alphabet)),
                    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORPUS_TEXTS), _edits(_MUTATION_CHARS))
def test_tokenize_matches_reference_on_mutated_corpus(source, edits):
    _assert_same_tokens(_edited(source, edits))


# ----------------------------------------------------------------------
# the split scan: wherever it answers, its tokens are the comment-free
# tokens of ``findall``; a text it declines takes the ``findall`` path


def _findall_tokens(source):
    return [t for t in _TOKEN_RE.findall(source) if t[0] != "%"]


def _split_agrees(source):
    """Whether the split scan answered; if it did, it matched ``findall``."""
    toks = _split_scan(source)
    if toks is not None:
        assert toks == _findall_tokens(source)
    return toks is not None


def _chain_text(links, comments=False, annotation=""):
    """The ``int_times`` chain of ``links`` links over 0..1 variables."""
    lines = [f"var 0..1: x{i};" for i in range(links + 1)]
    lines += [f"constraint int_times(x{i}, x{i}, x{i + 1}){annotation if i == links // 2 else ''};"
              for i in range(links)]
    lines.append("solve satisfy;")
    if comments:
        lines = [f"{line}% line {k}" for k, line in enumerate(lines)]
    return "\n".join(lines) + "\n"


def test_split_scan_takes_and_matches_every_corpus_text_and_the_chain():
    for source in CORPUS_TEXTS:
        assert _split_agrees(source), source
    assert _split_agrees(_chain_text(300))
    assert _split_agrees(_chain_text(300, comments=True))
    assert not _split_agrees(_chain_text(300, annotation=' :: ann("s")'))


@pytest.mark.parametrize("source, split", [
    # whitespace to str.split but not to the pattern
    ("var 0..1:\x1cx;", False),
    ("var 0..1: x;\x1dsolve satisfy;", False),
    ("var\x1e0..1: x;", False),
    ("var 0..1: x\x1f;", False),
    ("var 0..1: x;\x00", False),
    ("var 0..1:\x0bx;\x0csolve satisfy;", True),
    ("var 0..1:\u00a0x;", False),
    ("var 0..1: x;\u2028solve satisfy;", False),
    ("var 0..1: x ::: y;", True),
    ("var 0..1: x :::: y;", True),
    ("var 0..1: x : : y;", True),
    ("var 0..1: x::y;", True),
    ("var 0..1: x;::\n::", True),
    ("var 0...1: x;", False),
    ("var 0....1: x;", True),
    ("constraint int_le(x, 1e-5);", False),
    ("constraint int_le(x, 1abc);", False),
    ("constraint int_le(x, 1.5);", False),
    ("var 1..5: x;\nconstraint int_le(x, -2);", True),
    ('var 0..1: x :: ann("s");', False),
    ("var 0..1: x;% comment\nsolve satisfy;%", True),
    ("var 0..1: x;\r\nconstraint int_le(x, 1);\r\n% c\r\nsolve satisfy;\r\n", True),
    ("var 0..1: x; % \"quoted\" comment", False),
    ("", True),
    ("% only a comment", True),
    ("var 0..1: x ? 2;", False),
])
def test_split_scan_matches_findall_on_crafted_texts(source, split):
    assert _split_agrees(source) is split


_SPLIT_EDIT_CHARS = _MUTATION_CHARS + "\x1c\x1d\x1e\x1f\x0b\x0c\u00a0_a"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORPUS_TEXTS), _edits(_SPLIT_EDIT_CHARS))
def test_split_scan_matches_findall_on_mutated_corpus(source, edits):
    _split_agrees(_edited(source, edits))


def _lin_le_text(n_cons, annotation=""):
    """``n_cons`` ``int_lin_le`` constraints over 3 of 300 ``var -5..5``."""
    rng = random.Random(2000)
    lines = [f"var -5..5: x{i};" for i in range(300)]
    for k in range(n_cons):
        coefs = [rng.randint(-3, 3) for _ in range(3)]
        xs = [f"x{i}" for i in rng.sample(range(300), 3)]
        lines.append(f"constraint int_lin_le({coefs}, [{', '.join(xs)}], {rng.randint(-5, 5)})"
                     f"{annotation if k == n_cons // 2 else ''};")
    lines.append("solve satisfy;")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("plain, other, other_splits", [
    (_lin_le_text(2000), _lin_le_text(2000, ' :: ann("s")'), False),
    (_chain_text(300), _chain_text(300, annotation=' :: ann("s")'), False),
    (_chain_text(300), _chain_text(300, comments=True), True),
], ids=["lin_le_2000_string", "chain300_string", "chain300_comments"])
def test_both_scans_parse_a_long_model_alike(plain, other, other_splits):
    """The split path gives the model the other text gives, through its
    own path; a string annotation is discarded, so only the token indices
    after it move, by its 5 tokens ``:: ann ( "s" )``."""
    assert _split_scan(plain) is not None
    assert (_split_scan(other) is not None) is other_splits
    shift = 0 if other_splits else 5
    a, b = parse_model(plain), parse_model(other)
    assert a == b
    assert len(a.constraints) >= 300
    half = len(a.constraints) // 2
    assert [c.tok for c in a.constraints[:half + 1]] == [c.tok for c in b.constraints[:half + 1]]
    assert [c.tok + shift for c in a.constraints[half + 1:]] == [c.tok for c in b.constraints[half + 1:]]
    assert model_to_fzn(typecheck(a)) == model_to_fzn(typecheck(b))


# ----------------------------------------------------------------------
# diagnostics: class, message, line and column; every raise in the
# scanner, the parser and typecheck has at least one input here, but the
# literal longer than int() converts (tests/test_cli.py)

DIAGNOSTICS = [
    ('var 0..1: x;\nconstraint int_le(x, 1) ? 2;\nsolve satisfy;\n',
     ('FznSyntaxError', "unexpected character '?'", 2, 25)),
    ('var 0..1: x;\nconstraint int_le(x, 1) 2;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ';', found '2'", 2, 25)),
    ('var 0..1: x;\nconstraint int_le(x, y);\nsolve satisfy;\n',
     ('UndeclaredIdentifier', "undeclared identifier 'y'", 2, 12)),
    ('array [1..2] if int: a = [1, 2];\nsolve satisfy;\n',
     ('FznSyntaxError', "expected 'of', found 'if'", 1, 14)),
    ('var 0..1.5: x;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: float', 1, 8)),
    ('var 0..x: y;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected integer, found 'x'", 1, 8)),
    ('var 0..1: x :: foo(1, (2);\nsolve satisfy;\n',
     ('FznSyntaxError', 'unterminated annotation', 3, 1)),
    ('var 0..1: x;\nconstraint int_le(x, 1.5);\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: float', 2, 22)),
    ('var bool: x;\nconstraint bool_clause([[x]], []);\nsolve satisfy;\n',
     ('FznSyntaxError', 'nested array', 2, 25)),
    ('var 0..1: x;\nconstraint int_le(x, ;);\nsolve satisfy;\n',
     ('FznSyntaxError', "unexpected token ';'", 2, 22)),
    ('predicate p(var int: x);\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: predicate declaration', 1, 1)),
    ('var 0..1: x;\nsolve satisfy;\nsolve satisfy;\n',
     ('FznSyntaxError', 'duplicate solve item', 3, 1)),
    ('float: f = 1.0;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: float', 1, 1)),
    ('set of int: s = {1};\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: set', 1, 1)),
    ('var 0..1: x;\nfoo;\nsolve satisfy;\n',
     ('FznSyntaxError', "unexpected token 'foo'", 2, 1)),
    ('var 0..1: x;\n',
     ('FznSyntaxError', 'missing solve item', 2, 1)),
    ('var 0..1: x;\n% note\n\tvar 0..2: x;\nsolve satisfy;\n',
     ('FznSyntaxError', "duplicate declaration of 'x'", 3, 12)),
    ('int: k = true;\nsolve satisfy;\n',
     ('FznSyntaxError', 'int parameter needs an integer value', 1, 6)),
    ('bool: b = 3;\nsolve satisfy;\n',
     ('FznSyntaxError', 'bool parameter needs true/false', 1, 7)),
    ('var int: x;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: unbounded var int', 1, 5)),
    ('var float: x;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: float', 1, 5)),
    ('var set of int: s;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: set', 1, 5)),
    ('var {1, 3}: x;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: set-literal domain', 1, 5)),
    ('var 1.5..2: x;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: float', 1, 5)),
    ('var 5..2: x;\nsolve satisfy;\n',
     ('EmptyDeclaredDomain', "variable 'x' has the empty domain 5..2", 1, 11)),
    ('array [0..1] of int: a = [1, 2];\nsolve satisfy;\n',
     ('FznSyntaxError', 'array index set must start at 1', 1, 7)),
    ('array [1..1] of float: a = [1.0];\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: float', 1, 17)),
    ('array [1..1] of foo: a = [1];\nsolve satisfy;\n',
     ('FznSyntaxError', "unexpected array element type 'foo'", 1, 17)),
    ('var 0..1: x;\narray [1..1] of var int: a;\nsolve satisfy;\n',
     ('UnsupportedItem', 'unsupported: var array without defining value', 2, 26)),
    ('array [1..1] of int: a;\nsolve satisfy;\n',
     ('FznSyntaxError', 'parameter array needs a value', 1, 22)),
    ('array [1..1] of int: a = 3;\nsolve satisfy;\n',
     ('FznSyntaxError', 'array value must be a literal array', 1, 22)),
    ('array [1..2] of int: a = [1];\nsolve satisfy;\n',
     ('FznSyntaxError', "array 'a' declares length 2 but has 1 elements", 1, 22)),
    ('var 0..1: x;\narray [1..1] of int: a = [x];\nsolve satisfy;\n',
     ('FznSyntaxError', 'parameter array elements must be literals', 2, 22)),
    ('var 0..1: x;\nconstraint foo(x);\nsolve satisfy;\n',
     ('UnsupportedItem', "unsupported: predicate 'foo'", 2, 12)),
    ('var 0..1: x;\nsolve optimize x;\n',
     ('FznSyntaxError', "expected solve kind, found 'optimize'", 2, 7)),
    ('var 0..1: x;\nsolve 3;\n',
     ('FznSyntaxError', "expected 'satisfy', 'minimize' or 'maximize', found '3'", 2, 7)),
    ('var bool: x;\nconstraint bool_clause([x x], []);\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ',' or ']', found 'x'", 2, 27)),
    ('var 0..1: x;\nconstraint set_in(x, {1 2});\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ',' or '}', found '2'", 2, 25)),
    ('var 0..1: x;\nconstraint int_le(x 1);\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ',' or ')', found '1'", 2, 21)),
    ('var 0..1: x;\nconstraint int_le x;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected '(', found 'x'", 2, 19)),
    ('var 0..1: x;\nsolve satisfy',
     ('FznSyntaxError', "expected ';', found ''", 2, 14)),
    ('var 0..1 x;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ':', found 'x'", 1, 10)),
    ('array [1..1 of int: a = [1];\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ']', found 'of'", 1, 13)),
    ('var 0..1: 3;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected variable name, found '3'", 1, 11)),
    ('\r\n  var 0..1: x;\r\n\t% c\r\n\tconstraint\n  int_eq(x);\nsolve satisfy;\n',
     ('ArityMismatch', 'int_eq takes 2 arguments, got 1', 5, 3)),
    ('var 0..1: x;\nconstraint bool_xor(x);\nsolve satisfy;\n',
     ('ArityMismatch', 'bool_xor takes 2 or 3 arguments, got 1', 2, 12)),
    ('var 0..1: x;\narray [1..1] of var int: a = [y];\nconstraint array_int_maximum(x, a);\nsolve satisfy;\n',
     ('UndeclaredIdentifier', "undeclared identifier 'y'", 3, 12)),
    ('var 0..1: x;\nconstraint int_le(x, [1]);\nsolve satisfy;\n',
     ('KindMismatch', 'int_le: expected an int variable or literal', 2, 12)),
    ('var bool: b;\nconstraint bool_not(b, 2);\nsolve satisfy;\n',
     ('KindMismatch', 'bool_not: literal 2 is not a bool', 2, 12)),
    ('var 0..5: x;\nconstraint bool_not(x, x);\nsolve satisfy;\n',
     ('KindMismatch', "bool_not: 'x' is not a bool variable", 2, 12)),
    ('var bool: b;\nconstraint bool_not(b, [b]);\nsolve satisfy;\n',
     ('KindMismatch', 'bool_not: expected a bool variable or literal', 2, 12)),
    ('var 0..1: x;\nconstraint int_lin_le([1], [x], x);\nsolve satisfy;\n',
     ('KindMismatch', 'int_lin_le: expected an integer constant', 2, 12)),
    ('var 0..1: x;\nconstraint int_lin_le(3, [x], 1);\nsolve satisfy;\n',
     ('KindMismatch', 'int_lin_le: expected a constant array', 2, 12)),
    ('var 0..1: x;\nconstraint int_lin_le([x], [x], 1);\nsolve satisfy;\n',
     ('KindMismatch', 'int_lin_le: expected an array of constants', 2, 12)),
    ('var 1..1: i;\nvar bool: b;\nconstraint array_bool_element(i, [2], b);\nsolve satisfy;\n',
     ('KindMismatch', 'array_bool_element: array value 2 is not a bool', 3, 12)),
    ('var 0..1: x;\nconstraint array_int_maximum(x, x);\nsolve satisfy;\n',
     ('KindMismatch', 'array_int_maximum: expected an array of variables', 2, 12)),
    ('var 0..1: x;\nconstraint set_in(x, 3);\nsolve satisfy;\n',
     ('KindMismatch', 'set_in: expected a set of integers', 2, 12)),
    ('var 0..1: x;\nconstraint int_lin_eq([1, 2], [x], 0);\nsolve satisfy;\n',
     ('ArityMismatch', 'int_lin_eq: coefficient and variable arrays differ in length', 2, 12)),
    ('var 1..3: x;\nsolve minimize zz;\n',
     ('UndeclaredIdentifier', "undeclared identifier 'zz'", 2, 16)),
    ('var 0..5: x;\nvar bool: y = x;\nsolve satisfy;\n',
     ('KindMismatch', "bool_eq: 'x' is not a bool variable", 2, 11)),
    ('var 0..1: x;\nvar 0..1: y :: ann(\n',
     ('FznSyntaxError', 'unterminated annotation', 3, 1)),
    ('var 0..1: x;\nconstraint int_le(x, 1) :: a :: 3;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected annotation name, found '3'", 2, 33)),
    ('var -1..-x: y;\nsolve satisfy;\n',
     ('FznSyntaxError', "expected integer, found 'x'", 1, 10)),
    ('var 0..1: x :: z = "s";\nsolve satisfy;\n',
     ('FznSyntaxError', 'unexpected token \'"s"\'', 1, 20)),
    ('var 0..1: x;\nconstraint int_le(x, "s");\nsolve satisfy;\n',
     ('FznSyntaxError', 'unexpected token \'"s"\'', 2, 22)),
    ('var 0..1: x;\nconstraint int_le(x, 1) :: a );\nsolve satisfy;\n',
     ('FznSyntaxError', "expected ';', found ')'", 2, 30)),
    ('array [-1..1] of int: a = [1, 2, 3];\nsolve satisfy;\n',
     ('FznSyntaxError', 'array index set must start at 1', 1, 7)),
    ('var 0..1: x;\nconstraint int_le(x, 1) :: a(b(c)) :: d;\nsolve satisfy;\n',
     'var 0..1: x;\nconstraint int_le(x, 1);\nsolve satisfy;\n'),
    ('var 1..3: x;\nint: p = 2;\nsolve minimize p;\n',
     ('KindMismatch', "minimize: 'p' is not a variable", 3, 16)),
    ('var 1..3: x;\narray [1..1] of var 1..3: a = [x];\nsolve maximize a;\n',
     ('KindMismatch', "maximize: 'a' is not a variable", 3, 16)),
    ('var 0..3: x;\nvar 0..3: y;\narray [1..2] of var 0..3: a = [x, y];\n'
     'constraint array_int_maximum(y, a);\nsolve maximize x;\n',
     'var 0..3: x;\nvar 0..3: y;\nconstraint array_int_maximum(y, [x, y]);\n'
     'solve maximize x;\n'),
    ('bool: t = true;\nvar bool: b;\nconstraint bool_eq(b, t);\nsolve minimize b;\n',
     'var bool: b;\nconstraint bool_eq(b, 1);\nsolve minimize b;\n'),
]


def _diagnosis(source):
    """The checked model as FlatZinc text, or the error's identity."""
    try:
        return model_to_fzn(check(source))
    except Fzn2QipError as exc:
        return (type(exc).__name__, exc.message,
                getattr(exc, "line", None), getattr(exc, "col", None))


@pytest.mark.parametrize("source, expected", DIAGNOSTICS)
def test_diagnostic_class_message_and_position(source, expected):
    assert _diagnosis(source) == expected


@pytest.mark.parametrize("source, line", [
    ("var 1..3: x;\nsolve minimize y;\n",
     "m.fzn:2:16: undeclared-identifier: undeclared identifier 'y'"),
    ("int: p = 2;\nvar 1..3: x;\nsolve minimize p;\n",
     "m.fzn:3:16: kind-mismatch: minimize: 'p' is not a variable"),
    ("var 1..0: x;\nsolve satisfy;\n",
     "m.fzn:1:11: empty-domain: variable 'x' has the empty domain 1..0"),
])
def test_objective_and_empty_domain_lines_are_located(source, line):
    with pytest.raises(Diagnostic) as exc:
        check(source)
    assert exc.value.render("m.fzn") == line


def test_typecheck_rejects_a_non_binary_bool():
    bad_bool = FzModel(vars={"b": VarDecl("b", "bool", Domain(0, 2))})
    with pytest.raises(KindMismatch) as exc:
        typecheck(bad_bool)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "bool variable 'b' must have domain [0, 1]", 0, 0)


# Seeded edits of corpus texts: characters, words, truncation and line
# swaps.  The digest covers each outcome of parse + typecheck, so any
# change in an accepted model or in a diagnostic's class, message, line
# or column shows.
_EDIT_CHARS = "\n\r\t %\".:;,()[]{}-+09eExé?@"
_EDIT_WORDS = ["var", "bool", "int", "float", "set", "array", "of", "constraint",
               "solve", "satisfy", "minimize", "maximize", "true", "false",
               "v1", "v2", "zz", "::", "..", "1.5", "[1]", "{1, 2}", "2..3",
               "int_le", "bool_not", "predicate", ";", "=", "(", ")"]
MUTATION_DIGEST = "283b60d66025d23f9b9a3e479e7b19d255894c8c05bfd9384f1b41ed4d5ed940"


def _mutated(rng, text):
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(5)
        i = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            words = text.split(" ")
            words[rng.randrange(len(words))] = rng.choice(_EDIT_WORDS)
            text = " ".join(words)
        elif op == 3:
            text = text[:i]
        else:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


def test_mutated_corpus_outcomes_are_pinned():
    rng = random.Random(20240)
    digest = hashlib.sha256()
    for _ in range(5000):
        text = _mutated(rng, rng.choice(CORPUS_TEXTS))
        digest.update(repr(_diagnosis(text)).encode())
    assert digest.hexdigest() == MUTATION_DIGEST


# A long model that uses every item kind: parameters and parameter arrays,
# alias arrays, annotations with nested parentheses and strings, comments,
# bool and assigned variables, set braces and ranges, and an objective.
# Its checked text and the outcomes of seeded edits are pinned, so a
# change to the parser or the checker that moves any accepted model or
# any diagnostic on a long input shows.
def _long_model(rng, n_vars=120, n_cons=240):
    lines = ["% a long model, every item kind", "int: n3 = 5;", "bool: flag = true;",
             "array [1..3] of int: c = [1, -2, 3];",
             "array[1..2] of bool: bs = [true, false];", "int: neg = -4;"]
    anns = ["", " :: output_var", " :: var_is_introduced :: is_defined_var",
            ' :: mzn_path("a(b) ; [c]")', " :: ann(f(1, g(2, (3))), \"s (x)\")"]
    xs, bools = [], []
    for j in range(n_vars):
        if j % 5 == 4:
            name = f"b{j}"
            value = f" = {rng.choice(['true', 'false'])}" if j % 15 == 4 else ""
            lines.append(f"var bool: {name}{rng.choice(anns)}{value};")
            bools.append(name)
            continue
        lo = rng.randint(-4, 2)
        hi = lo + rng.randint(0, 6)
        name = f"x{j}"
        value = f" = {rng.randint(lo, hi)}" if j % 11 == 7 else ""
        sep = rng.choice([" ", "\n  ", "\t"])
        lines.append(f"var {lo}..{hi}:{sep}{name}{rng.choice(anns)}{value};")
        xs.append(name)
        if rng.random() < 0.1:
            lines.append(f"% after {name}: (not a token) ; [x]")
    for k in range(0, len(xs) - 2, 30):
        lines.append(f"array [1..3] of var int: xs{k} :: output_array([1..3]) = "
                     f"[{xs[k]}, {xs[k + 1]}, {xs[k + 2]}];")
        lines.append(f"array [1..2] of var bool: bb{k} = [{bools[k // 10]}, "
                     f"{bools[k // 10 + 1]}];")
    aliases = [k for k in range(0, len(xs) - 2, 30)]
    for i in range(n_cons):
        a, b, r = rng.sample(xs, 3)
        p, q = rng.sample(bools, 2)
        k = rng.choice(aliases)
        item = rng.choice([
            f"int_lin_eq(c, [{a}, {b}, {r}], n3)",
            f"int_lin_le(c, xs{k}, 7)",
            f"int_lin_ne_reif([2, -1], [{a}, {b}], neg, {p})",
            f"int_times({a}, {b}, {r})",
            f"int_plus({a}, n3, {r})",
            f"int_le_reif({a}, {b}, {p})",
            f"bool_clause([{p}, flag], [{q}])",
            f"array_bool_and(bb{k}, {p})",
            f"array_int_element({a}, c, {b})",
            f"array_var_int_element({a}, [{b}, 3, {r}], {r})",
            f"set_in({a}, {{1, 3, 5, -2}})",
            f"set_in_reif({a}, -2..4, {p})",
            f"int_eq({a}, neg)",
            f"bool_eq({p}, true)",
            f"array_int_maximum({a}, [{b}, 3, {r}])",
            f"int_abs({a}, {b})",
            f"bool2int({p}, {a})",
            f"bool_xor({p}, {q})",
        ])
        ann = rng.choice(["", " :: domain", f" :: defines_var({r})",
                          ' :: ann("x (y", h((1), [2..3]))'])
        sep = rng.choice([" ", "\n    ", ""])
        lines.append(f"constraint{' ' if sep == '' else sep}{item}{ann};")
        if i % 37 == 0:
            lines.append(f"% constraint {i} done")
    lines.append(f"solve :: int_search(xs0, input_order, indomain_min, complete) "
                 f"minimize {xs[0]};")
    return "\n".join(lines) + "\n"


LONG_MODEL_DIGEST = "4159a380b22385c9782a13036c971943325aa49709ced2d0f1fd9441cd1c85b4"
LONG_MUTATION_DIGEST = "b2506282a4770a811da67093e898111f4d695f2150570c89a2ea5cbb488e88d9"


def test_long_model_outcomes_are_pinned():
    text = _long_model(random.Random(2024))
    assert text.count("\n") > 400
    printed = _diagnosis(text)
    assert type(printed) is str  # the long model checks
    assert hashlib.sha256(printed.encode()).hexdigest() == LONG_MODEL_DIGEST
    rng = random.Random(4202)
    digest = hashlib.sha256()
    for _ in range(300):
        digest.update(repr(_diagnosis(_mutated(rng, text))).encode())
    assert digest.hexdigest() == LONG_MUTATION_DIGEST
