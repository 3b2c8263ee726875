"""Problem representation: naming, one-hot registry, validation, serialization."""

import hashlib
import json
import pickle
import random

import pytest

from fzn2qip import frontend, model, oracle, rewrite
from fzn2qip.errors import (
    INT_LIMIT,
    CompileUnsat,
    EmptyDomain,
    SchemaError,
)
from fzn2qip.frontend import SIGNATURES, parse_model, typecheck
from fzn2qip.fuzz import generate
from fzn2qip.model import (
    BINARY,
    Domain,
    LinExpr,
    OneHotGroup,
    ProductConstraint,
    QipProblem,
    QipVar,
    deserialize,
)
from fzn2qip.oracle import check_equivalence
from fzn2qip.rewrite import RewriteOptions, compile_model
from test_oracle import SHARED_POOLS, _shared_model


def test_domain_basics():
    d = Domain(-2, 3)
    assert len(d) == 6
    assert 0 in d and -3 not in d
    assert d.intersect(Domain(1, 9)) == Domain(1, 3)
    with pytest.raises(EmptyDomain):
        Domain(2, 1)
    with pytest.raises(EmptyDomain):
        Domain(0, 4).intersect(Domain(5, 9))


def test_linexpr_canonical():
    e = LinExpr()
    e.add_term("x", 2).add_term("x", -2).add_term("y", 1).add_const(3)
    assert "x" not in e.terms  # zero coefficients are dropped
    assert e.evaluate({"y": 4}) == 7
    assert LinExpr({"y": 1}, 3) == e


def test_fresh_naming_is_deterministic():
    p = QipProblem()
    a = p.fresh_var("int_abs", "b", BINARY, "int_abs#0")
    b = p.fresh_var("int_abs", "b", BINARY, "int_abs#3")
    c = p.fresh_var("int_abs", "z", Domain(-2, 2), "int_abs#3")
    assert (a.name, b.name, c.name) == (
        "__int_abs_1_b", "__int_abs_2_b", "__int_abs_1_z"
    )
    assert not a.is_model and (a.origin, b.origin) == ("int_abs#0", "int_abs#3")


def test_onehot_create_cache_extend():
    p = QipProblem()
    p.add_var(QipVar("i", Domain(1, 3)))
    g1 = p.onehot_get_or_create("i", {1, 2, 3})
    assert [v for _, v in g1.bits] == [1, 2, 3]
    n_eq = len(p.equalities)
    # subset request: cache hit, nothing new
    g2 = p.onehot_get_or_create("i", {2})
    assert g2 is g1 and len(p.equalities) == n_eq
    assert len(p.onehot_groups) == 1


def test_onehot_group_is_fixed_when_made():
    p = QipProblem()
    p.add_var(QipVar("i", Domain(1, 4)))
    g = p.onehot_get_or_create("i", {1, 2})
    rows = [LinExpr(dict(e.terms), e.constant) for e in p.equalities]
    # a later request for a value the group lacks adds no bit and no row
    assert p.onehot_get_or_create("i", {1, 3}) is g
    assert [v for _, v in g.bits] == [1, 2]
    assert list(p.vars) == ["i", *(b for b, _ in g.bits)]
    assert p.equalities == rows and len(rows) == 2
    assert p.equality_sources == ["onehot:i", "onehot:i"]


def test_restrict_keeps_declared_domain():
    p = QipProblem()
    p.add_var(QipVar("x", Domain(-5, 5)))
    p.restrict_domain("x", Domain(0, 3))
    assert p.vars["x"].domain == Domain(0, 3)
    assert p.vars["x"].declared == Domain(-5, 5)


def test_validate_catches_product_order():
    p = QipProblem()
    p.add_var(QipVar("r", Domain(0, 4)))
    p.add_var(QipVar("a", Domain(0, 2)))
    p.add_var(QipVar("b", Domain(0, 2)))
    p.add_product("r", "a", "b")  # result declared before its operands
    assert any("product-order" in v for v in p.validate())


def test_validate_catches_undeclared_reference():
    p = QipProblem()
    p.add_var(QipVar("x", Domain(0, 1)))
    p.add_equality(LinExpr({"ghost": 1}))
    assert p.validate()


def test_serialize_round_trip_and_stability():
    p = QipProblem()
    p.add_var(QipVar("x", Domain(-2, 2)))
    p.add_var(QipVar("i", Domain(1, 2)))
    y = p.fresh_var("int_times", "p", Domain(-4, 4), "int_times#0")
    p.add_product(y.name, "x", "x", "int_times#0")
    p.add_equality(LinExpr({"x": 1, y.name: -1}, 1), "int_times#0")
    p.add_inequality(LinExpr({"x": 1}, -1), "int_le#1")
    p.onehot_get_or_create("i", {1, 2})
    text = p.serialize()
    assert text == p.serialize()  # stable
    q = deserialize(text)
    assert q.serialize() == text
    assert list(q.vars) == list(p.vars)
    assert q.equalities == p.equalities
    assert q.inequalities == p.inequalities


def test_deserialize_rejects_garbage():
    with pytest.raises(SchemaError):
        deserialize("not json")
    with pytest.raises(SchemaError):
        deserialize("{}")


def _undeclared_equality() -> QipProblem:
    p = QipProblem()
    p.add_var(QipVar("x", Domain(0, 1)))
    p.add_equality(LinExpr({"x": 1, "ghost": 1}))
    return p


def _result_before_operand() -> QipProblem:
    p = QipProblem()
    p.add_var(QipVar("a", Domain(0, 2)))
    p.add_var(QipVar("r", Domain(0, 4)))
    p.add_var(QipVar("b", Domain(0, 2)))
    p.add_product("r", "a", "b")
    return p


@pytest.mark.parametrize("build, message", [
    (_undeclared_equality, "equality[0]: undeclared variable 'ghost'"),
    (_result_before_operand, "product[0]: product-order (r = a*b)"),
])
def test_deserialize_rejects_invalid_problem(build, message):
    with pytest.raises(SchemaError) as exc:
        deserialize(build().serialize())
    assert exc.value.message == f"invalid problem: {message}"


def _valid_document() -> dict:
    """x in 1..3 with its one-hot group, y in 0..2 and one product x*y."""
    p = QipProblem()
    p.add_var(QipVar("x", Domain(1, 3)))
    p.add_var(QipVar("y", Domain(0, 2)))
    p.onehot_get_or_create("x", {1, 2, 3})
    r = p.fresh_var("int_times", "p", Domain(0, 6), "int_times#0")
    p.add_product(r.name, "x", "y", "int_times#0")
    return json.loads(p.serialize())


def _edit(path, value):
    """The document with ``doc[path[0]][path[1]]...`` set to value, or
    deleted for ``...``."""
    def apply(doc):
        *parents, key = path
        node = doc
        for k in parents:
            node = node[k]
        if value is ...:
            del node[key]
        else:
            node[key] = value
        return doc
    return apply


def _repeated_term(doc):
    doc["equalities"][1]["terms"].append({"var": "x", "coef": 2})  # x is listed at -1
    return doc


class _Repeated(dict):
    """A record that json.dumps writes with ``key`` once more at the end."""

    def __init__(self, record: dict, key: str, value):
        super().__init__(record)
        self.again = (key, value)

    def items(self):
        return [*super().items(), self.again]


def _repeated_lo(doc):
    doc["variables"][0] = _Repeated(doc["variables"][0], "lo", 2)  # x: "lo": 1, "lo": 2
    return doc


def _duplicate_name(doc):
    doc["variables"][1]["name"] = "x"  # variable[0] is x
    return doc


@pytest.mark.parametrize("edit, message", [
    (_edit(("equalities", 0, "terms", 0, "coef"), 0),
     "invalid problem: equality[0]: non-canonical expr (zero coefficient)"),
    (_edit(("products", 0, "left"), "ghost"),
     "invalid problem: product[0]: undeclared variable 'ghost'"),
    (lambda doc: [doc], "top level is not an object"),
    (_edit(("variables", 1), ["y", 0, 2]), "variable[1] is not an object"),
    (_edit(("variables", 1), 7), "variable[1] is not an object"),
    (_edit(("objective",), []), "objective is not an object"),
    (_edit(("meta",), []), "meta is not an object"),
    (_edit(("equalities", 0, "terms", 0, "coef"), ...),
     "equality[0].terms[0]: missing key 'coef'"),
    (_edit(("equalities", 0, "terms", 0, "coef"), 2**63),
     f"equality[0].terms[0].coef: integer {2**63} exceeds the supported range"),
    (_edit(("equalities", 0, "constant"), -2**63),
     f"equality[0].constant: integer {-2**63} exceeds the supported range"),
    (_edit(("variables", 1, "hi"), 2**63),
     f"variable[1].hi: integer {2**63} exceeds the supported range"),
    (_repeated_term, "equality[1].terms[4]: variable 'x' listed twice"),
    (_edit(("meta", "product_sources"), ["", "", ""]),
     "invalid problem: meta.product_sources: length 3, expected 1"),
    (_edit(("meta", "product_sources"), []),
     "invalid problem: meta.product_sources: length 0, expected 1"),
    (_edit(("meta", "product_sources"), ...), "meta: missing key 'product_sources'"),
    (_edit(("variables", 1, "hi"), 3.9), "variable[1].hi is not an integer"),
    (_edit(("equalities", 0, "terms", 0, "coef"), 1.5),
     "equality[0].terms[0].coef is not an integer"),
    (_edit(("variables", 0, "lo"), "3"), "variable[0].lo is not an integer"),
    (_edit(("variables", 0, "lo"), True), "variable[0].lo is not an integer"),
    (_edit(("objective", "negated"), "false"), "objective.negated is not a boolean"),
    (_edit(("variables", 2, "origin"), {"builtin": "onehot", "ordinal": 1, "role": "x_2"}),
     "variable[2].origin is not a string"),
    (_edit(("meta", "equality_sources", 0), 0), "meta.equality_sources[0] is not a string"),
    (_edit(("objective", "sense"), "max"), "objective: unknown key 'sense'"),
    (_edit(("variables", 0, "typo"), 1), "variable[0]: unknown key 'typo'"),
    (_edit(("extra",), []), "top level: unknown key 'extra'"),
    (_repeated_lo, "variable[0]: duplicate key 'lo'"),
    (_edit(("equalities", 0, "terms", 0), 7), "equality[0].terms[0] is not an object"),
    (_edit(("meta",), ...), "top level: missing key 'meta'"),
    (_edit(("variables", 0, "lo"), 4), "variable[0]: empty domain [4, 3]"),
    (_duplicate_name, "variable[1]: duplicate variable 'x'"),
    (_edit(("products",), {}), "products is not an array"),
], ids=["zero-coefficient", "undeclared-product-operand", "non-object",
        "array-variable", "number-variable", "array-objective", "array-meta",
        "malformed-expression", "coefficient-range", "constant-range", "bound-range",
        "repeated-term", "extra-sources", "short-sources", "missing-sources",
        "fractional-bound", "fractional-coefficient", "string-bound", "bool-bound",
        "string-negated", "origin-record", "number-source", "objective-sense",
        "unknown-variable-key", "unknown-top-level-key", "repeated-key",
        "number-term", "missing-top-level-key", "empty-domain", "duplicate-name",
        "object-products"])
def test_deserialize_rejects_each_violation(edit, message):
    doc = _valid_document()
    deserialize(json.dumps(doc))  # the unedited document is valid
    with pytest.raises(SchemaError) as exc:
        deserialize(json.dumps(edit(doc)))
    assert exc.value.message == message


def _repeated_coef(doc):
    terms = doc["equalities"][0]["terms"]
    terms[0] = _Repeated(terms[0], "coef", terms[0]["coef"])  # the same value twice
    return doc


def _repeated_var(doc):
    terms = doc["equalities"][0]["terms"]
    terms[0] = _Repeated({"var": terms[0]["var"]}, "var", "y")  # no "coef"
    return doc


# A repeated key that leaves its object one key short fails the schema
# before the keys are counted; the others pass it.
@pytest.mark.parametrize("edit, colon, message", [
    (lambda doc: _Repeated(doc, "meta", doc["meta"]), ": ",
     "top level: duplicate key 'meta'"),
    (_repeated_coef, ": ", "equality[0].terms[0]: duplicate key 'coef'"),
    (_repeated_var, ": ", "equality[0].terms[0]: duplicate key 'var'"),
    (_repeated_lo, " : ", "variable[0]: duplicate key 'lo'"),
], ids=["top-level", "nested-term", "nested-short", "spaced-colon"])
def test_deserialize_rejects_a_key_written_twice(edit, colon, message):
    text = json.dumps(edit(_valid_document()), separators=(", ", colon))
    with pytest.raises(SchemaError) as exc:
        deserialize(text)
    assert exc.value.message == message


def test_deserialize_reads_the_pairs_only_when_a_key_may_repeat(monkeypatch):
    """A text with a colon per key loads without the duplicate-key hook,
    also with spaces before each colon; a colon in a string sends it
    through the hook, and it still loads."""
    calls = []
    hook = model._object
    monkeypatch.setattr(model, "_object", lambda pairs: calls.append(pairs) or hook(pairs))
    p = QipProblem()
    p.add_var(QipVar("x", Domain(1, 3)))
    p.add_var(QipVar("y", Domain(0, 2)))
    p.add_inequality(LinExpr({"x": 1, "y": -1}), "int_le#0")
    doc = json.loads(p.serialize())
    for colon in (": ", " : ", "\n :"):
        deserialize(json.dumps(doc, separators=(", ", colon)))
    assert calls == []
    doc["meta"]["inequality_sources"] = ['int_le#0 ":"']
    back = deserialize(json.dumps(doc))
    assert calls
    assert back.inequality_sources == ['int_le#0 ":"']


# ----------------------------------------------------------------------
# records: value equality, unhashable, readable repr

RECORDS = [  # (make, other): make() twice gives equal records, other a third
    (lambda: Domain(0, 1), lambda: Domain(0, 2)),
    (lambda: QipVar("x", Domain(0, 3)), lambda: QipVar("x", Domain(0, 3), "int_eq#0")),
    (lambda: ProductConstraint("r", "a", "b"), lambda: ProductConstraint("r", "b", "a")),
    (lambda: OneHotGroup("x", [("b1", 1)]), lambda: OneHotGroup("x")),
    (lambda: frontend.Lit(3), lambda: frontend.Lit(4)),
    (lambda: frontend.BoolLit(True), lambda: frontend.BoolLit(False)),
    (lambda: frontend.Ref("x"), lambda: frontend.Ref("y")),
    (lambda: frontend.Arr((frontend.Lit(1), frontend.Ref("x"))),
     lambda: frontend.Arr((frontend.Lit(1), frontend.Ref("y")))),
    (lambda: frontend.SetVal.of([1, 2, 5]), lambda: frontend.SetVal.of([1, 2])),
    (lambda: frontend.VarDecl("x", "int", Domain(0, 3)),
     lambda: frontend.VarDecl("x", "int", Domain(0, 3), True)),
    (lambda: frontend.ConstraintItem("int_le", (frontend.Ref("x"), frontend.Lit(1))),
     lambda: frontend.ConstraintItem("int_lt", (frontend.Ref("x"), frontend.Lit(1)))),
    (lambda: frontend.SolveItem("minimize", "x"), lambda: frontend.SolveItem("maximize", "x")),
    (lambda: frontend.FzModel(vars={"x": frontend.VarDecl("x", "bool", BINARY)}),
     lambda: frontend.FzModel()),
    (lambda: frontend.Token("x", 1, 5), lambda: frontend.Token("x", 2, 5)),
    (lambda: RewriteOptions(), lambda: RewriteOptions(verbatim_div=True)),
    (lambda: oracle._Step("product", 0, 2, (0, 1)), lambda: oracle._Step("product", 1, 2, (0, 1))),
    (lambda: oracle._Unit("x", [0], 3), lambda: oracle._Unit("x", [0], 3, lo=1)),
    (lambda: oracle.QipEnumeration(["x"], ["x"], {(0,)}, ["x"], 2),
     lambda: oracle.QipEnumeration(["x"], ["x"], {(1,)}, ["x"], 2)),
    (lambda: oracle.EquivalenceResult(True, 2, 2),
     lambda: oracle.EquivalenceResult(False, 2, 3, "qip-only", {"x": 1})),
    (lambda: oracle.OptimumResult("optimal", 1, "optimal", 1),
     lambda: oracle.OptimumResult("optimal", 1, "optimal", 2)),
]
SLOTTED = {"Domain", "QipVar", "ProductConstraint", "Lit", "BoolLit", "Ref", "Arr", "SetVal",
           "VarDecl", "ConstraintItem", "SolveItem", "Token", "_Step", "_Unit"}


@pytest.mark.parametrize("make, other", RECORDS,
                         ids=[type(make()).__name__ for make, _ in RECORDS])
def test_record_value_equality(make, other):
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a != frontend.Ref("x") or type(a) is frontend.Ref
    with pytest.raises(TypeError):
        hash(a)
    assert hasattr(a, "__dict__") is (type(a).__name__ not in SLOTTED)


def test_records_compare_no_positions_nor_source():
    args = (frontend.Ref("x"), frontend.Lit(1))
    assert frontend.ConstraintItem("int_le", args, 3) == frontend.ConstraintItem("int_le", args, 9)
    assert frontend.SolveItem("minimize", "x", 3) == frontend.SolveItem("minimize", "x", 8)
    assert frontend.FzModel(source="a") == frontend.FzModel(source="b")
    assert frontend.Lit(1) != frontend.Ref("x") and frontend.Lit(1) != 1


def test_record_reprs_name_their_fields():
    assert repr(frontend.Ref("x")) == "Ref(name='x')"
    assert repr(Domain(0, 1)) == "Domain(lo=0, hi=1)"
    assert tuple(frontend.Token("x", 1, 5)) == ("x", 1, 5)


@pytest.mark.parametrize("flag", ["verbatim_div", "corrupt_div_big_m", "corrupt_bool_and"])
def test_rewrite_options_round_trip_through_pickle(flag):
    options = RewriteOptions(**{flag: True})
    back = pickle.loads(pickle.dumps(options))
    assert back == options != RewriteOptions()
    assert getattr(back, flag) is True

# ----------------------------------------------------------------------
# serialized text: canonical json.dumps(indent=1) output, byte for byte

# SHA-256 of the concatenated texts of the acceptance corpus (fuzz seeds
# 0..49 of every builtin, compile-UNSAT instances skipped), each written
# by the reference encoder as json.dumps(json.loads(text), indent=1) + "\n".
CORPUS_DIGESTS = {
    "default": "adda446eb8cdd5bfd3425a9cadd7fcb45fa7ab8849710186b6071a636a974c98",
    "verbatim_div":
        "e4a9bf1f488457928fd104ab5dd947c1a032aa6f07642c8bec4e44aa0fd3152c",
}
# SHA-256 of the texts of seeded models whose 2-4 set_in, set_in_reif and
# array_int_element constraints share x and i, so that a later constraint
# meets a domain that an earlier one narrowed; a model that compilation
# proves UNSAT contributes its message instead of a text.
EXTENSION_DIGEST = "88b71f45cbffe14286a1df91ca6e1b676e2ab478e397a9b2155d682c81f1aa68"

CORPUS_OPTIONS = {
    "default": RewriteOptions(),
    "verbatim_div": RewriteOptions(verbatim_div=True),
}


def _assert_canonical(problem: QipProblem) -> str:
    text = problem.serialize()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    assert deserialize(text).serialize() == text
    return text


def _assert_every_source_ships(model, problem: QipProblem) -> None:
    """Every source constraint tags a row of the text as ``builtin#idx``,
    also one whose rows the bounds all decide."""
    back = deserialize(problem.serialize())
    shipped = set(back.equality_sources + back.inequality_sources
                  + back.product_sources)
    for idx, item in enumerate(model.constraints):
        assert f"{item.name}#{idx}" in shipped


@pytest.fixture(scope="module", params=sorted(CORPUS_OPTIONS))
def corpus_problems(request):
    """The options' name and each (model, problem) pair of the corpus."""
    options = CORPUS_OPTIONS[request.param]
    pairs = []
    for builtin in sorted(SIGNATURES):
        for seed in range(50):
            model = typecheck(parse_model(generate(builtin, seed)))
            try:
                pairs.append((model, compile_model(model, options)))
            except CompileUnsat:
                continue
    return request.param, pairs


def test_serialize_corpus_digest(corpus_problems):
    name, pairs = corpus_problems
    joined = "".join(p.serialize() for _, p in pairs)
    assert hashlib.sha256(joined.encode()).hexdigest() == CORPUS_DIGESTS[name]


def test_serialize_corpus_is_canonical_json(corpus_problems):
    _, pairs = corpus_problems
    for model, problem in pairs:
        _assert_canonical(problem)
        _assert_every_source_ships(model, problem)


def _extension_model(seed: int) -> str:
    rng = random.Random(f"extend:{seed}")
    lo = {"x": rng.randint(-4, 2), "i": rng.randint(1, 2)}
    hi = {"x": rng.randint(lo["x"], 4), "i": rng.randint(lo["i"], 4)}
    decls = [f"var {lo[v]}..{hi[v]}: {v};" for v in "xi"]
    constraints = []
    for k in range(rng.randint(2, 4)):
        v = rng.choice("xi")
        near = range(lo[v] - 1, hi[v] + 2)
        values = ", ".join(map(str, sorted(rng.sample(near, rng.randint(1, 3)))))
        # set_in twice as often: it restricts the variable to the hull of
        # the set's runs in its domain, which a later constraint meets
        builtin = rng.choice(["set_in", "set_in", "set_in_reif", "array_int_element"])
        if builtin == "set_in":
            constraints.append(f"constraint set_in({v}, {{{values}}});")
        elif builtin == "set_in_reif":
            decls.append(f"var bool: r{k};")
            constraints.append(f"constraint set_in_reif({v}, {{{values}}}, r{k});")
        else:
            entries = ", ".join(str(rng.randint(lo["x"] - 1, hi["x"] + 1))
                                for _ in range(4))
            constraints.append(f"constraint array_int_element(i, [{entries}], x);")
    return "\n".join(decls + constraints + ["solve satisfy;", ""])


def test_serialize_extension_digest():
    digest = hashlib.sha256()
    for seed in range(400):
        model = typecheck(parse_model(_extension_model(seed)))
        try:
            digest.update(compile_model(model).serialize().encode())
        except CompileUnsat as exc:
            digest.update(exc.message.encode())
    assert digest.hexdigest() == EXTENSION_DIGEST


def test_shared_groups_check_equal():
    for seed in range(400):
        model = typecheck(parse_model(_extension_model(seed)))
        try:
            problem = compile_model(model)
        except CompileUnsat:
            problem = None
        else:
            _assert_every_source_ships(model, problem)
        # with no problem, Equal means the source has no solution either
        result = check_equivalence(model, problem)
        assert result.equal, f"seed {seed}: {result.describe()}"


def _groups_read_from_rows(problem: QipProblem) -> dict[str, list[tuple[str, int]]]:
    """Each variable's group as the text states it: the terms of its first
    ``onehot:<var>`` row are its bits, and a bit's value is its coefficient
    in the second, ``-var + sum(value * bit) = 0`` (absent: 0)."""
    rows: dict[str, list] = {}
    for row, source in zip(problem.equalities, problem.equality_sources):
        if source.startswith("onehot:"):
            rows.setdefault(source.removeprefix("onehot:"), []).append(row)
    groups = {}
    for var, (sums, value) in rows.items():
        assert sums.constant == -1 and set(sums.terms.values()) == {1}
        assert value.terms.get(var) == -1 and value.constant == 0
        groups[var] = [(bit, value.terms.get(bit, 0)) for bit in sorted(sums.terms)]
    return groups


def test_a_group_is_stated_by_its_rows_and_origins():
    problems = []
    for seed in range(400):
        try:
            problems.append(compile_model(typecheck(parse_model(_extension_model(seed)))))
        except CompileUnsat:
            continue
    assert sum(bool(p.onehot_groups) for p in problems) > 50
    for problem in problems:
        text = problem.serialize()
        assert "onehot_groups" not in json.loads(text)
        back = deserialize(text)
        groups = _groups_read_from_rows(back)
        assert groups == {g.int_var: sorted(g.bits) for g in problem.onehot_groups}
        for var, bits in groups.items():
            assert {name for name, v in back.vars.items()
                    if v.origin == f"onehot:{var}"} == {bit for bit, _ in bits}


def test_no_group_row_holds_by_bounds(corpus_problems):
    """An element makes a group only when two reachable entries differ,
    so a group has at least 2 bits, and neither ``sum(bits) - 1 = 0`` nor
    ``-var + sum(value * bit) = 0`` holds on every point: the pass that
    leaves out decided rows keeps both rows of every group."""
    problems = [p for _, p in corpus_problems[1]]
    for seed in range(400):
        try:
            problems.append(compile_model(typecheck(parse_model(_extension_model(seed)))))
        except CompileUnsat:
            continue
    groups = 0
    for problem in problems:
        for group in problem.onehot_groups:
            assert len(group.bits) >= 2
            rows = [row for row, source in zip(problem.equalities,
                                                problem.equality_sources)
                    if source == f"onehot:{group.int_var}"]
            assert len(rows) == 2
            assert not any(rewrite._holds(row, True, problem.vars) for row in rows)
            groups += 1
    assert groups > 80  # 28 in the corpus, 76 in the extension models


def _assert_auxiliaries_stay_local(problem: QipProblem) -> None:
    """Premise (a) of per-constraint translation validation, read from the
    text: each auxiliary's origin tags a row, and every row or product
    that reads an auxiliary made by a source constraint has that
    constraint as its source; only group bits are shared."""
    back = deserialize(problem.serialize())
    tags = set(back.equality_sources + back.inequality_sources
               + back.product_sources)
    origins = {name: v.origin for name, v in back.vars.items() if not v.is_model}
    assert set(origins.values()) <= tags
    readers = [*zip((e.terms for e in back.equalities), back.equality_sources),
               *zip((e.terms for e in back.inequalities), back.inequality_sources),
               *zip(((p.result, p.left, p.right) for p in back.products),
                    back.product_sources)]
    for names, source in readers:
        for name in names:
            origin = origins.get(name)
            if origin is not None and not origin.startswith("onehot:"):
                assert origin == source, f"{source} reads {name} of {origin}"


def test_corpus_auxiliaries_are_read_by_their_source_only(corpus_problems):
    for _, problem in corpus_problems[1]:
        _assert_auxiliaries_stay_local(problem)


def test_shared_auxiliaries_are_read_by_their_source_only():
    sources = [_extension_model(seed) for seed in range(400)]
    sources += [_shared_model(pool, seed) for pool in sorted(SHARED_POOLS)
                for seed in range(300)]
    compiled = 0
    for source in sources:
        try:
            problem = compile_model(typecheck(parse_model(source)))
        except CompileUnsat:
            continue
        _assert_auxiliaries_stay_local(problem)
        compiled += 1
    assert compiled > 900


def test_serialize_empty_lists():
    p = QipProblem()
    text = _assert_canonical(p)
    assert '"variables": [],' in text and '"product_sources": []' in text
    p.add_var(QipVar("x", Domain(0, 1)))
    text = _assert_canonical(p)
    assert '"equalities": [],' in text and '"terms": [],' in text


def test_serialize_negated_min_objective_and_extreme_values():
    p = QipProblem()
    p.add_var(QipVar("x", Domain(-INT_LIMIT, INT_LIMIT)))
    p.add_var(QipVar("y", Domain(-3, 3)))
    p.restrict_domain("y", Domain(-3, -1))
    p.objective_negated = True
    p.objective = LinExpr({"x": -1, "y": -INT_LIMIT}, INT_LIMIT)
    p.add_equality(LinExpr({"x": -2, "y": 1}, -INT_LIMIT), "int_lin_eq#0")
    p.add_inequality(LinExpr({"y": -1}, INT_LIMIT), "int_le#1")
    text = _assert_canonical(p)
    doc = json.loads(text)
    assert doc["objective"]["negated"] is True and "sense" not in doc["objective"]
    assert doc["variables"][0]["lo"] == -INT_LIMIT
    assert doc["equalities"][0]["terms"][0] == {"var": "x", "coef": -2}


def test_serialize_escapes_deserialized_names():
    p = QipProblem()
    p.add_var(QipVar("x", Domain(1, 2)))
    p.onehot_get_or_create("x", {1, 2})
    aux = p.fresh_var("int_times", "p", Domain(0, 4), "int_times#0")
    p.add_product(aux.name, "x", "x", "int_times#0")
    doc = json.loads(p.serialize())
    odd = 'q"\u00e9\\\t\u2603'
    doc["variables"][0]["name"] = odd
    doc["variables"][2]["origin"] = odd
    doc["products"][0]["left"] = odd
    doc["products"][0]["right"] = odd
    for e in doc["equalities"]:
        for t in e["terms"]:
            if t["var"] == "x":
                t["var"] = odd
    doc["meta"]["product_sources"] = [odd]
    text = json.dumps(doc, indent=1) + "\n"
    q = deserialize(text)
    assert odd in q.vars
    assert q.serialize() == text
    assert _assert_canonical(q) == text
