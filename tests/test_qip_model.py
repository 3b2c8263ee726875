"""Problem representation: naming, one-hot registry, validation, serialization."""

import hashlib
import json
import random

import pytest

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


def _second_group(doc):
    doc["onehot_groups"].append(doc["onehot_groups"][0])
    return doc


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


BITS = ("onehot_groups", 0, "bits")


@pytest.mark.parametrize("edit, message", [
    (_edit(("equalities", 0, "terms", 0, "coef"), 0),
     "invalid problem: equality[0]: non-canonical expr (zero coefficient)"),
    (_edit(("products", 0, "left"), "ghost"),
     "invalid problem: product[0]: undeclared variable 'ghost'"),
    (_second_group, "invalid problem: one-hot: variable 'x' owns two groups"),
    (_edit(("onehot_groups", 0, "int_var"), "ghost"),
     "invalid problem: one-hot: undeclared variable 'ghost'"),
    (_edit((*BITS, 0, "var"), "ghost"),
     "invalid problem: one-hot(x): undeclared bit 'ghost'"),
    (_edit((*BITS, 0, "var"), "y"), "invalid problem: one-hot(x): bit 'y' not binary"),
    (_edit((*BITS, 1, "value"), 1), "invalid problem: one-hot(x): duplicate value 1"),
    (_edit((*BITS, 0, "value"), 9),
     "invalid problem: one-hot(x): value 9 outside declared domain"),
    (lambda doc: [doc], "top level must be an object"),
    (_edit(("equalities", 0, "terms", 0, "coef"), ...), "malformed equality: 'coef'"),
    (_edit(("equalities", 0, "terms", 0, "coef"), 2**63),
     f"malformed equality: integer {2**63} exceeds the supported range"),
    (_edit(("equalities", 0, "constant"), -2**63),
     f"malformed equality: integer {-2**63} exceeds the supported range"),
    (_edit(("variables", 1, "hi"), 2**63),
     f"malformed document: integer {2**63} exceeds the supported range"),
    (_repeated_term, "equality[1]: variable 'x' listed twice"),
    (_edit(("meta", "product_sources"), ["", "", ""]),
     "invalid problem: meta.product_sources: length 3, expected 1"),
    (_edit(("meta", "product_sources"), []),
     "invalid problem: meta.product_sources: length 0, expected 1"),
    (_edit(("meta", "product_sources"), ...), "malformed document: 'product_sources'"),
    (_edit(("variables", 1, "hi"), 3.9), "malformed document: 'hi' is not an integer"),
    (_edit(("equalities", 0, "terms", 0, "coef"), 1.5),
     "malformed equality: 'coef' is not an integer"),
    (_edit(("variables", 0, "lo"), "3"), "malformed document: 'lo' is not an integer"),
    (_edit(("variables", 0, "lo"), True), "malformed document: 'lo' is not an integer"),
    (_edit(("objective", "negated"), "false"),
     "malformed document: 'negated' is not a boolean"),
    (_edit(("variables", 2, "origin"), {"builtin": "onehot", "ordinal": 1, "role": "x_2"}),
     "malformed document: 'origin' is not a string"),
    (_edit(("meta", "equality_sources", 0), 0),
     "malformed document: 'equality_sources' holds a value that is not a string"),
    (_edit(("objective", "sense"), "max"), "malformed objective: unknown key 'sense'"),
    (_edit(("variables", 0, "typo"), 1), "malformed document: unknown key 'typo'"),
    (_edit(("extra",), []), "unknown top-level key 'extra'"),
    (_repeated_lo, "duplicate key 'lo'"),
], ids=["zero-coefficient", "undeclared-product-operand", "two-groups",
        "undeclared-group-variable", "undeclared-bit", "non-binary-bit",
        "duplicate-value", "value-outside-domain", "non-object",
        "malformed-expression", "coefficient-range", "constant-range", "bound-range",
        "repeated-term", "extra-sources", "short-sources", "missing-sources",
        "fractional-bound", "fractional-coefficient", "string-bound", "bool-bound",
        "string-negated", "origin-record", "number-source", "objective-sense",
        "unknown-variable-key", "unknown-top-level-key", "repeated-key"])
def test_deserialize_rejects_each_violation(edit, message):
    doc = _valid_document()
    deserialize(json.dumps(doc))  # the unedited document is valid
    with pytest.raises(SchemaError) as exc:
        deserialize(json.dumps(edit(doc)))
    assert exc.value.message == message

# ----------------------------------------------------------------------
# serialized text: canonical json.dumps(indent=1) output, byte for byte

# SHA-256 of the concatenated texts of the acceptance corpus (fuzz seeds
# 0..49 of every builtin, compile-UNSAT instances skipped), each written
# by the reference encoder as json.dumps(json.loads(text), indent=1) + "\n".
CORPUS_DIGESTS = {
    "default": "7272f165174e2c61dc27ea6032f0529e26c3c139763b3bd52a52dfe1eea27f38",
    "verbatim_div":
        "8c5018fb10810ee4b199c0bfa6410c1f0c0749d54bad7a881bbd828eed44e892",
}
# SHA-256 of the texts of seeded models whose 2-4 set_in, set_in_reif and
# array_int_element constraints share x and i, so that a later constraint
# reads the one-hot group of an earlier one; a model that compilation
# proves UNSAT contributes its message instead of a text.
EXTENSION_DIGEST = "bf5bbccad08da83a67f60c5f511d2b4660a8f5508c1cfa406055548801875b12"

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
        # set_in twice as often: its group holds only the set's values, so
        # a later, wider request asks for values the group lacks
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
    doc["onehot_groups"][0]["int_var"] = odd
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
