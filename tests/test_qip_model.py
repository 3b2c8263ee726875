"""Problem representation: naming, one-hot registry, validation, serialization."""

import pytest

from fzn2qip.errors import EmptyDomain, SchemaError, ValueOutOfDomain
from fzn2qip.model import (
    BINARY,
    Domain,
    LinExpr,
    QipProblem,
    QipVar,
    deserialize,
)


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
    a = p.fresh_var("int_abs", "b", BINARY)
    b = p.fresh_var("int_abs", "b", BINARY)
    c = p.fresh_var("int_abs", "z", Domain(-2, 2))
    assert (a.name, b.name, c.name) == (
        "__int_abs_1_b", "__int_abs_2_b", "__int_abs_1_z"
    )
    assert not a.is_model and a.origin.ordinal == 1


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


def test_onehot_extension_rewrites_pair_in_place():
    p = QipProblem()
    p.add_var(QipVar("i", Domain(1, 4)))
    p.restrict_domain("i", Domain(1, 2))
    g = p.onehot_get_or_create("i", {1, 2})
    sum_before = p.equalities[0]
    assert len(sum_before.terms) == 2
    # extension to a value still inside the declared domain
    p.onehot_get_or_create("i", {3})
    assert len(p.onehot_groups) == 1
    assert len(p.equalities) == 2  # same pair, rewritten
    assert len(p.equalities[0].terms) == 3
    assert g.bit_for(3) in p.equalities[1].terms


def test_onehot_rejects_undeclared_values():
    p = QipProblem()
    p.add_var(QipVar("i", Domain(1, 3)))
    with pytest.raises(ValueOutOfDomain):
        p.onehot_get_or_create("i", {1, 9})


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
    y = p.fresh_var("int_times", "p", Domain(-4, 4))
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
