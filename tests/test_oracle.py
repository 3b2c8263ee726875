"""Direct-semantics evaluator, enumeration, and differential checking."""

import itertools
import math
import random
import sys

import numpy as np
import pytest

from fzn2qip import fuzz, oracle
from fzn2qip.errors import CapExceeded
from fzn2qip.frontend import (
    SIGNATURES,
    Arr,
    Lit,
    Ref,
    model_to_fzn,
    parse_model,
    typecheck,
)
from fzn2qip.kernels import feasible_mask
from fzn2qip.model import Domain, LinExpr, QipProblem, QipVar
from fzn2qip.oracle import (
    check_equivalence,
    enumerate_fzn,
    enumerate_qip,
    eval_builtin,
    solve_optimum,
    truncdiv,
)
from fzn2qip.rewrite import RewriteOptions, compile_model


def check(src):
    return typecheck(parse_model(src))


WRAP_SRC = """
var 4611686018427387904..4611686018427387904: a;
var 4611686018427387904..4611686018427387904: b;
constraint int_lin_eq([2, 2], [a, b], 0);
solve satisfy;
"""


def test_truncdiv_toward_zero():
    assert truncdiv(7, 2) == 3
    assert truncdiv(-7, 2) == -3
    assert truncdiv(7, -2) == -3
    assert truncdiv(-7, -2) == 3


def test_eval_int_div_and_mod():
    args = (Ref("n"), Ref("d"), Ref("q"))
    assert eval_builtin("int_div", args, {"n": 7, "d": 2, "q": 3})
    assert not eval_builtin("int_div", args, {"n": 7, "d": 2, "q": 4})
    assert eval_builtin("int_div", args, {"n": -7, "d": 2, "q": -3})
    # division by zero is an unsatisfied constraint, not an error
    assert not eval_builtin("int_div", args, {"n": 7, "d": 0, "q": 0})
    assert eval_builtin("int_mod", args, {"n": -7, "d": 2, "q": -1})
    assert not eval_builtin("int_mod", args, {"n": -7, "d": 0, "q": 0})


def test_eval_element_out_of_range_is_false():
    args = (Ref("i"), Arr((Lit(4), Lit(7))), Lit(4))
    assert eval_builtin("array_int_element", args, {"i": 1})
    assert not eval_builtin("array_int_element", args, {"i": 0})
    assert not eval_builtin("array_int_element", args, {"i": 3})


def test_enumerate_fzn_reference():
    m = check("""
        var 1..3: x;
        var 1..3: y;
        constraint int_ne(x, y);
        solve satisfy;
    """)
    names, sols = enumerate_fzn(m)
    assert names == ["x", "y"]
    assert len(sols) == 6
    m = check("var 0..1: x;\nsolve satisfy;\n")
    assert len(enumerate_fzn(m)[1]) == 2


def test_enumerate_fzn_cap():
    m = check("\n".join(f"var -4..4: v{i};" for i in range(8)) + "\nsolve satisfy;\n")
    with pytest.raises(CapExceeded) as exc:
        enumerate_fzn(m, cap=1000)
    assert exc.value.message == (
        "state space of ~4.3e7 assignments exceeds cap 1000; "
        "largest free units: v0 (9), v1 (9), v2 (9)")


def test_enumerate_fzn_without_variables():
    assert enumerate_fzn(check("solve satisfy;\n")) == ([], {()})
    false = check("constraint int_eq(1, 2);\nsolve satisfy;\n")
    assert enumerate_fzn(false) == ([], set())


def test_enumerate_fzn_split_tables_match(monkeypatch):
    models = [check(fuzz.generate(b, seed)) for b in sorted(SIGNATURES)
              for seed in range(5)]
    models.append(check(WRAP_SRC))
    whole = [enumerate_fzn(m) for m in models]
    monkeypatch.setattr(oracle, "_CHUNK", 3)  # split every table into many
    assert [enumerate_fzn(m) for m in models] == whole
    assert any(len(sols) > 3 for _, sols in whole)


def test_enumerate_fzn_int64_wraparound_has_no_solution():
    # 2*2^62 + 2*2^62 = 2^64 is 0 in int64
    m = check(WRAP_SRC)
    assert oracle._source_dtype(m) is object
    assert enumerate_fzn(m) == (["a", "b"], set())


# ----------------------------------------------------------------------
# column-wise evaluator against the scalar reference


def _assert_columnwise_matches_reference(m):
    """Every constraint, on every assignment of the flat product, holds
    column-wise exactly when ``eval_builtin`` says so."""
    names = list(m.vars)
    radix = [oracle._size(d.domain) for d in m.vars.values()]
    size = math.prod(radix)
    dtype = oracle._source_dtype(m)
    lows = np.array([d.domain.lo for d in m.vars.values()], dtype=dtype).reshape(-1, 1)
    table = oracle._source_table(radix, lows, 0, size, dtype)
    rows = table.T.tolist()
    assert sorted(map(tuple, rows)) == sorted(
        itertools.product(*(d.domain.values() for d in m.vars.values())))
    index = {n: j for j, n in enumerate(names)}
    assignments = [dict(zip(names, r)) for r in rows]
    for c in m.constraints:
        got = np.broadcast_to(oracle._holds(c.name, c.args, table, index), size)
        want = [eval_builtin(c.name, c.args, a) for a in assignments]
        assert got.tolist() == want, (c, model_to_fzn(m))


@pytest.mark.parametrize("builtin", sorted(SIGNATURES))
def test_columnwise_matches_eval_builtin(builtin):
    for seed in range(50):
        _assert_columnwise_matches_reference(check(fuzz.generate(builtin, seed)))


BIG = 2**62

HAND_CASES = {
    "division by zero": """
        var -3..3: n; var -2..2: d; var -3..3: q;
        constraint int_div(n, d, q); constraint int_mod(n, d, q);
        constraint int_div(n, 0, q); constraint int_mod(n, 0, q);
        constraint int_div(0, 0, q); constraint int_mod(n, d, 0);
        solve satisfy;""",
    "int_pow exponents": """
        var -2..2: x; var -3..3: y; var -9..9: z;
        constraint int_pow(x, y, z); constraint int_pow(0, 0, z);
        constraint int_pow(x, -1, z); constraint int_pow(0, y, 1);
        constraint int_pow(2, 3, 8);
        solve satisfy;""",
    "element index out of range": """
        var -1..4: i; var 0..9: c; var bool: b;
        constraint array_int_element(i, [4, 7, 9], c);
        constraint array_bool_element(i, [true, false, true], b);
        solve satisfy;""",
    "element with variable entries": """
        var 0..4: i; var 0..2: a; var 0..2: e; var 0..2: c;
        var bool: p; var bool: q; var bool: r;
        constraint array_var_int_element(i, [a, 1, e], c);
        constraint array_var_bool_element(i, [p, true, q], r);
        constraint array_var_int_element(2, [a, e], c);
        solve satisfy;""",
    "empty clause": """
        var bool: p; var bool: q;
        constraint bool_clause([], []); constraint bool_clause([p], []);
        constraint bool_clause([], [q]); constraint bool_clause([false], [true]);
        solve satisfy;""",
    "constant literal arguments": """
        var -2..2: x; var bool: b;
        constraint int_plus(2, x, 3); constraint int_le(3, 4);
        constraint int_times(2, 3, 6); constraint int_lin_le([1, 2], [1, x], 3);
        constraint set_in(3, {1, 3}); constraint set_in_reif(x, {-1, 2}, true);
        constraint int_eq_reif(1, 2, b); constraint bool_xor(true, b, false);
        constraint array_int_maximum(3, [1, 3, x]); constraint int_abs(-2, 2);
        constraint array_bool_and([true, b], b); constraint array_bool_xor([b, false]);
        solve satisfy;""",
    "2^62 domains": f"""
        var {BIG - 1}..{BIG}: a; var {BIG - 1}..{BIG}: b; var {-BIG}..{-BIG + 1}: c;
        var bool: r;
        constraint int_lin_eq([2, 2], [a, b], 0); constraint int_plus(a, b, c);
        constraint int_times(a, c, b); constraint int_div(a, c, r);
        constraint int_mod(a, b, c); constraint int_min(a, c, c);
        constraint int_abs(c, a); constraint int_lin_ne_reif([1, 1], [a, b], 0, r);
        constraint int_le_reif(a, b, r); constraint int_pow(c, 2, a);
        solve satisfy;""",
    "int_times beyond int64": """
        var 4294967296..4294967297: a; var 0..9: z;
        constraint int_times(a, a, z);
        solve satisfy;""",
    "int_pow beyond int64": """
        var 2..3: x; var 0..9: z;
        constraint int_pow(x, 40, z); constraint int_pow(x, 2, z);
        solve satisfy;""",
}
EXACT_CASES = {"2^62 domains", "int_times beyond int64", "int_pow beyond int64"}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_columnwise_matches_eval_builtin_by_hand(case):
    m = check(HAND_CASES[case])
    assert (oracle._source_dtype(m) is object) == (case in EXACT_CASES)
    _assert_columnwise_matches_reference(m)


def test_enumerate_qip_single_inequality():
    p = QipProblem()
    p.add_var(QipVar("x", Domain(0, 4)))
    p.add_inequality(LinExpr({"x": 1}, -2))
    enum = enumerate_qip(p)
    assert enum.solutions == {(0,), (1,), (2,)}


def test_enumerate_qip_substitutes_product_results():
    p = QipProblem()
    p.add_var(QipVar("a", Domain(0, 2)))
    p.add_var(QipVar("b", Domain(0, 2)))
    c = p.fresh_var("t", "p", Domain(0, 4))
    p.add_product(c.name, "a", "b")
    enum = enumerate_qip(p, keep_full=True)
    assert enum.free_names == ["a", "b"]  # the product result is computed
    assert enum.space_size == 9
    assert len(enum.full_solutions) == 9
    for a, b, prod in enum.full_solutions:
        assert prod == a * b


def test_enumerate_qip_determined_domain_still_checked():
    p = QipProblem()
    p.add_var(QipVar("a", Domain(0, 3)))
    c = p.fresh_var("t", "x", Domain(0, 2))
    # c = a is forced by an equality; c's tighter domain must prune a=3
    p.add_equality(LinExpr({"a": 1, c.name: -1}))
    enum = enumerate_qip(p)
    assert enum.solutions == {(0,), (1,), (2,)}


def test_enumerate_qip_cap_counts_free_space_only():
    p = QipProblem()
    for i in range(6):
        p.add_var(QipVar(f"v{i}", Domain(0, 9)))
    with pytest.raises(CapExceeded):
        enumerate_qip(p, cap=10_000)


def test_check_equivalence_equal_and_counterexample():
    m = check("""
        var -2..3: x;
        var 0..3: y;
        constraint int_abs(x, y);
        solve satisfy;
    """)
    good = compile_model(m)
    assert check_equivalence(m, good).equal
    m2 = check("""
        var -1..0: n;
        var -2..0: d;
        var 0..0: q;
        constraint int_div(n, d, q);
        solve satisfy;
    """)
    bad = compile_model(m2, RewriteOptions(corrupt_div_big_m=True))
    res = check_equivalence(m2, bad)
    assert not res.equal
    assert res.direction == "fzn-only"
    assert res.witness is not None
    assert "Counterexample" in res.describe()


def test_solve_optimum_reference():
    m = check("""
        var 2..4: x;
        constraint int_ne(x, 2);
        solve minimize x;
    """)
    res = solve_optimum(m, compile_model(m))
    assert res.agrees
    assert res.qip_value == 3
    m = check("""
        var 2..4: x;
        constraint int_ne(x, 4);
        solve maximize x;
    """)
    res = solve_optimum(m, compile_model(m))
    assert res.agrees and res.qip_value == 3


def test_solve_optimum_unsat_agreement():
    m = check("""
        var 1..2: x;
        constraint int_lt(x, 1);
        solve minimize x;
    """)
    res = solve_optimum(m, compile_model(m))
    assert res.fzn_status == "unsat" and res.qip_status == "unsat"
    assert res.agrees


def test_feasible_mask_matches_row_reference():
    rng = np.random.default_rng(7)
    values = rng.integers(-2, 3, size=(2000, 6)).astype(np.int64)
    values[::3, 5] = values[::3, 0] * values[::3, 1]  # some products hold
    eq_coef = np.array([[1, -1, 0, 0, 0, 0]], dtype=np.int64)
    eq_const = np.array([1], dtype=np.int64)
    ineq_coef = rng.integers(-3, 4, size=(3, 6)).astype(np.int64)
    ineq_const = rng.integers(-2, 3, size=3).astype(np.int64)
    prod_idx = np.array([[5, 0, 1], [4, 2, 3]], dtype=np.int64)
    lows = np.array([-2, -1, -2, -2, 0, -2], dtype=np.int64)
    highs = np.array([2, 2, 1, 2, 2, 2], dtype=np.int64)
    rows = values.tolist()

    def lin_ok(row, coef, const, holds):
        return all(holds(sum(int(c) * x for c, x in zip(co, row)) + int(k))
                   for co, k in zip(coef, const))

    def prod_ok(row, idx):
        return all(row[r] == row[a] * row[b] for r, a, b in idx.tolist())

    none2, none1, none_prod = eq_coef[:0], eq_const[:0], prod_idx[:0]
    blocks = [
        ((eq_coef, eq_const, none2, none1, none_prod),
         lambda r: lin_ok(r, eq_coef, eq_const, lambda v: v == 0)),
        ((none2, none1, ineq_coef, ineq_const, none_prod),
         lambda r: lin_ok(r, ineq_coef, ineq_const, lambda v: v <= 0)),
        ((none2, none1, none2, none1, prod_idx), lambda r: prod_ok(r, prod_idx)),
        ((none2, none1, none2, none1, none_prod, lows, highs),
         lambda r: all(lo <= x <= hi for lo, x, hi in zip(lows, r, highs))),
        ((eq_coef, eq_const, ineq_coef, ineq_const, prod_idx),
         lambda r: (lin_ok(r, eq_coef, eq_const, lambda v: v == 0)
                    and lin_ok(r, ineq_coef, ineq_const, lambda v: v <= 0)
                    and prod_ok(r, prod_idx))),
    ]
    for args, reference in blocks:
        want = [reference(r) for r in rows]
        assert feasible_mask(values, *args).tolist() == want
        assert any(want) and not all(want)


def test_kernel_handles_empty_constraint_blocks():
    values = np.arange(12, dtype=np.int64).reshape(4, 3)
    empty2 = np.zeros((0, 3), dtype=np.int64)
    empty1 = np.zeros(0, dtype=np.int64)
    empty_prod = np.zeros((0, 3), dtype=np.int64)
    mask = feasible_mask(values, empty2, empty1, empty2, empty1, empty_prod)
    assert mask.all()


# ----------------------------------------------------------------------
# staged enumeration


def test_int_times_chain_of_1000_links_solves():
    links = 1000
    decls = [f"var 0..1: x{i};" for i in range(links + 1)]
    cons = [f"constraint int_times(x{i}, x{i}, x{i + 1});" for i in range(links)]
    m = check("\n".join(decls + cons + ["solve satisfy;"]) + "\n")
    assert sys.getrecursionlimit() <= 1000
    enum = enumerate_qip(compile_model(m))
    assert enum.free_names == ["x0"]
    assert len(enum.solutions) == 2


@pytest.mark.parametrize("seed", [310, 1169])
def test_int_lin_ne_reif_fits_default_cap(seed):
    m = check(fuzz.generate("int_lin_ne_reif", seed))
    assert check_equivalence(m, compile_model(m)).equal


def _onehot_problem(with_sum: bool) -> QipProblem:
    p = QipProblem()
    p.add_var(QipVar("x", Domain(0, 3)))
    p.onehot_get_or_create("x", {1, 2})
    if not with_sum:  # the group's sum equality is emitted first
        del p.equalities[0], p.equality_sources[0]
    return p


def test_categorical_group_is_one_unit():
    p = _onehot_problem(with_sum=True)
    enum = enumerate_qip(p)
    assert enum.free_names == ["onehot:x"]
    assert enum.space_size == 2
    assert enum.solutions == {(1,), (2,)}


def test_group_without_sum_equality_enumerated_as_binaries():
    p = _onehot_problem(with_sum=False)
    bits = [b for b, _ in p.onehot_groups[0].bits]
    enum = enumerate_qip(p)
    assert enum.free_names == ["x", *bits]
    assert enum.space_size == 4 * 2 * 2
    # x = b1 + 2*b2 without "exactly one bit": all four bit patterns
    assert enum.solutions == {(0,), (1,), (2,), (3,)}


def test_group_bit_fixed_to_zero_prunes_rows():
    p = _onehot_problem(with_sum=True)
    p.restrict_domain(p.onehot_groups[0].bit_for(1), Domain(0, 0))
    enum = enumerate_qip(p, keep_full=True)
    assert enum.free_names == ["onehot:x"]
    assert enum.solutions == {(2,)}
    assert len(enum.full_solutions) == 1


def test_cap_message_is_one_short_line():
    p = QipProblem()
    for i in range(300):
        p.add_var(QipVar(f"b{i}", Domain(0, 1)))
    p.add_var(QipVar("wide", Domain(0, 9)))
    with pytest.raises(CapExceeded) as exc:
        enumerate_qip(p)
    msg = exc.value.message
    assert "\n" not in msg and len(msg) < 200
    assert "~2.0e91" in msg
    assert "wide (10), b0 (2), b1 (2)" in msg


def test_int64_wraparound_checks_equal():
    # 2*2^62 + 2*2^62 = 2^64 is 0 in int64: no solution really exists
    m = check(WRAP_SRC)
    res = check_equivalence(m, compile_model(m))
    assert res.describe() == "Equal (0 solutions)"


@pytest.mark.parametrize("c_coef", [1, -1])
def test_substituted_auxiliary_beyond_int64_is_exact(c_coef):
    big = 2**62
    p = QipProblem()
    for name in ("a", "b", "c"):
        p.add_var(QipVar(name, Domain(big - 1, big)))
    x = p.fresh_var("t", "x", Domain(-big, big))
    # the step x = a + b + c_coef*c can leave int64: with c_coef = 1 and
    # a = b = c = 2^62 it wraps to -2^62, inside x's domain
    p.add_equality(LinExpr({"a": 1, "b": 1, "c": c_coef, x.name: -1}))
    enum = enumerate_qip(p)
    assert enum.free_names == ["a", "b", "c"]
    values = (big - 1, big)
    want = {(a, b, c) for a in values for b in values for c in values
            if -big <= a + b + c_coef * c <= big}
    assert enum.solutions == want
    assert bool(want) == (c_coef == -1)


def _random_problem(rng: random.Random) -> QipProblem:
    """A small problem with equalities, inequalities, products and maybe a
    one-hot group, built around a planted solution."""
    p = QipProblem()
    planted: dict[str, int] = {}

    def add(var: QipVar, value: int) -> str:
        if var.name not in p.vars:
            p.add_var(var)
        planted[var.name] = value
        return var.name

    def near(value: int) -> Domain:
        return Domain(value - rng.randint(0, 2), value + rng.randint(0, 2))

    def form(names: list[str], target_coef: int = 0) -> LinExpr:
        expr = LinExpr()
        for n in rng.sample(names, rng.randint(1, min(3, len(names)))):
            expr.add_term(n, rng.choice([-2, -1, 1, 2]))
        expr.add_const(-expr.evaluate(planted))
        return expr

    for i in range(rng.randint(2, 3)):
        lo = rng.randint(-3, 2)
        d = Domain(lo, rng.randint(lo, min(lo + 3, 3)))
        add(QipVar(f"m{i}", d), rng.randint(d.lo, d.hi))
    model = list(planted)
    if rng.random() < 0.5:
        x = rng.choice(model)
        values = set(rng.sample(list(p.vars[x].domain.values()),
                                min(3, len(p.vars[x].domain))))
        values.add(planted[x])
        for bit, v in p.onehot_get_or_create(x, values).bits:
            planted[bit] = int(v == planted[x])
    for _ in range(rng.randint(1, 2)):
        names = list(planted)
        if rng.random() < 0.5:
            left, right = rng.choice(names), rng.choice(names)
            value = planted[left] * planted[right]
            y = add(p.fresh_var("t", "y", near(value)), value)
            p.add_product(y, left, right)
        else:
            expr = form(names)
            value = rng.randint(-3, 3)
            z = add(p.fresh_var("t", "z", near(value)), value)
            expr.add_term(z, rng.choice([-1, 1, 2]))
            expr.add_const(-expr.evaluate(planted))
            p.add_equality(expr)
    names = list(planted)
    for _ in range(rng.randint(0, 2)):
        expr = form(names)
        if rng.random() < 0.2:
            expr.add_const(1)  # maybe no longer satisfiable
        p.add_equality(expr)
    for _ in range(rng.randint(0, 2)):
        p.add_inequality(form(names).add_const(-rng.randint(0, 2)))
    if rng.random() < 0.5:
        p.objective_sense = "min"
        p.objective = form(names)
    return p


def _flat_enumerate(p: QipProblem):
    """Reference: every assignment of every variable, checked directly."""
    names = list(p.vars)
    solutions, full, best = set(), set(), None
    for combo in itertools.product(*(p.vars[n].domain.values() for n in names)):
        a = dict(zip(names, combo))
        if (all(e.evaluate(a) == 0 for e in p.equalities)
                and all(e.evaluate(a) <= 0 for e in p.inequalities)
                and all(a[q.result] == a[q.left] * a[q.right] for q in p.products)):
            full.add(combo)
            solutions.add(tuple(a[n] for n in names if p.vars[n].is_model))
            if p.objective_sense == "min":
                value = p.objective.evaluate(a)
                best = value if best is None else min(best, value)
    return solutions, full, best


@pytest.mark.parametrize("chunk", [None, 3])
def test_enumerate_qip_matches_flat_enumeration(chunk, monkeypatch):
    if chunk is not None:  # split every table into many small ones
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rng = random.Random(2024)
    compared = with_solutions = 0
    while compared < 60:
        p = _random_problem(rng)
        if math.prod(len(v.domain) for v in p.vars.values()) > 5000:
            continue
        solutions, full, best = _flat_enumerate(p)
        enum = enumerate_qip(p, keep_full=True)
        assert (enum.solutions, enum.full_solutions, enum.best_value) == (
            solutions, full, best), p.serialize()
        compared += 1
        with_solutions += bool(solutions)
    assert with_solutions > 30
