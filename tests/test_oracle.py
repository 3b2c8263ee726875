"""Direct-semantics evaluator, enumeration, and differential checking."""

import hashlib
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from fzn2qip import fuzz, kernels, oracle
from fzn2qip.errors import CapExceeded, CompileUnsat
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
    solutions = {tuple(r) for r, a in zip(rows, assignments)
                 if all(eval_builtin(c.name, c.args, a) for c in m.constraints)}
    assert enumerate_fzn(m) == (names, solutions), model_to_fzn(m)


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
    # constraints over literals only, true and false, before, between and
    # after the constraints over variables; a set_in over a literal gives
    # a 0-d array, not a bool
    "true literals around variables": """
        var 0..3: x; var 0..3: y;
        constraint int_le(1, 2); constraint int_le(x, y); constraint set_in(3, {1, 3});
        constraint int_ne(x, 2); constraint bool_clause([true], []);
        solve satisfy;""",
    "false literal first": """
        var 0..3: x; var 0..3: y;
        constraint int_eq(1, 2); constraint int_le(x, y);
        solve satisfy;""",
    "false literal between": """
        var 0..3: x; var 0..3: y;
        constraint int_le(x, y); constraint set_in(2, {1, 3}); constraint int_ne(x, y);
        solve satisfy;""",
    "false literal last": """
        var 0..3: x; var 0..3: y;
        constraint int_le(x, y); constraint int_ne(x, y); constraint int_lt(2, 1);
        solve satisfy;""",
    "literals only, true": """
        var 0..3: x; var bool: b;
        constraint int_le(1, 2); constraint set_in(3, {1, 3});
        solve satisfy;""",
    "literals only, false": """
        var 0..3: x;
        constraint int_le(1, 2); constraint set_in(2, {1, 3});
        solve satisfy;""",
    "no variables, true": "constraint int_le(1, 2); constraint set_in(3, {3});\nsolve satisfy;",
    "no variables, false": "constraint int_le(1, 2); constraint int_ne(3, 3);\nsolve satisfy;",
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
    c = p.fresh_var("t", "p", Domain(0, 4), "t#0")
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
    c = p.fresh_var("t", "x", Domain(0, 2), "t#0")
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


def test_check_equivalence_aligns_permuted_model_variables():
    m = check("""
        var 0..1: x;
        var 0..3: y;
        constraint int_eq(y, 3);
        solve satisfy;
    """)

    def permuted(constraint: LinExpr, equality: bool) -> QipProblem:
        p = QipProblem()  # the model variables in the other order
        p.add_var(QipVar("y", Domain(0, 3)))
        p.add_var(QipVar("x", Domain(0, 1)))
        (p.add_equality if equality else p.add_inequality)(constraint)
        return p

    res = check_equivalence(m, permuted(LinExpr({"y": 1}, -3), True))
    assert res.describe() == "Equal (2 solutions)"
    # y >= 2 admits y = 2, which the source model does not
    res = check_equivalence(m, permuted(LinExpr({"y": -1}, 2), False))
    assert (res.direction, res.witness) == ("qip-only", {"x": 0, "y": 2})


def test_check_equivalence_without_a_problem_is_compile_unsat():
    # None is a compilation that proved the model unsatisfiable
    m = check("""
        var 1..2: x;
        var 0..1: y;
        constraint int_lt(y, x);
        solve satisfy;
    """)
    res = check_equivalence(m, None)
    assert res.describe() == (
        "Counterexample (source model only): x=1 y=0 [3 vs 0 solutions]")
    m = check("""
        var 1..2: x;
        constraint int_lt(x, 1);
        solve satisfy;
    """)
    assert check_equivalence(m, None).describe() == "Equal (0 solutions)"


def test_enumerate_qip_best_value_is_in_the_source_sense():
    for kind, best in (("minimize", 3), ("maximize", 4)):
        m = check(f"""
            var 2..4: x;
            constraint int_ne(x, 2);
            solve {kind} x;
        """)
        assert enumerate_qip(compile_model(m)).best_value == best

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


def _sparse(coef, const) -> list:
    """Dense coefficient rows as ``feasible_mask`` forms."""
    return [([(i, c) for i, c in enumerate(co) if c], k)
            for co, k in zip(coef.tolist(), const.tolist())]


def test_feasible_mask_matches_row_reference():
    rng = np.random.default_rng(7)
    rows = rng.integers(-2, 3, size=(2000, 6)).astype(np.int64)
    rows[::3, 5] = rows[::3, 0] * rows[::3, 1]  # some products hold
    eq_coef = np.array([[1, -1, 0, 0, 0, 0]], dtype=np.int64)
    eq_const = np.array([1], dtype=np.int64)
    ineq_coef = rng.integers(-3, 4, size=(3, 6)).astype(np.int64)
    ineq_const = rng.integers(-2, 3, size=3).astype(np.int64)
    prod_idx = np.array([[5, 0, 1], [4, 2, 3]], dtype=np.int64)
    lows = np.array([-2, -1, -2, -2, 0, -2], dtype=np.int64)
    highs = np.array([2, 2, 1, 2, 2, 2], dtype=np.int64)
    table = rows.T  # variable-major: one row per variable
    rows = rows.tolist()

    def lin_ok(row, coef, const, holds):
        return all(holds(sum(int(c) * x for c, x in zip(co, row)) + int(k))
                   for co, k in zip(coef, const))

    def prod_ok(row, idx):
        return all(row[r] == row[a] * row[b] for r, a, b in idx.tolist())

    eqs, ineqs = _sparse(eq_coef, eq_const), _sparse(ineq_coef, ineq_const)
    bounds = (np.arange(6), lows[:, None], highs[:, None])
    one_row = (np.array([2]), lows[2:3, None], highs[2:3, None])
    none = prod_idx[:0]
    true, false = ([], 0), ([], 1)  # forms with a constant only
    blocks = [
        ((eqs, [], none), lambda r: lin_ok(r, eq_coef, eq_const, lambda v: v == 0)),
        ((eqs + [true], [([], -1)], none),
         lambda r: lin_ok(r, eq_coef, eq_const, lambda v: v == 0)),
        (([], ineqs, none),
         lambda r: lin_ok(r, ineq_coef, ineq_const, lambda v: v <= 0)),
        (([], [], prod_idx), lambda r: prod_ok(r, prod_idx)),
        (([], [], none, bounds),
         lambda r: all(lo <= x <= hi for lo, x, hi in zip(lows, r, highs))),
        (([], [], none, one_row), lambda r: lows[2] <= r[2] <= highs[2]),
        (([true], [([], -1)], none, one_row), lambda r: lows[2] <= r[2] <= highs[2]),
        ((eqs, ineqs, prod_idx),
         lambda r: (lin_ok(r, eq_coef, eq_const, lambda v: v == 0)
                    and lin_ok(r, ineq_coef, ineq_const, lambda v: v <= 0)
                    and prod_ok(r, prod_idx))),
    ]
    for dtype in (np.int64, object):  # object: the exact Python-int tables
        values = table.astype(dtype)
        for args, reference in blocks:
            want = [reference(r) for r in rows]
            assert feasible_mask(values, *args).tolist() == want
            assert any(want) and not all(want)
        for args in (([false], [], none), ([], [([], 1)], none),
                     (eqs + [false], ineqs, prod_idx), ([false], [], none, one_row)):
            assert not feasible_mask(values, *args).any()
        for args in (([], [], none), ([true], [([], -1)], none)):  # no check reads a row
            assert feasible_mask(values, *args).tolist() == [True] * len(rows)


def test_feasible_mask_object_table_is_exact():
    big = 2**62
    values = np.array([[big, big - 1], [big, big], [2**32, 2**31], [0, 2**62]],
                      dtype=object)
    none = np.zeros((0, 3), dtype=np.int64)
    # 2*2^62 + 2*2^62 and 2^32 * 2^32 wrap to 0 in int64
    assert feasible_mask(values, [([(0, 2), (1, 2)], 0)], [], none).tolist() == [
        False, False]
    assert feasible_mask(values, [([(0, 2), (1, -2)], 0)], [], none).tolist() == [
        True, False]
    assert feasible_mask(values, [], [], np.array([[3, 2, 2]])).tolist() == [
        False, True]


def test_kernel_handles_empty_constraint_blocks():
    values = np.arange(12, dtype=np.int64).reshape(3, 4)
    mask = feasible_mask(values, [], [], np.zeros((0, 3), dtype=np.int64))
    assert mask.tolist() == [True] * 4


# ----------------------------------------------------------------------
# staged enumeration


def test_int_times_chain_of_1000_links_solves():
    links = 1000
    decls = [f"var 0..1: x{i};" for i in range(links + 1)]
    cons = [f"constraint int_times(x{i}, x{i}, x{i + 1});" for i in range(links)]
    m = check("\n".join(decls + cons + ["solve satisfy;"]) + "\n")
    assert sys.getrecursionlimit() <= 1000
    p = compile_model(m)
    assert len(p.products) == links and not p.equalities
    assert all(v.is_model for v in p.vars.values())
    enum = enumerate_qip(p)
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
    x = p.fresh_var("t", "x", Domain(-big, big), "t#0")
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
            y = add(p.fresh_var("t", "y", near(value), "t#0"), value)
            p.add_product(y, left, right)
        else:
            expr = form(names)
            value = rng.randint(-3, 3)
            z = add(p.fresh_var("t", "z", near(value), "t#0"), value)
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
        p.objective = form(names)  # an objective: form has a term
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
            if p.objective.terms:
                value = p.objective.evaluate(a)
                best = value if best is None else min(best, value)
    return solutions, full, best


# compiled problems that enumerate no unit (every variable fixed, or none
# at all), or whose every check falls in stage 0, the seed column: no row
# reads a free variable
SEED_STAGE_SRCS = [
    "var 2..2: x; var 1..1: y; constraint int_le(x, y); solve satisfy;",
    "var 1..1: x; var 2..2: y; constraint int_le(x, y); solve satisfy;",
    "constraint int_le(1, 2); solve satisfy;",
    "var 1..1: x; var bool: b; constraint int_eq_reif(x, 1, b); solve satisfy;",
    "var 1..1: x; var 1..1: y; var 0..9: z; constraint int_times(x, y, z); solve satisfy;",
    "var 1..1: x; var 0..2: y; constraint int_le(x, 1); solve satisfy;",
    "var 0..2: y; constraint int_le(1, 2); solve satisfy;",
    "var 2..2: x; var 0..1: y; var 3..3: z;\n"
    "constraint int_plus(x, 1, z); constraint int_ne(x, z); solve satisfy;",
]


@pytest.mark.parametrize("chunk, exact", [
    pytest.param(None, False, id="None"), pytest.param(3, False, id="3"),
    pytest.param(None, True, id="None-exact"), pytest.param(3, True, id="3-exact"),
])
def test_enumerate_qip_matches_flat_enumeration(chunk, exact, monkeypatch):
    if chunk is not None:  # split every table into many small ones
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    if exact:  # the Python-int tables that a wrapping bound selects
        monkeypatch.setattr(oracle, "_table_dtype", lambda *args: object)
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
    for src in SEED_STAGE_SRCS:
        p = compile_model(check(src))
        enum = enumerate_qip(p, keep_full=True)
        assert (enum.solutions, enum.full_solutions, enum.best_value) == _flat_enumerate(p)


# its last stage expands 25,308 columns over many parent columns
DIV_SRC = """
var -13..23: n; var -16..2: d; var -7..29: q;
constraint int_div(n, d, q);
solve satisfy;
"""


@pytest.mark.parametrize("chunk, exact", [
    pytest.param(None, False, id="None"), pytest.param(3, False, id="3"),
    pytest.param(None, True, id="None-exact"), pytest.param(3, True, id="3-exact"),
])
def test_enumerate_qip_tables_are_row_contiguous(chunk, exact, monkeypatch):
    """Every table the kernel reads is C-ordered, so each of its rows is
    contiguous: tables grow by np.repeat and shrink by compress."""
    real = kernels.feasible_mask

    def contiguous_only(values, *args):
        assert values.flags.c_contiguous, (values.shape, values.strides)
        return real(values, *args)

    monkeypatch.setattr(kernels, "feasible_mask", contiguous_only)
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    if exact:
        monkeypatch.setattr(oracle, "_table_dtype", lambda *args: object)
    rng = random.Random(2024)
    for _ in range(60):
        p = _random_problem(rng)
        if math.prod(len(v.domain) for v in p.vars.values()) <= 5000:
            enumerate_qip(p)
    assert len(enumerate_qip(compile_model(check(DIV_SRC))).solutions) == 636


def _small_random_problems(n: int = 60) -> list[QipProblem]:
    """The seeded problems of the flat-enumeration comparison."""
    rng = random.Random(2024)
    problems = []
    while len(problems) < n:
        p = _random_problem(rng)
        if math.prod(len(v.domain) for v in p.vars.values()) <= 5000:
            problems.append(p)
    return problems


def _flip_sign(steps):
    for s in steps:
        s.sign = -s.sign


def _constant_off_by_one(steps):
    for s in steps:
        s.constant += 1


def _drop_an_input(steps):
    for s in steps:
        if s.kind == "equality" and s.inputs:
            del s.inputs[-1], s.coefs[-1]


@pytest.mark.parametrize("mutate", [_flip_sign, _constant_off_by_one, _drop_an_input])
def test_flat_enumeration_catches_a_wrong_step(mutate, monkeypatch):
    """The rows a step solves are no longer checked, so a planner bug
    would go unnoticed by the stage checks: the comparison with the flat
    enumeration must see it."""
    real = oracle._build_substitution

    def mutant(*args):
        steps = real(*args)
        mutate(steps)
        return steps

    monkeypatch.setattr(oracle, "_build_substitution", mutant)
    assert any(enumerate_qip(p, keep_full=True).full_solutions != _flat_enumerate(p)[1]
               for p in _small_random_problems())


def test_flat_enumeration_catches_a_shifted_lookup(monkeypatch):
    real = oracle._lookup
    monkeypatch.setattr(oracle, "_lookup", lambda *args: np.roll(real(*args), 1, axis=1))
    assert any(enumerate_qip(p, keep_full=True).full_solutions != _flat_enumerate(p)[1]
               for p in _small_random_problems())


def _element_src(n: int) -> str:
    values = [0, n + 1, *range(2, n)]
    return (f"var 1..{n}: i; var 0..{n + 1}: c;\n"
            f"constraint array_int_element(i, {values}, c);\nsolve satisfy;\n")


@pytest.mark.parametrize("exact", [False, True], ids=["int64", "exact"])
def test_dropped_checks_would_have_passed(exact, monkeypatch):
    """Each row that no stage checks (the equality or product a step
    solves, a one-hot unit's sum row) is 0 on every column of the table
    of the stage that would have checked it: the stage that bounds the
    step's target or the unit's bits."""
    plan, evaluated = {}, []

    def steps(*args):
        plan["steps"] = real_steps(*args)
        return plan["steps"]

    def groups(*args):
        plan["units"] = real_groups(*args)
        return plan["units"]

    def mask(values, eqs, ineqs, prods, bounds=None):
        p = plan["problem"]
        index = {name: i for i, name in enumerate(p.vars)}
        known = set() if bounds is None else set(bounds[0].tolist())
        dropped = [(s.target, p.equalities[s.row] if s.kind == "equality" else
                    p.products[s.row]) for s in plan["steps"]]
        dropped += [(u.cols[0], p.equalities[j]) for u in plan["units"] for j in u.sums]
        for anchor, row in dropped:
            if anchor not in known:
                continue
            if isinstance(row, LinExpr):
                value = sum(c * values[index[n]] for n, c in row.terms.items()) + row.constant
            else:
                value = (values[index[row.result]]
                         - values[index[row.left]] * values[index[row.right]])
            assert (np.asarray(value) == 0).all(), row
            evaluated.append(row)
        return real_mask(values, eqs, ineqs, prods, bounds)

    real_steps, real_groups, real_mask = (
        oracle._build_substitution, oracle._categorical_groups, kernels.feasible_mask)
    monkeypatch.setattr(oracle, "_build_substitution", steps)
    monkeypatch.setattr(oracle, "_categorical_groups", groups)
    monkeypatch.setattr(kernels, "feasible_mask", mask)
    if exact:
        monkeypatch.setattr(oracle, "_table_dtype", lambda *args: object)
    problems = _small_random_problems()
    problems += [compile_model(check(src)) for src in (DIV_SRC, _element_src(12))]
    for p in problems:
        plan["problem"] = p
        enumerate_qip(p)
    assert len(evaluated) > 100


@pytest.fixture(scope="module")
def compiled_corpus() -> list[QipProblem]:
    """The compiled acceptance corpus: fuzz seeds 0..49 of every builtin,
    less the instances that compilation proves UNSAT."""
    problems = []
    for builtin in sorted(SIGNATURES):
        for seed in range(50):
            try:
                problems.append(compile_model(check(fuzz.generate(builtin, seed))))
            except CompileUnsat:
                pass
    return problems


# what enumerate_qip decides on the compiled corpus, DIV_SRC and
# _element_src(12)
PLAN_DIGEST = "1781e40a3ed9ab2ca3aec8f8f2e178eaedbcd61467ee21d5cecce232c38fe962"


def test_plan_is_pinned(compiled_corpus, monkeypatch):
    """Per call: the units, the space size, the solution count, the steps
    as (kind, row, target, sign), and for each feasible_mask call the
    table width and the rows and domains it checks."""
    seen = []

    def steps(*args):
        planned = real_steps(*args)
        seen.append(sorted((s.kind, s.row, s.target, s.sign) for s in planned))
        return planned

    def mask(values, eqs, ineqs, prods, bounds=None):
        seen.append((values.shape[1],
                     sorted((tuple(sorted(t)), c) for t, c in eqs),
                     sorted((tuple(sorted(t)), c) for t, c in ineqs),
                     sorted(map(tuple, np.asarray(prods, dtype=np.int64).reshape(-1, 3)
                                    .tolist())),
                     None if bounds is None else [x.tolist() for x in bounds]))
        return real_mask(values, eqs, ineqs, prods, bounds)

    real_steps, real_mask = oracle._build_substitution, kernels.feasible_mask
    monkeypatch.setattr(oracle, "_build_substitution", steps)
    monkeypatch.setattr(kernels, "feasible_mask", mask)
    digest = hashlib.sha256()
    for p in [*compiled_corpus, *(compile_model(check(src))
                                  for src in (DIV_SRC, _element_src(12)))]:
        seen.clear()
        enum = enumerate_qip(p)
        digest.update(repr((enum.free_names, enum.space_size, len(enum.solutions),
                            seen)).encode())
    assert digest.hexdigest() == PLAN_DIGEST


def test_a_step_bound_is_its_row_bound_less_its_target(compiled_corpus, monkeypatch):
    """A step computes its equality without the +-1 target term, so the
    row bounds that ``_table_dtype`` reads cover every step."""
    planned = []

    def steps(eqs, *args):
        planned.append((eqs, real(eqs, *args)))
        return planned[-1][1]

    real = oracle._build_substitution
    monkeypatch.setattr(oracle, "_build_substitution", steps)
    checked = 0
    for p in [*_small_random_problems(), *compiled_corpus]:
        mag = [max(abs(v.domain.lo), abs(v.domain.hi)) for v in p.vars.values()]
        planned.clear()
        enumerate_qip(p)
        [(eqs, plan)] = planned
        for s in plan:
            if s.kind == "equality":
                terms, constant = eqs[s.row]
                row = sum(abs(c) * mag[i] for i, c in terms) + abs(constant)
                step = (sum(abs(c) * mag[i] for i, c in zip(s.inputs, s.coefs))
                        + abs(s.constant))
                assert step <= row and step + mag[s.target] == row, (s, eqs[s.row])
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("k, exact", [
    pytest.param(20_001, False, id="int64-20001"),
    pytest.param(5_001, True, id="exact-5001"),
])
def test_a_wide_group_costs_linear_memory(k, exact, monkeypatch):
    """The lookup of a k-bit one-hot group holds O(k) values, and a
    table at most ``_CELLS``: the value step ``x = sum v*bit_v`` reads
    every bit, so one length-k vector per bit would hold 8*k**2 bytes
    (3.2 GB at 20,001 bits, 200 MB at 5,001).  Exact tables would write
    all of it, so they are checked at 5,001 bits."""
    p = compile_model(check(
        f"var 0..{k - 1}: x; var bool: r; constraint set_in_reif(x, {{1, 2}}, r);\n"
        "solve satisfy;\n"))
    if exact:
        monkeypatch.setattr(oracle, "_table_dtype", lambda *args: object)
    tracemalloc.start()
    try:
        enum = enumerate_qip(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(enum.solutions) == k
    assert peak < 100e6, peak


# ----------------------------------------------------------------------
# constraints that share variables

# generator pools of (builtin, argument kinds): the comparisons, the
# other builtins that are one linear relation or an extremum, and the
# products among a few linear builtins.  bool_xor is reified among the
# comparisons and has 2 arguments among the others.  A kind that is a
# number is that literal (the exponent of int_pow).
SHARED_POOLS = {
    "comparisons": [(b, SIGNATURES[b][-1]) for b in [
        "bool_eq", "bool_eq_reif", "bool_le", "bool_le_reif", "bool_lin_le",
        "bool_lt_reif", "bool_xor", "int_eq", "int_eq_reif", "int_le",
        "int_le_reif", "int_lin_eq", "int_lin_eq_reif", "int_lin_le",
        "int_lin_le_reif", "int_lin_ne", "int_lin_ne_reif", "int_lt",
        "int_lt_reif", "int_ne", "int_ne_reif",
    ]],
    "linear": [(b, SIGNATURES[b][0]) for b in [
        "array_bool_xor", "array_int_maximum", "array_int_minimum",
        "bool2int", "bool_clause", "bool_lin_eq", "bool_lt", "bool_not",
        "bool_or", "bool_xor", "int_max", "int_min", "int_plus",
    ]],
    "products": [(b, SIGNATURES[b][0]) for b in [
        "int_times", "int_times", "int_times", "int_plus", "int_le", "int_lin_eq",
    ]] + [("int_pow", ["iv", "2", "iv"])],
}


def _shared_model(pool: str, seed: int) -> str:
    """2-3 builtins of a pool over 3 int and 2 bool shared variables."""
    rng = random.Random(f"{pool}:{seed}")
    ints, bools = ["x1", "x2", "x3"], ["p1", "p2"]
    lines = []
    for x in ints:
        if pool == "products":  # around 0, where most products can land
            lo, hi = rng.randint(-4, 0), rng.randint(0, 4)
        else:
            lo = rng.randint(-4, 4)
            hi = rng.randint(lo, 4)
        lines.append(f"var {lo}..{hi}: {x};")
    lines += [f"var bool: {p};" for p in bools]

    def scalar(kind):
        if rng.random() < fuzz.LITERAL_PROB:
            if kind == "bv":
                return rng.choice(["true", "false"])
            return str(rng.randint(-4, 4))
        return rng.choice(bools if kind == "bv" else ints)

    for _ in range(rng.randint(2, 3)):
        b, kinds = rng.choice(SHARED_POOLS[pool])
        args, n = [], None
        for kind in kinds:
            if kind == "ia":  # coefficients; the next array has as many terms
                n = rng.randint(1, 3)
                args.append(f"[{', '.join(str(rng.randint(-3, 3)) for _ in range(n))}]")
            elif kind in ("iva", "bva"):
                items = [scalar(kind[:2]) for _ in range(n or rng.randint(1, 3))]
                args.append(f"[{', '.join(items)}]")
            elif kind == "ic":
                args.append(str(rng.randint(-8, 8)))
            elif kind.isdigit():
                args.append(kind)
            else:
                args.append(scalar(kind))
        lines.append(f"constraint {b}({', '.join(args)});")
    return "\n".join(lines + ["solve satisfy;"]) + "\n"


def _check_shared(pool: str) -> None:
    """Seeds 0..299 of a pool check Equal or are UNSAT on both sides."""
    failures = []
    satisfiable = 0
    for seed in range(300):
        m = check(_shared_model(pool, seed))
        try:
            p = compile_model(m)
        except CompileUnsat:
            if enumerate_fzn(m)[1]:
                failures.append(f"seed {seed}: compile UNSAT but satisfiable")
            continue
        res = check_equivalence(m, p)
        if not res.equal:
            failures.append(f"seed {seed}: {res.describe()}")
        satisfiable += res.fzn_count > 0
    assert not failures, failures[:5]
    assert satisfiable > 100


def test_shared_comparisons_check_equal():
    _check_shared("comparisons")


def test_shared_linear_and_extremum_builtins_check_equal():
    _check_shared("linear")


def test_shared_products_check_equal():
    _check_shared("products")
    # the argument picks repeat and come in any order, so some products
    # are written onto their result variable and some keep an auxiliary
    onto_result = onto_aux = 0
    for seed in range(300):
        try:
            p = compile_model(check(_shared_model("products", seed)))
        except CompileUnsat:
            continue
        onto_result += any(p.vars[x.result].is_model for x in p.products)
        onto_aux += any(not p.vars[x.result].is_model for x in p.products)
    assert onto_result > 30 and onto_aux > 30
