"""Per-builtin rewrite behavior on pinned reference instances.

Feasible sets below were derived independently by brute-force
enumeration of the builtin's direct semantics and are asserted as
frozen values; structural expectations (counts of products, bits)
follow from the documented encodings.
"""

import itertools

import pytest

from fzn2qip import rewrite
from fzn2qip.cli import run
from fzn2qip.errors import CompileUnsat, UnsupportedExponent
from fzn2qip.frontend import SIGNATURES, parse_model, typecheck
from fzn2qip.fuzz import generate
from fzn2qip.model import Domain, LinExpr, deserialize
from fzn2qip.oracle import check_equivalence, enumerate_qip
from fzn2qip.rewrite import RewriteOptions, compile_model


def compile_src(src, **kw):
    model = typecheck(parse_model(src))
    return model, compile_model(model, RewriteOptions(**kw))


def solutions(problem, *names):
    enum = enumerate_qip(problem)
    idx = [enum.model_names.index(n) for n in names]
    return {tuple(t[i] for i in idx) for t in enum.solutions}


def test_int_ne_reference():
    _, p = compile_src("""
        var 1..3: a;
        var 1..3: b;
        constraint int_ne(a, b);
        solve satisfy;
    """)
    got = solutions(p, "a", "b")
    assert got == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b}
    assert len(got) == 6


def test_int_le_reif_truth_table():
    _, p = compile_src("""
        var 0..2: a;
        var 0..2: b;
        var bool: r;
        constraint int_le_reif(a, b, r);
        solve satisfy;
    """)
    got = solutions(p, "a", "b", "r")
    assert got == {(a, b, int(a <= b)) for a in range(3) for b in range(3)}


def test_int_eq_reif_four_points():
    _, p = compile_src("""
        var 0..1: a;
        var 0..1: b;
        var bool: r;
        constraint int_eq_reif(a, b, r);
        solve satisfy;
    """)
    got = solutions(p, "a", "b", "r")
    assert got == {(a, b, int(a == b)) for a in (0, 1) for b in (0, 1)}


def test_int_lin_ne_mixed_sign_feasible_set():
    _, p = compile_src("""
        var 0..4: x;
        constraint int_lin_ne([1], [x], 2);
        solve satisfy;
    """)
    assert solutions(p, "x") == {(0,), (1,), (3,), (4,)}


def test_int_lin_le_reif_truth_table():
    _, p = compile_src("""
        var 0..3: x;
        var bool: r;
        constraint int_lin_le_reif([1], [x], 1, r);
        solve satisfy;
    """)
    assert solutions(p, "x", "r") == {(x, int(x <= 1)) for x in range(4)}


def test_int_lin_eq_reif_truth_table():
    _, p = compile_src("""
        var -1..1: x;
        var bool: r;
        constraint int_lin_eq_reif([1], [x], 0, r);
        solve satisfy;
    """)
    assert solutions(p, "x", "r") == {(x, int(x == 0)) for x in (-1, 0, 1)}


def test_int_lin_ne_reif_truth_table():
    _, p = compile_src("""
        var 0..2: x;
        var 0..2: y;
        var bool: r;
        constraint int_lin_ne_reif([1, 1], [x, y], 2, r);
        solve satisfy;
    """)
    assert solutions(p, "x", "y", "r") == {
        (x, y, int(x + y != 2)) for x in range(3) for y in range(3)
    }


def test_int_abs_restricts_result_domain():
    _, p = compile_src("""
        var -2..3: x;
        var -5..5: y;
        constraint int_abs(x, y);
        solve satisfy;
    """)
    assert p.vars["y"].domain == Domain(0, 3)
    assert solutions(p, "x", "y") == {(x, abs(x)) for x in range(-2, 4)}


def test_int_div_positive_and_negative():
    _, p = compile_src("""
        var 1..3: n;
        var 1..2: d;
        var 0..3: q;
        constraint int_div(n, d, q);
        solve satisfy;
    """)
    assert (3, 2, 1) in solutions(p, "n", "d", "q")
    _, p = compile_src("""
        var -3..-1: n;
        var 1..2: d;
        var -3..3: q;
        constraint int_div(n, d, q);
        solve satisfy;
    """)
    assert (-3, 2, -1) in solutions(p, "n", "d", "q")


def test_int_div_divisor_fixed_zero_is_unsat():
    with pytest.raises(CompileUnsat):
        compile_src("""
            var 0..3: n;
            var 0..0: d;
            var 0..3: q;
            constraint int_div(n, d, q);
            solve satisfy;
        """)


def test_int_div_endpoint_zero_pruned():
    _, p = compile_src("""
        var 1..3: n;
        var 0..2: d;
        var 0..3: q;
        constraint int_div(n, d, q);
        solve satisfy;
    """)
    assert p.vars["d"].domain == Domain(1, 2)


def test_int_mod_restricts_remainder():
    _, p = compile_src("""
        var 0..5: n;
        var 2..2: d;
        var -9..9: r;
        constraint int_mod(n, d, r);
        solve satisfy;
    """)
    assert p.vars["r"].domain == Domain(0, 1)
    assert (5, 2, 1) in solutions(p, "n", "d", "r")
    _, p = compile_src("""
        var -3..0: n;
        var 2..2: d;
        var -9..9: r;
        constraint int_mod(n, d, r);
        solve satisfy;
    """)
    assert p.vars["r"].domain == Domain(-1, 0)
    assert (-3, 2, -1) in solutions(p, "n", "d", "r")


def test_int_pow_structure():
    _, p5 = compile_src("""
        var -2..2: x;
        var -32..32: z;
        constraint int_pow(x, 5, z);
        solve satisfy;
    """)
    assert len(p5.products) == 3
    assert solutions(p5, "x", "z") == {(x, x ** 5) for x in range(-2, 3)}
    _, p8 = compile_src("""
        var -2..2: x;
        var 0..256: z;
        constraint int_pow(x, 8, z);
        solve satisfy;
    """)
    assert len(p8.products) == 3
    assert solutions(p8, "x", "z") == {(x, x ** 8) for x in range(-2, 3)}


def test_int_pow_exponent_zero_and_negative():
    _, p = compile_src("""
        var -2..2: x;
        var 0..2: z;
        constraint int_pow(x, 0, z);
        solve satisfy;
    """)
    assert solutions(p, "x", "z") == {(x, 1) for x in range(-2, 3)}
    with pytest.raises(UnsupportedExponent):
        compile_src("""
            var 1..2: x;
            var 0..2: z;
            constraint int_pow(x, -1, z);
            solve satisfy;
        """)


def test_array_int_element_structure_and_semantics():
    _, p = compile_src("""
        var 1..3: i;
        var 0..9: c;
        constraint array_int_element(i, [4, 7, 1], c);
        solve satisfy;
    """)
    assert len(p.onehot_groups) == 1
    assert [v for _, v in p.onehot_groups[0].bits] == [1, 2, 3]
    assert solutions(p, "i", "c") == {(1, 4), (2, 7), (3, 1)}


def test_array_var_int_element():
    _, p = compile_src("""
        var 1..2: i;
        var -1..1: a1;
        var 0..2: a2;
        var -9..9: c;
        constraint array_var_int_element(i, [a1, a2], c);
        solve satisfy;
    """)
    assert len(p.products) == 2
    got = solutions(p, "i", "a1", "a2", "c")
    want = {
        (i, a1, a2, [a1, a2][i - 1])
        for i in (1, 2) for a1 in (-1, 0, 1) for a2 in (0, 1, 2)
    }
    assert got == want


def test_element_whose_index_is_its_result():
    # restricting the result to 1..3 restricts the index too, so the
    # group and the row cover indices 1..3 only
    m, p = compile_src("""
        var 1..4: x;
        constraint array_int_element(x, [1, 2, 3, 3], x);
        solve satisfy;
    """)
    assert p.vars["x"].domain == Domain(1, 3)
    assert [v for _, v in p.onehot_groups[0].bits] == [1, 2, 3]
    assert check_equivalence(m, p).describe() == "Equal (3 solutions)"


@pytest.mark.parametrize("builtin, entries, result", [
    ("array_int_element", "[5, 5, 3]", "c"),
    ("array_var_int_element", "[a, a, 3]", "c"),
    ("array_bool_element", "[true, true, false]", "r"),
    ("array_var_bool_element", "[b, b, false]", "r"),
])
def test_element_with_one_reachable_form_is_one_row(builtin, entries, result):
    # i reaches entries 1 and 2 only, and both are the same form
    m, p = compile_src(f"""
        var 1..2: i;
        var 0..5: a;
        var bool: b;
        var 0..5: c;
        var bool: r;
        constraint {builtin}(i, {entries}, {result});
        solve satisfy;
    """)
    assert not p.onehot_groups and not p.products and not p.inequalities
    assert len(p.equalities) == 1 and len(p.equalities[0].terms) in (1, 2)
    assert check_equivalence(m, p).equal

def test_array_int_maximum():
    _, p = compile_src("""
        var -10..10: m;
        var 0..3: x1;
        var 1..2: x2;
        constraint array_int_maximum(m, [x1, x2]);
        solve satisfy;
    """)
    assert p.vars["m"].domain == Domain(1, 3)
    got = solutions(p, "m", "x1", "x2")
    assert got == {(max(a, b), a, b) for a in range(4) for b in (1, 2)}
    assert (2, 0, 2) in got


def test_array_bool_and_structure():
    _, p = compile_src("""
        var bool: a;
        var bool: b;
        var bool: c;
        var bool: r;
        constraint array_bool_and([a, b, c], r);
        solve satisfy;
    """)
    assert len(p.inequalities) == 4
    got = solutions(p, "a", "b", "c", "r")
    want = {(a, b, c, int(a and b and c))
            for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    assert got == want


def test_bool_clause_single_literals():
    _, p = compile_src("""
        var bool: a;
        var bool: b;
        constraint bool_clause([a], [b]);
        solve satisfy;
    """)
    assert solutions(p, "a", "b") == {(0, 0), (1, 0), (1, 1)}


def test_bool_xor_ternary_truth_table():
    _, p = compile_src("""
        var bool: a;
        var bool: b;
        var bool: r;
        constraint bool_xor(a, b, r);
        solve satisfy;
    """)
    assert solutions(p, "a", "b", "r") == {
        (a, b, a ^ b) for a in (0, 1) for b in (0, 1)
    }


def test_bool_lt_reif_truth_table():
    _, p = compile_src("""
        var bool: a;
        var bool: b;
        var bool: r;
        constraint bool_lt_reif(a, b, r);
        solve satisfy;
    """)
    assert solutions(p, "a", "b", "r") == {
        (a, b, int(a < b)) for a in (0, 1) for b in (0, 1)
    }


def test_bool_and_three_rows():
    _, p = compile_src("""
        var bool: a;
        var bool: b;
        var bool: r;
        constraint bool_and(a, b, r);
        solve satisfy;
    """)
    assert len(p.products) == 0 and len(p.inequalities) == 3
    assert solutions(p, "a", "b", "r") == {
        (a, b, a & b) for a in (0, 1) for b in (0, 1)
    }


def test_set_in_and_reif():
    # set_in keeps the runs 2 and 4 within 1..6, restricts x to 2..4, and
    # computes x from one binary per run
    model, p = compile_src("""
        var 1..6: x;
        constraint set_in(x, {2, 4, 9});
        solve satisfy;
    """)
    b1, b2 = "__set_in_1_b", "__set_in_2_b"
    assert list(p.vars) == ["x", b1, b2] and p.vars["x"].domain == Domain(2, 4)
    assert p.equalities == [LinExpr({b1: 1, b2: 1}, -1),
                            LinExpr({"x": 1, b1: -2, b2: -4})]
    assert not p.inequalities and not p.onehot_groups
    assert check_equivalence(model, p).describe() == "Equal (2 solutions)"
    # segments 1, 2 and 3 of 1..3: x is computed, r is the run's binary
    model, p = compile_src("""
        var 1..3: x;
        var bool: r;
        constraint set_in_reif(x, {2}, r);
        solve satisfy;
    """)
    b1, b2, b3 = (f"__set_in_reif_{k}_b" for k in (1, 2, 3))
    assert p.equalities == [LinExpr({b1: 1, b2: 1, b3: 1}, -1),
                            LinExpr({"x": 1, b1: -1, b2: -2, b3: -3}),
                            LinExpr({"r": 1, b2: -1})]
    assert solutions(p, "x", "r") == {(1, 0), (2, 1), (3, 0)}


def test_set_in_reif_on_wide_segments():
    # segments 0..2, 3..5, 6..7, 8 and 9: two rows bound x by its segment
    model, p = compile_src("""
        var 0..9: x;
        var bool: r;
        constraint set_in_reif(x, {3, 4, 5, 8}, r);
        solve satisfy;
    """)
    b = [f"__set_in_reif_{k}_b" for k in range(1, 6)]
    assert list(p.vars) == ["x", "r", *b] and not p.onehot_groups
    assert p.equalities == [LinExpr(dict.fromkeys(b, 1), -1),
                            LinExpr({"r": 1, b[1]: -1, b[3]: -1})]
    assert p.inequalities == [
        LinExpr({"x": -1, b[1]: 3, b[2]: 6, b[3]: 8, b[4]: 9}),
        LinExpr({"x": 1, b[0]: -2, b[1]: -5, b[2]: -7, b[3]: -8, b[4]: -9})]
    assert check_equivalence(model, p).describe() == "Equal (10 solutions)"


@pytest.mark.parametrize("membership, domain", [
    ("set_in(x, 2..40)", Domain(2, 9)),
    ("set_in_reif(x, {3, 4}, true)", Domain(3, 4)),
    ("set_in_reif(x, 0..4, false)", Domain(5, 9)),
], ids=["set_in-range", "reif-true", "reif-false"])
def test_one_segment_is_the_literal_1(membership, domain):
    # x is restricted to the segment, so its bounds hold and only the
    # first row ships, to carry the source
    model, p = compile_src(f"var 0..9: x; constraint {membership}; solve satisfy;")
    assert list(p.vars) == ["x"] and p.vars["x"].domain == domain
    assert len(p.equalities) + len(p.inequalities) == 1
    assert check_equivalence(model, p).equal


def test_a_set_is_not_listed_value_by_value():
    # a 10^8-value range and a 2^31-value domain compile to a few rows
    model, p = compile_src("var 0..5: x; constraint set_in(x, 0..100000000); "
                           "solve satisfy;")
    assert list(p.vars) == ["x"]
    assert check_equivalence(model, p).describe() == "Equal (6 solutions)"
    _, p = compile_src("var 0..2147483648: x; var bool: r; "
                       "constraint set_in_reif(x, {1, 2}, r); solve satisfy;")
    assert len(p.vars) == 5 and len(p.serialize()) < 10_000


def test_set_in_empty_intersection_unsat():
    with pytest.raises(CompileUnsat):
        compile_src("""
            var 1..3: x;
            constraint set_in(x, {7, 8});
            solve satisfy;
        """)
    with pytest.raises(CompileUnsat, match="cannot take any value outside the set"):
        compile_src("""
            var 1..3: x;
            constraint set_in_reif(x, 0..3, false);
            solve satisfy;
        """)


def test_onehot_shared_between_constraints():
    _, p = compile_src("""
        var 1..3: i;
        var 0..9: c;
        constraint array_int_element(i, [4, 7, 1], c);
        constraint set_in(i, {1, 3});
        solve satisfy;
    """)
    assert len(p.onehot_groups) == 1  # one encoding per variable
    assert solutions(p, "i", "c") == {(1, 4), (3, 1)}


def test_element_reads_a_narrower_group():
    model, p = compile_src("""
        var 1..4: x;
        var 0..9: c;
        constraint set_in(x, {1, 3});
        constraint array_int_element(x, [5, 6, 7, 8], c);
        solve satisfy;
    """)
    # set_in restricts x to 1..3, so the group has no bit for index 4
    [group] = p.onehot_groups
    assert [v for _, v in group.bits] == [1, 2, 3]
    b1, b2, b3 = (bit for bit, _ in group.bits)
    assert list(p.vars) == ["x", "c", "__set_in_1_b", "__set_in_2_b", b1, b2, b3]
    element = p.equality_sources.index("array_int_element#1")
    assert p.equalities[element] == LinExpr({"c": -1, b1: 5, b2: 6, b3: 7})
    assert check_equivalence(model, p).describe() == "Equal (2 solutions)"


def test_objective_sense_mapping():
    # a problem has an objective exactly when the objective has terms
    _, p = compile_src("var 1..3: x;\nsolve satisfy;\n")
    assert not p.objective.terms and not p.objective_negated
    _, p = compile_src("var 1..3: x;\nsolve minimize x;\n")
    assert not p.objective_negated and p.objective.terms == {"x": 1}
    _, p = compile_src("var 1..3: x;\nsolve maximize x;\n")
    assert p.objective_negated and p.objective.terms == {"x": -1}


def test_compiled_problems_always_validate():
    sources = [
        "var -3..3: n;\nvar -2..2: d;\nvar -3..3: q;\n"
        "constraint int_div(n, d, q);\nsolve satisfy;\n",
        "var 0..2: a;\nvar 0..2: b;\nvar 0..4: c;\n"
        "constraint int_times(a, b, c);\nsolve satisfy;\n",
    ]
    for src in sources:
        _, p = compile_src(src)
        assert p.validate() == []



# Literals fold into every rewrite: a literal argument is a constant of
# the rows, never a variable, and a product with a literal factor is
# linear.


@pytest.mark.parametrize("builtin", sorted(SIGNATURES))
def test_literals_fold_in_every_rewrite(builtin):
    for seed in range(50):
        try:
            _, p = compile_src(generate(builtin, seed))
        except CompileUnsat:
            continue
        assert not [v for v in p.vars if v.startswith("__const_")]
        sources = p.equality_sources + p.inequality_sources + p.product_sources
        assert f"{builtin}#0" in sources, seed


def test_int_times_literal_factor_is_linear():
    model, p = compile_src("""
        var -3..3: x;
        var -9..9: y;
        constraint int_times(2, x, y);
        solve satisfy;
    """)
    assert not p.products
    assert check_equivalence(model, p).describe() == "Equal (7 solutions)"


# int_times(a, b, c) over variables is the product row c = a*b when c is
# declared after a and b; otherwise c equals a fresh product auxiliary.


def _rows(p):
    return ([(x.result, x.left, x.right) for x in p.products], p.equalities,
            p.inequalities)


def test_int_times_direct_path_is_one_product_onto_c():
    model, p = compile_src("""
        var -2..2: a;
        var -3..1: b;
        var -4..4: c;
        constraint int_times(a, b, c);
        solve satisfy;
    """)
    assert list(p.vars) == ["a", "b", "c"]
    assert not [v for v in p.vars if v.startswith("__int_times_")]
    assert _rows(p) == ([("c", "a", "b")], [], [])
    assert p.product_sources == ["int_times#0"]
    assert p.vars["c"].domain == Domain(-4, 4)
    assert solutions(p, "a", "b", "c") == {
        (a, b, a * b) for a in range(-2, 3) for b in range(-3, 2) if abs(a * b) <= 4}
    assert check_equivalence(model, p).equal


@pytest.mark.parametrize("decls, args, lhs", [
    ("var -4..4: c; var -2..2: a; var -2..2: b;", "a, b, c", LinExpr({"c": 1})),
    ("var -2..2: a; var -2..2: b;", "a, b, a", LinExpr({"a": 1})),
    ("var -2..2: a; var -2..2: b;", "a, b, 2", LinExpr(constant=2)),
])
def test_int_times_keeps_the_auxiliary_otherwise(decls, args, lhs):
    model, p = compile_src(f"{decls}\nconstraint int_times({args});\nsolve satisfy;\n")
    aux = "__int_times_1_p"
    assert list(p.vars)[-1] == aux
    assert p.equalities == [LinExpr({**lhs.terms, aux: -1}, lhs.constant)]
    assert _rows(p)[0] == [(aux, "a", "b")]
    assert p.equality_sources == p.product_sources == ["int_times#0"]
    assert check_equivalence(model, p).equal


def test_int_times_square_takes_the_direct_path():
    model, p = compile_src("""
        var -3..3: x;
        var 0..4: y;
        constraint int_times(x, x, y);
        solve satisfy;
    """)
    assert _rows(p) == ([("y", "x", "x")], [], [])
    assert solutions(p, "x", "y") == {(x, x * x) for x in range(-2, 3)}
    assert check_equivalence(model, p).describe() == "Equal (5 solutions)"


def test_int_times_links_build_no_linear_form(monkeypatch):
    # a direct-path link is one product row: no form per argument or row
    built = []
    init = LinExpr.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinExpr, "__init__", counting)
    counts = []
    for n in (10, 300):
        decls = "".join(f"var 0..1: x{i};\n" for i in range(n + 1))
        links = "".join(f"constraint int_times(x{i}, x{i}, x{i + 1});\n" for i in range(n))
        model = typecheck(parse_model(decls + links + "solve satisfy;\n"))
        built.clear()
        p = compile_model(model)
        assert len(p.products) == n and not p.equalities
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_two_int_times_onto_one_result_check_equal():
    model, p = compile_src("""
        var -2..2: a;
        var -2..2: b;
        var 0..3: d;
        var -4..4: c;
        constraint int_times(a, b, c);
        constraint int_times(d, a, c);
        solve satisfy;
    """)
    assert _rows(p) == ([("c", "a", "b"), ("c", "d", "a")], [], [])
    want = {(a, b, d, a * b) for a in range(-2, 3) for b in range(-2, 3)
            for d in range(4) if a * b == d * a}
    assert solutions(p, "a", "b", "d", "c") == want
    assert check_equivalence(model, p).describe() == f"Equal ({len(want)} solutions)"


def test_int_pow_square_takes_the_direct_path():
    model, p = compile_src("""
        var -2..2: x;
        var 0..9: z;
        constraint int_pow(x, 2, z);
        solve satisfy;
    """)
    assert list(p.vars) == ["x", "z"]
    assert _rows(p) == ([("z", "x", "x")], [], [])
    assert p.product_sources == ["int_pow#0"]
    assert check_equivalence(model, p).describe() == "Equal (5 solutions)"


def test_int_pow_cube_keeps_its_auxiliaries():
    model, p = compile_src("""
        var -2..2: x;
        var -9..9: z;
        constraint int_pow(x, 3, z);
        solve satisfy;
    """)
    assert list(p.vars) == ["x", "z", "__int_pow_1_e2", "__int_pow_1_e3"]
    assert _rows(p) == (
        [("__int_pow_1_e2", "x", "x"), ("__int_pow_1_e3", "x", "__int_pow_1_e2")],
        [LinExpr({"z": 1, "__int_pow_1_e3": -1})], [])
    assert check_equivalence(model, p).describe() == "Equal (5 solutions)"


@pytest.mark.parametrize("order", ["a, b, c", "c, a, b"])
def test_int_times_overflow_is_one_line_in_both_orders(tmp_path, capsys, order):
    big = 2**62
    decls = "".join(f"var {-big}..{big}: {x};\n" for x in order.split(", "))
    path = tmp_path / "m.fzn"
    path.write_text(decls + "constraint int_times(a, b, c);\nsolve satisfy;\n")
    assert run(["compile", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"overflow: integer {big * big} exceeds the supported range\n"


def test_int_pow_of_literals_is_one_row():
    _, p = compile_src("""
        var 0..9: z;
        constraint int_pow(2, 3, z);
        solve satisfy;
    """)
    assert list(p.vars) == ["z"] and not p.inequalities and not p.products
    assert p.equalities == [LinExpr({"z": 1}, -8)]
    assert p.equality_sources == ["int_pow#0"]


def test_set_in_of_a_literal():
    _, p = compile_src("""
        var 0..1: x;
        constraint set_in(3, {1, 3});
        solve satisfy;
    """)
    assert list(p.vars) == ["x"] and not p.onehot_groups
    assert p.equalities == [LinExpr()] and not p.inequalities
    assert p.equality_sources == ["set_in#0"]
    with pytest.raises(CompileUnsat):
        compile_src("""
            var 0..1: x;
            constraint set_in(2, {1, 3});
            solve satisfy;
        """)


def test_int_div_literal_divisor_has_one_product():
    _, p = compile_src("""
        var -5..5: n;
        var -3..3: q;
        constraint int_div(n, 2, q);
        solve satisfy;
    """)
    assert [(x.result, x.left, x.right) for x in p.products] == [
        ("__int_div_1_g", "__int_div_1_a", "__int_div_1_b")
    ]
    assert solutions(p, "n", "q") == {(n, int(n / 2)) for n in range(-5, 6)}


# Every comparison builtin is one relation on s = a - b (a linear one
# written [1, -1], [a, b], c with c = 0).  An argument is a domain
# "lo..hi", "bool" or a literal; the cases put s below, above, around and
# at 0, with a literal in each argument position.
RELATIONS = {
    "eq": lambda s: s == 0, "le": lambda s: s <= 0,
    "lt": lambda s: s < 0, "ne": lambda s: s != 0,
}
ROUTED = {
    "int_eq": "eq", "int_le": "le", "int_lt": "lt", "int_ne": "ne",
    "int_eq_reif": "eq", "int_le_reif": "le", "int_lt_reif": "lt",
    "int_ne_reif": "ne", "int_lin_eq": "eq", "int_lin_le": "le",
    "int_lin_ne": "ne", "int_lin_eq_reif": "eq", "int_lin_le_reif": "le",
    "int_lin_ne_reif": "ne", "bool_eq": "eq", "bool_le": "le",
    "bool_lin_le": "le", "bool_eq_reif": "eq", "bool_le_reif": "le",
    "bool_lt_reif": "lt", "bool_xor": "ne",
}
INT_CASES = {
    "negative": ("1..2", "4..5"),
    "positive": ("3..5", "0..1"),
    "straddle": ("-2..2", "-1..1"),
    "point-zero": ("2..2", "2..2"),
    "literal-a": (3, "-1..2"),
    "literal-b": ("-2..1", 1),
}
BOOL_CASES = {
    "straddle": ("bool", "bool"),
    "nonpositive": (False, "bool"),
    "nonnegative": ("bool", False),
    "point-negative": (False, True),
    "point-positive": (True, False),
    "point-zero": (True, True),
}


def _values(spec):
    if spec is None:
        return [None]
    if spec == "bool":
        return range(2)
    if not isinstance(spec, str):
        return [int(spec)]
    lo, hi = spec.split("..")
    return range(int(lo), int(hi) + 1)


def _comparison_src(builtin, a, b, r=None, c=0):
    """Model text for ``builtin`` on a and b, reified by r if given."""
    decls, args = [], []
    for name, spec in (("a", a), ("b", b), ("r", r)):
        if isinstance(spec, str):
            decls.append(f"var {spec}: {name};")
            args.append(name)
        elif spec is not None:
            args.append(str(spec).lower())  # 3, true, false
    if "_lin_" in builtin:
        args[:2] = ["[1, -1]", f"[{args[0]}, {args[1]}]", str(c)]
    return "\n".join(decls + [f"constraint {builtin}({', '.join(args)});",
                               "solve satisfy;"]) + "\n"


def _comparison_cases():
    for builtin in ROUTED:
        cases = BOOL_CASES if builtin.startswith("bool_") else INT_CASES
        reified = builtin.endswith("_reif") or builtin == "bool_xor"
        for (case, (a, b)), r in itertools.product(
                cases.items(), ["bool", True, False] if reified else [None]):
            yield pytest.param(builtin, a, b, r, id=f"{builtin}-{case}-r={r}")


@pytest.mark.parametrize("builtin, a, b, r", list(_comparison_cases()))
def test_comparison_truth_table(builtin, a, b, r):
    holds = RELATIONS[ROUTED[builtin]]
    specs = {"a": a, "b": b, "r": r}
    names = [n for n, spec in specs.items() if isinstance(spec, str)]
    want = set()
    for values in itertools.product(*(_values(s) for s in specs.values())):
        point = dict(zip(specs, values))
        held = holds(point["a"] - point["b"])
        if held if r is None else held == point["r"]:
            want.add(tuple(point[n] for n in names))
    try:
        _, p = compile_src(_comparison_src(builtin, a, b, r))
    except CompileUnsat:
        assert not want
        return
    assert not p.products
    if r is not None and not isinstance(r, str):
        assert not [v for v in p.vars if v.startswith("__const_")]
    assert solutions(p, *names) == want
    back = deserialize(p.serialize())
    assert f"{builtin}#0" in back.equality_sources + back.inequality_sources
    if len({holds(x - y) for x in _values(a) for y in _values(b)}) == 1:
        # the bounds decide the relation: one row and no auxiliary, an
        # equality on r alone when reified, an inequality for a plain ne
        assert all(v.is_model for v in p.vars.values())
        (row,) = p.equalities + p.inequalities
        if isinstance(r, str):
            assert p.equalities and set(row.terms) == {"r"}
        elif ROUTED[builtin] == ("eq" if r is False else "ne"):
            assert p.inequalities


def test_an_off_by_one_decision_is_a_counterexample(monkeypatch):
    """A pass that also drops the inequalities whose maximum is 1 changes
    the compiled solutions of some corpus model, and check tells."""
    real = rewrite._holds
    monkeypatch.setattr(rewrite, "_holds", lambda row, is_equality, variables: real(
        row if is_equality else LinExpr(row.terms, row.constant - 1), is_equality,
        variables))
    for builtin in sorted(SIGNATURES):
        for seed in range(50):
            model = typecheck(parse_model(generate(builtin, seed)))
            try:
                problem = compile_model(model)
            except CompileUnsat:
                continue
            if check_equivalence(model, problem).describe().startswith("Counterexample"):
                return
    pytest.fail("every corpus model checks Equal under the mutant")


def test_one_row_per_source_survives_the_pass(monkeypatch):
    # as if every row held: each source keeps its first row, x's group its
    # exactly-one row
    monkeypatch.setattr(rewrite, "_holds", lambda row, is_equality, variables: True)
    _, p = compile_src("""
        var 1..4: x;
        var 0..9: c;
        var 0..9: m;
        constraint set_in(x, {1, 3});
        constraint array_int_element(x, [5, 6, 7, 8], c);
        constraint int_max(x, c, m);
        solve satisfy;
    """)
    assert p.equality_sources == ["set_in#0", "onehot:x", "array_int_element#1"]
    assert p.inequality_sources == ["int_max#2"]
    assert [v for v in p.vars if v.startswith("__int_max")] == []
    assert "onehot:x" in enumerate_qip(p).free_names


@pytest.mark.parametrize("r", [None, "bool"])
@pytest.mark.parametrize("binary, linear, c", [
    ("int_eq", "int_lin_eq", 0), ("int_le", "int_lin_le", 0),
    ("int_ne", "int_lin_ne", 0), ("int_lt", "int_lin_le", -1),
])
@pytest.mark.parametrize("a, b", list(INT_CASES.values()), ids=list(INT_CASES))
def test_binary_and_linear_forms_compile_alike(binary, linear, c, a, b, r):
    suffix = "_reif" if r else ""

    def counts(builtin, c=0):
        try:
            _, p = compile_src(_comparison_src(builtin + suffix, a, b, r, c))
        except CompileUnsat:
            return "unsat"
        return (len(p.vars), len(p.equalities), len(p.inequalities),
                len(p.products))

    assert counts(binary) == counts(linear, c)


SHARED_RECORDS_SRC = """\
array [1..3] of int: c = [1, -2, 3];
var 0..2: x; var 0..2: y; var bool: b;
array [1..2] of var int: xs = [x, y];
constraint int_lin_le([1, -2], xs, 1);
constraint int_lin_eq_reif([1, 1], xs, 2, b);
constraint array_int_element(x, c, y);
constraint array_int_element(y, c, x);
constraint set_in(y, {0, 2});
constraint set_in_reif(x, {0, 2}, b);
solve maximize x;
"""


def test_compiling_and_proving_leave_the_records_as_they_were():
    """The records of both models (``Lit``, ``Ref``, ``Arr``, ``SetVal``,
    ``Domain``, ``VarDecl``, ``ConstraintItem``, ``QipVar``) are slotted,
    not frozen, and some are shared: the checked model holds the parsed
    arguments, a parameter array is one ``Arr`` in every constraint that
    names it, a compiled variable starts with its declaration's domain,
    and ``BINARY`` is the domain of every binary auxiliary.  Compiling,
    serializing, proving and solving leave each of them as it was."""
    import copy

    from fzn2qip.model import BINARY

    texts = [generate(b, seed) for b in sorted(SIGNATURES) for seed in range(10)]
    for text in [*texts, SHARED_RECORDS_SRC]:
        parsed = parse_model(text)
        model = typecheck(parsed)
        records = (parsed.vars, parsed.params, parsed.arrays, parsed.constraints,
                   model.vars, model.constraints)
        before = copy.deepcopy(records)
        try:
            problem = compile_model(model)
        except CompileUnsat:
            problem = None
        check_equivalence(model, problem)
        if problem is not None:
            declared = {name: copy.copy(v.declared) for name, v in problem.vars.items()}
            enumerate_qip(deserialize(problem.serialize()))
            assert {name: v.declared for name, v in problem.vars.items()} == declared
        assert records == before, text
    assert BINARY == Domain(0, 1)
