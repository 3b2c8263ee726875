"""Acceptance suite: one test per criterion, one pass/fail line each.

The shared corpus fixture compiles and exhaustively enumerates 50 seeded
random instances per supported builtin; the criteria then interrogate
those results from different angles (equivalence, reified truth tables,
domain restrictions, one-hot invariants).
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from fzn2qip.bounds import abs_bounds, compute_big_m, lin_bounds, product_bounds
from fzn2qip.cli import run
from fzn2qip.errors import CompileUnsat
from fzn2qip.frontend import SIGNATURES, Ref, parse_model, typecheck
from fzn2qip.fuzz import generate, generate_opt
from fzn2qip.model import Domain
from fzn2qip.oracle import (
    check_equivalence,
    enumerate_fzn,
    enumerate_qip,
    solve_optimum,
)
from fzn2qip.rewrite import RewriteOptions, compile_model

BUILTINS = sorted(SIGNATURES)
INSTANCES = 50
RUNTIME_BUDGET_S = 600.0

REIFIED = [b for b in BUILTINS if b.endswith("_reif")]
RESTRICTING = {
    "array_int_element", "array_bool_element",
    "array_var_int_element", "array_var_bool_element",
    "array_int_maximum", "array_int_minimum",
}
ONEHOT_USERS = {
    "array_int_element", "array_bool_element",
    "array_var_int_element", "array_var_bool_element",
}


@dataclass
class Entry:
    builtin: str
    seed: int
    src: str
    model: object
    problem: object = None  # None when compile proved UNSAT
    fzn_names: list = field(default_factory=list)
    fzn_sols: set = field(default_factory=set)
    equal: bool = False


@pytest.fixture(scope="module")
def corpus():
    start = time.monotonic()
    entries = []
    for builtin in BUILTINS:
        for seed in range(INSTANCES):
            src = generate(builtin, seed)
            model = typecheck(parse_model(src))
            entry = Entry(builtin, seed, src, model)
            entry.fzn_names, entry.fzn_sols = enumerate_fzn(model)
            try:
                entry.problem = compile_model(model)
            except CompileUnsat:
                entry.equal = not entry.fzn_sols
            else:
                res = check_equivalence(model, entry.problem)
                entry.equal = res.equal
            entries.append(entry)
    return entries, time.monotonic() - start


def _report(criterion, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {criterion} ({description}): {status}")
    assert not failures, f"criterion {criterion}: {failures[:5]}"


def test_criterion_1_per_builtin_exhaustive_equivalence(corpus):
    entries, elapsed = corpus
    failures = [
        f"{e.builtin} seed {e.seed}" for e in entries if not e.equal
    ]
    if elapsed >= RUNTIME_BUDGET_S:
        failures.append(f"runtime {elapsed:.0f}s exceeds budget")
    assert len(entries) == len(BUILTINS) * INSTANCES
    _report(1, "per-builtin exhaustive equivalence", failures)


def test_criterion_2_reified_truth_table_exactness(corpus):
    entries, _ = corpus
    failures = []
    for e in entries:
        if e.builtin not in REIFIED or e.problem is None:
            continue
        r_arg = e.model.constraints[0].args[-1]
        if not isinstance(r_arg, Ref):
            continue  # fixed reification literal: no table to check
        r = r_arg.name
        others = [n for n in e.fzn_names if n != r]
        space = 1
        for n in others:
            space *= len(e.model.vars[n].domain)
        cols = [e.fzn_names.index(n) for n in others]
        groups = {}
        for t in e.fzn_sols:
            key = tuple(t[i] for i in cols)
            groups.setdefault(key, set()).add(t[e.fzn_names.index(r)])
        if len(groups) != space or any(len(rs) != 1 for rs in groups.values()):
            failures.append(f"{e.builtin} seed {e.seed}")
    _report(2, "reified truth-table exactness", failures)


def test_criterion_3_big_m_minimality():
    rng = random.Random(31)
    failures = []

    def dom():
        lo = rng.randint(-6, 6)
        return Domain(lo, rng.randint(lo, 6))

    for trial in range(100):
        n, q = dom(), dom()
        d = dom()
        if d.lo == 0 and d.hi == 0:
            d = Domain(1, 2)
        p = product_bounds(d, q)
        m = compute_big_m(n, d, q, p)
        requirements = [
            p.hi - n.lo,
            n.hi - p.lo,
            n.hi - d.lo - p.lo + 1,
            -n.lo + d.hi + p.hi + 1,
            n.hi + d.hi - p.lo + 1,
            -n.lo - d.lo + p.hi + 1,
        ]
        if any(m < r for r in requirements):
            failures.append(f"trial {trial}: {m} too small")
        if all(m - 1 >= r for r in requirements):
            failures.append(f"trial {trial}: {m} not minimal")
    if compute_big_m(Domain(-3, 3), Domain(-2, 2), Domain(-3, 3),
                     Domain(-6, 6)) != 12:
        failures.append("worked instance did not yield 12")
    _report(3, "big-M minimality", failures)


def test_criterion_4_bounds_exactness(corpus):
    entries, _ = corpus
    rng = random.Random(41)
    failures = []

    def dom(width=7):
        lo = rng.randint(-9, 9)
        return Domain(lo, rng.randint(lo, min(9, lo + width - 1)))

    for trial in range(200):
        k = rng.randint(1, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        ds = [dom() for _ in range(k)]
        c = rng.randint(-5, 5)
        values = [
            sum(co * v for co, v in zip(coeffs, combo)) - c
            for combo in itertools.product(*(d.values() for d in ds))
        ]
        if lin_bounds(coeffs, ds, c) != Domain(min(values), max(values)):
            failures.append(f"lin_bounds trial {trial}")
    for trial in range(200):
        d1, d2 = dom(), dom()
        values = [a * b for a in d1.values() for b in d2.values()]
        got = product_bounds(d1, d2)
        if (got.lo, got.hi) != (min(values), max(values)):
            failures.append(f"product_bounds trial {trial}")
    for trial in range(200):
        d = dom()
        values = [abs(v) for v in d.values()]
        if abs_bounds(d) != Domain(min(values), max(values)):
            failures.append(f"abs_bounds trial {trial}")

    # element/minmax restrictions never exclude a true solution value
    for e in entries:
        if e.builtin not in RESTRICTING or e.problem is None:
            continue
        for t in e.fzn_sols:
            for name, value in zip(e.fzn_names, t):
                if value not in e.problem.vars[name].domain:
                    failures.append(
                        f"{e.builtin} seed {e.seed}: {name}={value} excluded"
                    )
                    break
            else:
                continue
            break
    _report(4, "bounds exactness", failures)


def test_criterion_5_onehot_invariants(corpus):
    entries, _ = corpus
    failures = []
    checked = 0
    for e in entries:
        if e.builtin not in ONEHOT_USERS or e.problem is None:
            continue
        if not e.problem.onehot_groups:
            continue
        owners = [g.int_var for g in e.problem.onehot_groups]
        if len(owners) != len(set(owners)):
            failures.append(f"{e.builtin} seed {e.seed}: duplicate group owner")
            continue
        enum = enumerate_qip(e.problem, keep_full=True)
        pos = {n: i for i, n in enumerate(enum.names)}
        for sol in enum.full_solutions:
            for g in e.problem.onehot_groups:
                bits = [sol[pos[b]] for b, _ in g.bits]
                value = sum(v * sol[pos[b]] for b, v in g.bits)
                if sum(bits) != 1 or value != sol[pos[g.int_var]]:
                    failures.append(f"{e.builtin} seed {e.seed}")
                    break
            else:
                continue
            break
        checked += 1
    assert checked > 0
    _report(5, "one-hot invariants", failures)


def test_criterion_6_optimization_agreement():
    failures = []
    for seed in range(20):
        src = generate_opt(seed)
        model = typecheck(parse_model(src))
        try:
            problem = compile_model(model)
        except CompileUnsat:
            _, sols = enumerate_fzn(model)
            if sols:
                failures.append(f"seed {seed}: compile UNSAT but satisfiable")
            continue
        res = solve_optimum(model, problem)
        if not res.agrees:
            failures.append(
                f"seed {seed}: {res.fzn_status}/{res.fzn_value} vs "
                f"{res.qip_status}/{res.qip_value}"
            )
    _report(6, "optimization agreement", failures)


def test_criterion_7_int_pow_decomposition():
    failures = []
    for exponent, z_dom in ((5, "-32..32"), (8, "0..256")):
        src = (
            f"var -2..2: x;\nvar {z_dom}: z;\n"
            f"constraint int_pow(x, {exponent}, z);\nsolve satisfy;\n"
        )
        model = typecheck(parse_model(src))
        problem = compile_model(model)
        if len(problem.products) != 3:
            failures.append(f"x^{exponent}: {len(problem.products)} products")
        enum = enumerate_qip(problem)
        xi = enum.model_names.index("x")
        zi = enum.model_names.index("z")
        got = {(t[xi], t[zi]) for t in enum.solutions}
        want = {(x, x ** exponent) for x in range(-2, 3)}
        if got != want:
            failures.append(f"x^{exponent}: pointwise mismatch")
    _report(7, "int_pow decomposition", failures)


def test_criterion_8_deterministic_recompilation(corpus):
    entries, _ = corpus
    failures = []
    for e in entries:
        if e.problem is None:
            continue
        model = typecheck(parse_model(e.src))
        again = compile_model(model, RewriteOptions())
        if again.serialize() != e.problem.serialize():
            failures.append(f"{e.builtin} seed {e.seed}")
    _report(8, "deterministic recompilation", failures)


def test_criterion_9_negative_controls(tmp_path, capsys):
    failures = []
    div = tmp_path / "div.fzn"
    div.write_text(
        "var -1..0: n;\nvar -2..0: d;\nvar 0..0: q;\n"
        "constraint int_div(n, d, q);\nsolve satisfy;\n"
    )
    if run(["check", str(div), "--corrupt-div-big-m"]) != 2:
        failures.append("decremented big-M control did not exit 2")
    and3 = tmp_path / "and.fzn"
    and3.write_text(
        "var bool: a;\nvar bool: b;\nvar bool: c;\nvar bool: r;\n"
        "constraint array_bool_and([a, b, c], r);\nsolve satisfy;\n"
    )
    if run(["check", str(and3), "--corrupt-bool-and"]) != 2:
        failures.append("dropped lower-bound control did not exit 2")
    captured = capsys.readouterr()
    if captured.out.count("Counterexample") != 2:
        failures.append("missing counterexample reports")
    _report(9, "negative controls", failures)
