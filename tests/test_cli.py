"""CLI subcommands, exit codes, and output determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fzn2qip
from fzn2qip import cli
from fzn2qip.cli import run
from fzn2qip.frontend import SIGNATURES
from fzn2qip.fuzz import generate
from fzn2qip.model import QipProblem

GOOD = """\
var 1..3: x;
var 1..3: y;
constraint int_ne(x, y);
solve satisfy;
"""

DIV = """\
var -1..0: n;
var -2..0: d;
var 0..0: q;
constraint int_div(n, d, q);
solve satisfy;
"""

AND3 = """\
var bool: a;
var bool: b;
var bool: c;
var bool: r;
constraint array_bool_and([a, b, c], r);
solve satisfy;
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_compile_to_stdout_and_file(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", GOOD)
    assert run(["compile", src]) == 0
    text = capsys.readouterr().out
    assert '"variables"' in text
    dest = tmp_path / "out.qip"
    assert run(["compile", src, "-o", str(dest)]) == 0
    assert dest.read_text() == text


def test_compile_is_deterministic(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", DIV)
    assert run(["compile", src]) == 0
    first = capsys.readouterr().out
    assert run(["compile", src]) == 0
    assert capsys.readouterr().out == first


def test_check_equal_exit_0(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", GOOD)
    assert run(["check", src]) == 0
    assert capsys.readouterr().out.startswith("Equal")


def test_check_negative_controls_exit_2(tmp_path, capsys):
    div = write(tmp_path, "div.fzn", DIV)
    assert run(["check", div, "--corrupt-div-big-m"]) == 2
    assert "Counterexample" in capsys.readouterr().out
    and3 = write(tmp_path, "and.fzn", AND3)
    assert run(["check", and3, "--corrupt-bool-and"]) == 2
    assert "Counterexample" in capsys.readouterr().out


def test_check_verbatim_div_loses_zero_numerator(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var -3..3: n;
var -2..2: d;
var -3..3: q;
constraint int_div(n, d, q);
solve satisfy;
""")
    assert run(["check", src]) == 0
    capsys.readouterr()
    assert run(["check", src, "--verbatim-div"]) == 2
    assert "n=0" in capsys.readouterr().out


def test_diagnostics_exit_1(tmp_path, capsys):
    bad = write(tmp_path, "bad.fzn", "var float: x;\nsolve satisfy;\n")
    assert run(["compile", bad]) == 1
    err = capsys.readouterr().err
    assert "unsupported" in err
    assert err.startswith(bad + ":")


def test_compile_unsat_exit_4(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var 1..3: x;
constraint set_in(x, {7});
solve satisfy;
""")
    assert run(["compile", src]) == 4
    assert "UNSAT" in capsys.readouterr().err


def test_check_compile_unsat_agreeing_is_equal(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var 1..3: x;
constraint set_in(x, {7});
solve satisfy;
""")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out.startswith("Equal (0 solutions)")


def test_cap_exceeded_exit_3(tmp_path):
    src = write(
        tmp_path, "m.fzn",
        "\n".join(f"var -4..4: v{i};" for i in range(8)) + "\nsolve satisfy;\n",
    )
    assert run(["check", src, "--cap", "100"]) == 3


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_run_pauses_the_collector_and_restores_it(tmp_path, capsys, monkeypatch, enabled):
    """A command runs with the cyclic collector paused, and ``run`` leaves
    it as the caller had it after success, a diagnostic and a cap stop."""
    during = []

    def compile_command(ns):
        during.append(gc.isenabled())
        return real(ns)

    real = cli._cmd_compile
    monkeypatch.setattr(cli, "_cmd_compile", compile_command)
    good = write(tmp_path, "m.fzn", GOOD)
    bad = write(tmp_path, "bad.fzn", "var float: x;\nsolve satisfy;\n")
    wide = write(tmp_path, "wide.fzn",
                 "\n".join(f"var -4..4: v{i};" for i in range(8)) + "\nsolve satisfy;\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in ((["compile", good], 0), (["check", good], 0),
                           (["compile", bad], 1), (["check", wide, "--cap", "100"], 3)):
            assert (run(argv), gc.isenabled()) == (code, enabled), argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert during == [False, False]


def _entry_point_calls():
    """(label, call, the error it raises or None) for each library entry
    point: one call that returns and one that raises."""
    good = fzn2qip.typecheck(fzn2qip.parse_model(GOOD))
    problem = fzn2qip.compile_model(good)
    text = problem.serialize()
    minimize = fzn2qip.typecheck(fzn2qip.parse_model("var 2..5: x;\nsolve minimize x;\n"))
    wide = fzn2qip.typecheck(fzn2qip.parse_model(
        "\n".join(f"var -4..4: v{i};" for i in range(8)) + "\nsolve minimize v0;\n"))
    wide_problem = fzn2qip.compile_model(wide)
    unsat = fzn2qip.typecheck(fzn2qip.parse_model(
        "var 1..3: x;\nconstraint set_in(x, {7, 8});\nsolve satisfy;\n"))
    cap = fzn2qip.CapExceeded
    return [
        ("parse_model", lambda: fzn2qip.parse_model(GOOD), None),
        ("parse_model", lambda: fzn2qip.parse_model("var float: x;\nsolve satisfy;\n"),
         fzn2qip.Diagnostic),
        ("typecheck", lambda: fzn2qip.typecheck(fzn2qip.parse_model(GOOD)), None),
        ("typecheck", lambda: fzn2qip.typecheck(fzn2qip.parse_model(
            "var 0..1: x;\nconstraint int_le(x, y);\nsolve satisfy;\n")), fzn2qip.Diagnostic),
        ("compile_model", lambda: fzn2qip.compile_model(good), None),
        ("compile_model", lambda: fzn2qip.compile_model(unsat), fzn2qip.CompileUnsat),
        ("deserialize", lambda: fzn2qip.deserialize(text), None),
        ("deserialize", lambda: fzn2qip.deserialize("{}"), fzn2qip.Fzn2QipError),
        ("enumerate_fzn", lambda: fzn2qip.enumerate_fzn(good), None),
        ("enumerate_fzn", lambda: fzn2qip.enumerate_fzn(wide, 100), cap),
        ("enumerate_qip", lambda: fzn2qip.enumerate_qip(problem), None),
        ("enumerate_qip", lambda: fzn2qip.enumerate_qip(wide_problem, 100), cap),
        ("check_equivalence", lambda: fzn2qip.check_equivalence(good, problem), None),
        ("check_equivalence", lambda: fzn2qip.check_equivalence(wide, wide_problem, 100), cap),
        ("solve_optimum", lambda: fzn2qip.solve_optimum(
            minimize, fzn2qip.compile_model(minimize)), None),
        ("solve_optimum", lambda: fzn2qip.solve_optimum(wide, wide_problem, 100), cap),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_library_entry_points_restore_the_collector(enabled):
    """Each entry point leaves the collector as the caller had it, on
    return and on a diagnostic, a compile-time UNSAT or a cap stop."""
    calls = _entry_point_calls()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for label, call, error in calls:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() == enabled, (label, error)
    finally:
        (gc.enable if was else gc.disable)()
    assert {label for label, _, _ in calls} == {
        "parse_model", "typecheck", "compile_model", "deserialize", *fzn2qip._PROOF_NAMES}


def test_library_entry_points_run_with_the_collector_paused(monkeypatch):
    """A parse runs with the collector off, and a nested call
    (``check_equivalence`` calling ``enumerate_qip``) leaves it off for
    the rest of the outer call: only the outermost turns it back on."""
    from fzn2qip import frontend, oracle

    seen = []
    real_model, real_enumerate_qip = frontend._Parser.model, oracle.enumerate_qip

    def model(parser):
        seen.append(("parse", gc.isenabled()))
        return real_model(parser)

    def enumerate_qip(*args):
        seen.append(("after enumerate_fzn", gc.isenabled()))
        result = real_enumerate_qip(*args)
        seen.append(("after enumerate_qip", gc.isenabled()))
        return result

    monkeypatch.setattr(frontend._Parser, "model", model)
    monkeypatch.setattr(oracle, "enumerate_qip", enumerate_qip)
    was = gc.isenabled()
    gc.enable()
    try:
        m = fzn2qip.typecheck(fzn2qip.parse_model(GOOD))
        assert gc.isenabled()
        assert oracle.check_equivalence(m, fzn2qip.compile_model(m)).equal
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [("parse", False), ("after enumerate_fzn", False),
                    ("after enumerate_qip", False)]


@pytest.mark.parametrize("n", [65, 20_000])
def test_check_fixed_chain_past_64_variables(tmp_path, capsys, n):
    """A fixed variable takes no axis of the source tables, so a
    model with more than 64 of them checks."""
    src = write(tmp_path, "chain.fzn", "\n".join(
        [f"var 1..1: x{i};" for i in range(n)]
        + [f"constraint int_times(x{i}, x{i}, x{i + 1});" for i in range(n - 1)]
        + ["solve satisfy;", ""]))
    assert run(["check", src]) == 0
    assert capsys.readouterr().out == "Equal (1 solutions)\n"


def test_space_past_int64_indexing_is_one_line_exit_3(tmp_path, capsys):
    """2^65 assignments is within the cap asked for, but past the most a
    proof enumerates: ``check`` and ``solve`` each stop at once."""
    src = write(tmp_path, "m.fzn",
                "\n".join(f"var 0..1: x{i};" for i in range(65)) + "\nsolve satisfy;\n")
    for command in ("check", "solve"):
        assert run([command, src, "--cap", "1" + "0" * 30]) == 3, command
        out = capsys.readouterr()
        (line,) = out.err.splitlines()
        assert out.out == ""
        assert line.startswith("cap exceeded: state space of ~3.7e19 assignments exceeds "
                               "2^63 - 1, the most a proof enumerates;"), command


def test_solve_minimize_prints_value(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", "var 2..5: x;\nsolve minimize x;\n")
    assert run(["solve", src]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_solve_maximize_and_satisfy(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", "var 2..5: x;\nsolve maximize x;\n")
    assert run(["solve", src]) == 0
    assert capsys.readouterr().out.strip() == "5"
    sat = write(tmp_path, "s.fzn", GOOD)
    assert run(["solve", sat]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


def test_stats_counts(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", DIV)
    assert run(["stats", src]) == 0
    text = capsys.readouterr().out
    assert "variables:" in text and "products: 2" in text


def test_fuzz_subcommand_deterministic(capsys):
    assert run(["fuzz", "int_abs", "--instances", "2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert first.count("constraint int_abs") == 2
    assert run(["fuzz", "int_abs", "--instances", "2", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_fuzz_unknown_builtin_is_one_line_exit_1(capsys):
    assert run(["fuzz", "bogus"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "unknown-builtin: no supported builtin is named 'bogus'\n"


def test_missing_file_exit_1(capsys):
    assert run(["compile", "/nonexistent/x.fzn"]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv, start", [
    (["check", "m.fzn", "--cap", "abc"], "argument --cap: invalid int value: 'abc'"),
    (["check"], "the following arguments are required: input"),
    (["frob", "m.fzn"], "argument command: invalid choice: 'frob'"),
    (["compile", "m.fzn", "--cap", "5"], "unrecognized arguments: --cap 5"),
    (["stats", "m.fzn", "--cap", "5"], "unrecognized arguments: --cap 5"),
    (["check", "m.fzn", "--cap", "-5"], "argument --cap: invalid positive int value: '-5'"),
    (["solve", "m.fzn", "--cap", "0"], "argument --cap: invalid positive int value: '0'"),
    (["fuzz", "int_le", "--instances", "-3"],
     "argument --instances: invalid positive int value: '-3'"),
    (["fuzz", "int_le", "--instances", "0"],
     "argument --instances: invalid positive int value: '0'"),
    (["compile", "m.fzn", "--corrupt-div-big-m"],
     "unrecognized arguments: --corrupt-div-big-m"),
    (["solve", "m.fzn", "--corrupt-bool-and"], "unrecognized arguments: --corrupt-bool-and"),
    (["stats", "m.fzn", "--corrupt-div-big-m"],
     "unrecognized arguments: --corrupt-div-big-m"),
], ids=["bad-int", "missing-input", "unknown-subcommand", "compile-cap", "stats-cap",
        "negative-cap", "zero-cap", "negative-instances", "zero-instances",
        "compile-corrupt", "solve-corrupt", "stats-corrupt"])
def test_usage_error_is_one_line_exit_1(capsys, argv, start):
    """Not argparse's exit 2, which is the counterexample code."""
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage-error: {start}") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--help"])
    assert exc.value.code == 0
    assert "--cap" in capsys.readouterr().out


def test_non_utf8_input_is_one_line_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.fzn"
    path.write_bytes(b"var 0..1: x\xff;\nsolve satisfy;\n")
    for command in ("check", "compile", "solve", "stats"):
        assert run([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"{path}: encoding-error: "
                       "byte 0xff at offset 11 is not valid UTF-8\n")


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "bom.fzn"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode())
    assert run(["check", str(path)]) == 0
    assert capsys.readouterr().out == "Equal (6 solutions)\n"


def test_byte_order_mark_keeps_file_offsets(tmp_path, capsys):
    path = tmp_path / "bom.fzn"
    path.write_bytes(b"\xef\xbb\xbfvar \xff")
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"{path}: encoding-error: byte 0xff at offset 7 is not valid UTF-8\n")


# U+0663 is ARABIC-INDIC DIGIT THREE, U+00A0 a no-break space
@pytest.mark.parametrize("char", ["\u0663", "\u00a0"])
def test_non_ascii_digit_or_space_is_a_syntax_error(tmp_path, capsys, char):
    src = write(tmp_path, "m.fzn",
                f"var 0..1: x;\nconstraint int_le(x,{char}1);\nsolve satisfy;\n")
    assert run(["check", src]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{src}:2:21: syntax-error: unexpected character {char!r}\n"


def test_check_proves_the_serialized_text(tmp_path, capsys, monkeypatch):
    serialize = QipProblem.serialize

    def drop_an_inequality(problem):
        doc = json.loads(serialize(problem))
        del doc["inequalities"][0], doc["meta"]["inequality_sources"][0]
        return json.dumps(doc, indent=1) + "\n"

    monkeypatch.setattr(QipProblem, "serialize", drop_an_inequality)
    src = write(tmp_path, "m.fzn", GOOD)
    assert run(["check", src]) == 2
    assert capsys.readouterr().out.startswith(
        "Counterexample (compiled problem only)")


def test_nested_array_is_a_syntax_error(tmp_path, capsys):
    deep = "[" * 3000 + "x" + "]" * 3000
    src = write(tmp_path, "m.fzn",
                f"var bool: x;\nconstraint bool_clause({deep}, []);\nsolve satisfy;\n")
    assert run(["check", src]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == f"{src}:2:25: syntax-error: nested array\n"


def test_check_empty_extremum_is_equal(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var 0..3: x;
constraint array_int_minimum(x, []);
solve satisfy;
""")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out.startswith("Equal (0 solutions)")


def test_int_lin_ne_of_a_constant_zero_form_is_unsat(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
constraint int_lin_ne([1], [2], 2);
solve satisfy;
""")
    assert run(["compile", src]) == 4
    assert capsys.readouterr().err.startswith("UNSAT: constraint int_lin_ne#0")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out == "Equal (0 solutions)\n"


def test_integer_literal_past_the_digit_limit_is_one_line_exit_1(tmp_path, capsys):
    # int() converts at most 4,300 digits by default
    src = write(tmp_path, "m.fzn", "var 0..1: x; constraint int_le(x, "
                + "9" * 5000 + "); solve satisfy;\n")
    assert run(["check", src]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"{src}:1:35: unsupported-item: "
                   "unsupported: integer literal of 5000 digits\n")


def test_integer_literal_past_int64_is_an_overflow(tmp_path, capsys):
    big = "9" * 100
    src = write(tmp_path, "m.fzn",
                f"var 0..1: x; constraint int_le(x, {big}); solve satisfy;\n")
    assert run(["check", src]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"overflow: integer {big} exceeds the supported range\n"


@pytest.mark.parametrize("terms", ["[0, x]", "[x, x]"])
def test_coefficient_past_int64_is_an_overflow(tmp_path, capsys, terms):
    # also when its term is the literal 0, where the product is 0
    big = 10**30
    src = write(tmp_path, "m.fzn", f"var 0..1: x; constraint int_lin_eq([{big}, 1], "
                f"{terms}, 1); solve satisfy;\n")
    assert run(["check", src]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"overflow: integer {big} exceeds the supported range\n"


# One literal at the edge of or past the supported range (2**62), at each
# int position of each builtin, every other argument valid; the digest
# covers each model's exit code, stderr line and output.
RANGE_LITERALS = (2**62, 2**62 + 1, -(2**62 + 1), 10**30 - 1)
RANGE_DIGEST = "da89e7f0b504092a92bc8ed20453be71ab5561b51ad08b95e02fc322927fb1b2"


def _range_literal_model(builtin, sig, pos, value):
    decls = []

    def var(kind):
        decls.append(f"var {'bool' if kind == 'bv' else '-1..2'}: v{len(decls)};")
        return f"v{len(decls) - 1}"

    args = []
    for i, kind in enumerate(sig):
        if i == pos:
            args.append(str(value) if kind in ("iv", "ic")
                        else f"[{value}, {'2' if kind == 'ia' else var('iv')}]")
        elif builtin == "int_pow" and i == 1:
            args.append("2")
        elif kind in ("iv", "bv"):
            args.append(var(kind))
        elif kind in ("iva", "bva"):
            args.append(f"[{var(kind[:2])}, {var(kind[:2])}]")
        else:
            args.append({"ic": "1", "ia": "[1, 2]", "ba": "[1, 0]", "set": "{1, 2}"}[kind])
    return "\n".join(decls + [f"constraint {builtin}({', '.join(args)});",
                              "solve satisfy;"]) + "\n"


def test_literals_past_the_supported_range_are_pinned(tmp_path, capsys):
    src = str(tmp_path / "m.fzn")
    digest, count = hashlib.sha256(), 0
    for builtin, sigs in sorted(SIGNATURES.items()):
        for sig in sigs:
            for pos, kind in enumerate(sig):
                if kind not in ("iv", "ic", "ia", "iva"):
                    continue
                for value in RANGE_LITERALS:
                    write(tmp_path, "m.fzn", _range_literal_model(builtin, sig, pos, value))
                    code = run(["compile", src])
                    out, err = capsys.readouterr()
                    digest.update(repr((builtin, len(sig), pos, value, code,
                                        err.replace(src, "m.fzn"),
                                        hashlib.sha256(out.encode()).hexdigest())).encode())
                    count += 1
    assert count == 304
    assert digest.hexdigest() == RANGE_DIGEST


def test_int_pow_variable_exponent_is_one_line_exit_1(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var 0..2: x;
var 1..2: y;
var 0..4: z;
constraint int_pow(x, y, z);
solve satisfy;
""")
    assert run(["check", src]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "unsupported-exponent: exponent must be a fixed value\n"


def test_check_empty_array_bool_and_is_true(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var bool: r;
constraint array_bool_and([], r);
solve satisfy;
""")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out == "Equal (1 solutions)\n"
    assert run(["check", src, "--corrupt-bool-and"]) == 2
    assert capsys.readouterr().out == (
        "Counterexample (compiled problem only): r=0 [1 vs 2 solutions]\n")


def test_corrupt_bool_and_also_drops_the_bool_and_row(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var bool: a;
var bool: b;
var bool: r;
constraint bool_and(a, b, r);
solve satisfy;
""")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out == "Equal (4 solutions)\n"
    assert run(["check", src, "--corrupt-bool-and"]) == 2
    assert capsys.readouterr().out == (
        "Counterexample (compiled problem only): a=1 b=1 r=0 [4 vs 5 solutions]\n")


def test_check_empty_element_array_is_equal(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var 1..3: i;
var 0..3: c;
constraint array_int_element(i, [], c);
solve satisfy;
""")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out == "Equal (0 solutions)\n"


def test_element_with_one_reachable_value_has_no_onehot_group(tmp_path, capsys):
    src = write(tmp_path, "m.fzn", """\
var 1..2: i;
var 0..5: c;
constraint array_int_element(i, [3, 3], c);
solve satisfy;
""")
    assert run(["stats", src]) == 0
    assert capsys.readouterr().out == (
        "variables: 2 (2 model, 0 auxiliary)\nequalities: 1\ninequalities: 0\n"
        "products: 0\nonehot-groups: 0\n")
    assert run(["check", src]) == 0
    assert capsys.readouterr().out == "Equal (2 solutions)\n"

# Digits may be added too: a set literal lo..hi is one run, however wide.
_EDIT_CHARS = "\n\r\t %\".:;,()[]{}-+0123456789eExé?@\x00\u2028"
CORPUS_TEXTS = [generate(b, seed) for b in sorted(SIGNATURES) for seed in range(50)]


def _edited(source: str, edits) -> bytes:
    data = bytearray(source.encode())
    for where, op, ch, bit in edits:
        i = int(where * len(data))
        if op == "insert":
            data[i:i] = ch.encode()
        elif op == "truncate":
            del data[i:]
        elif i < len(data):
            if op == "replace":
                data[i:i + 1] = ch.encode()
            elif op == "delete":
                del data[i]
            else:
                data[i] ^= 1 << bit
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CORPUS_TEXTS),
    st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                       st.sampled_from(["replace", "insert", "delete", "truncate", "flip"]),
                       st.sampled_from(_EDIT_CHARS),
                       st.integers(0, 7)),
             min_size=1, max_size=6),
)
def test_no_input_ends_in_a_traceback(tmp_path_factory, source, edits):
    path = tmp_path_factory.getbasetemp() / "edited.fzn"
    path.write_bytes(_edited(source, edits))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["check", str(path), "--cap", "20000"])
    assert code in range(5)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def _address_space_2gb():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))


@pytest.mark.parametrize("source, code, expected", [
    ("var 3..2147483648: v1;\nconstraint set_in(v1, {3});\nsolve satisfy;\n", 3,
     r"cap exceeded: state space of ~\S+ assignments exceeds cap \d+.*"),
    ("var 0..5: x;\nconstraint set_in(x, 0..100000000);\nsolve satisfy;\n", 0,
     r"Equal \(6 solutions\)"),
    ("var 3..2147483648: v1;\nvar bool: r;\n"
     "constraint set_in_reif(v1, {3}, r);\nsolve satisfy;\n", 3,
     r"cap exceeded: state space of ~\S+ assignments exceeds cap \d+.*"),
], ids=["set-in-wide-domain", "set-in-wide-range", "set-in-reif-wide-domain"])
def test_a_wide_set_or_domain_is_one_line_exit_3(tmp_path, source, code, expected):
    """Under a 2 GB address-space limit, check answers in one line: a set
    is its runs, so no set or domain is listed value by value.  set_in
    and set_in_reif over a 2^31-value domain stop at the state-space cap
    (exit 3), and a 10^8-value range checks Equal (exit 0)."""
    src = write(tmp_path, "wide.fzn", source)
    # one BLAS thread: a many-core host's per-thread buffers would not fit
    env = {**os.environ, "PYTHONPATH": str(Path(fzn2qip.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", "from fzn2qip.cli import main; main()", "check", src],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_address_space_2gb)
    assert out.returncode == code, out.stderr
    (line,) = (out.stderr if code else out.stdout).splitlines()
    assert (out.stdout if code else out.stderr) == ""
    # an out-of-memory stop must never stand in for the state-space cap
    assert re.fullmatch(expected, line), line


PROOF_NAMES = {"check_equivalence", "enumerate_fzn", "enumerate_qip", "solve_optimum"}
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None; '
RUN_CLI = "import sys; from fzn2qip.cli import run; sys.exit(run(sys.argv[1:]))"


def _fresh_python(code, *args, cwd=None):
    """Run ``code`` in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(fzn2qip.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env=env, cwd=cwd, timeout=120)


def test_import_loads_no_numpy_until_a_proof_name_is_read():
    out = _fresh_python(
        "import sys, fzn2qip\n"
        "heavy = ('numpy', 'fzn2qip.oracle', 'fzn2qip.kernels')\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "first = fzn2qip.enumerate_qip\n"
        "print(first is fzn2qip.oracle.enumerate_qip, 'numpy' in sys.modules)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().splitlines() == ["[]", "True True"]


def test_import_and_first_proof_name_load_no_dataclasses_inspect_typing_or_string():
    """Neither ``import fzn2qip`` nor the first read of a proof name adds
    one of these modules; each step is compared with ``sys.modules`` just
    before it, and numpy, which loads ``inspect`` itself, is imported
    first."""
    out = _fresh_python(
        "import sys\n"
        "heavy = {'dataclasses', 'inspect', 'typing', 'string'}\n"
        "before = set(sys.modules)\n"
        "import fzn2qip\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "fzn2qip.enumerate_qip\n"
        "print(sorted(heavy & (set(sys.modules) - before)), 'fzn2qip.oracle' in sys.modules)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().splitlines() == ["[]", "[] True"]


@pytest.mark.parametrize("argv", [
    ["compile", "m.fzn"],
    ["compile", "m.fzn", "-o", "m.qip"],
    ["stats", "m.fzn"],
    ["fuzz", "int_div", "--instances", "3"],
], ids=["compile", "compile-to-file", "stats", "fuzz"])
def test_compile_stats_and_fuzz_run_without_numpy(tmp_path, argv):
    """With numpy unimportable, these commands print the same bytes as
    with it."""
    write(tmp_path, "m.fzn", DIV)
    dest = tmp_path / "m.qip"
    outputs = []
    for prefix in ("", BLOCK_NUMPY):
        dest.unlink(missing_ok=True)
        out = _fresh_python(prefix + RUN_CLI, *argv, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stderr == b""
        outputs.append((out.stdout, dest.read_bytes() if dest.exists() else None))
    assert outputs[0] == outputs[1]
    stdout, written = outputs[0]
    assert (written if "-o" in argv else stdout)


def test_every_public_name_resolves():
    for name in fzn2qip.__all__:
        getattr(fzn2qip, name)
    assert PROOF_NAMES <= set(dir(fzn2qip))
    assert set(fzn2qip.__all__) <= set(dir(fzn2qip))


def test_proof_names_are_the_oracle_functions():
    from fzn2qip import check_equivalence, oracle

    assert check_equivalence is oracle.check_equivalence
    for name in PROOF_NAMES:
        assert getattr(fzn2qip, name) is getattr(oracle, name)


def test_an_unknown_package_name_is_an_attribute_error():
    assert not hasattr(fzn2qip, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        fzn2qip.no_such_name


def test_default_cap_is_one_object_from_errors():
    from fzn2qip import cli, errors, oracle

    assert oracle.DEFAULT_CAP is errors.DEFAULT_CAP
    assert errors.DEFAULT_CAP == 2_000_000
    for command in ("check", "solve"):
        assert cli._arg_parser().parse_args([command, "m.fzn"]).cap is errors.DEFAULT_CAP
