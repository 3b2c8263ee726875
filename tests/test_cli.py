"""CLI subcommands, exit codes, and output determinism."""

from fzn2qip.cli import run

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


def test_missing_file_exit_1(capsys):
    assert run(["compile", "/nonexistent/x.fzn"]) == 1
    assert capsys.readouterr().err


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
