"""Command-line driver.

Subcommands: ``compile`` (emit the serialized problem), ``check``
(exhaustive differential comparison against direct semantics), ``solve``
(optimize or decide satisfiability by enumeration), ``stats`` (size
summary), ``fuzz`` (print seeded random test models).  ``check`` and
``solve`` enumerate the problem read back from its serialized text, so
they cover the bytes ``compile`` emits.  Only they import ``oracle``,
and numpy with it; ``compile``, ``stats`` and ``fuzz`` start without it.

Exit codes: 0 success / Equal / optimal; 1 input diagnostics (input
that is not UTF-8 included) and usage errors; 2 counterexample found; 3
enumeration cap exceeded or memory exhausted; 4 unsatisfiability proven
at compile time.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import fuzz
from .errors import (
    DEFAULT_CAP,
    CapExceeded,
    CompileUnsat,
    Diagnostic,
    Fzn2QipError,
    InputEncodingError,
    UsageError,
)
from .frontend import parse_model, typecheck
from .model import deserialize
from .rewrite import RewriteOptions, compile_model

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_CAP = 3
EXIT_UNSAT = 4


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of exiting with argparse's status 2,
    which is the counterexample code."""

    def error(self, message: str):
        raise UsageError(message)


def _positive(text: str) -> int:
    """An integer of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


def _arg_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fzn2qip",
        description="Compile finite-domain FlatZinc into quadratic "
        "integer-programming normal form.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="FlatZinc input file")
        p.add_argument("--verbatim-div", action="store_true",
                       help="emit the unextended division system "
                       "(no zero-numerator indicator)")
        return p

    p = add_common(sub.add_parser("compile", help="compile and emit the problem"))
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    for name, what in (("check", "verify equivalence exhaustively"),
                       ("solve", "solve by exhaustive enumeration")):
        p = add_common(sub.add_parser(name, help=what))
        p.add_argument("--cap", type=_positive, default=DEFAULT_CAP,
                       help="enumeration state-space cap")
        if name == "check":  # seeded faults, which the proof must catch
            for flag in ("--corrupt-div-big-m", "--corrupt-bool-and"):
                p.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    add_common(sub.add_parser("stats", help="print problem size counts"))

    p = sub.add_parser("fuzz", help="print seeded random test models")
    p.add_argument("builtin", help="builtin name to exercise")
    p.add_argument("--instances", type=_positive, default=1)
    p.add_argument("--seed", type=int, default=0)
    return ap


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # one read() decodes the whole file, so exc.start is a file offset
            raise InputEncodingError(exc.object[exc.start], exc.start) from None
    # a byte-order mark is dropped after decoding, so offsets stay file offsets
    return typecheck(parse_model(text.removeprefix("\ufeff")))


def _options(ns) -> RewriteOptions:
    return RewriteOptions(
        verbatim_div=ns.verbatim_div,
        corrupt_div_big_m=getattr(ns, "corrupt_div_big_m", False),  # check only
        corrupt_bool_and=getattr(ns, "corrupt_bool_and", False),
    )


def _cmd_compile(ns) -> int:
    model = _load(ns.input)
    problem = compile_model(model, _options(ns))
    text = problem.serialize()
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _shipped(model, ns):
    """The compiled problem as its serialized text reads back."""
    return deserialize(compile_model(model, _options(ns)).serialize())


def _cmd_check(ns) -> int:
    from . import oracle

    model = _load(ns.input)
    try:
        problem = _shipped(model, ns)
    except CompileUnsat:
        problem = None  # compilation proved the model has no solution
    result = oracle.check_equivalence(model, problem, ns.cap)
    print(result.describe())
    return EXIT_OK if result.equal else EXIT_COUNTEREXAMPLE


def _cmd_solve(ns) -> int:
    from . import oracle

    model = _load(ns.input)
    problem = _shipped(model, ns)
    enum = oracle.enumerate_qip(problem, ns.cap)
    if model.solve.kind == "satisfy":
        print("SAT" if enum.solutions else "UNSAT")
        return EXIT_OK
    print("UNSAT" if enum.best_value is None else enum.best_value)
    return EXIT_OK


def _cmd_stats(ns) -> int:
    model = _load(ns.input)
    problem = compile_model(model, _options(ns))
    n_model = sum(1 for v in problem.vars.values() if v.is_model)
    print(f"variables: {len(problem.vars)} ({n_model} model, "
          f"{len(problem.vars) - n_model} auxiliary)")
    print(f"equalities: {len(problem.equalities)}")
    print(f"inequalities: {len(problem.inequalities)}")
    print(f"products: {len(problem.products)}")
    print(f"onehot-groups: {len(problem.onehot_groups)}")
    return EXIT_OK


def _cmd_fuzz(ns) -> int:
    for i in range(ns.instances):
        seed = ns.seed + i
        text = fuzz.generate(ns.builtin, seed)
        print(f"% {ns.builtin} seed {seed}")
        sys.stdout.write(text)
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  The cyclic garbage
    collector is paused meanwhile: a model holds no garbage cycle, yet
    the collector would rescan it as it grows.  The caller's collector
    state is restored on every exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    handlers = {
        "compile": _cmd_compile,
        "check": _cmd_check,
        "solve": _cmd_solve,
        "stats": _cmd_stats,
        "fuzz": _cmd_fuzz,
    }
    try:
        ns = _arg_parser().parse_args(argv)  # a UsageError is the last case below
        return handlers[ns.command](ns)
    except Diagnostic as exc:
        print(exc.render(getattr(ns, "input", "<input>")), file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except CompileUnsat as exc:
        print(f"UNSAT: {exc.message}", file=sys.stderr)
        return EXIT_UNSAT
    except CapExceeded as exc:
        print(f"cap exceeded: {exc.message}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("cap exceeded: out of memory", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except Fzn2QipError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
