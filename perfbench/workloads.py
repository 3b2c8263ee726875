"""Seeded inputs, operations and output checks of the three workloads.

Every input reaches the program as FlatZinc text.  The expected answers
(solution counts, declared domains, constraint counts) are computed here
from the generators' own parameters, never from the program under test.

The program is reached only through module attributes
(``frontend.parse_model``, ``rewrite.compile_model``, ...), so that the
traced mode can wrap those attributes and the untraced mode runs exactly
the same calls.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from fzn2qip import errors, frontend, fuzz, model, oracle, rewrite

CORPUS_INSTANCES = 50  # per builtin, the shape of the acceptance corpus
BUILTINS = sorted(frontend.SIGNATURES)


@dataclass(frozen=True)
class Fault:
    """A program fault that makes an operation fail on every run."""

    name: str
    detail: str  # how the failure detail of an op hit by this fault starts


# An op carrying one of these may fail in the fault's way without making
# the run incorrect; failing any other way is an unexpected failure.
FAULT_RECURSION = Fault("planner RecursionError (recursive depends_on/visit)",
                        "RecursionError")
FAULT_WRAP = Fault("int64 wraparound in enumerate_qip",
                   "Counterexample (compiled problem only)")


@dataclass
class Op:
    """One closed-loop operation and what its output must satisfy."""

    label: str
    kind: str  # "check" | "solve" | "compile"
    text: str
    constraints: int  # source constraints in ``text``
    expect_count: int | None = None  # independent solution count, if known
    fault: Fault | None = None  # known program fault this op runs into
    # compile ops: source variable -> declared (lo, hi)
    declared: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    qip_bytes: int = 0


def known_fault(op: Op, outcome: Outcome) -> Fault | None:
    """The known fault behind a failed op, or None if it failed another way."""
    if op.fault is not None and outcome.detail.startswith(op.fault.detail):
        return op.fault
    return None


# ----------------------------------------------------------------------
# operations, making the same calls in the same order as the fzn2qip commands


def _source(text: str):
    return frontend.typecheck(frontend.parse_model(text))


def _compile(text: str, options):
    return rewrite.compile_model(_source(text), options)


def run_check(op: Op, options) -> tuple[Outcome, object]:
    """compile (parse, typecheck, compile_model, serialize) + proof."""
    src = _source(op.text)
    try:
        problem = rewrite.compile_model(src, options)
    except errors.CompileUnsat:
        # as the check command does: compare with direct semantics
        _, sols = oracle.enumerate_fzn(src)
        return Outcome(not sols, f"compile UNSAT, {len(sols)} source solutions"), len(sols)
    text = problem.serialize()
    result = oracle.check_equivalence(src, problem)
    return Outcome(result.equal, result.describe(), len(text)), result.fzn_count


def run_solve(op: Op, options) -> tuple[Outcome, object]:
    enum = oracle.enumerate_qip(_compile(op.text, options))
    n = len(enum.solutions)
    return Outcome(True, f"{n} solutions"), n


def run_compile(op: Op, options) -> tuple[Outcome, object]:
    text = _compile(op.text, options).serialize()
    return Outcome(True, f"{len(text)} bytes", len(text)), text


RUNNERS = {"check": run_check, "solve": run_solve, "compile": run_compile}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def structural_check(op: Op, options) -> tuple[list[str], str]:
    """Compile a compile op afresh and check the text's structure.

    Returns the problems found and the digest of the text.  The checker
    runs this in a child process (``_CHILD``), so that the workload
    process's peak memory covers only set-up and the ops themselves.
    """
    text = _compile(op.text, options).serialize()
    try:
        back = model.deserialize(text)
    except errors.SchemaError as exc:
        return [f"deserialize: {exc.message}"], _digest(text)
    problems = [f"validate: {v}" for v in back.validate()]
    if back.serialize() != text:
        problems.append("re-serialization is not byte-identical")
    sources = set()
    for tag in (back.equality_sources + back.inequality_sources
                + back.product_sources):
        head, _, idx = tag.rpartition("#")
        if head and idx.isdigit():
            sources.add(int(idx))
    missing = set(range(op.constraints)) - sources
    if missing:
        problems.append(f"{len(missing)} source constraints without "
                        f"provenance, first #{min(missing)}")
    for name, (lo, hi) in op.declared.items():
        var = back.vars.get(name)
        if var is None or not var.is_model:
            problems.append(f"source variable {name} is not a model variable")
        elif (var.declared.lo, var.declared.hi) != (lo, hi):
            problems.append(f"{name} declared {lo}..{hi}, compiled "
                            f"{var.declared.lo}..{var.declared.hi}")
    return problems, _digest(text)


_CHILD = ("import pickle, sys, workloads; "
          "pickle.dump(workloads.structural_check(*pickle.load(sys.stdin.buffer)), "
          "sys.stdout.buffer)")


def _structural_check_in_child(op: Op, options) -> tuple[list[str], str]:
    path = [str(Path(__file__).resolve().parent),
            str(Path(frontend.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", _CHILD], input=pickle.dumps((op, options)),
                         env=env, capture_output=True, timeout=120)
    if out.returncode != 0:
        err = out.stderr.decode(errors="replace").strip().splitlines() or ["no output"]
        return [f"structural check exited with code {out.returncode}: {err[-1]}"], ""
    return pickle.loads(out.stdout)


class Checker:
    """Checks each op's output.

    A compiled text is checked in full the first time, in a child
    process; later rounds must reproduce the digest of the checked text.
    """

    def __init__(self, options):
        self.options = options
        self._verified: dict[int, str] = {}  # op index -> digest of checked text

    def check(self, index: int, op: Op, outcome: Outcome, value) -> Outcome:
        if not outcome.ok:
            return outcome
        if op.kind in ("check", "solve"):
            if op.expect_count is not None and value != op.expect_count:
                return Outcome(False, f"{value} solutions, expected "
                               f"{op.expect_count}", outcome.qip_bytes)
            return outcome
        digest = _digest(value)
        ref = self._verified.get(index)
        if ref is None:
            problems, ref = _structural_check_in_child(op, self.options)
            if digest != ref:
                problems.append("two compilations differ")
            if problems:
                return Outcome(False, "; ".join(problems[:3]), outcome.qip_bytes)
            self._verified[index] = ref
        elif digest != ref:
            return Outcome(False, "output differs from an earlier compilation",
                           outcome.qip_bytes)
        return outcome


# ----------------------------------------------------------------------
# corpus: every builtin's seeded fuzz instances


def corpus(seed: int) -> list[Op]:
    """The acceptance corpus (fuzz seeds 0..49 of each builtin), seeded order.

    The instances are fixed because their cost is heavy-tailed: one
    instance in a few thousand enumerates millions of compiled rows, so
    a corpus drawn afresh per seed moves ops_per_s by a third between
    seeds.  The seed shuffles the order in which the ops run.
    """
    ops = [Op(f"{builtin}/{k}", "check", fuzz.generate(builtin, k), 1)
           for builtin in BUILTINS for k in range(CORPUS_INSTANCES)]
    random.Random(f"corpus:{seed}").shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# verify_scaled: single-builtin families, most sized for 4.5e4..7e5 compiled rows


class _Text:
    """Accumulates the declarations and constraints of one generated model."""

    def __init__(self):
        self.decls: list[str] = []
        self.cons: list[str] = []
        self.declared: dict[str, tuple[int, int]] = {}

    def var(self, name: str, lo: int, hi: int, boolean: bool = False) -> str:
        self.decls.append(f"var bool: {name};" if boolean else f"var {lo}..{hi}: {name};")
        self.declared[name] = (lo, hi)
        return name

    def text(self) -> str:
        return "\n".join(self.decls + self.cons + ["solve satisfy;"]) + "\n"

    def op(self, label: str, kind: str = "compile", expect_count: int | None = None,
           fault: Fault | None = None) -> Op:
        return Op(label, kind, self.text(), len(self.cons), expect_count, fault,
                  self.declared)


def _truncdiv(n: int, d: int) -> int:
    q = abs(n) // abs(d)
    return q if (n >= 0) == (d >= 0) else -q


def _div_text(nd, dd, qd) -> _Text:
    out = _Text()
    out.cons.append(f"constraint int_div({out.var('n', *nd)}, {out.var('d', *dd)}, "
                    f"{out.var('q', *qd)});")
    return out


def _div_op(rng: random.Random, w: int) -> Op:
    # zero strictly inside the numerator and divisor domains, so every
    # seed compiles to the same variables and the same row count
    n_lo = -rng.randint(1, 2 * w - 1)
    d_lo = -rng.randint(1, w - 1)
    q_lo = -rng.randint(0, 2 * w)
    nd, dd, qd = (n_lo, n_lo + 2 * w), (d_lo, d_lo + w), (q_lo, q_lo + 2 * w)
    count = sum(
        1
        for n in range(nd[0], nd[1] + 1)
        for d in range(dd[0], dd[1] + 1)
        if d != 0 and qd[0] <= _truncdiv(n, d) <= qd[1]
    )
    return _div_text(nd, dd, qd).op(f"int_div w={w}", "check", count)


def _div_point_op(rng: random.Random) -> Op:
    # the narrow end of the sweep: every domain a single point with a
    # nonzero numerator, where the division big-M is tight
    n = rng.choice([v for v in range(-9, 10) if v])
    d = rng.choice([v for v in range(-9, 10) if v])
    q = _truncdiv(n, d)
    return _div_text((n, n), (d, d), (q, q)).op("int_div w=0", "check", 1)


def _element_op(rng: random.Random, n: int) -> Op:
    # both ends of the value range occur, so c keeps the domain 0..n+1
    values = [0, n + 1] + rng.sample(range(1, n + 1), n - 2)
    rng.shuffle(values)
    out = _Text()
    i, c = out.var("i", 1, n), out.var("c", 0, n + 1)
    out.cons.append(f"constraint array_int_element({i}, [{', '.join(map(str, values))}], {c});")
    return out.op(f"array_int_element n={n}", "check", n)


def _set_in_reif_op(rng: random.Random, k: int) -> Op:
    members = sorted(rng.sample(range(-k, k + 1), k))
    out = _Text()
    x, r = out.var("x", -k, k), out.var("r", 0, 1, boolean=True)
    out.cons.append(f"constraint set_in_reif({x}, {{{', '.join(map(str, members))}}}, {r});")
    return out.op(f"set_in_reif k={k}", "check", 2 * k + 1)


def _lin_ne_reif_op(rng: random.Random, n: int, half: int) -> Op:
    # fixed magnitudes, symmetric domains and a zero constant keep the
    # auxiliary domains, hence the row count, independent of the seed
    coefs = [rng.choice((-1, 1)) * m for m in rng.sample((3, 2, 1)[:n], n)]
    out = _Text()
    names = [out.var(f"x{j}", -half, half) for j in range(n)]
    r = out.var("r", 0, 1, boolean=True)
    out.cons.append(f"constraint int_lin_ne_reif({coefs}, [{', '.join(names)}], 0, {r});")
    return out.op(f"int_lin_ne_reif n={n} d={2 * half + 1}", "check", (2 * half + 1) ** n)


def _times_chain(links: int) -> _Text:
    # x_{i+1} = x_i * x_i over 0..1 forces all equal: exactly 2 solutions
    out = _Text()
    xs = [out.var(f"x{j}", 0, 1) for j in range(links + 1)]
    out.cons += [f"constraint int_times({xs[j]}, {xs[j]}, {xs[j + 1]});"
                 for j in range(links)]
    return out


def _times_chain_op(links: int) -> Op:
    fault = FAULT_RECURSION if links >= 200 else None
    return _times_chain(links).op(f"int_times chain n={links}", "solve", 2, fault)


def _wrap_op() -> Op:
    big = 2**62
    out = _Text()
    a, b = out.var("a", big, big), out.var("b", big, big)
    out.cons.append(f"constraint int_lin_eq([2, 2], [{a}, {b}], 0);")
    # 2*2^62 + 2*2^62 = 2^64 != 0: no solution exists
    return out.op("int_lin_eq 2^62 wraparound", "check", 0, FAULT_WRAP)


def verify_scaled(seed: int) -> list[Op]:
    rng = random.Random(f"verify_scaled:{seed}")
    ops = [_div_point_op(rng) for _ in range(4)]
    ops += [_div_op(rng, w) for w in (16, 16, 18, 18)]
    ops += [_element_op(rng, n) for n in (10, 10, 11, 11, 12)]
    ops += [_set_in_reif_op(rng, k) for k in (5, 5, 6, 6)]
    ops += [_lin_ne_reif_op(rng, 2, 4) for _ in range(3)]
    ops += [_times_chain_op(n) for n in (100, 150, 200, 300)]
    ops.append(_wrap_op())
    return ops


# ----------------------------------------------------------------------
# compile_large: models with thousands of constraints, no enumeration

_DECL_RE = re.compile(r"^var (?:(-?\d+)\.\.(-?\d+)|bool): (\w+);$")
_NAME_RE = re.compile(r"\bv(\d+)\b")


def _concat_op(seed: int, per_builtin: int) -> Op:
    """Renamed-apart satisfiable fuzz instances of every builtin.

    Satisfiability is decided by the source-side enumeration during
    set-up, so an instance that compilation proves UNSAT never enters.
    """
    out = _Text()
    for builtin in BUILTINS:
        taken = 0
        s = seed * 1000
        while taken < per_builtin:
            s += 1
            src = fuzz.generate(builtin, s)
            _, sols = oracle.enumerate_fzn(_source(src))
            if not sols:
                continue
            prefix = f"{builtin}_{s}_".replace("-", "m")  # identifiers take no "-"
            for line in src.splitlines():
                line = _NAME_RE.sub(lambda m: f"{prefix}v{m.group(1)}", line)
                m = _DECL_RE.match(line)
                if m:
                    lo, hi = (0, 1) if m.group(1) is None else (int(m.group(1)), int(m.group(2)))
                    out.var(m.group(3), lo, hi, m.group(1) is None)
                elif line.startswith("constraint "):
                    out.cons.append(line)
            taken += 1
    return out.op(f"concat {per_builtin}x{len(BUILTINS)}")


def _pool_op(rng: random.Random, n_cons: int) -> Op:
    """Constraints over a shared variable pool.

    Reified tests and one-hot users (set_in_reif, element) share pool
    variables, so one-hot groups are reused and extended across
    constraints.  Restricting constraints (element, maximum) write only
    their own result variable, which later constraints then read with
    its restricted domain; no restriction can therefore empty a domain.
    """
    out = _Text()
    ints = [out.var(f"p{j}", -rng.randint(1, 5), rng.randint(1, 5)) for j in range(120)]
    idx = [out.var(f"ix{j}", 1, rng.randint(2, 6)) for j in range(40)]
    bools = [out.var(f"b{j}", 0, 1, True) for j in range(80)]
    derived: list[str] = []
    for k in range(n_cons):
        kind = k % 6
        x, y = rng.sample(ints + derived, 2)
        b = rng.choice(bools)
        if kind == 0:
            members = sorted(rng.sample(range(-5, 6), rng.randint(1, 6)))
            out.cons.append(f"constraint set_in_reif({x}, {{{', '.join(map(str, members))}}}, {b});")
        elif kind == 1:
            i = rng.choice(idx)
            n = out.declared[i][1]
            values = [rng.randint(-6, 6) for _ in range(n)]
            c = out.var(f"e{k}", min(values) - rng.randint(0, 2), max(values) + rng.randint(0, 2))
            derived.append(c)
            out.cons.append(f"constraint array_int_element({i}, [{', '.join(map(str, values))}], {c});")
        elif kind == 2:
            xs = rng.sample(ints, 3)
            lo = max(out.declared[v][0] for v in xs)
            hi = max(out.declared[v][1] for v in xs)
            m = out.var(f"m{k}", lo - rng.randint(0, 3), hi + rng.randint(0, 3))
            derived.append(m)
            out.cons.append(f"constraint array_int_maximum({m}, [{', '.join(xs)}]);")
        elif kind == 3:
            c = rng.randint(-3, 3)
            out.cons.append(f"constraint int_lin_le_reif([{rng.choice((1, 2))}, {rng.choice((-1, -2))}], [{x}, {y}], {c}, {b});")
        elif kind == 4:
            out.cons.append(f"constraint int_eq_reif({x}, {y}, {b});")
        else:
            a2 = rng.choice(bools)
            out.cons.append(f"constraint bool_clause([{b}, {a2}], [{rng.choice(bools)}]);")
    return out.op(f"shared pool {n_cons}")


def _chain_op(rng: random.Random, kind: str, links: int) -> Op:
    if kind == "int_times":
        return _times_chain(links).op(f"int_times chain {links}")
    out = _Text()
    xs = [out.var(f"x{j}", -50, 50) for j in range(links + 1)]
    ys = [out.var(f"y{j}", -rng.randint(0, 3), rng.randint(0, 3)) for j in range(links)]
    for j in range(links):
        if kind == "int_plus":
            out.cons.append(f"constraint int_plus({xs[j]}, {ys[j]}, {xs[j + 1]});")
        else:
            a, c = rng.choice((1, -1)), rng.randint(-2, 2)
            out.cons.append(f"constraint int_lin_eq([{a}, {-a}, {a}], "
                            f"[{xs[j]}, {xs[j + 1]}, {ys[j]}], {c});")
    return out.op(f"{kind} chain {links}")


def compile_large(seed: int) -> list[Op]:
    rng = random.Random(f"compile_large:{seed}")
    return [
        _concat_op(seed, 40),
        _pool_op(rng, 2400),
        _chain_op(rng, "int_plus", 2000),
        _chain_op(rng, "int_times", 2000),
        _chain_op(rng, "int_lin_eq", 2000),
    ]


WORKLOADS = {
    "corpus": corpus,
    "verify_scaled": verify_scaled,
    "compile_large": compile_large,
}
