"""Seeded random instance generation for differential testing.

``generate(builtin, seed)`` produces a small FlatZinc model exercising
one builtin: variable domains are random sub-ranges of [-4, 4], arrays
hold at most three entries, and literal arguments are mixed in with a
fixed probability.  The same (builtin, seed) pair always yields the same
text, so discovered counterexamples stay reproducible.
"""

from __future__ import annotations

import random

from .errors import UnknownBuiltin
from .frontend import SIGNATURES

LO, HI = -4, 4
MAX_ARRAY = 3
LITERAL_PROB = 0.2


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decls: list[str] = []
        self.n = 0

    def int_var(self) -> str:
        lo = self.rng.randint(LO, HI)
        hi = self.rng.randint(lo, HI)
        self.n += 1
        name = f"v{self.n}"
        self.decls.append(f"var {lo}..{hi}: {name};")
        return name

    def bool_var(self) -> str:
        self.n += 1
        name = f"v{self.n}"
        self.decls.append(f"var bool: {name};")
        return name

    def scalar(self, kind: str) -> str:
        if kind == "iv":
            if self.rng.random() < LITERAL_PROB:
                return str(self.rng.randint(LO, HI))
            return self.int_var()
        if kind == "bv":
            if self.rng.random() < LITERAL_PROB:
                return self.rng.choice(["true", "false"])
            return self.bool_var()
        raise AssertionError(kind)

    def arg(self, kind: str, length: int | None = None) -> str:
        if kind in ("iv", "bv"):
            return self.scalar(kind)
        if kind == "ic":
            return str(self.rng.randint(2 * LO, 2 * HI))
        if kind in ("iva", "bva"):
            n = length or self.rng.randint(1, MAX_ARRAY)
            items = [self.scalar(kind[:2]) for _ in range(n)]
            return "[" + ", ".join(items) + "]"
        if kind == "ia":
            n = length or self.rng.randint(1, MAX_ARRAY)
            items = [str(self.rng.randint(LO, HI)) for _ in range(n)]
            return "[" + ", ".join(items) + "]"
        if kind == "ba":
            n = length or self.rng.randint(1, MAX_ARRAY)
            items = [self.rng.choice(["true", "false"]) for _ in range(n)]
            return "[" + ", ".join(items) + "]"
        if kind == "set":
            size = self.rng.randint(1, 5)
            values = sorted(self.rng.sample(range(LO, HI + 1), size))
            return "{" + ", ".join(str(v) for v in values) + "}"
        raise AssertionError(kind)


def generate(builtin: str, seed: int) -> str:
    """Deterministic FlatZinc model with a single ``builtin`` constraint.

    Raises UnknownBuiltin for a name outside ``SIGNATURES``.
    """
    if builtin not in SIGNATURES:
        raise UnknownBuiltin(builtin)
    rng = random.Random(f"{builtin}:{seed}")
    gen = _Gen(rng)
    sig = rng.choice(SIGNATURES[builtin])
    if builtin.startswith(("int_lin_", "bool_lin_")):
        n = rng.randint(1, MAX_ARRAY)
        coeffs = "[" + ", ".join(str(rng.randint(-3, 3)) for _ in range(n)) + "]"
        vars_ = gen.arg(sig[1], length=n)
        rest = [gen.arg(k) for k in sig[2:]]
        args = [coeffs, vars_] + rest
    elif builtin == "int_pow":
        base = gen.arg("iv")
        exponent = str(rng.randint(0, 5))
        result = gen.int_var()
        args = [base, exponent, result]
    else:
        args = [gen.arg(k) for k in sig]
    if not gen.decls:  # at least one variable keeps the model non-degenerate
        gen.int_var()
    lines = gen.decls + [
        f"constraint {builtin}({', '.join(args)});",
        "solve satisfy;",
    ]
    return "\n".join(lines) + "\n"


_OPT_POOL = [
    "int_le",
    "int_lt",
    "int_ne",
    "int_plus",
    "int_abs",
    "int_times",
    "int_lin_le",
    "int_lin_eq",
    "int_max",
]


def generate_opt(seed: int) -> str:
    """Deterministic optimization model over a few shared variables."""
    rng = random.Random(f"opt:{seed}")
    gen = _Gen(rng)
    names = [gen.int_var() for _ in range(3)]

    def pick() -> str:
        return rng.choice(names + [str(rng.randint(LO, HI))])

    lines = list(gen.decls)
    for _ in range(rng.randint(1, 3)):
        b = rng.choice(_OPT_POOL)
        if b.startswith("int_lin_"):
            n = rng.randint(1, 3)
            coeffs = "[" + ", ".join(str(rng.randint(-3, 3)) for _ in range(n)) + "]"
            vs = "[" + ", ".join(rng.choice(names) for _ in range(n)) + "]"
            c = str(rng.randint(2 * LO, 2 * HI))
            lines.append(f"constraint {b}({coeffs}, {vs}, {c});")
        elif b in ("int_le", "int_lt", "int_ne"):
            lines.append(f"constraint {b}({pick()}, {pick()});")
        elif b == "int_abs":
            lines.append(f"constraint {b}({rng.choice(names)}, {rng.choice(names)});")
        else:
            lines.append(f"constraint {b}({pick()}, {pick()}, {rng.choice(names)});")
    sense = rng.choice(["minimize", "maximize"])
    lines.append(f"solve {sense} {rng.choice(names)};")
    return "\n".join(lines) + "\n"
