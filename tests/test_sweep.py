"""Small-scope sweep: every builtin on every argument shape within -1..1.

A scalar ``iv`` argument is a variable over each interval within -1..1,
a literal in -1..1, or a variable that an earlier argument already
names (``int_times(x, x, y)``, ``bool2int(b, b)``).  A ``bv`` argument is
a fresh or earlier ``var bool``, or the literal 0 or 1; an ``ic`` is a
literal in -1..1.  Arrays hold 0-2 entries of the same shapes (the
coefficient and variable arrays of a linear builtin have one length),
and a set is ``{}``, ``{0}`` or ``{-1, 1}``.  ``int_pow`` also takes the
exponents 2 and 3, so its square and cube rewrites are swept; an
exponent that is not one fixed value of at least 0 must be refused.

Every model must check Equal against direct semantics on the text the
compiler ships, or compile to UNSAT with no source solution.  The sweep
is marked ``sweep`` and left out of the default run (``addopts`` in
pyproject.toml), because it takes longer than the rest of the suite.
Run it with

    PYTHONPATH=src python -m pytest -q -m sweep
"""

import itertools

import pytest

from fzn2qip.errors import CompileUnsat, UnsupportedExponent
from fzn2qip.frontend import SIGNATURES, Lit, parse_model, typecheck
from fzn2qip.model import Domain, deserialize
from fzn2qip.oracle import check_equivalence
from fzn2qip.rewrite import compile_model

LITERALS = (-1, 0, 1)
INTERVALS = [f"{lo}..{hi}" for lo in LITERALS for hi in LITERALS if lo <= hi]
SETS = ("{}", "{0}", "{-1, 1}")
LENGTHS = (0, 1, 2)


def _choices(kind, decls):
    """(text, fresh declaration) choices for one scalar position, given
    the variables (name, domain) that earlier positions declared."""
    if kind in ("ic", "ia"):
        return [(str(v), None) for v in LITERALS]
    if kind == "ba":
        return [("0", None), ("1", None)]
    if kind == "bv":
        return ([("0", None), ("1", None), (None, "bool")]
                + [(n, None) for n, dom in decls if dom == "bool"])
    literals = LITERALS + (2, 3) if kind == "exp" else LITERALS
    return ([(str(v), None) for v in literals]
            + [(None, dom) for dom in INTERVALS]
            + [(n, None) for n, _ in decls])


def _fill(kinds, decls, texts):
    """Every choice of text for the positions ``kinds``, each with the
    variables that it declares."""
    if len(texts) == len(kinds):
        yield decls, texts
        return
    for text, fresh in _choices(kinds[len(texts)], decls):
        if fresh is None:
            yield from _fill(kinds, decls, texts + [text])
        else:
            name = f"v{len(decls)}"
            yield from _fill(kinds, decls + [(name, fresh)], texts + [name])


def _models(builtin):
    """The FlatZinc text of every small-scope model of ``builtin``."""
    linear = builtin.startswith(("int_lin_", "bool_lin_"))
    for sig in SIGNATURES[builtin]:
        arrays = [i for i, k in enumerate(sig) if k in ("ia", "ba", "iva", "bva")]
        for lengths in itertools.product(LENGTHS, repeat=len(arrays)):
            if linear and lengths[0] != lengths[1]:
                continue
            length = dict(zip(arrays, lengths))
            kinds = []
            for i, k in enumerate(sig):
                if builtin == "int_pow" and i == 1:
                    kinds.append("exp")
                elif i in length:
                    kinds += [{"iva": "iv", "bva": "bv"}.get(k, k)] * length[i]
                elif k != "set":
                    kinds.append(k)
            sets = SETS if "set" in sig else (None,)
            for set_text, (decls, texts) in itertools.product(sets, _fill(kinds, [], [])):
                scalars, args = iter(texts), []
                for i, k in enumerate(sig):
                    if k == "set":
                        args.append(set_text)
                    elif i in length:
                        entries = itertools.islice(scalars, length[i])
                        args.append("[" + ", ".join(entries) + "]")
                    else:
                        args.append(next(scalars))
                yield "\n".join([f"var {dom}: {n};" for n, dom in decls]
                                + [f"constraint {builtin}({', '.join(args)});",
                                   "solve satisfy;"]) + "\n"


def _fixed_exponent(model):
    """Whether the exponent of the model's ``int_pow`` is one value >= 0."""
    y = model.constraints[0].args[1]
    dom = Domain(y.value, y.value) if type(y) is Lit else model.vars[y.name].domain
    return dom.lo == dom.hi >= 0


@pytest.mark.sweep
@pytest.mark.parametrize("builtin", sorted(SIGNATURES))
def test_small_scope_sweep(builtin):
    failures, count = [], 0
    for text in _models(builtin):
        count += 1
        model = typecheck(parse_model(text))
        try:
            problem = deserialize(compile_model(model).serialize())
        except CompileUnsat:
            problem = None
        except UnsupportedExponent:
            if _fixed_exponent(model):
                failures.append(f"refused a fixed exponent:\n{text}")
            continue
        result = check_equivalence(model, problem)
        if not result.equal:
            failures.append(f"{result.describe()}\n{text}")
    assert count
    assert not failures, f"{len(failures)} of {count} models:\n" + "\n".join(failures[:3])
