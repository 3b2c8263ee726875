"""fzn2qip: compile finite-domain FlatZinc models into a quadratic
integer-programming normal form, with an exhaustive equivalence checker.

The compiler imports no numpy.  The proof names (``check_equivalence``,
``enumerate_fzn``, ``enumerate_qip``, ``solve_optimum``) live in
``oracle``, which loads ``kernels`` and numpy; they resolve on first
access, so code that only compiles never loads numpy."""

from .errors import (
    CapExceeded,
    CompileUnsat,
    Diagnostic,
    EmptyDomain,
    Fzn2QipError,
)
from .frontend import FzModel, parse_model, typecheck
from .model import Domain, LinExpr, QipProblem, deserialize
from .rewrite import RewriteOptions, compile_model

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CompileUnsat",
    "Diagnostic",
    "Domain",
    "EmptyDomain",
    "FzModel",
    "Fzn2QipError",
    "LinExpr",
    "QipProblem",
    "RewriteOptions",
    "check_equivalence",
    "compile_model",
    "deserialize",
    "enumerate_fzn",
    "enumerate_qip",
    "parse_model",
    "solve_optimum",
    "typecheck",
    "__version__",
]

_PROOF_NAMES = ("check_equivalence", "enumerate_fzn", "enumerate_qip", "solve_optimum")


def __getattr__(name: str):
    """Import ``oracle`` (and numpy) on the first access to a proof name."""
    if name not in _PROOF_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PROOF_NAMES})
