"""fzn2qip: compile finite-domain FlatZinc models into a quadratic
integer-programming normal form, with an exhaustive equivalence checker."""

from .errors import (
    CapExceeded,
    CompileUnsat,
    Diagnostic,
    EmptyDomain,
    Fzn2QipError,
)
from .frontend import FzModel, parse_model, typecheck
from .model import Domain, LinExpr, QipProblem, deserialize
from .oracle import check_equivalence, enumerate_fzn, enumerate_qip, solve_optimum
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
