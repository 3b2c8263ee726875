"""Error types shared across the compiler.

Diagnostics raised by the frontend carry a source location and a stable
code string so the CLI can print ``file:line:col: code: message`` lines.
Everything else is a plain exception with a code used for reporting.
"""

from __future__ import annotations


class Fzn2QipError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class Diagnostic(Fzn2QipError):
    """An error tied to a position in the input text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col

    def render(self, filename: str) -> str:
        return f"{filename}:{self.line}:{self.col}: {self.code}: {self.message}"


class InputEncodingError(Diagnostic):
    """Input bytes that are not UTF-8; located by byte offset, not line."""

    code = "encoding-error"

    def __init__(self, byte: int, offset: int):
        super().__init__(f"byte 0x{byte:02x} at offset {offset} is not valid UTF-8")

    def render(self, filename: str) -> str:
        return f"{filename}: {self.code}: {self.message}"


class FznSyntaxError(Diagnostic):
    code = "syntax-error"


class UnsupportedItem(Diagnostic):
    """An item outside the supported FlatZinc subset (floats, set vars, ...)."""

    code = "unsupported-item"

    def __init__(self, what: str, line: int = 0, col: int = 0):
        super().__init__(f"unsupported: {what}", line, col)


class UndeclaredIdentifier(Diagnostic):
    code = "undeclared-identifier"

    def __init__(self, name: str, line: int = 0, col: int = 0):
        super().__init__(f"undeclared identifier '{name}'", line, col)


class ArityMismatch(Diagnostic):
    code = "arity-mismatch"


class KindMismatch(Diagnostic):
    code = "kind-mismatch"


class EmptyDomain(Fzn2QipError):
    """A domain became (or was declared) empty."""

    code = "empty-domain"


class EmptyDeclaredDomain(Diagnostic, EmptyDomain):
    """A variable declared with an empty range ``lo..hi``."""

    code = "empty-domain"


class CompileUnsat(Fzn2QipError):
    """Compilation proved the model unsatisfiable (empty restricted domain)."""

    code = "unsat"


class OverflowLimit(Fzn2QipError):
    """Bound arithmetic left the supported 64-bit-safe integer range."""

    code = "overflow"


class LengthMismatch(Fzn2QipError):
    code = "length-mismatch"


class UnsupportedExponent(Fzn2QipError):
    code = "unsupported-exponent"


class UnknownBuiltin(Fzn2QipError):
    """A builtin name outside the supported set, asked for outside a model."""

    code = "unknown-builtin"

    def __init__(self, name: str):
        super().__init__(f"no supported builtin is named {name!r}")


class UsageError(Fzn2QipError):
    """A command line that names no valid subcommand, option or input."""

    code = "usage-error"


class SchemaError(Fzn2QipError):
    """Malformed serialized problem text."""

    code = "schema-error"


# Largest enumeration state space a proof takes on by default (``--cap``).
DEFAULT_CAP = 2_000_000
# Largest state space a proof takes on at any cap: no enumeration of 2^63
# assignments would finish.
SPACE_LIMIT = 2**63 - 1


class CapExceeded(Fzn2QipError):
    """Enumeration state space exceeds the configured cap."""

    code = "cap-exceeded"

    def __init__(self, size: int, cap: int | None, units: list[tuple[str, int]]):
        """``units``: the enumeration units as (name, size); the message
        names the three largest.  ``cap`` None: past ``SPACE_LIMIT``."""
        from decimal import Decimal  # formats any size; imported only here

        magnitude = f"{Decimal(size):.1e}".replace("+", "")
        largest = ", ".join(f"{name} ({n})" for name, n
                            in sorted(units, key=lambda nv: -nv[1])[:3])
        limit = f"cap {cap}" if cap is not None else "2^63 - 1, the most a proof enumerates"
        super().__init__(
            f"state space of ~{magnitude} assignments exceeds {limit}"
            + (f"; largest free units: {largest}" if largest else "")
        )


# Bound arithmetic stays well inside int64; the enumerator checks its own
# sums and products and switches to exact Python ints when they could wrap.
INT_LIMIT = 2**62


def checked_int(value: int) -> int:
    """Return ``value`` or raise OverflowLimit if it left the safe range."""
    if value > INT_LIMIT or value < -INT_LIMIT:
        raise OverflowLimit(f"integer {value} exceeds the supported range")
    return value
