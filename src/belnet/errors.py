"""Exception types shared across the package, and its one cell budget: every dense
array (a CPT, the dump's expansion, a collapsed joint or operand, the combination
array) holds at most ``MAX_CELLS`` cells, checked by ``guard_cells`` at call time."""

MAX_CELLS = 10_000_000


class BelnetError(Exception):
    """Base class for all belnet errors."""


class SubsetParseError(BelnetError, ValueError):
    """A subset literal could not be parsed against its frame."""


class NetworkParseError(BelnetError, ValueError):
    """A network definition file is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(BelnetError, ValueError):
    """A node has two parents that are directly connected; the message is the
    structure report's text, one ``error:`` line per violating pair."""


class InfeasibleModelError(BelnetError):
    """The model cannot be turned into proper probabilities.

    Raised when a commonality value or a constructed conditional
    probability comes out negative beyond tolerance.
    """


class SizeGuardError(BelnetError):
    """A computation was refused because it exceeds the desk-scale guards."""


def guard_cells(cells: int, message: str) -> int:
    """``cells``; SizeGuardError with ``message`` and the limit past MAX_CELLS."""
    if cells > MAX_CELLS:
        raise SizeGuardError(f"{message} (limit {MAX_CELLS})")
    return cells
