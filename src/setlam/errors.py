"""Exception hierarchy shared by all setlam modules."""

from __future__ import annotations


class SetLamError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SetLamError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class InvalidPosition(SetLamError):
    """A position path does not resolve to a subterm."""


class IllTyped(SetLamError):
    """The input violates a typing precondition."""


class NotTypable(IllTyped):
    """Type synthesis failed at the recorded position."""

    def __init__(self, position: tuple[int, ...], reason: str):
        super().__init__(f"not typable at {list(position)}: {reason}")
        self.position = position
        self.reason = reason


class UnboundOrWrongAnnotation(IllTyped):
    """A free occurrence x^B has no B in the context's set for x."""

    def __init__(self, variable: str, annotation: object):
        super().__init__(f"occurrence {variable}^{annotation} not covered by the context")
        self.variable = variable
        self.annotation = annotation


class MissingSubstituent(IllTyped):
    """No element of the substituted set-term has the occurrence's type."""

    def __init__(self, annotation: object):
        super().__init__(f"no substituent of type {annotation}")
        self.annotation = annotation


class NotUniform(SetLamError):
    """The term does not erase to a single untyped term."""

    def __init__(self, position: tuple[int, ...]):
        super().__init__(f"not uniform at {list(position)}")
        self.position = position


class InvalidDerivation(SetLamError):
    """A derivation node does not match its rule schema, or a value of
    derivation JSON does not match the file format; then `json_path`
    names the value, as in ``$.premises[1].ctx.x``."""

    def __init__(self, path: tuple[int, ...], rule: str, reason: str,
                 json_path: str | None = None):
        where = (f"derivation JSON at {json_path}" if json_path is not None
                 else f"{rule} node at {list(path)}")
        super().__init__(f"invalid {where}: {reason}")
        self.path = path
        self.rule = rule
        self.reason = reason
        self.json_path = json_path


class NotARedex(SetLamError):
    """The position does not hold a contractible redex."""


class SearchBudgetExceeded(SetLamError):
    """Bounded reduction search gave up before finding a witness."""


class FuelExhausted(SetLamError):
    """Exploration or normalization ran out of fuel."""


class CycleDetected(SetLamError):
    """The reduction graph contains a cycle (non-terminating input)."""


class NotSNWithinFuel(SetLamError):
    """Strong-normalization inference could not finish within fuel."""
