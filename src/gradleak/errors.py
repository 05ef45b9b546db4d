"""Exception types shared across the toolkit."""


class GradleakError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GradleakError):
    """Operand shapes do not conform; the message names the offending operand."""


class GeometryError(GradleakError):
    """A sliding-window geometry is invalid (non-integral output size, window too large)."""


class ContractError(GradleakError):
    """An API precondition was violated by the caller."""


class IncompatibilityError(GradleakError):
    """Two artifacts (bundles, specs, parameter sets) do not belong together."""


class AmbiguityError(GradleakError):
    """Label inference needs exactly one strictly negative bias-gradient entry
    and found none, or two or more."""


class BiasGradientVanishesError(GradleakError):
    """Every bias-gradient entry is below tolerance, so the closed-form
    input reconstruction has no admissible row to divide by."""


class ParseError(GradleakError):
    """Malformed serialized input. `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class DivergenceError(GradleakError):
    """The attack objective blew up; `trace` holds the checkpoints recorded
    before the failure."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
