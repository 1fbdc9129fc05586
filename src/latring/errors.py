"""Exception types raised by the library."""

from __future__ import annotations


class LatringError(Exception):
    """Base class for all library errors."""


class InputError(LatringError):
    """Bad input from the command line or a spec file."""


class InvalidElement(LatringError):
    """Value is not an element of the space it was used with."""


class EmptyInput(LatringError):
    """An operation that needs a nonempty collection got an empty one."""


class NotBounded(InputError):
    """A set required to be bounded is not (or is of the wrong shape)."""


class OracleTooLarge(LatringError):
    """Vertex-enumeration oracle refused: dimension above its cap."""


class NotAdditiveOnCone(LatringError):
    """Cone map failed the additivity audit; carries the witness pair."""

    def __init__(self, x, y, message: str = ""):
        self.witness = (x, y)
        super().__init__(message or f"additivity fails at pair ({x}, {y})")


class DecompositionPrereqViolated(InputError):
    """|x| <= |y1 + y2| does not hold, so no decomposition is owed."""


class NotBoundedAbove(LatringError):
    """A family member exceeds the stated upper bound."""

    def __init__(self, witness, message: str = ""):
        self.witness = witness
        super().__init__(message or f"bound violated by {witness}")


class InvalidNeighborhood(LatringError):
    """Neighborhood does not belong to the expected base."""


class VacuousProduct(InputError):
    """Product-form convergence target degenerates to {0} (zero multiplication)."""


class SoundnessBug(LatringError):
    """An identity the library guarantees failed; never a tolerated outcome."""


class UnknownCase(InputError):
    """Gallery case id not in the registry."""


class UnknownInstance(InputError):
    """Named space instance not shipped."""


class UnknownName(InputError):
    """Name does not resolve inside a spec file."""


class InvalidArgument(InputError):
    """Command-line or API argument outside its allowed range."""


class SpecFileError(InputError):
    """Spec file failed to parse or validate; message names the section."""
