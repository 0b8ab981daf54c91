"""Exception hierarchy.

Every domain error raised by the library derives from LevelAlgError so the
CLI can map it to a single exit code.  Usage errors (bad flags, unknown
subcommands) are not domain errors and are handled by the CLI itself.
"""


class LevelAlgError(Exception):
    """Base class for all domain errors."""


class AmbientMismatchError(LevelAlgError):
    """Two subspaces or forms live in incompatible ambient spaces."""


class DegreeError(LevelAlgError):
    """An operation was applied in a meaningless degree range."""


class FormSyntaxError(LevelAlgError):
    """A form or Schubert class string failed to parse; carries the
    offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class InputSyntaxError(LevelAlgError):
    """A command-line argument or input line is not in the expected syntax."""


class MalformedSequenceError(LevelAlgError):
    """A Hilbert-function sequence has bad endpoints or negative entries."""


class InvalidPartitionError(LevelAlgError):
    """A partition is not weakly decreasing or violates a size bound."""


class AdmissibilityError(LevelAlgError):
    """A collection of linear forms contains proportional members."""


class PropernessError(LevelAlgError):
    """Secant planes do not intersect in the expected codimension."""


class NotArtinError(LevelAlgError):
    """An ideal's quotient did not vanish below the degree bound."""


class HilbertMismatchError(LevelAlgError):
    """A subspace does not have the Hilbert function it was claimed to."""


class ZeroSubspaceError(LevelAlgError):
    """The operation requires a nonzero subspace."""


class WitnessError(LevelAlgError):
    """No witness Hilbert function is needed (the locus fills the ambient)."""


class NotSquareError(LevelAlgError):
    """A determinant was requested of a non-square matrix."""

    def __init__(self, message: str, rank: int, bound: int):
        super().__init__(message)
        self.rank = rank
        self.bound = bound


class WeightMismatchError(LevelAlgError):
    """Kronecker arguments are partitions of different integers."""


class CapExceededError(LevelAlgError):
    """A configurable size cap was exceeded."""
