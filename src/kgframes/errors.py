"""Exception hierarchy shared by every module in the package.

Two branches matter for callers: :class:`InputError` marks malformed or
inconsistent input data, :class:`ComputationError` marks a mathematical
precondition that failed, so the requested quantity does not exist, or a
quantity outside the floating-point range. The command-line driver maps
them to distinct exit codes.
"""

__all__ = ["BadDimError", "BadIndexError", "ComputationError", "DimMismatchError",
           "FloatRangeError", "FrameOperatorSingularError", "GenerationFailedError", "InputError",
           "KGFrameError", "KStarNotBoundedBelowError", "NotAFrameError", "NotApproxDualError",
           "NotInRangeError", "NotKGFrameError", "NotPSDError", "NotTightError", "NotUnitNormError",
           "ParseError", "RangeConditionError", "TooManySubsetsError", "TrivialRangeError",
           "ZeroWeightError"]


class KGFrameError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KGFrameError):
    """Input data is malformed, inconsistent, or out of range."""


class ComputationError(KGFrameError):
    """A mathematical precondition failed for otherwise well-formed input."""


class DimMismatchError(InputError):
    """Operator or vector dimensions are incompatible."""


class BadDimError(InputError):
    """A requested dimension is outside the admissible range."""


class BadIndexError(InputError):
    """A block index is out of range or repeated."""


class ZeroWeightError(InputError):
    """A weight sequence contains a (numerically) zero entry."""


class ParseError(InputError):
    """A JSON document does not match the expected schema."""


class TooManySubsetsError(InputError):
    """A subset enumeration would exceed the safety budget."""


class NotPSDError(ComputationError):
    """A matrix expected to be Hermitian positive semidefinite is not."""


class RangeConditionError(ComputationError):
    """range(K) is not contained in range(S) at the working tolerance."""


class NotApproxDualError(ComputationError):
    """The candidate family is not an approximate dual (defect >= 1)."""


class NotInRangeError(ComputationError):
    """A vector does not lie in range(K) at the working tolerance."""


class NotAFrameError(ComputationError):
    """A vector family fails to span its subspace."""


class NotUnitNormError(ComputationError):
    """A block that must have unit operator norm, or a K that must have norm at most 1, does not."""


class KStarNotBoundedBelowError(ComputationError):
    """The adjoint of K has no positive lower bound (K is singular)."""


class FloatRangeError(ComputationError):
    """A result exists but lies outside the floating-point range."""


class FrameOperatorSingularError(ComputationError):
    """The frame operator is singular at the working tolerance."""


class GenerationFailedError(ComputationError):
    """Random generation could not satisfy the required side conditions."""


class NotTightError(ComputationError):
    """The system is not tight, so the tightness analysis does not apply."""


class TrivialRangeError(ComputationError):
    """range(K) is {0} at the working tolerance."""


class NotKGFrameError(ComputationError):
    """The system has no positive lower frame bound relative to K."""
