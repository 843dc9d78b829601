"""Exception hierarchy shared across the package."""


class PicardCCError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatch(PicardCCError):
    pass


class DivisionByZeroPrecision(PicardCCError):
    """Division by an element that is zero to the available precision."""


class NegativeValuation(PicardCCError):
    """An element of negative valuation was asked for an integer residue."""


class NoCubeRoot(PicardCCError):
    pass


class NotSimpleRoot(PicardCCError):
    pass


class CurveValidationError(PicardCCError):
    pass


class NotMonic(CurveValidationError):
    pass


class WrongDegree(CurveValidationError):
    pass


class NotSquarefree(CurveValidationError):
    pass


class WrongDisk(PicardCCError):
    pass


class PoleInDisk(PicardCCError):
    pass


class NotSplit(PicardCCError):
    pass


class BadPrime(PicardCCError):
    """A prime that curve.prime_rejection refuses for this record."""

    reason = "bad-prime"


class BadParameter(PicardCCError):
    """A pipeline parameter out of range: N or e_cap below 1."""

    reason = "bad-parameter"


class BadYRule(PicardCCError):
    pass


class BadDivisor(PicardCCError):
    """A record divisor g that is constant, has a repeated root or a
    non-number, or a "point" that is not two numbers."""

    reason = "bad-divisor"


class DegenerateDivisor(PicardCCError):
    pass


class ComputationFailure(PicardCCError):
    """Failure states of the pipeline that callers may retry around."""

    reason = "failure"


class PrecisionExhausted(ComputationFailure):
    reason = "precision-exhausted"


class DoubleRoot(ComputationFailure):
    reason = "double-root"


class IncreaseE(ComputationFailure):
    """The ramification index e is too small: no e up to the cap passes the
    plans, or a later stage, named in the message, needs a larger e."""

    reason = "increase-e"


class FrobeniusUncertified(ComputationFailure):
    """The Frobenius matrix failed its zeta-function certificate."""

    reason = "frobenius-uncertified"
