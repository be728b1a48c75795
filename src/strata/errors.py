"""Exception taxonomy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can relay
failures in a scriptable form.
"""


class StrataError(Exception):
    code = "error"


class InvalidSignature(StrataError):
    code = "invalid-signature"

    def __init__(self, message: str, failed: tuple[str, ...] = ()):
        super().__init__(message)
        self.failed = tuple(failed)


class EmptyStratum(StrataError):
    code = "empty-stratum"


class InvalidJson(StrataError):
    code = "invalid-json"


class InvalidSpec(StrataError):
    code = "invalid-spec"


class InvalidIntList(StrataError):
    code = "invalid-int-list"


class InvalidSurface(StrataError):
    code = "invalid-surface"


class InvalidLetter(StrataError):
    code = "invalid-letter"


class InvalidMove(StrataError):
    code = "invalid-move"


class GenusMismatch(StrataError):
    code = "genus-mismatch"


class IndexOutOfRange(StrataError):
    code = "index-out-of-range"


class NoOtherWeights(StrataError):
    code = "no-other-weights"


class ZeroWeight(StrataError):
    code = "zero-weight"


class NotInKernel(StrataError):
    code = "not-in-kernel"


class PreconditionUnmet(StrataError):
    code = "precondition-unmet"


class OutOfRange(StrataError):
    code = "out-of-range"


class BudgetExceeded(StrataError):
    code = "budget"


class BoundViolation(StrataError):
    code = "bound-violation"


class NoRemovableEdge(StrataError):
    code = "no-removable-edge"


class NotSimple(StrataError):
    code = "not-simple"
