"""Exception types shared across the package.

Each class names the contract it guards; modules raise these instead of
bare ValueErrors so callers (and the CLI exit-code map) can distinguish
failure modes.
"""


class BpcodesError(Exception):
    """Base class for all package errors."""


# linear algebra
class DimensionMismatch(BpcodesError):
    pass


class ContainmentError(BpcodesError):
    """A claimed subspace containment does not hold."""


# alist files
class AlistError(BpcodesError):
    """Text that is not a well-formed alist matrix."""


class AlistTruncated(AlistError):
    """The text ends before the header, degree lists or index lists do."""


class AlistDegreeMismatch(AlistError):
    """Degree lists disagree with the header or with each other."""


class AlistIndexOutOfRange(AlistError, DimensionMismatch):
    """An index list names a row or column outside the declared size."""


class AlistDuplicateIndex(AlistError):
    """An index list names the same entry twice."""


class AlistListsDisagree(AlistError):
    """Row lists and column lists describe different matrices."""


class AlistTrailingTokens(AlistError):
    """Tokens follow the last row list."""


class BundleCorrupt(BpcodesError):
    """A bundle's 0/1 row file is malformed."""


# finite groups / fields
class InvalidModulus(BpcodesError):
    pass


class CapExceeded(BpcodesError):
    """Requested group order exceeds the enumeration cap."""


class NotPGL(BpcodesError):
    pass


# complexes
class DegreeOutOfRange(BpcodesError):
    pass


class NotChainComplex(BpcodesError):
    """Differentials do not square to zero / shapes inconsistent."""


class NotDoubleComplex(BpcodesError):
    """Grid maps fail (d^v)^2 = (d^h)^2 = 0 or the commuting-square law."""


class KunnethViolation(BpcodesError):
    """Both sides of a Kunneth identity disagree (implementation bug)."""


class NotTwoByTwo(BpcodesError):
    pass


class TooSmall(BpcodesError):
    pass


# graphs
class InvalidPrimes(BpcodesError):
    pass


class SizeMismatch(BpcodesError):
    """Generator-set filtering produced an unexpected count."""


class NotSymmetric(BpcodesError):
    pass


class SelfLoop(BpcodesError):
    pass


class NotSimpleGraph(BpcodesError):
    pass


class Disconnected(BpcodesError):
    pass


class QuotientConditionViolated(BpcodesError):
    pass


class NotFree(BpcodesError):
    pass


class IncidenceDegenerate(BpcodesError):
    pass


class DomainError(BpcodesError):
    pass


# classical codes
class TooLarge(BpcodesError):
    """Exhaustive enumeration would exceed the configured cap."""


class LocatorRoot(BpcodesError):
    pass


class DuplicateLocator(BpcodesError):
    pass


class IncompatibleLength(BpcodesError):
    pass


class SearchExhausted(BpcodesError):
    pass


# tanner
class DegreeMismatch(BpcodesError):
    pass


# products
class NotAutomorphism(BpcodesError):
    pass


class IncidenceMissing(BpcodesError):
    pass


class ActionNotChainMap(BpcodesError):
    pass


class NotFreeOnBasis(BpcodesError):
    pass


class EvenOrder(BpcodesError):
    pass


class ActionInvalid(BpcodesError):
    pass


# quantum
class NoLogicals(BpcodesError):
    pass


# cli
class RecipeInvalid(BpcodesError):
    pass
