"""Exception hierarchy shared by all modules."""


class HcmuError(Exception):
    """Base class for every domain error raised by this package."""


# -- combinatorial layer ----------------------------------------------------

class NotBipartite(HcmuError):
    pass


class Disconnected(HcmuError):
    pass


class OddFaceDegree(HcmuError):
    """A face walk has odd degree or degree < 4."""


class NonIntegerGenus(HcmuError):
    """Euler count is not of the form 2 - 2g; signals internal corruption."""


# -- prescriptions ----------------------------------------------------------

class BadAngleVector(HcmuError):
    """An angle entry equals 1, is negative, or the vector is malformed."""


class BadTypePartition(HcmuError):
    pass


class BadGenus(HcmuError):
    """A prescribed genus is negative."""


class EmptySpace(HcmuError):
    """The requested (refined) moduli space is empty."""


class Inadmissible(HcmuError):
    """One-cone parameters violate the classification."""


class NotCoprime(HcmuError):
    pass


class BadOrder(HcmuError):
    """p <= q where p > q is required."""


# -- linear algebra ---------------------------------------------------------

class Infeasible(HcmuError):
    """The balance system has no solution (or no positive tree solution)."""


class BadTargets(HcmuError):
    """R = 0 with a nonzero white target."""


class NotATree(HcmuError):
    pass


class AssertionFailure(HcmuError, AssertionError):
    """An identity the theory guarantees failed; indicates a model bug.

    It stays raised under ``python -O``, unlike an ``assert`` statement, and
    is an ``AssertionError`` for callers that catch those."""


class CensusInconsistent(AssertionFailure):
    pass


# -- builders ---------------------------------------------------------------

class Incompatible(HcmuError):
    """Order vector does not fit the polygon (2L < 0)."""


class BadOrderVector(HcmuError):
    """Order vector entry odd or < 2."""


# the most arcs a builder's map may have, and the most ratio candidates
# enumerate_ratios lists; the work and the output grow with both
MAX_ARCS = 2**13


class TooLarge(HcmuError):
    """A construction would build a map of more than ``MAX_ARCS`` arcs, or a
    prescription has more than ``MAX_ARCS`` ratio candidates."""


# -- numerics ---------------------------------------------------------------

class BadRatio(HcmuError):
    """Ratio outside [0, 1) or otherwise unusable."""


# -- deformations -----------------------------------------------------------

class CriticalLevel(HcmuError):
    """The chosen level coincides with a face level."""


class BadCircleIndex(HcmuError):
    pass


class NotInteger(HcmuError):
    """Split requires an integer cone angle > 1 at the chosen vertex."""


class CutOnBoundary(HcmuError):
    """A split cut position hits a sector boundary; choose another offset."""


class CuspVertex(HcmuError):
    """A cusp (angle-zero white vertex) can never be split."""


# -- serialization ----------------------------------------------------------

def _pointer_error(self, message, pointer=""):
    """The constructor of both pointer errors: ``message`` at the JSON pointer ``pointer``."""
    HcmuError.__init__(self, f"{pointer}: {message}" if pointer else message)
    self.message = message
    self.pointer = pointer


class ParseError(HcmuError):
    __init__ = _pointer_error


class ValidationError(HcmuError):
    __init__ = _pointer_error
