"""Exception hierarchy shared by all modules.

Every library error derives from CantorSysError so callers (and the CLI)
can separate usage mistakes from internal failures.
"""


class CantorSysError(Exception):
    pass


class ConstructionError(CantorSysError):
    """An immutable value failed its construction invariants."""


# -- words -------------------------------------------------------------

class HorizonExceeded(CantorSysError):
    pass


class WordTooShort(CantorSysError):
    pass


class UndefinedBlock(CantorSysError):
    """A block code was applied to a window outside its table."""


class EmptyWord(CantorSysError):
    pass


# -- substitution ------------------------------------------------------

class NotPrimitive(CantorSysError):
    pass


class Periodic(CantorSysError):
    pass


class EmptyClopen(CantorSysError):
    pass


class HorizonTooSmall(CantorSysError):
    """A search over a finite sample stopped before its answer was certain.
    Return words are exact, so no computation of the package raises it."""


class RecognizabilityUnknown(CantorSysError):
    pass


class NoFixedLetterPower(CantorSysError):
    """No power of the substitution maps the letter to a word starting with it."""


# -- odometer ----------------------------------------------------------

class NotEventuallyPeriodic(CantorSysError):
    pass


class IncoherentPoint(CantorSysError):
    pass


class FactorisationUnknown(CantorSysError):
    """An integer could not be split into certified primes within the
    factoring work budget."""


# -- bratteli ----------------------------------------------------------

class InvalidDiagram(CantorSysError):
    pass


class InvalidPrefix(CantorSysError):
    pass


class CutsOutOfRange(CantorSysError):
    pass


class SplitDoesNotCompose(CantorSysError):
    pass


class CoverageViolation(CantorSysError):
    pass


class NotStationary(CantorSysError):
    pass


class NotSimple(CantorSysError):
    pass


class ZeroMassClopen(CantorSysError):
    pass


class LeftSideMismatch(CantorSysError):
    pass


class DepthExhausted(CantorSysError):
    pass


# -- gensub ------------------------------------------------------------

class SeedNotLegal(CantorSysError):
    pass


class NoStabilization(CantorSysError):
    pass


class OverlapViolation(CantorSysError):
    pass


# -- product example ---------------------------------------------------

class WindowExhausted(CantorSysError):
    pass


# -- cli ---------------------------------------------------------------

class DocumentError(CantorSysError):
    """Malformed input document."""
