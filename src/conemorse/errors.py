"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix or dimension bookkeeping disagrees with the declared shapes.

    Raised inside the exact linear algebra; once a datum has validated, one is
    an internal bug.
    """


class UsageError(ValueError):
    """A requested parameter cannot be realized (Betti vector, rank, power of omega)."""


class ChainMapError(ValueError):
    """The chain-map identity d ∘ phi = phi ∘ d fails."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree (internal bug)."""


class RemainderError(ValueError):
    """Polynomial division that must be exact left a nonzero remainder."""


class DegreeError(ValueError):
    """A coefficient or parameter violates the degree/index constraints."""


class UnknownIdError(ValueError):
    """A coefficient refers to a generator id that does not exist."""


class InvalidDatumError(ValueError):
    """A Morse datum fails its algebraic validation (carries the violation)."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


class SolverError(RuntimeError):
    """The sparse factorization or the symmetric eigensolver failed."""


class AdequacyError(RuntimeError):
    """The (t, cutoff) combination cannot resolve the low eigenvalue cluster."""

    def __init__(self, message, suggested_cutoff=None):
        self.suggested_cutoff = suggested_cutoff
        super().__init__(message)


class DegreeMismatchError(ValueError):
    """A quasimode was requested at a cone degree it does not live in."""
