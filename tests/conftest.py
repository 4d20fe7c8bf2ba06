import functools

import pytest

from conemorse.morse import CriticalPoint, MorseDatum
from conemorse.spectral import SpectralProblem, low_spectrum


@pytest.fixture(scope="session")
def cached_low_spectrum():
    """Session-wide memo for the eigensolves several tests share."""

    @functools.lru_cache(maxsize=32)
    def compute(t, cutoff, degree, count, sign=1.0, morse_scale=1.0):
        # sign = -1 deforms by -f; (-t) a and t (-a) are the same float
        return low_spectrum(SpectralProblem(t, cutoff, degree, sign * morse_scale), count)

    return compute


@pytest.fixture()
def split_witness_datum():
    """A datum whose d∘d = [[0, 5], [6, 0]] on (a0, b0).

    The lowest nonzero column names a0 (coefficient 6); the first entry in
    row-major order would name b0 (coefficient 5).
    """
    return MorseDatum(
        manifold_dim=2,
        points=tuple(
            CriticalPoint(gid, int(gid[1])) for gid in ("a0", "b0", "c1", "e1", "x2", "y2")
        ),
        boundary=(("a0", "c1", 2), ("c1", "y2", 3), ("b0", "e1", 1), ("e1", "x2", 5)),
        name="split-witness",
    )
