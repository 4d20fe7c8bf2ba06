import functools

import pytest

from conemorse.spectral import SpectralProblem, low_spectrum


@pytest.fixture(scope="session")
def cached_low_spectrum():
    """Session-wide memo for the eigensolves several tests share."""

    @functools.lru_cache(maxsize=32)
    def compute(t, cutoff, degree, count, sign=1.0, morse_scale=1.0):
        prob = SpectralProblem(t, cutoff, degree, morse_scale)
        return low_spectrum(prob, count, _sign=sign)

    return compute
