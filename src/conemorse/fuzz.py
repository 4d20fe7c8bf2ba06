"""Random valid (complex, chain map) pairs for property testing.

A differential with d^2 = 0 is built in a structured basis where each degree
splits as harmonic + incoming + outgoing coordinates and d identifies the
outgoing block with the next degree's incoming block.  A chain map commuting
with d is then parametrized freely on the harmonic and outgoing blocks and
propagated onto the incoming blocks.  Both are conjugated by random unimodular
matrices so test data is not secretly block-diagonal.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import CochainComplex, DegreeChainMap, validate_chain_map, validate_complex
from .ratlinalg import RationalMatrix, solve


def _random_unimodular(rng: random.Random, n: int) -> RationalMatrix:
    lower = [[Fraction(0)] * n for _ in range(n)]
    upper = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(1)
        upper[i][i] = Fraction(1)
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
        for j in range(i + 1, n):
            upper[i][j] = Fraction(rng.randint(-2, 2))
    return RationalMatrix.from_rows(lower) @ RationalMatrix.from_rows(upper)


def _random_entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.2:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    return Fraction(rng.randint(-3, 3))


def random_complex_with_chain_map(
    rng: random.Random,
    max_degrees: int = 6,
    max_dim: int = 8,
    shift: int = 2,
) -> tuple:
    """A valid CochainComplex (d^2 = 0) with a valid self chain map of even shift."""
    levels = rng.randint(2, max_degrees)
    rho = [rng.randint(0, 2) for _ in range(levels - 1)] + [0]
    h, dims = [], []
    for k in range(levels):
        incoming = rho[k - 1] if k else 0
        room = max(0, max_dim - incoming - rho[k])
        h.append(rng.randint(0, room) if room else 0)
        dims.append(h[k] + incoming + rho[k])
    # canonical differential: outgoing block of level k -> incoming block of level k+1
    diffs = []
    for k in range(levels - 1):
        mat = [[Fraction(0)] * dims[k] for _ in range(dims[k + 1])]
        incoming_prev = rho[k - 1] if k else 0
        for j in range(rho[k]):
            mat[h[k + 1] + j][h[k] + incoming_prev + j] = Fraction(1)
        diffs.append(RationalMatrix.from_rows(mat) if dims[k + 1] else RationalMatrix.zeros(0, dims[k]))

    def dim(k):
        return dims[k] if 0 <= k < levels else 0

    def parts(k):
        # (harmonic, incoming, outgoing) coordinate ranges at level k
        incoming = rho[k - 1] if k else 0
        return h[k], incoming, rho[k]

    # free chain-map blocks, then propagate onto incoming coordinates
    phis = []
    for k in range(levels):
        phis.append([[Fraction(0)] * dims[k] for _ in range(dim(k + shift))])
    for k in range(levels):
        if dim(k + shift) == 0:
            continue
        hk, inc, out = parts(k)
        ht, inct, outt = parts(k + shift)
        for col in range(hk):
            for row in range(ht + inct):  # closed elements map to closed elements
                phis[k][row][col] = _random_entry(rng)
        for j in range(out):
            col = hk + inc + j
            for row in range(dim(k + shift)):
                phis[k][row][col] = _random_entry(rng)
            # image of the matching incoming coordinate at level k+1 is forced
            if k + 1 < levels and dim(k + 1 + shift):
                hn, incn, _ = parts(k + 1 + shift)
                for i in range(outt):
                    phis[k + 1][hn + i][h[k + 1] + j] = phis[k][ht + inct + i][col]
    phi_mats = [
        RationalMatrix.from_rows(phis[k]) if dim(k + shift) else RationalMatrix.zeros(0, dims[k])
        for k in range(levels)
    ]

    # conjugate by random unimodular coordinate changes
    bases = [_random_unimodular(rng, dims[k]) for k in range(levels)]
    # L U with unit-triangular factors: always invertible
    inverses = [solve(s, RationalMatrix.identity(s.rows)) for s in bases]
    diffs = [bases[k + 1] @ diffs[k] @ inverses[k] for k in range(levels - 1)]
    phi_mats = [
        (bases[k + shift] @ phi_mats[k] @ inverses[k]) if k + shift < levels else phi_mats[k]
        for k in range(levels)
    ]
    complex_ = CochainComplex(dims, diffs)
    chain_map = DegreeChainMap(complex_, shift, phi_mats)
    assert validate_complex(complex_) is None
    assert validate_chain_map(chain_map) is None
    return complex_, chain_map
