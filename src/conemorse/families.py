"""Closed-form Morse data for the built-in manifold families.

Tori carry the cosine Morse function whose critical points are indexed by
coordinate subsets; projective spaces carry the standard perfect Morse
function with one critical point in each even index.  Synthetic data realizes
any Betti vector with prescribed wedge-map matrices as a perfect datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DegreeError, NotPerfectError, ShapeError
from .morse import CriticalPoint, MorseDatum, morse_complex
from .ratlinalg import RationalMatrix


@dataclass(frozen=True)
class TorusConvention:
    """Which coordinates the symplectic form pairs on T^{2n}.

    "adjacent" pairs (1,2), (3,4), ...; "split" pairs (i, i+n).  The two are
    related by relabeling coordinates, so all cone cohomology dimensions agree.
    """

    n: int
    pairing: str = "adjacent"

    def __post_init__(self):
        if self.n < 1:
            raise DegreeError(f"torus needs n >= 1, got {self.n}")
        if self.pairing not in ("adjacent", "split"):
            raise ValueError(f"unknown pairing {self.pairing!r}")

    def pairs(self) -> tuple:
        if self.pairing == "adjacent":
            return tuple((2 * i + 1, 2 * i + 2) for i in range(self.n))
        return tuple((i + 1, i + 1 + self.n) for i in range(self.n))


def sort_sign(sequence) -> int:
    """Sign of the permutation sorting `sequence` (entries distinct)."""
    inversions = sum(
        1
        for i in range(len(sequence))
        for j in range(i + 1, len(sequence))
        if sequence[i] > sequence[j]
    )
    return -1 if inversions % 2 else 1


def _subset_id(subset, width: int) -> str:
    if not subset:
        return "q0"
    sep = "" if width <= 9 else "_"
    return "q" + sep.join(str(i) for i in subset)


def torus(conv, pairing: str = "adjacent") -> MorseDatum:
    """Morse datum of T^{2n} with the product cosine Morse function.

    Generators q_I for I a subset of {1..2n}, index |I|, zero boundary.  The
    cone map takes q_I to the signed sum of q_{I u P} over pairing pairs P
    disjoint from I, with the sorting-permutation sign on (P, I); this is the
    unique convention matching the wedge action of the symplectic form on
    coordinate monomials.
    """
    if not isinstance(conv, TorusConvention):
        conv = TorusConvention(int(conv), pairing)
    n = conv.n
    coords = range(1, 2 * n + 1)
    points = []
    cone = []
    for size in range(2 * n + 1):
        for subset in combinations(coords, size):
            points.append(CriticalPoint(_subset_id(subset, 2 * n), size))
            for pair in conv.pairs():
                if pair[0] in subset or pair[1] in subset:
                    continue
                sign = sort_sign(list(pair) + list(subset))
                target = tuple(sorted(subset + pair))
                cone.append(
                    (_subset_id(subset, 2 * n), _subset_id(target, 2 * n), Fraction(sign))
                )
    return MorseDatum(
        manifold_dim=2 * n,
        points=tuple(points),
        boundary=(),
        cone_map=tuple(cone),
        p=0,
        name=f"torus-n{n}-{conv.pairing}",
        metadata={"family": "torus", "n": n, "pairing": conv.pairing},
    )


def projective_space(n: int, p: int = 0) -> MorseDatum:
    """Morse datum of complex projective n-space, one generator per even index.

    The cone map sends the index-2j generator to the index-(2j+2p+2) one with
    coefficient 1: the geometric coefficient is a fixed positive multiple of pi
    for every step, and ranks and cohomology dimensions are invariant under
    that common rescaling, so the pi is dropped and recorded in metadata.
    """
    if n < 1:
        raise DegreeError(f"projective space needs n >= 1, got {n}")
    if not 0 <= p <= n - 1:
        raise DegreeError(f"p must satisfy 0 <= p <= n-1 = {n - 1}, got {p}")
    points = tuple(CriticalPoint(f"p{2 * j}", 2 * j) for j in range(n + 1))
    shift = 2 * p + 2
    cone = tuple(
        (f"p{2 * j}", f"p{2 * j + shift}", Fraction(1))
        for j in range(n + 1)
        if 2 * j + shift <= 2 * n
    )
    return MorseDatum(
        manifold_dim=2 * n,
        points=points,
        boundary=(),
        cone_map=cone,
        p=p,
        name=f"cp{n}" + (f"-p{p}" if p else ""),
        metadata={"family": "cpn", "n": n, "normalization": "pi dropped from cone coefficients"},
    )


def minimal_model(d: MorseDatum) -> tuple:
    """The finite complex/chain-map pair standing in for the de Rham side.

    For a perfect datum the Morse complex has zero differential and *is* the
    cohomology-ring carrier, so the pair coincides with morse_complex(d).
    Raises NotPerfectError when the boundary is nonzero.
    """
    if d.boundary:
        raise NotPerfectError(
            f"datum {d.name or '<unnamed>'} has a nonzero boundary; no minimal model"
        )
    return morse_complex(d)


def synthetic_from_ranks(betti, omega_maps, p: int = 0, name: str = "synthetic") -> MorseDatum:
    """Perfect datum with m_k = betti[k], zero boundary, prescribed cone maps.

    omega_maps[k] (shape betti[k+2p+2] x betti[k]) is the wedge-map matrix in
    the canonical generator bases; missing or out-of-range entries mean zero.
    Zero boundary makes the commuting identity automatic, so any ranks can be
    realized.
    """
    betti = [int(b) for b in betti]
    if not betti or any(b < 0 for b in betti):
        raise ShapeError("betti must be a nonempty list of nonnegative integers")
    manifold_dim = len(betti) - 1
    if manifold_dim % 2 != 0:
        raise ShapeError("betti must cover degrees 0..2n")
    shift = 2 * p + 2
    points = tuple(
        CriticalPoint(f"e{k}_{i}", k) for k in range(len(betti)) for i in range(betti[k])
    )
    cone = []
    for k, mat in enumerate(omega_maps):
        if mat is None:
            continue
        if k + shift > manifold_dim:
            if not mat.is_zero():
                raise ShapeError(f"omega_maps[{k}] targets degree {k + shift} > {manifold_dim}")
            continue
        if mat.shape != (betti[k + shift], betti[k]):
            raise ShapeError(
                f"omega_maps[{k}] has shape {mat.shape}, expected ({betti[k + shift]}, {betti[k]})"
            )
        for i, j, value in mat.nonzero():
            cone.append((f"e{k}_{j}", f"e{k + shift}_{i}", value))
    return MorseDatum(
        manifold_dim=manifold_dim,
        points=points,
        boundary=(),
        cone_map=tuple(cone),
        p=p,
        name=name,
        metadata={"family": "synthetic", "betti": betti},
    )


def canonical_rank_matrix(rows: int, cols: int, r: int) -> RationalMatrix:
    """The rank-r matrix with an identity block in the top-left corner."""
    if r > min(rows, cols) or r < 0:
        raise ShapeError(f"rank {r} impossible for a {rows}x{cols} matrix")
    return RationalMatrix(
        rows, cols, [1 if i == j and i < r else 0 for i in range(rows) for j in range(cols)]
    )


def synthetic_from_rank_profile(betti, ranks, p: int = 0, name: str = "synthetic") -> MorseDatum:
    """Synthetic datum whose k-th wedge map is the canonical rank-ranks[k] block."""
    shift = 2 * p + 2
    maps = []
    for k in range(len(betti)):
        rk = ranks[k] if k < len(ranks) else 0
        rows = betti[k + shift] if k + shift < len(betti) else 0
        maps.append(canonical_rank_matrix(rows, betti[k], rk))
    return synthetic_from_ranks(betti, maps, p=p, name=name)


def hard_lefschetz_ranks(betti, p: int = 0) -> list:
    """The full-rank profile min(b_k, b_{k+2p+2}) in every degree."""
    shift = 2 * p + 2
    return [
        min(b, betti[k + shift]) if k + shift < len(betti) else 0
        for k, b in enumerate(betti)
    ]


def s2_bundle_over_k3(omega_rank: int = 22, b2: int = 23) -> MorseDatum:
    """Perfect datum modeling a two-sphere bundle over a K3 surface (n = 3).

    Betti numbers (1, 0, b2, 0, b2, 0, 1); the middle wedge map H^2 -> H^4 has
    the given rank (any value < b2 breaks hard Lefschetz), the end maps have
    rank 1 as forced on a closed symplectic 6-manifold.
    """
    if not 0 <= omega_rank <= b2:
        raise ShapeError(f"omega_rank must lie in 0..{b2}")
    betti = [1, 0, b2, 0, b2, 0, 1]
    ranks = [1, 0, omega_rank, 0, 1]
    return synthetic_from_rank_profile(
        betti, ranks, p=0, name=f"s2-bundle-over-k3-rank{omega_rank}"
    )
