from fractions import Fraction

import pytest

from conemorse.complexes import chain_ranks, cohomology
from conemorse.errors import DegreeError, NotPerfectError, ShapeError
from conemorse.families import (
    TorusConvention,
    canonical_rank_matrix,
    hard_lefschetz_ranks,
    minimal_model,
    projective_space,
    s2_bundle_over_k3,
    sort_sign,
    synthetic_from_rank_profile,
    synthetic_from_ranks,
    torus,
)
from conemorse.morse import (
    cone_morse_complex,
    morse_complex,
    product,
    stabilize,
    validate_datum,
)
from conemorse.ratlinalg import RationalMatrix


def cone_map_of(datum):
    return {(s, t): v for s, t, v in datum.cone_map}


def wedge_monomials(pairs, subset):
    """Independent oracle: omega ^ dx_subset expanded on sorted monomials.

    omega = sum over pairs (i, j) of dx_i ^ dx_j; wedging dx_i ^ dx_j onto
    dx_subset and sorting the factors contributes the permutation sign.
    """
    out = {}
    for i, j in pairs:
        if i in subset or j in subset:
            continue
        seq = [i, j] + list(subset)
        sign = 1
        # bubble sort, counting swaps
        arr = seq[:]
        for a in range(len(arr)):
            for b in range(len(arr) - 1 - a):
                if arr[b] > arr[b + 1]:
                    arr[b], arr[b + 1] = arr[b + 1], arr[b]
                    sign = -sign
        out[tuple(arr)] = out.get(tuple(arr), 0) + sign
    return {k: v for k, v in out.items() if v}


class TestTorus:
    def test_paper_cone_map_lines_n2(self):
        cmap = cone_map_of(torus(2))
        assert cmap[("q0", "q12")] == 1 and cmap[("q0", "q34")] == 1
        assert cmap[("q1", "q134")] == 1
        assert cmap[("q2", "q234")] == 1
        assert cmap[("q3", "q123")] == 1
        assert cmap[("q4", "q124")] == 1
        assert cmap[("q12", "q1234")] == 1 and cmap[("q34", "q1234")] == 1

    def test_all_other_points_map_to_zero_n2(self):
        cmap = cone_map_of(torus(2))
        sources = {s for s, _ in cmap}
        assert sources == {"q0", "q1", "q2", "q3", "q4", "q12", "q34"}

    def test_single_pair_n1(self):
        cmap = cone_map_of(torus(1))
        assert cmap == {("q0", "q12"): Fraction(1)}

    def test_zero_boundary(self):
        assert torus(3).boundary == ()

    def test_pairing_convention_transport(self):
        adj = cohomology(cone_morse_complex(torus(TorusConvention(2, "adjacent")))).dims
        spl = cohomology(cone_morse_complex(torus(TorusConvention(2, "split")))).dims
        assert adj == spl

    @pytest.mark.parametrize("n", [2, 3])
    def test_product_of_circles_pairs_matches_direct(self, n):
        pieces = torus(1)
        for _ in range(n - 1):
            pieces = product(pieces, torus(1))
        direct = torus(n)
        _, phi_p = morse_complex(pieces)
        _, phi_d = morse_complex(direct)
        assert pieces.counts() == direct.counts()
        assert chain_ranks(phi_p) == chain_ranks(phi_d)
        assert (
            cohomology(cone_morse_complex(pieces)).dims
            == cohomology(cone_morse_complex(direct)).dims
        )

    def test_matches_wedge_oracle(self):
        # the cone map of the torus must be the matrix of wedging the
        # symplectic form onto coordinate monomials, computed independently
        for conv in (TorusConvention(2, "adjacent"), TorusConvention(2, "split")):
            datum = torus(conv)
            cmap = cone_map_of(datum)
            subsets = {}
            for q in datum.points:
                label = q.id
                subset = () if label == "q0" else tuple(int(ch) for ch in label[1:])
                subsets[label] = subset
            for label, subset in subsets.items():
                expected = wedge_monomials(conv.pairs(), subset)
                got = {}
                for (src, dst), value in cmap.items():
                    if src == label:
                        got[subsets[dst]] = value
                assert got == {k: Fraction(v) for k, v in expected.items()}

    def test_sort_sign(self):
        assert sort_sign([1, 2, 3]) == 1
        assert sort_sign([2, 1, 3]) == -1
        assert sort_sign([3, 4, 1, 2]) == 1


class TestProjectiveSpace:
    def test_cone_cohomology_n2(self):
        assert cohomology(cone_morse_complex(projective_space(2))).dims == (1, 0, 0, 0, 0, 1)

    def test_cone_cohomology_n1(self):
        assert cohomology(cone_morse_complex(projective_space(1))).dims == (1, 0, 0, 1)

    def test_power_out_of_range(self):
        with pytest.raises(DegreeError):
            projective_space(3, p=3)

    def test_hard_lefschetz_at_datum_level(self):
        n = 3
        _, phi = morse_complex(projective_space(n))
        m = projective_space(n).counts()
        for k in range(0, n + 1, 2):
            power = phi.matrix(k)
            j = k + 2
            while j <= 2 * n - k - 2:
                power = phi.matrix(j) @ power
                j += 2
            # c(omega)^{n-k}: index k -> 2n-k is bijective
            assert power.shape == (m[2 * n - k], m[k])
            from conemorse.ratlinalg import rank

            assert rank(power) == m[k]


class TestMinimalModel:
    def test_torus(self):
        complex_, phi = minimal_model(torus(2))
        assert complex_.dims == (1, 4, 6, 4, 1)
        assert chain_ranks(phi) == [1, 4, 1, 0, 0]

    def test_cp2(self):
        complex_, _ = minimal_model(projective_space(2))
        assert complex_.dims == (1, 0, 1, 0, 1)

    def test_not_perfect(self):
        with pytest.raises(NotPerfectError):
            minimal_model(stabilize(torus(2), 0, "s"))


class TestSynthetic:
    def test_k3_bundle_cone_cohomology(self):
        datum = s2_bundle_over_k3()
        assert validate_datum(datum) is None
        assert cohomology(cone_morse_complex(datum)).dims == (1, 0, 22, 1, 1, 22, 0, 1)

    def test_point(self):
        datum = synthetic_from_ranks([1], [], p=0, name="point")
        assert cohomology(cone_morse_complex(datum)).dims == (1, 1)

    def test_hard_lefschetz_profile(self):
        betti_vec = [1, 0, 2, 0, 1]
        datum = synthetic_from_rank_profile(
            betti_vec, hard_lefschetz_ranks(betti_vec), name="hl"
        )
        # full-rank wedge maps reproduce the b_k - b_{k-2} pattern
        assert cohomology(cone_morse_complex(datum)).dims == (1, 0, 1, 1, 0, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            synthetic_from_ranks([1, 0, 1], [RationalMatrix.zeros(2, 2)])

    def test_rank_matrix_guard(self):
        with pytest.raises(ShapeError):
            canonical_rank_matrix(2, 2, 3)

