from fractions import Fraction

import pytest

from conemorse.complexes import chain_ranks, cohomology, mapping_cone
from conemorse.errors import ShapeError, UsageError
from conemorse.families import (
    canonical_rank_matrix,
    hard_lefschetz_ranks,
    projective_space,
    s2_bundle_over_k3,
    sort_sign,
    synthetic_from_rank_profile,
    synthetic_from_ranks,
    torus,
)
from conemorse.morse import (
    morse_complex,
    product,
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
        adj = cohomology(mapping_cone(morse_complex(torus(2, "adjacent"))[1]))
        spl = cohomology(mapping_cone(morse_complex(torus(2, "split"))[1]))
        assert adj == spl

    def test_pairing_is_named_and_checked(self):
        split = torus(2, "split")
        assert split.name == "torus-n2-split" and split.metadata["pairing"] == "split"
        with pytest.raises(ValueError, match="unknown pairing 'diagonal'"):
            torus(2, "diagonal")

    @pytest.mark.parametrize("n", [2.9, 2.0, True, "2", None])
    def test_n_must_be_an_int(self, n):
        # int() would build T^4 from 2.9 and T^2 from True
        with pytest.raises(TypeError, match="torus needs an integer n"):
            torus(n)

    def test_n_below_one_refused(self):
        with pytest.raises(UsageError, match="torus needs n >= 1, got 0"):
            torus(0)

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
            cohomology(mapping_cone(morse_complex(pieces)[1]))
            == cohomology(mapping_cone(morse_complex(direct)[1]))
        )

    def test_matches_wedge_oracle(self):
        # the cone map of the torus must be the matrix of wedging the
        # symplectic form onto coordinate monomials, computed independently
        for pairing, pairs in (("adjacent", ((1, 2), (3, 4))), ("split", ((1, 3), (2, 4)))):
            datum = torus(2, pairing)
            cmap = cone_map_of(datum)
            subsets = {}
            for q in datum.points:
                label = q.id
                subset = () if label == "q0" else tuple(int(ch) for ch in label[1:])
                subsets[label] = subset
            for label, subset in subsets.items():
                expected = wedge_monomials(pairs, subset)
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
        cone = mapping_cone(morse_complex(projective_space(2))[1])
        assert cohomology(cone) == (1, 0, 0, 0, 0, 1)

    def test_cone_cohomology_n1(self):
        assert cohomology(mapping_cone(morse_complex(projective_space(1))[1])) == (1, 0, 0, 1)

    def test_power_out_of_range(self):
        with pytest.raises(UsageError, match="p must satisfy 0 <= p <= n-1 = 2, got 3"):
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
        complex_, phi = morse_complex(torus(2))
        assert complex_.dims == (1, 4, 6, 4, 1)
        assert chain_ranks(phi) == [1, 4, 1, 0, 0]

    def test_cp2(self):
        complex_, _ = morse_complex(projective_space(2))
        assert complex_.dims == (1, 0, 1, 0, 1)


class TestSynthetic:
    def test_k3_bundle_cone_cohomology(self):
        datum = s2_bundle_over_k3()
        assert validate_datum(datum) is None
        assert cohomology(mapping_cone(morse_complex(datum)[1])) == (1, 0, 22, 1, 1, 22, 0, 1)

    def test_point(self):
        datum = synthetic_from_ranks([1], [], p=0, name="point")
        assert cohomology(mapping_cone(morse_complex(datum)[1])) == (1, 1)

    def test_hard_lefschetz_profile(self):
        betti_vec = [1, 0, 2, 0, 1]
        datum = synthetic_from_rank_profile(
            betti_vec, hard_lefschetz_ranks(betti_vec), name="hl"
        )
        # full-rank wedge maps reproduce the b_k - b_{k-2} pattern
        assert cohomology(mapping_cone(morse_complex(datum)[1])) == (1, 0, 1, 1, 0, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            synthetic_from_ranks([1, 0, 1], [RationalMatrix.zeros(2, 2)])

    def test_rank_matrix_guard(self):
        # a requested rank is input, not shape bookkeeping: a usage error
        with pytest.raises(UsageError):
            canonical_rank_matrix(2, 2, 3)

    @pytest.mark.parametrize(
        "betti, p, message",
        [
            ([], 0, "nonempty"),
            ([1, -1, 1], 0, "nonnegative"),
            ([1, 0], 0, "0..2n"),
            ([1, 0, 1], -5, "p must be nonnegative"),
        ],
    )
    def test_profile_checks_are_usage_errors(self, betti, p, message):
        # checked before any index is formed from them: p = -5 once indexed
        # the Betti list out of range in hard_lefschetz_ranks
        for build in (
            lambda: hard_lefschetz_ranks(betti, p=p),
            lambda: synthetic_from_rank_profile(betti, [0] * len(betti), p=p),
            lambda: synthetic_from_ranks(betti, [], p=p),
        ):
            with pytest.raises(UsageError, match=message):
                build()

    def test_omega_rank_guard(self):
        with pytest.raises(UsageError, match="omega_rank"):
            s2_bundle_over_k3(omega_rank=24)

