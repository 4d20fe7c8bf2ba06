import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemorse import morse
from conemorse.complexes import (
    chain_ranks,
    cohomology,
    decomposition_dims,
    induced_map_ranks,
    mapping_cone,
)
from conemorse.errors import DegreeError, InvalidDatumError, UnknownIdError
from conemorse.families import projective_space, torus
from conemorse.fuzz import random_complex_with_chain_map
from conemorse.inequalities import cone_report
from conemorse.morse import (
    CriticalPoint,
    DatumViolation,
    MorseDatum,
    datum_from_chain_map,
    morse_complex,
    product,
    relabel,
    stabilize,
    validate_datum,
)


def point_datum():
    return MorseDatum(manifold_dim=0, points=(CriticalPoint("pt", 0),), name="point")


class TestValidate:
    def test_torus_is_valid(self):
        assert validate_datum(torus(2)) is None

    def test_sign_flip_invisible_when_boundary_vanishes(self):
        t2 = torus(2)
        flipped = []
        for i, (src, dst, value) in enumerate(t2.cone_map):
            flipped.append((src, dst, -value if i == 0 else value))
        altered = MorseDatum(
            manifold_dim=4, points=t2.points, cone_map=tuple(flipped), name="flipped"
        )
        # with zero boundary both sides of the commuting identity vanish:
        # validation alone cannot pin orientation signs
        assert validate_datum(altered) is None

    def test_bad_cone_extension_detected(self):
        st2 = stabilize(torus(2), 2, "s")
        # route the cone map into the cancelling index-2 generator: the
        # commuting identity then fails because the stabilizing boundary
        # pushes the image one degree further
        broken = MorseDatum(
            manifold_dim=4,
            points=st2.points,
            boundary=st2.boundary,
            cone_map=st2.cone_map + (("q0", "s_a", Fraction(1)),),
            name="broken",
        )
        violation = validate_datum(broken)
        assert violation is not None
        assert violation.identity == "commute"
        assert violation.degree == 0
        assert violation.witness == "q0"

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError):
            validate_datum(
                MorseDatum(
                    manifold_dim=2,
                    points=(CriticalPoint("a", 0),),
                    boundary=(("a", "ghost", 1),),
                )
            )

    def test_degree_constraint(self):
        with pytest.raises(DegreeError):
            validate_datum(
                MorseDatum(
                    manifold_dim=2,
                    points=(CriticalPoint("a", 0), CriticalPoint("b", 2)),
                    boundary=(("a", "b", 1),),
                )
            )


def identity_loops(d):
    """The datum's two identity checks as loops of their own, the witness at the
    lowest nonzero column of the failing composite, then its lowest row."""
    by_index, boundary, cone = d._matrices

    def violation(identity, k, m):
        _, col, value = min(m.nonzero(), key=lambda e: (e[1], e[0]))
        return DatumViolation(identity, k, by_index[k][col], value)

    for k in range(d.manifold_dim):
        if by_index[k]:
            comp = boundary[k + 1] @ boundary[k]
            if not comp.is_zero():
                return violation("d_squared", k, comp)
    shift = d.cone_shift
    for k in range(d.manifold_dim + 1):
        if by_index[k] and k + shift + 1 <= d.manifold_dim:
            diff = boundary[k + shift] @ cone[k] - cone[k + 1] @ boundary[k]
            if not diff.is_zero():
                return violation("commute", k, diff)
    return None


def with_one_extra_coefficient(rng, d):
    """d plus one random coefficient of either family; None when no pair of ids fits it."""
    family = rng.choice(("boundary", "cone_map"))
    jump = 1 if family == "boundary" else d.cone_shift
    pairs = [(s.id, t.id) for s in d.points for t in d.points if t.index == s.index + jump]
    if not pairs:
        return None
    src, dst = rng.choice(pairs)
    value = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
    return dataclasses.replace(d, **{family: getattr(d, family) + ((src, dst, value),)})


def test_validate_datum_matches_the_identity_loops():
    found = {None: 0, "d_squared": 0, "commute": 0}
    for seed in range(600):
        rng = random.Random(seed)
        _, phi = random_complex_with_chain_map(rng, shift=rng.choice((2, 4)))
        datum = with_one_extra_coefficient(rng, datum_from_chain_map(phi))
        if datum is None:
            continue
        expected = identity_loops(datum)
        got = validate_datum(datum)
        assert got == expected and str(got) == str(expected), seed
        found[got and got.identity] += 1
    # 476 data: 210 valid, 156 fail d∘d = 0 and 110 fail dc = cd
    assert sum(found.values()) >= 400 and min(found.values()) >= 100, found


class Reached(Exception):
    pass


def forbid_generator_lists(monkeypatch):
    """Make every range morse builds raise Reached with its arguments.

    The first one MorseDatum._matrices builds sizes the per-index generator
    lists by manifold_dim.
    """

    def reached(*args):
        raise Reached(*args)

    monkeypatch.setattr(morse, "range", reached, raising=False)


class TestManifoldDimCap:
    def test_oversized_manifold_dim_rejected_before_allocating(self, monkeypatch):
        forbid_generator_lists(monkeypatch)
        huge = MorseDatum(manifold_dim=10**12, points=(CriticalPoint("a", 0),))
        for check in (validate_datum, cone_report):
            with pytest.raises(DegreeError, match="manifold_dim must be at most 10000"):
                check(huge)

    def test_cap_itself_is_accepted(self, monkeypatch):
        forbid_generator_lists(monkeypatch)
        at_cap = MorseDatum(manifold_dim=morse.MAX_MANIFOLD_DIM, points=(CriticalPoint("a", 0),))
        with pytest.raises(Reached) as caught:
            validate_datum(at_cap)
        assert caught.value.args == (morse.MAX_MANIFOLD_DIM + 1,)


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(morse, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(morse, name, counted)
    return calls


class TestAssembleOnce:
    # MorseDatum._matrices checks and writes both families in one pass, one
    # matrix per degree each: torus(2) has degrees 0..4, so 10 per assembly
    def test_cone_report_assembles_each_family_once(self, monkeypatch):
        assembled = count_calls(monkeypatch, "_matrix")
        cone_report(torus(2))
        assert len(assembled) == 2 * 5  # boundary and cone map

    def test_validation_and_complex_share_the_matrices(self, monkeypatch):
        assembled = count_calls(monkeypatch, "_matrix")
        datum = torus(2)
        assert validate_datum(datum) is None
        assert len(assembled) == 2 * 5
        first, phi = morse_complex(datum)
        second, _ = morse_complex(datum)
        assert len(assembled) == 2 * 5
        # the checked-flag carriers are fresh per call, their matrices shared
        assert first is not second and first.differentials == second.differentials
        assert phi.matrices[0] is datum._matrices[2][0]

    def test_structural_error_is_not_cached(self):
        bad = MorseDatum(
            manifold_dim=2, points=(CriticalPoint("a", 0),), boundary=(("a", "ghost", 1),)
        )
        for _ in range(2):
            with pytest.raises(UnknownIdError):
                validate_datum(bad)

    def test_witness_is_lowest_column_then_lowest_row(self, split_witness_datum):
        violation = validate_datum(split_witness_datum)
        assert (violation.identity, violation.degree) == ("d_squared", 0)
        assert (violation.witness, violation.value) == ("a0", 6)


class TestMorseComplex:
    def test_projective_space_dims(self):
        complex_, _ = morse_complex(projective_space(3))
        assert complex_.dims == (1, 0, 1, 0, 1, 0, 1)
        assert all(d.is_zero() for d in complex_.differentials)

    def test_torus_one_dims(self):
        complex_, _ = morse_complex(torus(1))
        assert complex_.dims == (1, 2, 1)

    def test_empty_datum(self):
        complex_, _ = morse_complex(MorseDatum(manifold_dim=4, points=()))
        assert complex_.dims == (0, 0, 0, 0, 0)

    def test_invalid_datum_propagates(self):
        bad = MorseDatum(
            manifold_dim=2,
            points=(
                CriticalPoint("a", 0),
                CriticalPoint("b", 1),
                CriticalPoint("c", 2),
            ),
            boundary=(("a", "b", 1), ("b", "c", 1)),
        )
        assert validate_datum(bad) is not None
        with pytest.raises(InvalidDatumError):
            morse_complex(bad)


class TestConeMorseComplex:
    def test_torus_two(self):
        cone = mapping_cone(morse_complex(torus(2))[1])
        assert cone.dims == (1, 5, 10, 10, 5, 1)
        assert cohomology(cone) == (1, 4, 5, 5, 4, 1)

    def test_cp2(self):
        cone = mapping_cone(morse_complex(projective_space(2))[1])
        assert cohomology(cone) == (1, 0, 0, 0, 0, 1)

    def test_cp3_power_two(self):
        datum = projective_space(3, p=1)
        _, phi = morse_complex(datum)
        direct = list(cohomology(mapping_cone(morse_complex(datum)[1])))
        b = cohomology(phi.complex)
        assert decomposition_dims(phi, b, induced_map_ranks(phi)) == direct


class TestStabilize:
    def test_adds_cancelling_pair(self):
        st1 = stabilize(torus(1), 0, "s")
        assert st1.counts() == [2, 3, 1]
        assert cohomology(morse_complex(st1)[0]) == (1, 2, 1)

    def test_twice_at_same_degree(self):
        st2 = stabilize(stabilize(torus(1), 0, "s"), 0, "u")
        assert st2.counts() == [3, 4, 1]
        assert cohomology(morse_complex(st2)[0]) == (1, 2, 1)

    def test_cone_cohomology_unchanged(self):
        base = cohomology(mapping_cone(morse_complex(torus(2))[1]))
        for k in range(4):
            stabbed = stabilize(torus(2), k, f"s{k}")
            assert cohomology(mapping_cone(morse_complex(stabbed)[1])) == base

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeError):
            stabilize(torus(1), 2, "s")


class TestProduct:
    def test_torus_times_torus(self):
        pr = product(torus(1), torus(1))
        assert cohomology(mapping_cone(morse_complex(pr)[1])) == (1, 4, 5, 5, 4, 1)

    def test_point_is_a_unit(self):
        pr = product(torus(1), point_datum())
        assert pr.counts() == torus(1).counts()
        assert cohomology(morse_complex(pr)[0]) == cohomology(morse_complex(torus(1))[0])
        assert (
            cohomology(mapping_cone(morse_complex(pr)[1]))
            == cohomology(mapping_cone(morse_complex(torus(1))[1]))
        )

    def test_cp1_squared(self):
        pr = product(projective_space(1), projective_space(1))
        assert cohomology(mapping_cone(morse_complex(pr)[1])) == (1, 0, 1, 1, 0, 1)

    def test_associative_up_to_dimensions(self):
        left = product(product(torus(1), torus(1)), torus(1))
        right = product(torus(1), product(torus(1), torus(1)))
        assert left.counts() == right.counts()
        assert (
            cohomology(mapping_cone(morse_complex(left)[1]))
            == cohomology(mapping_cone(morse_complex(right)[1]))
        )

    def test_stabilized_factor_still_valid(self):
        pr = product(stabilize(torus(1), 0, "s"), torus(1))
        assert validate_datum(pr) is None
        assert (
            cohomology(mapping_cone(morse_complex(pr)[1]))
            == cohomology(mapping_cone(morse_complex(torus(2))[1]))
        )


class TestBetti:
    def test_torus_two(self):
        assert cohomology(morse_complex(torus(2))[0]) == (1, 4, 6, 4, 1)

    def test_stabilized_torus_two(self):
        assert cohomology(morse_complex(stabilize(torus(2), 1, "s"))[0]) == (1, 4, 6, 4, 1)

    def test_cp3(self):
        assert cohomology(morse_complex(projective_space(3))[0]) == (1, 0, 1, 0, 1, 0, 1)


@pytest.mark.parametrize(
    "datum",
    [
        torus(1),
        torus(2),
        projective_space(2),
        projective_space(3, p=1),
        stabilize(torus(2), 1, "s"),
        product(torus(1), torus(1)),
    ],
    ids=lambda d: d.name,
)
def test_rank_and_betti_bounds(datum):
    complex_, phi = morse_complex(datum)
    m = datum.counts()
    b = cohomology(complex_)
    v = chain_ranks(phi)
    r = induced_map_ranks(phi)
    shift = datum.cone_shift
    for k in range(len(m)):
        assert b[k] <= m[k]
        assert r[k] <= v[k]
        upper = m[k + shift] if k + shift < len(m) else 0
        assert v[k] <= min(m[k], upper)


@given(st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_relabeling_invariance(rng):
    base = torus(2)
    ids = [q.id for q in base.points]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    mapping = {old: f"r{new}" for old, new in zip(ids, shuffled)}
    renamed = relabel(base, mapping)
    assert validate_datum(renamed) is None
    assert renamed.counts() == base.counts()
    assert (
        cohomology(mapping_cone(morse_complex(renamed)[1]))
        == cohomology(mapping_cone(morse_complex(base)[1]))
    )
