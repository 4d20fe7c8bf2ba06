import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemorse import complexes, ratlinalg
from conemorse.errors import ConsistencyError, RemainderError
from conemorse.families import (
    hard_lefschetz_ranks,
    projective_space,
    s2_bundle_over_k3,
    synthetic_from_rank_profile,
    torus,
)
from conemorse.fuzz import random_complex_with_chain_map
from conemorse.inequalities import (
    _strong_slacks,
    cone_report,
    format_polynomial,
    morse_bott_bounds,
    q_polynomial,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
)
from conemorse.morse import (
    CriticalPoint,
    MorseDatum,
    datum_from_chain_map,
    morse_complex,
    product,
    stabilize,
)


class TestConeReport:
    def test_torus_two_is_sharp(self):
        rep = cone_report(torus(2))
        assert rep.m == [1, 4, 6, 4, 1]
        assert rep.b == [1, 4, 6, 4, 1]
        assert rep.v == [1, 4, 1, 0, 0]
        assert rep.r == [1, 4, 1, 0, 0]
        assert rep.b_omega == [1, 4, 5, 5, 4, 1]
        assert rep.weak_slack == [0] * 6
        assert rep.strong_slack == [0] * 6
        assert rep.q_coeffs == []
        assert rep.perfect and not rep.anomalous

    def test_torus_ten_matches_binomial_tables(self):
        # m = b = C(10, k); wedge with omega has full rank (hard Lefschetz), and
        # b^w is primitive cohomology below the middle and its mirror above it
        rep = cone_report(torus(5))
        m = [comb(10, k) for k in range(11)]
        v = [min(comb(10, k), comb(10, k + 2)) for k in range(11)]
        primitive = [comb(10, k) - (comb(10, k - 2) if k >= 2 else 0) for k in range(6)]
        assert rep.m == m and rep.b == m
        assert rep.v == v and rep.r == v
        assert rep.b_omega == primitive + primitive[::-1]
        assert rep.weak_slack == [0] * 12 and rep.strong_slack == [0] * 12
        assert rep.q_coeffs == [] and rep.perfect and not rep.anomalous

    def test_cp3_is_sharp(self):
        rep = cone_report(projective_space(3))
        assert rep.b_omega == [1, 0, 0, 0, 0, 0, 0, 1]
        assert rep.weak_slack == [0] * 8
        assert rep.strong_slack == [0] * 8

    def test_stabilized_torus_two(self):
        # one cancelling pair at degrees (1, 2): m = (1,5,7,4,1), v and the
        # cone cohomology unchanged.  The weak bound loosens by 1 at degree 1,
        # by 2 at degree 2 (both m_1 and m_2 grew) and by 1 at degree 3; the
        # certificate is Q = s + s^2 = (1+s) * s, the classical pair
        # certificate times the division normalization.
        rep = cone_report(stabilize(torus(2), 1, "s1"))
        assert rep.m == [1, 5, 7, 4, 1]
        assert rep.v == [1, 4, 1, 0, 0]
        assert rep.b_omega == [1, 4, 5, 5, 4, 1]
        assert rep.weak_slack == [0, 1, 2, 1, 0, 0]
        assert rep.strong_slack == [0, 1, 1, 0, 0, 0]
        assert rep.q_coeffs == [0, 1, 1]
        assert not rep.perfect and not rep.anomalous

    def test_weak_slack_is_adjacent_sum_of_q(self):
        rep = cone_report(stabilize(torus(2), 1, "s1"))
        q = rep.q_coeffs + [0] * 10
        for k in range(len(rep.weak_slack)):
            assert rep.weak_slack[k] == q[k] + (q[k - 1] if k else 0)
            assert rep.strong_slack[k] == q[k]

    def test_identity_at_minus_one_and_one(self):
        for datum in (torus(2), stabilize(torus(1), 0, "s"), projective_space(2)):
            rep = cone_report(datum)
            # s = 1: 2 sum m - 2 sum v = sum b^w + 2 sum Q
            assert 2 * sum(rep.m) - 2 * sum(rep.v) == sum(rep.b_omega) + 2 * sum(rep.q_coeffs)
            # s = -1: both sides vanish identically
            alt = sum((-1) ** k * x for k, x in enumerate(rep.b_omega))
            assert alt == sum((-1) ** k * x for k, x in enumerate(rep.m)) * 0 + alt


def forbid(monkeypatch, original):
    """Make every loaded conemorse reference to `original` fail when called."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{original.__name__} was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conemorse":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)


@pytest.mark.parametrize(
    "make, eliminations",
    [
        (lambda: torus(2), 6),
        (lambda: torus(4), 14),
        (lambda: stabilize(stabilize(torus(2), 1, "stab"), 2, "st2"), 11),
    ],
    ids=["t4", "t8", "t4-stab1-stab2"],
)
def test_cone_report_takes_ranks_not_class_bases(monkeypatch, make, eliminations):
    # every differential of a torus is zero: r_k reads the rank v_k stored
    # on phi_k, a zero matrix eliminates nothing, and only v and the cone's
    # ranks eliminate.  The stabilized T^4 has d_1 and d_2 nonzero, so its
    # r_1 is the rank of the block [[d_1, 0], [phi_1, d_2]]: no basis either
    # way.  A datum keeps the ranks found on its matrices, so each report
    # reads a new one
    expected = cone_report(make())
    for original in (
        ratlinalg.nullspace_basis,
        ratlinalg.solve,
        ratlinalg.column_space_basis,
        complexes._extend_to_basis,
    ):
        forbid(monkeypatch, original)
    calls = []
    real = ratlinalg._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ratlinalg, "_eliminate", counted)
    assert cone_report(make()) == expected
    assert len(calls) == eliminations


def test_a_wrong_stored_rank_fails_the_cross_check():
    # r reuses the rank that v stored on phi_k, but the direct cone is written
    # into new rows and eliminated on its own: a wrong stored rank cannot pass unseen
    datum = torus(4)
    _, phi = morse_complex(datum)  # the datum keeps these matrices
    phi_3 = phi.matrix(3)
    phi_3._rank = ratlinalg.rank(phi_3) - 1
    with pytest.raises(ConsistencyError) as caught:
        cone_report(datum)
    assert str(caught.value) == (
        "rank formula gives [1, 8, 27, 48, 43, 43, 48, 27, 8, 1] "
        "but the cone complex gives [1, 8, 27, 48, 42, 42, 48, 27, 8, 1]"
    )


def test_rank_eliminates_once_per_matrix(monkeypatch):
    calls = []
    real = ratlinalg._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ratlinalg, "_eliminate", counted)
    wide = ratlinalg.RationalMatrix.from_rows([[1, 2, 0], [2, 4, 1]])
    tall = wide.transpose()  # eliminated as its transposed rows
    for m in (wide, tall, wide, tall):
        assert ratlinalg.rank(m) == 2
    assert len(calls) == 2
    # an equal matrix is another object, with a rank of its own to find
    assert ratlinalg.rank(wide.transpose().transpose()) == 2 and len(calls) == 3
    # the rank is the one memo: pivot columns are found afresh each time
    assert ratlinalg.column_space_basis(wide) == wide.select_columns([0, 2])
    assert len(calls) == 4


def test_cone_report_multiplies_by_no_identity(monkeypatch):
    # T^8 has d = 0, so each cocycle basis Z_k is an identity: the 9 products
    # phi_k Z_k among the report's 40 would only copy phi_k
    expected = cone_report(torus(4))
    assert expected.r == [min(comb(8, k), comb(8, k + 2)) for k in range(9)]  # hard Lefschetz
    calls = []
    real = ratlinalg.RationalMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(ratlinalg.RationalMatrix, "__matmul__", counted)
    assert cone_report(torus(4)) == expected
    assert len(calls) == 31


def test_empty_degrees_cost_no_elimination(monkeypatch):
    # one generator at index 0: every other degree is empty, and adding empty
    # degrees must add no elimination and at most one matrix each
    counts = {}

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(ratlinalg, name, counted)

    counting("_eliminate", ratlinalg._eliminate)
    counting("_matrix", ratlinalg._matrix)
    seen = {}
    for dim in (4, 400):
        counts.update(_eliminate=0, _matrix=0)
        rep = cone_report(MorseDatum(manifold_dim=dim, points=(CriticalPoint("a", 0),)))
        assert rep.b == rep.m == [1] + [0] * dim
        assert rep.b_omega == [1, 1] + [0] * dim
        seen[dim] = dict(counts)
    assert seen[400]["_eliminate"] == seen[4]["_eliminate"] <= 5
    assert seen[400]["_matrix"] - seen[4]["_matrix"] <= 400 - 4


class TestQPolynomial:
    def test_torus_two_is_zero(self):
        assert q_polynomial([1, 4, 6, 4, 1], [1, 4, 1, 0, 0], [1, 4, 5, 5, 4, 1]) == []

    def test_all_zero_inputs(self):
        assert q_polynomial([0, 0], [0, 0], [0, 0, 0]) == []

    def test_remainder_error(self):
        with pytest.raises(RemainderError):
            q_polynomial([1], [0], [1, 1, 1])

    def test_p_positive_rejected(self):
        with pytest.raises(ValueError):
            q_polynomial([1], [0], [1, 1], p=1)

    def test_format(self):
        assert format_polynomial([]) == "0"
        assert format_polynomial([0, 1]) == "s"
        assert format_polynomial([2, 0, 3]) == "2 + 3*s^2"


class TestMorseBott:
    def test_torus_two_cone_bound_is_sharper(self):
        rep = cone_report(torus(2))
        # at degree 2 the circle-bundle bound leaves slack 5 while the cone
        # bound is exact
        assert rep.mb_weak_slack[2] == 5
        assert rep.weak_slack[2] == 0

    def test_cp2_weak(self):
        rep = cone_report(projective_space(2))
        assert rep.mb_weak_slack[2] == 1

    def test_empty_data(self):
        weak, strong = morse_bott_bounds([], [])
        assert weak == [] and strong == []


class TestMachon:
    def test_torus_two_satisfied(self):
        assert cone_report(torus(2)).machon_violations == []

    def test_k3_bundle_violated(self):
        rep = cone_report(s2_bundle_over_k3())
        assert rep.machon_violations == [4]
        assert rep.b_omega[4] == 1 and rep.m[3] == 0
        # while the cone inequalities themselves stay nonnegative
        assert min(rep.weak_slack) >= 0 and min(rep.strong_slack) >= 0

    def test_cp3_satisfied(self):
        assert cone_report(projective_space(3)).machon_violations == []


def family_data():
    data = [torus(1), torus(2), torus(3)]
    data += [projective_space(n) for n in (1, 2, 3, 4)]
    data.append(product(torus(1), torus(1)))
    data.append(product(projective_space(1), projective_space(1)))
    return data


@pytest.mark.parametrize("datum", family_data(), ids=lambda d: d.name)
def test_certificate_nonnegative_on_families(datum):
    rep = cone_report(datum)
    assert all(q >= 0 for q in rep.q_coeffs)
    assert all(s >= 0 for s in rep.weak_slack)
    assert all(s >= 0 for s in rep.strong_slack)
    if rep.perfect:
        assert rep.q_coeffs == []
        assert all(s == 0 for s in rep.weak_slack + rep.strong_slack)


def test_json_report_is_the_indented_encoding():
    rng = random.Random(24)
    data = family_data() + [projective_space(3, 1), s2_bundle_over_k3(0), s2_bundle_over_k3(22)]
    for i in range(200):
        _, phi = random_complex_with_chain_map(rng, max_degrees=5, max_dim=5, shift=rng.choice((2, 4)))
        data.append(datum_from_chain_map(phi, name=f"fuzz{i}"))
    data.append(MorseDatum(manifold_dim=3000, points=(CriticalPoint("a", 0),)))
    for name in ['say "hi" \\ /', "Kähler ∂ω 😀", "", "line\u2028tab\t"]:
        data.append(MorseDatum(manifold_dim=2, points=(CriticalPoint("a", 0),), name=name))
    reports = [cone_report(d) for d in data]
    assert any(r.q_coeffs for r in reports) and any(r.machon_violations for r in reports)
    assert any(r.p for r in reports)
    for rep in reports:
        assert report_to_json(rep) == json.dumps(report_to_dict(rep), indent=2) + "\n"


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_stabilization_only_loosens(degree):
    base = cone_report(torus(2))
    stabbed = cone_report(stabilize(torus(2), degree, "s"))
    assert stabbed.b_omega == base.b_omega
    assert all(q >= 0 for q in stabbed.q_coeffs)
    assert all(s >= 0 for s in stabbed.weak_slack + stabbed.strong_slack)


def _datum_from_fuzz(seed):
    """Realize a fuzzed complex + chain map as a Morse datum."""
    rng = random.Random(seed)
    _, phi = random_complex_with_chain_map(rng, max_degrees=5, max_dim=6, shift=2)
    return datum_from_chain_map(phi, name=f"fuzz{seed}")


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_free_fuzz_reports_stay_consistent(seed):
    """Arbitrary valid algebraic data: the report must stay internally exact.

    Nonnegativity of slacks beyond the geometric families is recorded rather
    than asserted; counterexamples, if any, would print below without failing
    the suite.
    """
    datum = _datum_from_fuzz(seed)
    rep = cone_report(datum)  # raises on any internal inconsistency
    negatives = [s for s in rep.weak_slack + rep.strong_slack if s < 0]
    if negatives or any(q < 0 for q in rep.q_coeffs):
        print(f"nonnegativity counterexample on {datum.name}: {report_to_dict(rep)}")


def test_render_formats_are_deterministic():
    rep = cone_report(torus(2))
    assert report_to_text(rep) == report_to_text(cone_report(torus(2)))
    csv_text = report_to_csv(rep)
    assert csv_text.splitlines()[0] == "k,m,b,v,r,b_omega,weak_slack,strong_slack"
    assert len(csv_text.splitlines()) == 7
    doc = report_to_dict(rep)
    assert doc["perfect"] is True and doc["anomalous"] is False


def test_text_and_csv_tables_list_the_report_columns():
    # dy = z and x -> 3/2 z: the map has rank 1 on cochains but 0 on
    # cohomology, so a v/r mix-up in either table shows
    points = (CriticalPoint("x", 0), CriticalPoint("y", 1), CriticalPoint("z", 2))
    datum = MorseDatum(2, points, (("y", "z", 1),), (("x", "z", Fraction(3, 2)),))
    rep = cone_report(datum)
    doc = report_to_dict(rep)
    assert doc["v"][0] == 1 and doc["r"][0] == 0

    def at(key, k):
        return doc[key][k] if k < len(doc[key]) else 0

    columns = ("m", "b", "v", "r", "b_omega", "weak_slack", "strong_slack")
    expected = [[str(k)] + [str(at(key, k)) for key in columns] for k in doc["degrees"]]
    rows = report_to_csv(rep).splitlines()[1:]
    assert [row.split(",") for row in rows] == expected
    lines = report_to_text(rep).splitlines()
    assert lines[1].split() == ["k", "m_k", "b_k", "v_k", "r_k", "b^w_k", "weak", "strong"]
    assert [line.split() for line in lines[2 : 2 + len(expected)]] == expected


def _report_with_one_cone_range(datum):
    """The report, after checking that it, cone_degree_range and the cone share one range."""
    rep = cone_report(datum)
    _, phi = morse_complex(datum)
    degrees = range(datum.manifold_dim + 2 * datum.p + 2)
    assert rep.cone_degrees == complexes.cone_degree_range(phi) == degrees
    assert complexes.mapping_cone(phi).degrees() == degrees == range(len(rep.b_omega))
    return rep


def test_p_positive_report_has_slacks_but_no_certificate():
    rep = _report_with_one_cone_range(projective_space(3, p=1))
    assert rep.q_coeffs is None and rep.mb_weak_slack is None
    assert len(rep.b_omega) == 6 + 2 * 1 + 2
    # sphere-bundle pattern: ones in the low even and high odd degrees
    assert rep.b_omega == [1, 0, 1, 0, 0, 0, 0, 1, 0, 1]
    # a perfect datum makes the general-p inequalities sharp as well
    assert rep.weak_slack == [0] * 10
    assert rep.strong_slack == [0] * 10


_BETTI_P2 = [1, 0, 2, 0, 3, 0, 2, 0, 1]


@pytest.mark.parametrize(
    "datum",
    [projective_space(n, p=p) for n in range(1, 5) for p in range(n)]
    + [synthetic_from_rank_profile(_BETTI_P2, hard_lefschetz_ranks(_BETTI_P2, p=2), p=2, name="p2")],
    ids=lambda d: d.name,
)
def test_cone_degrees_are_one_range(datum):
    _report_with_one_cone_range(datum)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=20, deadline=None)
def test_fuzzed_shift_four_cone_degrees_are_one_range(seed):
    _, phi = random_complex_with_chain_map(random.Random(seed), max_degrees=6, max_dim=6, shift=4)
    cone = complexes.mapping_cone(phi)
    assert cone.degrees() == complexes.cone_degree_range(phi) == range(len(phi.complex.dims) + 3)
    _report_with_one_cone_range(datum_from_chain_map(phi, name=f"fuzz{seed}"))


def test_negative_slack_is_flagged_not_hidden():
    # unreachable from data that validates, but the rendering contract stands
    rep = cone_report(torus(1))
    rep.weak_slack[1] = -1
    assert rep.anomalous
    assert "WARNING" in report_to_text(rep)


def _direct_alternating(values, lo, k):
    """sum_{i=lo}^{k} (-1)^{k-i} values_i, out-of-range entries read as 0."""
    return sum((-1) ** (k - i) * values[i] for i in range(max(lo, 0), min(k + 1, len(values))))


@given(
    st.lists(st.integers(0, 50), max_size=14),
    st.lists(st.integers(0, 50), max_size=14),
    st.lists(st.integers(-50, 50), max_size=20),
    st.integers(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_running_alternating_sums_match_direct_formula(m, v, b_omega, p):
    shift = 2 * p + 2
    strong = [
        _direct_alternating(m, k - 2 * p, k)
        - (v[k - shift + 1] if 0 <= k - shift + 1 < len(v) else 0)
        - _direct_alternating(b_omega, 0, k)
        for k in range(len(b_omega))
    ]
    assert _strong_slacks(m, v, b_omega, p) == strong
    weak_mb = [
        (m[k] if k < len(m) else 0) + (m[k - 1] if 0 < k <= len(m) else 0) - b_omega[k]
        for k in range(len(b_omega))
    ]
    strong_mb = [
        (m[k] if k < len(m) else 0) - _direct_alternating(b_omega, 0, k)
        for k in range(len(b_omega))
    ]
    assert morse_bott_bounds(m, b_omega) == (weak_mb, strong_mb)
