"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Exact criteria (1-7) run in rational arithmetic and must match integer for
integer; spectral criteria (8-11) carry the stated numeric tolerances and
runtime budgets.
"""

import json
import random
import time

import numpy as np

from conemorse.cli import main as cli_main
from conemorse.complexes import (
    cohomology,
    decomposition_dims,
    induced_map_ranks,
    mapping_cone,
)
from conemorse.families import (
    hard_lefschetz_ranks,
    projective_space,
    s2_bundle_over_k3,
    synthetic_from_rank_profile,
    torus,
)
from conemorse.fuzz import random_complex_with_chain_map
from conemorse.inequalities import cone_report
from conemorse.morse import morse_complex, product, stabilize
from conemorse.spectral import (
    SpectralProblem,
    gap_growth,
    quasimode,
    spectral_reports,
)


def _ok(number, message):
    print(f"[acceptance] criterion {number:>2} PASS: {message}")


def perfect_families():
    families = [torus(1), torus(2), torus(3)]
    families += [projective_space(n) for n in (1, 2, 3, 4)]
    families.append(product(torus(1), torus(1)))
    families.append(product(projective_space(1), projective_space(1)))
    return families


def with_stabilizations(datum):
    """The datum, one stabilization at every degree, and one double one."""
    variants = [datum]
    for k in range(datum.manifold_dim):
        variants.append(stabilize(datum, k, f"st{k}"))
    variants.append(stabilize(stabilize(datum, 0, "sa"), datum.manifold_dim - 1, "sb"))
    return variants


def test_criterion_01_table_one_regression(capsys):
    start = time.perf_counter()
    rep = cone_report(torus(2))
    assert rep.b_omega == [1, 4, 5, 5, 4, 1]
    assert rep.m == [1, 4, 6, 4, 1]
    assert rep.v == [1, 4, 1, 0, 0]
    assert rep.weak_slack == [0, 0, 0, 0, 0, 0]
    assert rep.strong_slack == [0, 0, 0, 0, 0, 0]
    assert rep.q_coeffs == []
    assert rep.perfect is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"report took {elapsed:.3f}s"
    # the same numbers through the command-line surface
    code = cli_main(["example", "torus", "--n", "2", "-o", "/tmp/acc_t4.json", "--quiet"])
    assert code == 0
    code = cli_main(["analyze", "/tmp/acc_t4.json", "--format", "json", "-o", "/tmp/acc_t4_rep.json", "--quiet"])
    assert code == 0
    with open("/tmp/acc_t4_rep.json") as handle:
        doc = json.load(handle)
    assert doc["b_omega"] == [1, 4, 5, 5, 4, 1] and doc["perfect"] is True
    capsys.readouterr()
    _ok(1, f"torus(2) table exact, runtime {elapsed * 1e3:.0f} ms")


def test_criterion_02_projective_space_regression():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        rep = cone_report(projective_space(n))
        expected = [0] * (2 * n + 2)
        expected[0] = expected[2 * n + 1] = 1
        assert rep.b_omega == expected, f"cp{n}"
        assert all(s == 0 for s in rep.weak_slack), f"cp{n}"
        assert all(s == 0 for s in rep.strong_slack), f"cp{n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _ok(2, f"cp1..cp4 ends-only pattern exact, runtime {elapsed * 1e3:.0f} ms")


def test_criterion_03_decomposition_equals_direct():
    start = time.perf_counter()
    rng = random.Random(20240701)
    for i in range(200):
        shift = 2 if i % 2 else 4
        _, phi = random_complex_with_chain_map(rng, max_degrees=6, max_dim=8, shift=shift)
        direct = list(cohomology(mapping_cone(phi)))
        b = cohomology(phi.complex)
        split = decomposition_dims(phi, b, induced_map_ranks(phi))
        assert direct == split, f"instance {i}: {direct} != {split}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(3, f"200 fuzzed pairs agree exactly, runtime {elapsed:.1f} s")


def test_criterion_04_cone_cohomology_independent_of_morse_data():
    checked = 0
    for family in perfect_families():
        # a perfect datum's Morse complex has zero differential: it is the minimal model
        _, model_map = morse_complex(family)
        expected = cohomology(mapping_cone(model_map))
        for variant in with_stabilizations(family):
            got = cohomology(mapping_cone(morse_complex(variant)[1]))
            assert got == expected, f"{variant.name}: {got} != {expected}"
            checked += 1
    _ok(4, f"{checked} data sets reproduce their minimal-model cone dimensions")


def test_criterion_05_certificate_polynomial():
    data = []
    for family in perfect_families():
        data.extend(with_stabilizations(family))
    betti_vec = [1, 0, 2, 0, 1]
    data.append(
        synthetic_from_rank_profile(betti_vec, hard_lefschetz_ranks(betti_vec), name="hl")
    )
    for datum in data:
        rep = cone_report(datum)  # raises RemainderError on a nonzero remainder
        assert all(isinstance(q, int) and q >= 0 for q in rep.q_coeffs), datum.name
    # the stabilized-torus regression value, recomputed from the certificate
    # identity itself: the degree-(1,2) pair contributes the classical
    # certificate s, and dividing the defect by (1+s) leaves s + s^2
    rep = cone_report(stabilize(torus(2), 1, "s1"))
    assert rep.q_coeffs == [0, 1, 1]
    _ok(
        5,
        f"{len(data)} certificates nonnegative with zero remainder; "
        "stabilized torus(2) yields Q = s + s^2 = (1+s)s",
    )


def test_criterion_06_literature_bound_refutation():
    rep = cone_report(s2_bundle_over_k3(omega_rank=22))
    assert rep.machon_violations == [4]
    assert rep.b_omega[4] == 1
    assert rep.m[3] == 0
    assert all(s >= 0 for s in rep.weak_slack)
    assert all(s >= 0 for s in rep.strong_slack)
    _ok(6, "k3-bundle datum violates the degree-4 literature bound (1 > 0) while all cone slacks stay >= 0")


def test_criterion_07_cone_bound_sharper_than_circle_bundle_bound():
    rep = cone_report(torus(2))
    k = 2
    cone_bound = rep.b_omega[k] + rep.weak_slack[k]  # = m_k - v_{k-2} + m_{k-1} - v_{k-1}
    circle_bound = rep.b_omega[k] + rep.mb_weak_slack[k]  # = m_k + m_{k-1}
    assert cone_bound == 5
    assert circle_bound == 10
    assert cone_bound < circle_bound
    _ok(7, "torus(2) degree-2 cone bound 5 strictly beats the circle-bundle bound 10")


def test_criterion_08_low_cluster_counts():
    start = time.perf_counter()
    for t, cutoff in ((10, 10), (20, 14)):
        reports = spectral_reports(t, cutoff)
        counts = [rep.low_count for rep in reports.values()]
        assert counts == [1, 3, 3, 1], f"(t={t}, N={cutoff}): {counts}"
        for rep in reports.values():
            assert rep.cluster_ratio >= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _ok(8, f"counts (1,3,3,1) at (10,10) and (20,14), runtime {elapsed:.1f} s")


def test_criterion_09_gap_grows_linearly():
    start = time.perf_counter()
    result = gap_growth([10.0, 20.0, 40.0], degrees=(1,))[1]
    ratio = result.gaps[2] / result.gaps[1]
    assert 1.5 <= ratio <= 2.5, f"gap(40)/gap(20) = {ratio:.3f}"
    assert result.slope > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _ok(
        9,
        f"gap(40)/gap(20) = {ratio:.3f}, slope = {result.slope:.1f} > 0, "
        f"runtime {elapsed:.1f} s",
    )


def test_criterion_10_quasimode_quality():
    cases = [
        ("q0", 1, 0),
        ("q0", 2, 1),
        ("q1", 1, 1),
        ("q1", 2, 2),
        ("q2", 1, 1),
        ("q2", 2, 2),
        ("q12", 1, 2),  # the one kind-1 mode with a nonzero interior-product partner
        ("q12", 2, 3),
    ]
    worst = 0.0
    for point, kind, degree in cases:
        result = quasimode(SpectralProblem(20, 14, degree), point, kind)
        assert result.rayleigh < 0.1, f"{point} kind {kind}: {result.rayleigh:.4f}"
        worst = max(worst, result.rayleigh)
    _ok(10, f"all 8 quasimodes at t=20 have Rayleigh quotient <= {worst:.2e} < 0.1")


def test_criterion_11_duality_of_low_clusters(cached_low_spectrum):
    worst = 0.0
    for k in range(4):
        direct = cached_low_spectrum(20.0, 14, k, 8)
        mirrored = cached_low_spectrum(20.0, 14, 3 - k, 8, -1.0)
        assert np.allclose(direct, mirrored, rtol=1e-6, atol=1e-9), f"degree {k}"
        scale = np.maximum(np.abs(direct), 1.0)
        worst = max(worst, float(np.max(np.abs(direct - mirrored) / scale)))
    _ok(11, f"degree k at f matches degree 3-k at -f to {worst:.2e} relative")
