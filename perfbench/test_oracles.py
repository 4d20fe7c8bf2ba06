"""Hand-checked cases for the benchmark's oracles.

    python3 -m pytest -q perfbench
"""

import math

import oracles


def report_from(rows):
    """A report that satisfies every check, built from oracle rows (p = 0)."""
    m, v, bw = rows["m"], rows["v"], rows["b_omega"]
    at = lambda xs, k: xs[k] if 0 <= k < len(xs) else 0  # noqa: E731
    return dict(
        rows,
        weak_slack=[at(m, k) - at(v, k - 2) + at(m, k - 1) - at(v, k - 1) - bw[k] for k in range(len(bw))],
        strong_slack=[
            at(m, k) - at(v, k - 1) - sum((-1) ** (k - i) * bw[i] for i in range(k + 1))
            for k in range(len(bw))
        ],
        q_coeffs=oracles.q_expected(m, v, bw),
        anomalous=False,
    )


def test_four_torus_table():
    rows = oracles.torus_rows(2)
    assert rows["m"] == [1, 4, 6, 4, 1]
    assert rows["v"] == [1, 4, 1, 0, 0]
    assert rows["b_omega"] == [1, 4, 5, 5, 4, 1]
    assert oracles.q_expected(rows["m"], rows["v"], rows["b_omega"]) == []


def test_eight_torus_primitive_cohomology():
    assert oracles.torus_rows(4)["b_omega"] == [1, 8, 27, 48, 42, 42, 48, 27, 8, 1]


def test_stabilized_four_torus_certificate():
    rows = oracles.stabilized_rows(oracles.torus_rows(2), 1)
    assert rows["m"] == [1, 5, 7, 4, 1]
    assert rows["b_omega"] == [1, 4, 5, 5, 4, 1]
    assert oracles.q_expected(rows["m"], rows["v"], rows["b_omega"]) == [0, 1, 1]  # s + s^2
    assert oracles.check_report(report_from(rows), rows) == []


def test_projective_spaces_ends_only():
    assert oracles.projective_rows(1, 0)["b_omega"] == [1, 0, 0, 1]
    assert oracles.projective_rows(2, 0)["b_omega"] == [1, 0, 0, 0, 0, 1]
    assert oracles.projective_rows(3, 0)["b_omega"] == [1, 0, 0, 0, 0, 0, 0, 1]
    assert oracles.projective_rows(4, 0)["b_omega"] == [1] + [0] * 8 + [1]
    # p = 1: H^0 -> H^4 is the only nonzero map on CP^2
    assert oracles.projective_rows(2, 1)["v"] == [1, 0, 0, 0, 0]
    assert oracles.projective_rows(2, 1)["b_omega"] == [1, 0, 1, 0, 0, 1, 0, 1]
    for n in range(1, 5):
        rows = oracles.projective_rows(n, 0)
        assert oracles.check_report(report_from(rows), rows) == []


def test_k3_bundle_breaks_hard_lefschetz_by_the_rank_deficit():
    full, short = oracles.k3_bundle_rows(23), oracles.k3_bundle_rows(20)
    assert full["b_omega"] == [1, 0, 22, 0, 0, 22, 0, 1]
    assert short["b_omega"] == [1, 0, 22, 3, 3, 22, 0, 1]


def test_datum_rows_on_hand_data():
    t2 = {
        "manifold_dim": 2,
        "p": 0,
        "generators": [{"id": g, "index": i} for g, i in (("q0", 0), ("q1", 1), ("q2", 1), ("q12", 2))],
        "boundary": [],
        "cone_map": [{"from": "q0", "to": "q12", "coeff": "1"}],
    }
    assert oracles.datum_rows(t2) == oracles.torus_rows(1)
    # phi(x) = 3/2 z is a coboundary: v_0 = 1 but r_0 = 0
    doc = {
        "manifold_dim": 2,
        "p": 0,
        "generators": [{"id": "x", "index": 0}, {"id": "y", "index": 1}, {"id": "z", "index": 2}],
        "boundary": [{"from": "y", "to": "z", "coeff": "1"}],
        "cone_map": [{"from": "x", "to": "z", "coeff": "3/2"}],
    }
    rows = oracles.datum_rows(doc)
    assert rows["b"] == [1, 0, 0]
    assert (rows["v"], rows["r"]) == ([1, 0, 0], [0, 0, 0])
    assert rows["b_omega"] == [1, 1, 0, 0]


def test_elimination():
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.rank([[0, "1/2"], [3, 0], [1, 1]]) == 2
    basis = oracles.kernel([[1, 1, 0]], 3)
    assert len(basis) == 2 and all(v[0] + v[1] == 0 for v in basis)


def test_check_report_catches_wrong_reports():
    rows = oracles.torus_rows(2)
    good = report_from(rows)
    assert oracles.check_report(good, rows) == []
    assert oracles.check_report(dict(good, b_omega=[1, 4, 6, 4, 4, 1]), rows)
    assert oracles.check_report(dict(good, weak_slack=[0, 0, -1, 0, 0, 0]), rows)
    assert oracles.check_report(dict(good, q_coeffs=[1]), rows)
    assert oracles.check_report(dict(good, q_coeffs=None), rows)


def test_spectrum_checks():
    t = 10.0
    gap = 0.9 * 4 * math.pi**2 * t
    values = [1e-6, 2e-6, 3e-6, gap, gap + 1]
    assert oracles.check_spectrum(1, t, values, 3, gap) == []
    assert oracles.check_spectrum(1, t, values, 2, gap)  # wrong cluster count
    assert oracles.check_spectrum(1, t, [-1.0] + values[1:], 3, gap)  # negative value
    low_gap = 0.5 * 4 * math.pi**2 * t  # outside the harmonic-oscillator bracket
    assert oracles.check_spectrum(1, t, values[:3] + [low_gap, gap], 3, low_gap)
    assert oracles.check_quasimode(1e-4, 7e-5) == []
    assert oracles.check_quasimode(1e-5, 7e-5)  # below the lowest eigenvalue
    assert oracles.check_quasimode(0.5, 7e-5)  # above 0.1


def test_spectral_output_needs_each_requested_degree_once(tmp_path):
    from workload import SpectralWorkload

    t = 10.0
    gap = 0.9 * 4 * math.pi**2 * t
    bench = SpectralWorkload(None, 0, tmp_path)
    bench.expected["op"] = (t, [1, 2])

    def output(degrees, rows=None):
        lines = [
            f"degree {k}: 3 low eigenvalue(s), gap = {gap:.9e}, cluster ratio = 1.0e-05"
            for k in degrees
        ]
        lines.append("degree,index,eigenvalue")
        for k in degrees if rows is None else rows:
            lines += [f"{k},{i},{x:.9e}" for i, x in enumerate((1e-6, 2e-6, 3e-6, gap))]
        return 0, "\n".join(lines) + "\n"

    assert bench.check("op", output([1, 2])) == []
    assert bench.check("op", output([1]))  # a requested degree is missing
    assert bench.check("op", output([1, 2, 2]))  # a degree printed twice
    assert bench.check("op", output([1, 2], rows=[1]))  # no eigenvalue rows for degree 2
