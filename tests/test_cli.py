import json
import re

import pytest

from conemorse import complexes, inequalities, morse, spectral
from conemorse.cli import (
    EXIT_ADEQUACY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    datum_from_dict,
    datum_to_dict,
    emit_datum,
    main,
)
from conemorse.families import projective_space, torus
from conemorse.morse import product, stabilize
from conemorse.ratlinalg import RationalMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExample:
    def test_torus_file(self, tmp_path, capsys):
        out = tmp_path / "t4.json"
        code, _, _ = run(capsys, "example", "torus", "--n", "2", "-o", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["format"] == "cone-morse-datum/1"
        assert len(doc["generators"]) == 16

    def test_cpn_file(self, tmp_path, capsys):
        out = tmp_path / "cp3p1.json"
        code, _, _ = run(capsys, "example", "cpn", "--n", "3", "--p", "1", "-o", str(out))
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["generators"]) == 4

    def test_stabilize_adds_two(self, tmp_path, capsys):
        base = tmp_path / "t4.json"
        out = tmp_path / "t4s.json"
        run(capsys, "example", "torus", "--n", "2", "-o", str(base))
        code, _, _ = run(
            capsys,
            "example", "stabilize", "--input", str(base),
            "--degree", "1", "--label", "s1", "-o", str(out),
        )
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["generators"]) == 18

    def test_synthetic_needs_ranks(self, capsys):
        code, _, err = run(capsys, "example", "synthetic", "--betti", "1,0,1")
        assert code == EXIT_USAGE and "ranks" in err

    def test_product(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "ab.json"
        run(capsys, "example", "torus", "--n", "1", "-o", str(a))
        run(capsys, "example", "torus", "--n", "1", "-o", str(b))
        code, _, _ = run(
            capsys, "example", "product", "--left", str(a), "--right", str(b), "-o", str(out)
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["manifold_dim"] == 4


class TestRoundTrip:
    @pytest.mark.parametrize(
        "datum",
        [torus(2), projective_space(3, p=1), stabilize(torus(1), 0, "s"),
         product(torus(1), torus(1))],
        ids=lambda d: d.name,
    )
    def test_parse_emit_fixed_point(self, datum):
        text = emit_datum(datum)
        parsed = datum_from_dict(json.loads(text))
        assert parsed == datum
        assert emit_datum(parsed) == text

    def test_chain_map_shares_the_schema(self):
        # a bare complex + chain map rides the same file format as Morse data
        import random

        from conemorse.fuzz import random_complex_with_chain_map
        from conemorse.morse import datum_from_chain_map, morse_complex

        _, phi = random_complex_with_chain_map(random.Random(11), max_degrees=5, max_dim=5)
        datum = datum_from_chain_map(phi, name="encoded")
        parsed = datum_from_dict(json.loads(emit_datum(datum)))
        complex_, phi_back = morse_complex(parsed)
        for k in phi.complex.degrees():
            assert phi_back.matrix(k).to_rows() == phi.matrix(k).to_rows()
            assert complex_.d(k).to_rows() == phi.complex.d(k).to_rows()

    @pytest.mark.parametrize(
        "seed, shift, digest",
        [
            (0, 2, "a7642a9107a4ad7115dde2c78a427699d22684f100c2d78515936138d75b7255"),
            (1, 2, "aadf66cdd311edc7e81262269a64c5b9b4ed14e4ba46ca7c104e922cd21f3754"),
            (5, 2, "22450db9430c05c12dc8be45cf132719b0bdf28db8031c9adcc4769e6038bb6d"),
            (3, 4, "ec3819a5d47f27c4c68cba28a59e98e78435bb9f5183e1f8c1d72254d40f3be6"),
        ],
    )
    def test_fuzzed_datum_files_are_pinned(self, seed, shift, digest):
        # the fuzzer's bases, their inverses and the encoding all feed these bytes
        import hashlib
        import random

        from conemorse.fuzz import random_complex_with_chain_map
        from conemorse.morse import datum_from_chain_map

        _, phi = random_complex_with_chain_map(random.Random(seed), shift=shift)
        text = emit_datum(datum_from_chain_map(phi, name=f"fuzz{seed}"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(capsys, "example", "torus", "--n", "2", "-o", str(out1))
        run(capsys, "example", "torus", "--n", "2", "-o", str(out2))
        assert out1.read_text() == out2.read_text()


class TestAnalyze:
    @pytest.fixture()
    def t4(self, tmp_path, capsys):
        path = tmp_path / "t4.json"
        run(capsys, "example", "torus", "--n", "2", "-o", str(path))
        return str(path)

    def test_text_report(self, t4, capsys):
        code, out, _ = run(capsys, "analyze", t4)
        assert code == EXIT_OK
        assert "Q(s) = 0" in out
        assert "perfect: yes" in out

    def test_json_report(self, t4, capsys):
        code, out, _ = run(capsys, "analyze", t4, "--format", "json")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["b_omega"] == [1, 4, 5, 5, 4, 1]

    def test_csv_report(self, t4, capsys):
        code, out, _ = run(capsys, "analyze", t4, "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "k,m,b,v,r,b_omega,weak_slack,strong_slack"

    def test_machon_violation_line(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        run(
            capsys,
            "example", "synthetic",
            "--betti", "1,0,23,0,23,0,1", "--ranks", "1,0,22,0,1",
            "--name", "k3-bundle", "-o", str(path),
        )
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == EXIT_OK  # a literature-bound violation is not an anomaly
        assert "VIOLATION at k=4: 1 > 0" in out

    def test_corrupt_rational_exits_two(self, tmp_path, capsys):
        doc = datum_to_dict(torus(1))
        doc["cone_map"][0]["coeff"] = "1/0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_USAGE
        assert "invalid rational" in err

    @pytest.mark.parametrize(
        "value, reason",
        [(0.5, "floats are not exact"), (1.0, "floats are not exact"),
         (True, "booleans are not numbers"), (False, "booleans are not numbers")],
    )
    def test_inexact_coefficient_exits_two(self, tmp_path, capsys, value, reason):
        # rat() would read True as 1 and False as 0
        doc = datum_to_dict(torus(1))
        doc["cone_map"][0]["coeff"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: invalid rational {value!r}: {reason}\n"

    def test_exponent_rational_exits_two(self, tmp_path, capsys):
        doc = datum_to_dict(torus(1))
        doc["cone_map"][0]["coeff"] = "1e5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_USAGE and out == ""
        assert "malformed datum: invalid rational '1e5'" in err

    @pytest.mark.parametrize("field", ["manifold_dim", "p", "index"])
    def test_non_integer_field_exits_two(self, tmp_path, capsys, field):
        # int() would truncate 2.9 to 2 and read True as 1; integer strings stay valid
        doc = datum_to_dict(torus(1))
        holder = doc["generators"][0] if field == "index" else doc
        exact = holder[field]
        path = tmp_path / "bad.json"
        for value in (exact + 0.9, True):
            holder[field] = value
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "analyze", str(path))
            assert code == EXIT_USAGE and out == ""
            assert f"must be an integer, got {value!r}" in err
            if field == "index":
                assert err == f"error: index of 'q0' must be an integer, got {value!r}\n"
        holder[field] = str(exact)
        path.write_text(json.dumps(doc))
        assert run(capsys, "analyze", str(path))[0] == EXIT_OK

    @pytest.mark.parametrize("field", ["manifold_dim", "p", "index"])
    def test_integer_field_takes_only_ascii_digits(self, tmp_path, capsys, field):
        # the grammar of integral coefficients; int() would read all three as 2
        doc = datum_to_dict(projective_space(3, 2) if field == "p" else torus(1))
        holder = doc["generators"][-1] if field == "index" else doc
        assert holder[field] == 2
        path = tmp_path / "datum.json"
        for value in ("0_2", " 2 ", "\u0662"):
            holder[field] = value
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "analyze", str(path))
            assert code == EXIT_USAGE and out == ""
            assert f"must be an integer, got {value!r}" in err
        for value in (2, "2"):
            holder[field] = value
            path.write_text(json.dumps(doc))
            assert run(capsys, "analyze", str(path))[0] == EXIT_OK

    def test_unknown_id_exits_one(self, tmp_path, capsys):
        doc = datum_to_dict(torus(1))
        doc["boundary"] = [{"from": "q0", "to": "ghost", "coeff": "1"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_VALIDATION

    def test_oversized_manifold_dim_exits_one(self, tmp_path, capsys, monkeypatch):
        # the first range morse builds sizes the generator lists by manifold_dim
        def reached(*args):
            raise AssertionError("generator lists sized by manifold_dim were built")

        monkeypatch.setattr(morse, "range", reached, raising=False)
        doc = datum_to_dict(torus(1))
        doc["manifold_dim"] = 10**12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("validation failed: manifold_dim must be at most 10000")

    def test_broken_identity_exits_one(self, tmp_path, capsys):
        doc = datum_to_dict(stabilize(torus(2), 2, "s"))
        doc["cone_map"].append({"from": "q0", "to": "s_a", "coeff": "1"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith("validation failed: ∂c - c∂ != 0 at degree 0")


class TestValidateAndCone:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        run(capsys, "example", "torus", "--n", "1", "-o", str(path))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == EXIT_OK and "ok" in out

    def test_validate_names_lowest_column_witness(self, tmp_path, capsys, split_witness_datum):
        path = tmp_path / "bad.json"
        path.write_text(emit_datum(split_witness_datum))
        code, out, err = run(capsys, "validate", str(path))
        assert code == EXIT_VALIDATION and err == ""
        assert out == (
            "INVALID: ∂∘∂ != 0 at degree 0, witnessed on generator 'a0' (coefficient 6)\n"
        )

    def test_cone_broken_identity_exits_one(self, tmp_path, capsys):
        doc = datum_to_dict(stabilize(torus(2), 2, "s"))
        doc["cone_map"].append({"from": "q0", "to": "s_a", "coeff": "1"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "cone", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith("validation failed: ∂c - c∂ != 0") and out == ""

    def test_cone_agreement(self, tmp_path, capsys):
        path = tmp_path / "cp2.json"
        run(capsys, "example", "cpn", "--n", "2", "-o", str(path))
        code, out, _ = run(capsys, "cone", str(path))
        assert code == EXIT_OK
        assert out == (
            "cone cohomology (direct):        [1, 0, 0, 0, 0, 1]\n"
            "cone cohomology (decomposition): [1, 0, 0, 0, 0, 1]\n"
            "decomposition agrees with the direct cone computation\n"
        )


class TestInternalErrors:
    """Two computations of one quantity that disagree are a bug: exit 5, not 1 or 2."""

    @pytest.fixture()
    def t4(self, tmp_path):
        path = tmp_path / "t4.json"
        path.write_text(emit_datum(torus(2)))
        return str(path)

    def test_rank_formula_against_cone(self, t4, capsys, monkeypatch):
        monkeypatch.setattr(inequalities, "decomposition_dims", lambda *args: [0])
        code, out, err = run(capsys, "analyze", t4)
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error: rank formula gives [0] but the cone complex gives ")

    def test_certificate_remainder(self, t4, capsys, monkeypatch):
        exact = inequalities.q_polynomial
        monkeypatch.setattr(
            inequalities, "q_polynomial", lambda m, v, b, p=0: exact(m, v, [b[0] + 1, *b[1:]], p)
        )
        code, out, err = run(capsys, "analyze", t4)
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error: defect polynomial is not divisible by (1+s)")

    def test_cone_mismatch(self, t4, capsys, monkeypatch):
        monkeypatch.setattr(inequalities, "decomposition_dims", lambda *args: [0])
        code, out, err = run(capsys, "cone", t4)
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error: rank formula gives [0] but the cone complex gives ")

    def test_shape_error_after_validation_is_internal(self, t4, capsys, monkeypatch):
        from conemorse import cli
        from conemorse.errors import ShapeError

        def mismatch(datum):
            raise ShapeError("cannot multiply (2, 3) by (2, 3)")

        monkeypatch.setattr(cli, "cone_report", mismatch)
        code, out, err = run(capsys, "analyze", t4)
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal error: cannot multiply (2, 3) by (2, 3)\n"

    def test_cone_that_does_not_square_to_zero_is_internal(self, t4, capsys, monkeypatch):
        # both inputs of mapping_cone are checked, so a bad cone is a bug in its
        # assembly; T^4 has zero differentials, so only mapping_cone calls block
        real = complexes.block

        def ones(grid):
            m = real(grid)
            return RationalMatrix(m.rows, m.cols, [1] * (m.rows * m.cols))

        monkeypatch.setattr(complexes, "block", ones)
        code, out, err = run(capsys, "analyze", t4)
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error: cone differential does not square to zero: ")

    def test_bad_betti_stays_a_usage_error(self, capsys):
        code, out, err = run(capsys, "example", "synthetic", "--betti", "1,0,1", "--ranks", "5")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: rank 5 impossible for a 1x1 matrix\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--betti", "1,0", "--ranks", "1"], "betti must cover degrees 0..2n"),
            (["--betti", "1,0,1", "--p", "-5", "--hard-lefschetz"], "p must be nonnegative, got -5"),
        ],
    )
    def test_bad_profile_is_a_usage_error(self, capsys, extra, message):
        code, out, err = run(capsys, "example", "synthetic", *extra)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["torus", "--n", "0"], "torus needs n >= 1, got 0"),
            (["cpn", "--n", "0"], "projective space needs n >= 1, got 0"),
            (["cpn", "--n", "2", "--p", "5"], "p must satisfy 0 <= p <= n-1 = 1, got 5"),
        ],
    )
    def test_bad_family_parameter_is_a_usage_error(self, capsys, argv, message):
        # the same refusal as synthetic's: a parameter no datum realizes
        code, out, err = run(capsys, "example", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"


class TestSpectralCommand:
    def test_counts_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "eig.csv"
        code, out, _ = run(
            capsys,
            "spectral", "--t", "8", "--cutoff", "8", "--degrees", "all",
            "--emit", str(csv_path),
        )
        assert code == EXIT_OK
        assert "degree 0: 1 low eigenvalue(s)" in out
        assert "degree 1: 3 low eigenvalue(s)" in out
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "degree,index,eigenvalue"
        assert [row.split(",")[0] for row in rows[1:]] == [str(k) for k in range(4) for _ in range(4)]

    def test_negative_morse_scale_deforms_by_minus_f(self, capsys):
        args = ["spectral", "--t", "8", "--cutoff", "8", "--degrees", "0,3"]
        _, plus, _ = run(capsys, *args)
        code, minus, _ = run(capsys, *args, "--morse-scale", "-1")
        assert code == EXIT_OK

        def gaps(out):
            return [float(line.split("gap = ")[1].split(",")[0]) for line in out.splitlines()]

        # degree k at -f is degree 3 - k at f, to within solver round-off
        assert gaps(minus) == pytest.approx(gaps(plus)[::-1], rel=1e-9)
        code, _, err = run(capsys, *args, "--morse-scale", "0")
        assert code == EXIT_USAGE and "nonzero" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t", "nan", "--cutoff", "6"],
            ["--t", "inf", "--cutoff", "6"],
            ["--t", "2", "--cutoff", "6", "--morse-scale", "nan"],
            ["--t", "inf"],
        ],
        ids=["t-nan", "t-inf", "morse-scale-nan", "t-inf-suggested-cutoff"],
    )
    def test_non_finite_parameters_rejected(self, capsys, extra):
        code, out, err = run(capsys, "spectral", *extra, "--degrees", "0")
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "finite" in err
        assert out == ""

    def test_inadequate_resolution_exits_four(self, capsys):
        code, _, err = run(capsys, "spectral", "--t", "80", "--cutoff", "6", "--degrees", "0")
        assert code == EXIT_ADEQUACY
        assert "cutoff >= 24" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t", "1e308"],
            ["--t", "2", "--morse-scale", "1e308"],
            ["--t", "1e160"],
        ],
        ids=["t-1e308", "morse-scale-1e308", "t-1e160"],
    )
    def test_overflowing_deformation_rejected(self, capsys, extra):
        # these overflowed the form, and SuperLU found it exactly singular
        code, out, err = run(capsys, "spectral", *extra, "--cutoff", "6", "--degrees", "0")
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "overflow" in err
        assert out == ""

    def test_largest_deformations_still_solved(self, capsys):
        code, _, err = run(capsys, "spectral", "--t", "1e150", "--cutoff", "6", "--degrees", "0")
        assert code == EXIT_ADEQUACY
        assert err.startswith("inadequate resolution: ")

    def test_unusable_cutoff_never_suggested(self, capsys):
        # the suggested cutoff at t = 1e150 has 76 digits; the hint stays within the cap
        code, out, err = run(capsys, "spectral", "--t", "1e150", "--cutoff", "6", "--degrees", "0")
        assert code == EXIT_ADEQUACY and out == ""
        assert f"no cutoff up to the cap {spectral.MAX_CUTOFF} resolves the cluster" in err
        assert "try cutoff" not in err
        assert max(map(len, re.findall(r"\d+", err))) <= len(str(spectral.MAX_CUTOFF))

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t", "1e6"],
            ["--t", "1e150"],
            ["--t", "5", "--cutoff", "129"],
            ["--t", "1e6", "--t", "2e6", "--t", "3e6", "--gap-growth"],
        ],
        ids=["suggested", "suggested-76-digits", "given", "gap-growth"],
    )
    def test_cutoff_above_cap_rejected_before_sizing(self, capsys, monkeypatch, extra):
        def fail(cutoff, deform):
            raise AssertionError(f"a band-{cutoff} operator was built")

        monkeypatch.setattr(spectral, "_grad_1d", fail)
        code, out, err = run(capsys, "spectral", *extra, "--degrees", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and f"{spectral.MAX_CUTOFF}" in err
        assert max(map(len, re.findall(r"\d+", err))) <= len(str(spectral.MAX_CUTOFF))

    def test_solver_failure_exits_four(self, capsys, monkeypatch):
        import scipy.sparse.linalg

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        # every band limit above the crossover, so the sectors go to SuperLU
        monkeypatch.setattr(spectral, "SCHUR_MAX_CUTOFF", 1)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        code, out, err = run(capsys, "spectral", "--t", "10", "--cutoff", "10", "--degrees", "1")
        assert code == EXIT_ADEQUACY and out == ""
        assert err.splitlines() == [
            "spectral solve failed: factorization failed: Factor is exactly singular"
        ]

    def test_gap_growth_output(self, capsys):
        code, out, _ = run(
            capsys,
            "spectral", "--t", "5", "--t", "7", "--t", "9",
            "--cutoff", "9", "--degrees", "1", "--gap-growth",
        )
        assert code == EXIT_OK
        assert "gap slope = " in out

    def test_gap_growth_fits_every_degree(self, capsys):
        code, out, _ = run(
            capsys,
            "spectral", "--t", "5", "--t", "7", "--t", "9",
            "--cutoff", "9", "--degrees", "1,2", "--gap-growth",
        )
        assert code == EXIT_OK
        for k in (1, 2):
            assert sum(line.startswith(f"degree {k}: t = ") for line in out.splitlines()) == 3
            slopes = [line for line in out.splitlines() if line.startswith(f"degree {k}: gap slope = ")]
            assert len(slopes) == 1 and float(slopes[0].split("= ")[1]) > 0

    def test_gap_growth_fits_each_dual_pair_once(self, capsys, monkeypatch):
        solves = []
        solve = spectral.low_spectrum
        monkeypatch.setattr(
            spectral, "low_spectrum", lambda prob, count: solves.append(prob) or solve(prob, count)
        )
        args = ["spectral", "--t", "2", "--t", "3", "--t", "4", "--cutoff", "6", "--gap-growth"]
        code, pair, _ = run(capsys, *args, "--degrees", "0,1")
        assert code == EXIT_OK
        fitted = len(solves)
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK
        assert len(solves) == 2 * fitted  # 2 fits' worth, not 4
        # degree 3 - k prints the fit of degree k under its own label
        lines = out.splitlines()
        for k in (0, 1):
            mine = [line.split(": ", 1)[1] for line in lines if line.startswith(f"degree {k}: ")]
            dual = [line.split(": ", 1)[1] for line in lines if line.startswith(f"degree {3 - k}: ")]
            assert mine == dual and len(mine) == 4
        assert pair.splitlines() == [
            line for line in lines if line.startswith(("degree 0: ", "degree 1: "))
        ]

    def test_lone_dual_degree(self, capsys):
        code, out, _ = run(capsys, "spectral", "--t", "10", "--cutoff", "10", "--degrees", "3")
        assert code == EXIT_OK
        assert out.startswith("degree 3: 1 low eigenvalue(s), gap = ")
        for extra in ([], ["--t", "90", "--t", "100", "--gap-growth"]):
            code, out, err = run(
                capsys, "spectral", "--t", "80", *extra, "--cutoff", "6", "--degrees", "3"
            )
            assert code == EXIT_ADEQUACY and out == ""
            assert err.startswith("inadequate resolution: cluster ratio ")
            assert "at degree 3 (t=80.0, cutoff=6); try cutoff >= 24" in err

    def test_gap_growth_emit_needs_one_degree(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            "spectral", "--t", "5", "--t", "7", "--t", "9", "--cutoff", "9",
            "--degrees", "1,2", "--gap-growth", "--emit", str(tmp_path / "gap.csv"),
        )
        assert code == EXIT_USAGE
        assert "single cone degree" in err and out == ""
        assert not (tmp_path / "gap.csv").exists()

    def test_multiple_t_without_gap_growth_rejected(self, capsys):
        code, _, err = run(capsys, "spectral", "--t", "5", "--t", "7", "--cutoff", "8")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra", [[], ["--t", "2", "--t", "3", "--gap-growth"]], ids=["counts", "gap-growth"]
    )
    def test_empty_degree_list_rejected(self, capsys, extra):
        code, out, err = run(capsys, "spectral", "--t", "1", *extra, "--degrees", "")
        assert code == EXIT_USAGE
        assert "at least one cone degree" in err
        assert out == ""

    @pytest.mark.parametrize(
        "extra", [[], ["--t", "11", "--t", "12", "--gap-growth"]], ids=["counts", "gap-growth"]
    )
    def test_cutoff_zero_is_not_replaced(self, capsys, extra):
        code, out, err = run(capsys, "spectral", "--t", "10", *extra, "--cutoff", "0", "--degrees", "1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: cutoff must be >= 2, got 0\n"

    @pytest.mark.parametrize(
        "extra",
        [["--t", "-4"], ["--t", "2", "--t", "3", "--t", "-4", "--gap-growth"]],
        ids=["counts", "gap-growth"],
    )
    def test_negative_t_without_cutoff_rejected(self, capsys, monkeypatch, extra):
        # the suggested cutoff took the square root of t: "math domain error"
        def fail(prob, count):
            raise AssertionError(f"t = {prob.t} was solved")

        monkeypatch.setattr(spectral, "low_spectrum", fail)
        code, out, err = run(capsys, "spectral", *extra)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: t must be positive, got -4.0\n"

    def test_gap_growth_checks_every_t_before_any_solve(self, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(spectral, "low_spectrum", lambda prob, count: solved.append(prob.t))
        code, out, err = run(
            capsys,
            "spectral", "--t", "30", "--t", "40", "--t", "nan",
            "--cutoff", "40", "--degrees", "1", "--gap-growth",
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: t and morse_scale must be finite, got t=nan")
        assert solved == []

    @pytest.mark.parametrize(
        "extra", [[], ["--t", "3", "--t", "4", "--gap-growth"]], ids=["counts", "gap-growth"]
    )
    def test_repeated_degree_rejected_before_any_solve(self, capsys, monkeypatch, extra):
        def fail(prob, count):
            raise AssertionError(f"degree {prob.degree} was solved")

        monkeypatch.setattr(spectral, "low_spectrum", fail)
        code, out, err = run(capsys, "spectral", "--t", "2", *extra, "--cutoff", "6", "--degrees", "1,1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: cone degrees [1, 1] repeat a degree\n"


@pytest.mark.parametrize("item", ["\u0660", "1_0", "+1"], ids=["arabic-indic-zero", "underscore", "plus"])
@pytest.mark.parametrize(
    "argv, what",
    [
        (["spectral", "--t", "2", "--cutoff", "6", "--degrees", "{}"], "degree"),
        (["example", "synthetic", "--betti", "1,{},1", "--ranks", "1"], "betti"),
        (["example", "synthetic", "--betti", "1,0,1", "--ranks", "{}"], "rank"),
    ],
    ids=["degrees", "betti", "ranks"],
)
def test_int_lists_take_only_ascii_digits(capsys, argv, what, item):
    # the grammar of integral datum fields, -?[0-9]+; int() alone takes these
    code, out, err = run(capsys, *(arg.format(item) for arg in argv))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: invalid {what} list ")


@pytest.mark.parametrize("item", ["\u0662", "0_2", "+2"], ids=["arabic-indic-two", "underscore", "plus"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["spectral", "--t", "2", "--cutoff", "{item}", "--degrees", "0"], "--cutoff"),
        (["example", "torus", "--n", "{item}"], "--n"),
        (["example", "cpn", "--n", "3", "--p", "{item}"], "--p"),
        (["example", "stabilize", "--input", "{datum}", "--degree", "{item}"], "--degree"),
    ],
    ids=["cutoff", "n", "p", "degree"],
)
def test_int_options_take_only_ascii_digits(tmp_path, capsys, argv, option, item):
    # the grammar of the comma lists, -?[0-9]+; argparse's int alone reads each as 2
    datum = tmp_path / "t2.json"
    datum.write_text(emit_datum(torus(1)))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(item=item, datum=datum) for arg in argv])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: invalid integer {item!r}\n")


def test_int_options_allow_blanks(capsys):
    assert run(capsys, "example", "torus", "--n", " 01 ") == run(capsys, "example", "torus", "--n", "1")


def test_int_lists_allow_blanks(capsys):
    code, out, _ = run(capsys, "example", "synthetic", "--betti", "1, 0, 1", "--ranks", " 1")
    assert code == EXIT_OK
    assert json.loads(out)["manifold_dim"] == 2


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["analyze", "{datum}", "-o", "{target}"], []),
        (["example", "torus", "--n", "1", "-o", "{target}"], []),
        (["spectral", "--t", "10", "--cutoff", "10", "--degrees", "0", "--emit", "{target}"], ["degree 0"]),
    ],
    ids=["analyze-o", "example-o", "spectral-emit"],
)
def test_unwritable_output_exits_two(tmp_path, capsys, argv, printed):
    # exit 1 is reserved for a datum that fails validation
    datum = tmp_path / "t2.json"
    datum.write_text(emit_datum(torus(1)))
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *(arg.format(datum=datum, target=target) for arg in argv))
    assert code == EXIT_USAGE
    assert [line.split(":")[0] for line in out.splitlines()] == printed  # the report came first
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--t", "10", "--cutoff", "6", "--degrees", "0"],
        ["cone", "{datum}"],
        ["validate", "{datum}"],
    ],
    ids=["spectral", "cone", "validate"],
)
def test_output_flag_refused_where_nothing_is_written(tmp_path, capsys, argv):
    # only example and analyze write a text; the others print, so -o is a usage error
    datum = tmp_path / "t2.json"
    datum.write_text(emit_datum(torus(1)))
    target = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(datum=datum) for arg in argv] + ["-o", str(target)])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: -o" in capsys.readouterr().err
    assert not target.exists()
