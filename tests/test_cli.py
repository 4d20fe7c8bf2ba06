import json

import pytest

from conemorse.cli import (
    EXIT_ADEQUACY,
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
        for k in phi.source.degrees():
            assert phi_back.matrix(k).to_rows() == phi.matrix(k).to_rows()
            assert complex_.d(k).to_rows() == phi.source.d(k).to_rows()

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

    def test_exponent_rational_exits_two(self, tmp_path, capsys):
        doc = datum_to_dict(torus(1))
        doc["cone_map"][0]["coeff"] = "1e5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_USAGE and out == ""
        assert "malformed datum: invalid rational '1e5'" in err

    def test_unknown_id_exits_one(self, tmp_path, capsys):
        doc = datum_to_dict(torus(1))
        doc["boundary"] = [{"from": "q0", "to": "ghost", "coeff": "1"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_VALIDATION

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
        assert "agrees" in out


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
        assert csv_path.read_text().splitlines()[0] == "degree,index,eigenvalue"

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

    def test_inadequate_resolution_exits_four(self, capsys):
        code, _, err = run(capsys, "spectral", "--t", "80", "--cutoff", "6", "--degrees", "0")
        assert code == EXIT_ADEQUACY
        assert "cutoff >= 24" in err

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


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE
    assert "cannot read" in err
