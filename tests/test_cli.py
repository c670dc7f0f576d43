import csv

import numpy as np
import pytest

import favest.scalar
from favest.cli import main
from favest.core import (
    ScalarCoefficients,
    TangentFieldSamples,
    VectorCoefficients,
    degrees_orders,
    flat_index,
    flat_size,
)
from favest.io import (
    read_coefficients,
    read_rule_file,
    read_samples,
    write_coefficients,
    write_samples,
)
from favest.quadrature import gen_gl_tensor
from favest.vsh import eval_vsh


def _data_rows(path):
    return [
        line
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_gl(tmp_path, t, name="rule.txt"):
    path = tmp_path / name
    assert main(["quad", "gen-gl", "--exactness", str(t), "--out", str(path)]) == 0
    return path


class TestQuad:
    def test_gen_gl_row_counts(self, tmp_path):
        path = _write_gl(tmp_path, 3)
        assert len(_data_rows(path)) == 8
        path0 = _write_gl(tmp_path, 0, "one.txt")
        assert len(_data_rows(path0)) == 1

    def test_negative_exactness_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["quad", "gen-gl", "--exactness", "-1", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_check_passes_generated_rule(self, tmp_path, capsys):
        path = _write_gl(tmp_path, 16)
        assert main(["quad", "check", "--file", str(path), "--exactness", "16"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_takes_the_fft_path_on_a_gl_file(self, tmp_path, monkeypatch):
        # At its own exactness the rule has n_phi = t + 1 and is certified on its grid.
        routes = []
        for route in ("direct", "nufft", "fast"):
            name = f"_forward_{route}_values"

            def record(*args, _fn=getattr(favest.scalar, name), _route=route):
                routes.append(_route)
                return _fn(*args)

            monkeypatch.setattr(favest.scalar, name, record)
        path = _write_gl(tmp_path, 16)
        assert main(["quad", "check", "--file", str(path), "--exactness", "16"]) == 0
        assert routes == ["fast"]

    def test_check_fails_random_points(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((200, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        path = tmp_path / "random.txt"
        np.savetxt(path, pts)
        assert main(["quad", "check", "--file", str(path), "--exactness", "5"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 0\n")
        assert main(["quad", "check", "--file", str(path), "--exactness", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestForward:
    def test_named_field_coefficients_are_band_limited(self, tmp_path):
        rule_path = _write_gl(tmp_path, 22)
        out = tmp_path / "coeffs.json"
        code = main(
            [
                "fwd",
                "--points",
                str(rule_path),
                "--field",
                "a",
                "--degree",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        coeffs = read_coefficients(out)
        degrees, _ = degrees_orders(10)
        high = degrees > 7
        assert np.max(np.abs(coeffs.div.values[high])) <= 1e-8
        assert np.max(np.abs(coeffs.curl.values[high])) <= 1e-8

    def test_samples_file_input(self, tmp_path):
        rule_path = _write_gl(tmp_path, 8)
        rule = read_rule_file(rule_path, 8)
        samples_path = tmp_path / "zero.csv"
        write_samples(
            samples_path,
            TangentFieldSamples(rule.points, np.zeros_like(rule.points)),
        )
        out = tmp_path / "coeffs.json"
        code = main(
            [
                "fwd",
                "--points",
                str(rule_path),
                "--field",
                str(samples_path),
                "--degree",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        coeffs = read_coefficients(out)
        assert np.max(np.abs(coeffs.div.values)) == 0.0
        assert np.max(np.abs(coeffs.curl.values)) == 0.0

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(
            [
                "fwd",
                "--points",
                str(tmp_path / "nope.txt"),
                "--field",
                "a",
                "--degree",
                "4",
                "--out",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mismatched_sample_points_rejected(self, tmp_path, capsys):
        rule_path = _write_gl(tmp_path, 8)
        other_rule = gen_gl_tensor(8)[1]
        flipped = TangentFieldSamples(
            other_rule.points[::-1], np.zeros_like(other_rule.points)
        )
        samples_path = tmp_path / "flipped.csv"
        write_samples(samples_path, flipped)
        code = main(
            [
                "fwd",
                "--points",
                str(rule_path),
                "--field",
                str(samples_path),
                "--degree",
                "3",
                "--out",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        assert "do not match" in capsys.readouterr().err

    def test_non_finite_samples_are_usage_error(self, tmp_path, capsys):
        rule_path = _write_gl(tmp_path, 8)
        rule = read_rule_file(rule_path, 8)
        values = np.zeros_like(rule.points)
        values[2, 0] = np.nan
        samples_path = tmp_path / "nan.csv"
        write_samples(samples_path, TangentFieldSamples(rule.points, values))
        code = main(
            [
                "fwd",
                "--points",
                str(rule_path),
                "--field",
                str(samples_path),
                "--degree",
                "3",
                "--out",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and str(samples_path) in err


class TestAdjoint:
    def test_unit_mass_synthesizes_single_harmonic(self, tmp_path):
        lmax = 3
        div = np.zeros(flat_size(lmax), dtype=np.complex128)
        div[flat_index(1, 0)] = 1.0
        coeffs = VectorCoefficients(
            ScalarCoefficients(lmax, div), ScalarCoefficients.zeros(lmax)
        )
        coeffs_path = tmp_path / "unit.json"
        write_coefficients(coeffs_path, coeffs)
        rule_path = _write_gl(tmp_path, 8)
        out = tmp_path / "field.csv"
        code = main(
            [
                "adj",
                "--coeffs",
                str(coeffs_path),
                "--points",
                str(rule_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rule = read_rule_file(rule_path, 8)
        back = read_samples(out)
        want = eval_vsh(1, 0, rule.points).div
        np.testing.assert_allclose(back.values, want, atol=1e-12)

    def test_malformed_coefficient_entry_is_usage_error(self, tmp_path, capsys):
        coeffs_path = tmp_path / "bad.json"
        coeffs_path.write_text('{"L_max": 1, "a": [[0,0],[1,0],7,[0,0]], "b": [[0,0],[0,0],[0,0],[0,0]]}')
        rule_path = _write_gl(tmp_path, 8)
        code = main(["adj", "--coeffs", str(coeffs_path), "--points", str(rule_path),
                     "--out", str(tmp_path / "field.csv")])
        assert code == 2
        assert "entry 2" in capsys.readouterr().err

    def test_gl_rule_file_takes_the_fft_path(self, tmp_path, monkeypatch):
        # The grid rebuilt from a gen-gl file reaches the transform.
        routes = []
        for route in ("direct", "nufft", "fast"):
            name = f"_adjoint_{route}_values"

            def record(*args, _fn=getattr(favest.scalar, name), _route=route):
                routes.append(_route)
                return _fn(*args)

            monkeypatch.setattr(favest.scalar, name, record)
        coeffs_path = tmp_path / "zero.json"
        write_coefficients(coeffs_path, VectorCoefficients(
            ScalarCoefficients.zeros(3), ScalarCoefficients.zeros(3)
        ))
        rule_path = _write_gl(tmp_path, 8)
        out = tmp_path / "field.csv"
        assert main(["adj", "--coeffs", str(coeffs_path), "--points", str(rule_path),
                     "--out", str(out)]) == 0
        assert routes == ["fast"]


class TestTables:
    def test_roundtrip_table(self, tmp_path):
        out = tmp_path / "rt.csv"
        code = main(
            ["roundtrip", "--field", "a", "--degrees", "4,8", "--out", str(out)]
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["field", "rule", "L", "N", "rel_l2", "max_abs"]
        assert len(rows) == 3
        assert rows[2][2] == "8"
        # degree 8 covers the whole band-limited field
        assert float(rows[2][4]) <= 1e-9

    def test_roundtrip_empty_degree_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = main(["roundtrip", "--field", "a", "--degrees", "", "--out", str(out)])
        assert code == 0
        assert _csv_rows(out) == [["field", "rule", "L", "N", "rel_l2", "max_abs"]]

    def test_repeat_table(self, tmp_path, capsys):
        out = tmp_path / "repeat.csv"
        code = main(["repeat", "--field", "a", "--degree", "8", "--out", str(out)])
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == [
            "field", "rule", "L", "N", "first_vs_input", "second_vs_input",
            "second_vs_first", "coefficient_drift",
        ]
        assert float(rows[1][6]) <= 1e-9
        assert "drift=" in capsys.readouterr().out

    def test_bench_table(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--degrees", "4 8", "--reps", "1", "--out", str(out)])
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == [
            "lmax", "n_points", "n_coeffs", "forward_seconds", "adjoint_seconds",
            "forward_ratio", "adjoint_ratio",
        ]
        assert rows[1][5] == "nan"  # no previous degree to compare against
        assert float(rows[2][5]) > 0.0

    def test_stability_table(self, tmp_path):
        out = tmp_path / "stab.csv"
        code = main(
            ["stability", "--degree", "4", "--n-list", "50,100", "--out", str(out)]
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == [
            "lmax", "n_points", "ratio_div", "ratio_curl",
            "ratio_div_per_point", "ratio_curl_per_point",
        ]
        assert len(rows) == 3
        assert rows[1][1] == "50"
        bound = np.sqrt(3.0) * (1.0 + 1e-9)
        assert float(rows[1][2]) <= bound
        assert float(rows[2][3]) <= bound
