import re

import numpy as np
import pytest

from favest.cli import main
from favest.core import (
    ScalarCoefficients,
    TangentFieldSamples,
    VectorCoefficients,
    flat_size,
)
from favest.io import (
    read_coefficients,
    read_rule_file,
    read_samples,
    write_coefficients,
    write_rule_file,
    write_samples,
)
from favest.quadrature import QuadratureRule, gen_gl_tensor, load_design
from favest.transforms import adjoint_favest, forward_favest


def _coeffs(rng, lmax):
    raw = rng.standard_normal((2, flat_size(lmax))) + 1j * rng.standard_normal(
        (2, flat_size(lmax))
    )
    raw[:, 0] = 0.0
    return VectorCoefficients(
        ScalarCoefficients(lmax, raw[0]), ScalarCoefficients(lmax, raw[1])
    )


def test_rule_file_roundtrip_is_lossless(tmp_path):
    _, rule = gen_gl_tensor(9)
    path = tmp_path / "rule.txt"
    write_rule_file(path, rule)
    back = read_rule_file(path, exactness=9)
    # the reader reprojects points onto the sphere, which can move an ulp
    np.testing.assert_allclose(back.points, rule.points, atol=1e-15)
    np.testing.assert_array_equal(back.weights, rule.weights)
    assert back.exactness == 9
    assert back.kind == "custom"


@pytest.mark.parametrize("lmax", [4, 15])
def test_gl_rule_file_gets_its_grid_back(tmp_path, lmax):
    rng = np.random.default_rng(lmax)
    grid, rule = gen_gl_tensor(2 * (lmax + 1))
    path = tmp_path / "gl.txt"
    write_rule_file(path, rule)
    back = read_rule_file(path, exactness=2 * (lmax + 1))
    assert back.grid is not None
    assert back.grid.n_phi == grid.n_phi
    np.testing.assert_allclose(back.grid.ring_thetas, grid.ring_thetas, rtol=0.0, atol=1e-14)
    coeffs = _coeffs(rng, lmax)
    samples = adjoint_favest(coeffs, back)
    direct = adjoint_favest(coeffs, back, path="direct-scalar")
    assert np.max(np.abs(samples.values - direct.values)) <= 1e-12 * np.max(np.abs(direct.values))
    fast = forward_favest(samples, back, lmax)
    slow = forward_favest(samples, back, lmax, path="direct-scalar")
    for got, want in ((fast.div.values, slow.div.values), (fast.curl.values, slow.curl.values)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_shuffled_or_perturbed_rule_file_has_no_grid(tmp_path):
    rng = np.random.default_rng(5)
    _, rule = gen_gl_tensor(12)
    order = rng.permutation(len(rule))
    shuffled = QuadratureRule(rule.points[order], rule.weights[order], exactness=12)
    uneven = rule.weights.copy()
    uneven[:2] *= [1.0 + 1e-6, 1.0 - 1e-6]
    tilted = rule.points.copy()
    c, s = np.cos(1e-9), np.sin(1e-9)  # turn one point 1e-9 rad in longitude
    tilted[1, :2] = [c * tilted[1, 0] - s * tilted[1, 1], s * tilted[1, 0] + c * tilted[1, 1]]
    for other in (
        shuffled,
        QuadratureRule(rule.points, uneven, exactness=12),
        QuadratureRule(tilted, rule.weights, exactness=12),
    ):
        assert other.grid is None
        path = tmp_path / "other.txt"
        write_rule_file(path, other)
        back = read_rule_file(path, exactness=12)
        assert back.grid is None
        np.testing.assert_allclose(back.points, other.points, atol=1e-15)


def test_three_column_file_means_equal_weights(tmp_path):
    path = tmp_path / "design.txt"
    path.write_text(
        "# octahedron vertices\n"
        "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"
    )
    rule = read_rule_file(path, exactness=3)
    assert rule.kind == "spherical-design"
    np.testing.assert_allclose(rule.weights, 4.0 * np.pi / 6.0)


def test_rule_file_accepts_commas_and_comments(tmp_path):
    path = tmp_path / "rule.txt"
    path.write_text("# header\n\n1, 0, 0, 6.283185307179586\n0, 0, 1, 6.283185307179586\n")
    rule = read_rule_file(path, exactness=0)
    assert len(rule) == 2


def test_rule_file_rejects_bad_content(tmp_path):
    bad_cols = tmp_path / "two.txt"
    bad_cols.write_text("1 0\n0 1\n")
    with pytest.raises(ValueError):
        read_rule_file(bad_cols, exactness=0)

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0 0\n0 1 0 0.5\n")
    with pytest.raises(ValueError):
        read_rule_file(ragged, exactness=0)

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not numbers at all\n")
    with pytest.raises(ValueError):
        read_rule_file(garbage, exactness=0)

    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(ValueError):
        read_rule_file(empty, exactness=0)

    off_sphere = tmp_path / "short.txt"
    off_sphere.write_text("0.5 0 0\n0 0.5 0\n0 0 0.5\n0.5 0 0\n")
    with pytest.raises(ValueError):
        read_rule_file(off_sphere, exactness=0)

    # Non-finite numbers fail where they are read, naming the file and line:
    # in a point column, in a weight column, and in a design file.
    w = 4.0 * np.pi / 2
    for name, text in [
        ("nan_point.txt", f"0 0 1 {w}\nnan 0 -1 {w}\n"),
        ("inf_point.txt", "0 0 1\n0 inf -1\n"),
        ("nan_weight.txt", f"0 0 1 nan\n0 0 -1 {w}\n"),
        ("inf_weight.txt", f"0 0 1 {w}\n0 0 -1 inf\n"),
        ("minus_inf_weight.txt", f"0 0 1 -inf\n0 0 -1 {w}\n"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:[12]: non-finite"):
            read_rule_file(path, exactness=0)
    design = tmp_path / "design.txt"
    design.write_text("0 0 1\n0 0 -inf\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(design))}:2: non-finite value '-inf'"):
        load_design(design, 1)


def test_coefficient_roundtrip_is_lossless(tmp_path):
    coeffs = _coeffs(np.random.default_rng(1), 6)
    path = tmp_path / "coeffs.json"
    write_coefficients(path, coeffs)
    back = read_coefficients(path)
    assert back.lmax == 6
    np.testing.assert_array_equal(back.div.values, coeffs.div.values)
    np.testing.assert_array_equal(back.curl.values, coeffs.curl.values)


def test_coefficient_file_rejects_bad_content(tmp_path, capsys):
    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    with pytest.raises(ValueError):
        read_coefficients(not_json)

    missing = tmp_path / "missing.json"
    missing.write_text('{"L_max": 2, "a": []}')
    with pytest.raises(ValueError):
        read_coefficients(missing)

    short = tmp_path / "short.json"
    short.write_text('{"L_max": 2, "a": [[0, 0]], "b": [[0, 0]]}')
    with pytest.raises(ValueError):
        read_coefficients(short)

    # Malformed entries name the file and the entry.
    pairs = '[[0, 0], [0, 0], [0, 0], [0, 0]]'
    for label, bad, entry in (
        ("a", "[[0, 0], [1, 0], 7, [0, 0]]", "entry 2"),
        ("a", "5", "'a'"),
        ("b", "[[0, 0], [null, 0], [0, 0], [0, 0]]", "entry 1"),
        ("a", "[[0, 0], [true, 0], [0, 0], [0, 0]]", "entry 1"),
        ("a", "[[0, 0], [NaN, 0], [0, 0], [0, 0]]", "entry 1"),
        ("b", "[[0, 0], [0, 0], [0, 0], [0, Infinity]]", "entry 3"),
        ("a", "[[-Infinity, 0], [0, 0], [0, 0], [0, 0]]", "entry 0"),
        ("b", '[[0, 0], [0, 0], ["1.5", "2"], [0, 0]]', "entry 2"),
    ):
        arrays = {"a": pairs, "b": pairs, label: bad}
        path = tmp_path / "entries.json"
        path.write_text(f'{{"L_max": 1, "a": {arrays["a"]}, "b": {arrays["b"]}}}')
        with pytest.raises(ValueError, match=entry) as err:
            read_coefficients(path)
        assert str(path) in str(err.value) and f"{label!r}" in str(err.value)

    # The CLI reports a part that is not a JSON number as bad input.
    rule_path = tmp_path / "rule.txt"
    write_rule_file(rule_path, gen_gl_tensor(4)[1])
    assert main(["adj", "--coeffs", str(path), "--points", str(rule_path),
                 "--out", str(tmp_path / "field.csv")]) == 2
    assert "entry 2" in capsys.readouterr().err
    # NaN and Infinity, which Python's parser allows but JSON does not, are bad input too.
    path.write_text(f'{{"L_max": 1, "a": {pairs}, "b": [[0, 0], [NaN, 0], [0, 0], [0, 0]]}}')
    assert main(["adj", "--coeffs", str(path), "--points", str(rule_path),
                 "--out", str(tmp_path / "field.csv")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "entry 1" in err


@pytest.mark.parametrize("lmax, size", [("2.5", 9), ('"2"', 9), ("true", 4)])
def test_coefficient_file_degree_must_be_an_integer(tmp_path, capsys, lmax, size):
    # Each array has the length of the degree int() would read: 2, 2 and 1.
    pairs = ", ".join(["[0, 0]"] * size)
    path = tmp_path / "coeffs.json"
    path.write_text(f'{{"L_max": {lmax}, "a": [{pairs}], "b": [{pairs}]}}')
    with pytest.raises(ValueError, match="L_max") as err:
        read_coefficients(path)
    assert str(path) in str(err.value)
    rule_path = tmp_path / "rule.txt"
    write_rule_file(rule_path, gen_gl_tensor(4)[1])
    assert main(["adj", "--coeffs", str(path), "--points", str(rule_path),
                 "--out", str(tmp_path / "field.csv")]) == 2
    assert "L_max" in capsys.readouterr().err


def test_samples_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((25, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = rng.standard_normal((25, 3)) + 1j * rng.standard_normal((25, 3))
    samples = TangentFieldSamples(pts, vals)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    back = read_samples(path)
    # angles roundtrip through trig, so exact equality is not available
    np.testing.assert_allclose(back.points, samples.points, atol=1e-15)
    np.testing.assert_allclose(back.values, samples.values, atol=1e-15)


def test_samples_file_rejects_bad_content(tmp_path):
    short_row = tmp_path / "short.csv"
    short_row.write_text("theta,phi,t1_re,t1_im,t2_re,t2_im,t3_re,t3_im\n0.5,0.5,1\n")
    with pytest.raises(ValueError):
        read_samples(short_row)

    not_numbers = tmp_path / "words.csv"
    not_numbers.write_text("0.5,0.5,a,b,c,d,e,f\n")
    with pytest.raises(ValueError):
        read_samples(not_numbers)

    header_only = tmp_path / "header.csv"
    header_only.write_text("theta,phi,t1_re,t1_im,t2_re,t2_im,t3_re,t3_im\n")
    with pytest.raises(ValueError):
        read_samples(header_only)

    # Non-finite numbers fail where they are read, naming the file and line:
    # in a value column and in theta.
    header = "theta,phi,t1_re,t1_im,t2_re,t2_im,t3_re,t3_im\n"
    good = "0.5,0.5,0,0,0,0,0,0\n"
    for name, row in [
        ("nan_value.csv", "0.5,0.5,0,nan,0,0,0,0\n"),
        ("inf_value.csv", "0.5,0.5,0,0,inf,0,0,0\n"),
        ("minus_inf_value.csv", "0.5,0.5,0,0,0,0,0,-inf\n"),
        ("inf_theta.csv", "inf,0.5,0,0,0,0,0,0\n"),
        ("nan_theta.csv", "nan,0.5,0,0,0,0,0,0\n"),
    ]:
        path = tmp_path / name
        path.write_text(header + good + row)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: non-finite"):
            read_samples(path)
