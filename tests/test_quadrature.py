import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest

import favest
import favest.legendre
import favest.scalar
from favest.core import FOUR_PI, QuadratureRule
from favest.legendre import ylm_table
from favest.quadrature import bundled_design, gen_gl_tensor, load_design, verify_exactness
from favest.scalar import forward_sht

_SD498 = os.path.join(os.path.dirname(__file__), "data", "sd498_t31.txt")
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_degree_zero_rule_is_single_equator_point():
    grid, rule = gen_gl_tensor(0)
    assert grid.n_theta == 1
    assert grid.n_phi == 1
    assert len(rule) == 1
    assert rule.weights[0] == pytest.approx(FOUR_PI, abs=1e-12)
    assert rule.points[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_degree_three_rule_shape_and_weight_sum():
    grid, rule = gen_gl_tensor(3)
    assert grid.n_theta == 2
    assert grid.n_phi == 4
    assert len(rule) == 8
    assert np.sum(rule.weights) == pytest.approx(FOUR_PI, abs=1e-12)
    assert np.all(rule.weights > 0.0)


def test_gen_rejects_negative_degree():
    with pytest.raises(ValueError):
        gen_gl_tensor(-1)


@pytest.mark.parametrize("t", [0, 1, 2, 3, 7, 10, 16, 33])
def test_generated_rules_certify(t):
    _, rule = gen_gl_tensor(t)
    defect, passed = verify_exactness(rule, t)
    assert passed
    assert defect <= 1e-12 if t <= 10 else defect <= 1e-10


def test_verify_rejects_negative_degree():
    _, rule = gen_gl_tensor(2)
    with pytest.raises(ValueError):
        verify_exactness(rule, -1)


@pytest.mark.parametrize("per_chunk", [None, 40])
def test_verify_matches_brute_force_on_random_rule(per_chunk, monkeypatch):
    rng = np.random.default_rng(43)
    n = 250
    v = rng.standard_normal((n, 3))
    pts = v / np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.uniform(0.2, 1.8, n)
    rule = QuadratureRule(pts, w * FOUR_PI / np.sum(w), exactness=0)
    for t in (0, 1, 5, 12):
        sums = rule.weights @ ylm_table(t, pts)
        sums[0] -= np.sqrt(FOUR_PI)
        if per_chunk:  # several point chunks instead of one
            monkeypatch.setattr(favest.legendre, "_CHUNK_ENTRIES", per_chunk * (t + 1) ** 2)
        defect, passed = verify_exactness(rule, t)
        assert defect == pytest.approx(np.max(np.abs(sums)), rel=1e-12, abs=1e-14), t
        assert passed == (defect <= 1e-8)


def _random_weighted_rule(rng, n):
    v = rng.standard_normal((n, 3))
    pts = v / np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.uniform(0.2, 1.8, n)
    return QuadratureRule(pts, w * FOUR_PI / np.sum(w), exactness=0)


def test_verify_matches_brute_force_above_the_crossover():
    rule = _random_weighted_rule(np.random.default_rng(47), 2500)
    t = 40
    assert favest.scalar._nufft_pays(t, len(rule))
    chunks = [slice(k, k + 500) for k in range(0, 2500, 500)]  # bounds the brute-force table
    sums = sum(rule.weights[c] @ ylm_table(t, rule.points[c]) for c in chunks)
    sums[0] -= np.sqrt(FOUR_PI)
    defect, passed = verify_exactness(rule, t)
    assert abs(defect - np.max(np.abs(sums))) <= 1e-11
    assert not passed


def test_verify_takes_the_scalar_route_auto_would(monkeypatch):
    calls = []
    for route in ("nufft", "direct"):
        name = f"_forward_{route}_values"

        def record(*args, _fn=getattr(favest.scalar, name), _route=route):
            calls.append(_route)
            return _fn(*args)

        monkeypatch.setattr(favest.scalar, name, record)
    rng = np.random.default_rng(53)
    top, most = favest.scalar._NUFFT_MIN_DEGREE, favest.scalar._NUFFT_MIN_POINTS
    for t, n, route in ((top, most, "nufft"), (top - 1, most, "direct"), (top, most - 1, "direct")):
        verify_exactness(_random_weighted_rule(rng, n), t)
        assert calls == [route], (t, n, calls)
        calls.clear()
    # A tensor rule is certified on the FFT path, as accurately as by the
    # direct sums: at its own exactness (n_phi = t + 1, folded orders) and
    # below it (n_phi >= 2t + 1).
    for size, t in ((66, 66), (80, 33)):
        _, rule = gen_gl_tensor(size)
        assert len(rule) >= most
        defect, passed = verify_exactness(rule, t)
        assert calls == [] and rule.grid._slot[0] == t and passed
        sums = forward_sht(np.ones(len(rule)), rule, t, path="direct-scalar").values
        sums[0] -= np.sqrt(FOUR_PI)
        assert abs(defect - np.max(np.abs(sums))) <= 1e-13
        calls.clear()


def test_certifying_one_grid_at_rising_degrees_keeps_one_plan():
    grid, rule = gen_gl_tensor(40)  # n_phi = 41: orders fold from t = 21 on
    for t in range(41):
        assert verify_exactness(rule, t)[1]
        assert grid._slot[0] == t


def test_single_point_is_not_a_one_design():
    rule = QuadratureRule(
        np.array([[0.0, 0.0, 1.0]]), np.array([FOUR_PI]), exactness=0
    )
    defect, passed = verify_exactness(rule, 1)
    assert not passed
    # Y(1,0) integrates to 4*pi * 0.4886... instead of 0
    assert defect == pytest.approx(FOUR_PI * 0.4886025119, rel=1e-6)


def test_random_equal_weights_fail_certification():
    rng = np.random.default_rng(41)
    n = 400
    v = rng.standard_normal((n, 3))
    pts = v / np.linalg.norm(v, axis=1, keepdims=True)
    rule = QuadratureRule(pts, np.full(n, FOUR_PI / n), exactness=0)
    defect, passed = verify_exactness(rule, 5)
    assert not passed
    # Monte Carlo defect decays like 1/sqrt(N); nowhere near certification
    assert 1e-3 < defect < 2.0


def test_bundled_icosahedron_design():
    rule = bundled_design("icosahedron12")
    assert len(rule) == 12
    assert rule.kind == "spherical-design"
    assert np.allclose(rule.weights, FOUR_PI / 12)
    defect5, passed5 = verify_exactness(rule, 5)
    assert passed5 and defect5 <= 1e-10
    defect6, passed6 = verify_exactness(rule, 6)
    assert not passed6 and defect6 > 1e-2


def test_bundled_design_unknown_name():
    with pytest.raises(ValueError):
        bundled_design("dodecahedron")


def test_load_design_roundtrip(tmp_path):
    rule = bundled_design("icosahedron12")
    path = tmp_path / "ico.txt"
    lines = [" ".join(f"{c:.17g}" for c in p) for p in rule.points]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_design(str(path), 5)
    assert loaded.exactness == 5
    assert np.allclose(loaded.points, rule.points, atol=1e-15)
    assert np.allclose(loaded.weights, FOUR_PI / 12)


@pytest.mark.skipif(not os.path.exists(_SD498), reason="external 498-point design not bundled")
def test_sd498_design_certifies_to_degree_31():
    rule = load_design(_SD498, 31)
    assert len(rule) == 498
    defect, passed = verify_exactness(rule, 31)
    assert passed
    assert defect <= 1e-8


@pytest.mark.parametrize("t, n, indices", [(20, 231, range(16)), (140, 10011, range(2))])
def test_random_rules_certify_to_their_reference_defects(monkeypatch, t, n, indices):
    # The benchmark's random rules, certified on real samples, read the
    # defects recorded when the certifier summed complex ones.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for index in indices:
        rule = workloads.random_certify_rule(favest, index, n, t)
        want = workloads.reference_defect(t, n, index)
        defect, _ = verify_exactness(rule, t)
        assert abs(defect - want) <= 1e-9 * want, (index, defect, want)
