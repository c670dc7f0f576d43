import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import favest.scalar
from favest.core import (
    FOUR_PI,
    QuadratureRule,
    ScalarCoefficients,
    TangentFieldSamples,
    VectorCoefficients,
    check_unit,
    degrees_orders,
    flat_index,
    flat_size,
    from_spherical,
    to_spherical,
)
from favest.quadrature import gen_gl_tensor


def test_flat_index_enumeration():
    assert flat_index(0, 0) == 0
    assert flat_index(1, -1) == 1
    assert flat_index(1, 0) == 2
    assert flat_index(1, 1) == 3
    assert flat_index(5, 4) == 34


def test_flat_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        flat_index(2, 3)
    with pytest.raises(ValueError):
        flat_index(-1, 0)


def test_flat_size():
    assert flat_size(0) == 1
    assert flat_size(3) == 16
    with pytest.raises(ValueError):
        flat_size(-1)


@given(st.integers(min_value=0, max_value=60), st.data())
def test_flat_index_matches_enumeration_order(l, data):
    m = data.draw(st.integers(min_value=-l, max_value=l))
    k = flat_index(l, m)
    assert 0 <= k < flat_size(l)
    ls, ms = degrees_orders(l)
    assert ls[k] == l and ms[k] == m


def test_degrees_orders_is_cached_and_read_only():
    ls, ms = degrees_orders(7)
    assert degrees_orders(7)[0] is ls
    with pytest.raises(ValueError):
        ms[0] = 3


def test_degrees_orders_covers_flat_layout():
    ls, ms = degrees_orders(6)
    assert ls.shape == (49,)
    for k in range(49):
        assert flat_index(int(ls[k]), int(ms[k])) == k


def test_to_spherical_axis_points():
    theta, phi = to_spherical(np.array([0.0, 0.0, 1.0]))
    assert theta == pytest.approx(0.0, abs=1e-15)
    assert phi == pytest.approx(0.0, abs=1e-15)
    theta, phi = to_spherical(np.array([1.0, 0.0, 0.0]))
    assert theta == pytest.approx(np.pi / 2)
    assert phi == pytest.approx(0.0, abs=1e-15)
    theta, phi = to_spherical(np.array([0.0, -1.0, 0.0]))
    assert theta == pytest.approx(np.pi / 2)
    assert phi == pytest.approx(3 * np.pi / 2)


def test_spherical_cartesian_roundtrip():
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.01, np.pi - 0.01, size=50)
    phi = rng.uniform(0.0, 2 * np.pi, size=50)
    pts = from_spherical(theta, phi)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
    theta2, phi2 = to_spherical(pts)
    assert np.allclose(theta2, theta, atol=1e-12)
    assert np.allclose(phi2, phi, atol=1e-12)


def test_check_unit_rejects_off_sphere():
    with pytest.raises(ValueError):
        check_unit(np.array([[0.5, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_unit(np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_are_rejected(bad):
    pts = np.array([[bad, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        check_unit(pts)
    with pytest.raises(ValueError):
        QuadratureRule(pts, np.full(2, FOUR_PI / 2), exactness=0)
    with pytest.raises(ValueError):
        TangentFieldSamples(pts, np.zeros((2, 3)))
    # A NaN weight, or +inf and -inf, sums to NaN.
    with pytest.raises(ValueError, match="finite"):
        QuadratureRule(np.eye(3)[:2], np.array([bad, -bad]), exactness=0)


def test_import_defers_scipy():
    # scipy.special, scipy.sparse and scipy.fft each add tens of ms to `import favest`.
    names = "('scipy.special', 'scipy.sparse', 'scipy.fft')"
    code = f"import sys, favest; print(sorted(m for m in {names} if m in sys.modules))"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_one_entry_caches_miss_an_equal_non_integer():
    # Each cache holds one entry, so every bad argument meets the entry it
    # compares equal to: True == 1 and 3.0 == 3 must miss, by typed=True.
    from favest.coupling import build_cg_tables, coupling_matrix

    for cached in (coupling_matrix, degrees_orders, build_cg_tables):
        for good, bad in ((3, np.float64(3.0)), (3, 3.0), (1, True)):
            for call in (cached, lambda n: cached(lmax=n)):
                call(good)
                with pytest.raises(ValueError, match="lmax must be an integer"):
                    call(bad)


def test_scalar_coefficients_validate_length():
    c = ScalarCoefficients.zeros(3)
    assert c.values.shape == (16,)
    with pytest.raises(ValueError):
        ScalarCoefficients(3, np.zeros(15, dtype=np.complex128))


def test_scalar_coefficients_accessor_zero_out_of_range():
    values = np.arange(9, dtype=np.complex128)
    c = ScalarCoefficients(2, values)
    assert c.get(1, -1) == 1.0 + 0.0j
    # out-of-range reads are zero by convention, never an error
    assert c.get(2, 3) == 0.0
    assert c.get(5, 0) == 0.0
    assert c.get(-1, 0) == 0.0


def test_vector_coefficients_require_zero_monopole():
    a = np.zeros(4, dtype=np.complex128)
    b = np.zeros(4, dtype=np.complex128)
    a[0] = 1.0
    with pytest.raises(ValueError):
        VectorCoefficients(ScalarCoefficients(1, a), ScalarCoefficients(1, b))
    with pytest.raises(ValueError):
        VectorCoefficients(ScalarCoefficients.zeros(1), ScalarCoefficients.zeros(2))
    ok = VectorCoefficients.zeros(4)
    assert ok.lmax == 4


def test_tangent_samples_shape_and_tangency():
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    vals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.complex128)
    s = TangentFieldSamples(pts, vals)
    assert len(s) == 2
    assert s.is_tangent()
    with pytest.raises(ValueError):
        TangentFieldSamples(pts, vals[:1])
    radial = TangentFieldSamples(pts, np.array([[0, 0, 1.0], [1.0, 0, 0]]))
    assert not radial.is_tangent()


def test_quadrature_rule_validation():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    w = np.full(2, FOUR_PI / 2)
    rule = QuadratureRule(pts, w, exactness=1, kind="spherical-design")
    assert len(rule) == 2
    with pytest.raises(ValueError):
        QuadratureRule(pts, np.full(2, 1.0), exactness=1)  # weights off 4*pi
    with pytest.raises(ValueError):
        QuadratureRule(pts, w, exactness=-1)
    with pytest.raises(ValueError):
        QuadratureRule(pts, w, exactness=1, kind="mystery")
    with pytest.raises(ValueError):
        QuadratureRule(pts, np.array([FOUR_PI * 0.75, FOUR_PI * 0.25]),
                       exactness=1, kind="spherical-design")


def test_integer_arguments_are_checked_where_they_enter():
    from favest.coupling import build_cg_tables, coupling_matrix
    from favest.diagnostics import bench, component_envelope_check, stability_ratios
    from favest.legendre import eval_ylm, legendre_table
    from favest.quadrature import verify_exactness
    from favest.scalar import forward_sht
    from favest.transforms import forward_favest, repeat_transform_errors, roundtrip
    from favest.vsh import eval_vsh, forward_vsht_direct

    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    w = np.full(2, FOUR_PI / 2)
    rule = gen_gl_tensor(4)[1]
    samples = TangentFieldSamples(rule.points, np.ones((len(rule), 3)))
    table = ScalarCoefficients(2, np.zeros(9))
    entries = [  # (argument, lower bound, call)
        ("exactness", 0, lambda n: QuadratureRule(pts, w, exactness=n)),
        ("t", 0, gen_gl_tensor),
        ("t", 0, lambda n: verify_exactness(rule, n)),
        ("lmax", 0, flat_size),
        ("lmax", 0, degrees_orders),
        ("lmax", 0, lambda n: degrees_orders(lmax=n)),
        ("lmax", 0, build_cg_tables),
        ("lmax", 0, lambda n: build_cg_tables(lmax=n)),
        ("lmax", 0, lambda n: ScalarCoefficients(n, np.zeros(9))),
        ("lmax", 0, lambda n: forward_sht(np.ones(len(rule)), rule, n)),
        ("lmax", 0, lambda n: legendre_table(n, np.zeros(2))),
        ("l", 0, lambda n: flat_index(n, 0)),
        ("l", 0, lambda n: eval_ylm(n, 0, pts)),
        ("l", 1, lambda n: eval_vsh(n, 0, pts)),
        ("lmax", 1, coupling_matrix),
        ("lmax", 1, lambda n: coupling_matrix(lmax=n)),
        ("lmax", 1, lambda n: forward_favest(samples, rule, n)),
        ("lmax", 1, lambda n: roundtrip(samples, rule, n)),
        ("lmax", 1, lambda n: repeat_transform_errors(samples, rule, n)),
        ("lmax", 1, lambda n: forward_vsht_direct(samples, rule, n)),
        ("lmax", 1, lambda n: stability_ratios(n, pts)),
        ("lmax", 1, lambda n: component_envelope_check(n, pts)),
        ("degrees", 1, lambda n: bench([n], repetitions=1)),
        ("repetitions", 1, lambda n: bench([], repetitions=n)),
    ]
    for cached in (coupling_matrix, degrees_orders, build_cg_tables):
        cached(lmax=1), cached(lmax=3)  # cache entries that True and 3.0 must miss
    for name, low, call in entries:
        for bad in (2.5, np.float64(3.0), float("nan"), "3", low - 1, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= {low}"):
                call(bad)
        call(np.int64(2))  # numpy integers are integers
    assert type(QuadratureRule(pts, w, exactness=np.int64(3)).exactness) is int
    # -1 is an order, and get reads zero at any degree outside the table,
    # so these arguments have their own bad values
    any_sign = [
        ("m", lambda m: flat_index(2, m)),
        ("m", lambda m: eval_ylm(2, m, pts)),
        ("m", lambda m: eval_vsh(2, m, pts)),
        ("m", lambda m: table.get(2, m)),
        ("l", lambda l: table.get(l, 0)),
    ]
    for name, call in any_sign:
        for bad in (0.5, float("nan"), "1", True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                call(bad)
        call(np.int64(-1))
    assert flat_index(np.int64(2), np.int64(-1)) == 5


def test_quadrature_rule_is_frozen_with_read_only_copies():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    w = np.full(2, FOUR_PI / 2)
    rule = QuadratureRule(pts, w, exactness=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.weights = np.full(2, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.exactness = 3
    for array in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # The caller's arrays are copied, not frozen.
    pts[0, 2] = 2.0
    w[0] = 0.0
    assert rule.points[0, 2] == 1.0 and rule.weights[0] == FOUR_PI / 2


def test_rule_works_out_its_grid(monkeypatch):
    grid, rule = gen_gl_tensor(12)
    copy = QuadratureRule(rule.points.copy(), rule.weights.copy(), exactness=12)
    assert copy.grid is not None and copy.grid.n_phi == grid.n_phi
    np.testing.assert_allclose(copy.grid.ring_thetas, grid.ring_thetas, rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(copy.grid.ring_weights, grid.ring_weights)
    fast, calls = favest.scalar._forward_fast_values, []

    def spy(f, target, lmax):
        calls.append(target)
        return fast(f, target, lmax)

    monkeypatch.setattr(favest.scalar, "_forward_fast_values", spy)
    favest.scalar.forward_sht(np.ones(len(copy), dtype=np.complex128), copy, 6)
    assert len(calls) == 1 and calls[0] is copy.grid
    # The fast path reads the grid, not the points: a rule whose points or
    # weights the grid would not reproduce to 1e-12 gets none.
    uneven = rule.weights.copy()
    uneven[:2] *= [1.0 + 1e-6, 1.0 - 1e-6]
    tilted = rule.points.copy()
    c, s = np.cos(1e-9), np.sin(1e-9)  # turn one point 1e-9 rad in longitude
    tilted[1, :2] = [c * tilted[1, 0] - s * tilted[1, 1], s * tilted[1, 0] + c * tilted[1, 1]]
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for points, weights in (
        (rule.points[::-1], rule.weights[::-1]),
        (rule.points, uneven),
        (tilted, rule.weights),
        (poles, np.full(2, FOUR_PI / 2)),
    ):
        assert QuadratureRule(points, weights, exactness=1).grid is None
