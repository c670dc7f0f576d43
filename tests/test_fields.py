import numpy as np
import pytest
from scipy.integrate import quad

from favest.core import TangentFieldSamples, degrees_orders, to_spherical
from favest.fields import (
    FIELD_A,
    FIELD_B,
    FIELD_C,
    RealHarmonicSum,
    SurfaceScalar,
    field_a,
    get_field,
    sin14_latitude_integral,
    surface_curl,
    surface_gradient,
)
from favest.quadrature import gen_gl_tensor
from favest.transforms import forward_favest


def _interior_points(rng, n):
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # keep clear of the pole guard
    return v[np.abs(v[:, 2]) < 0.999]


def test_fields_are_tangent():
    pts = _interior_points(np.random.default_rng(7), 1000)
    for field in (FIELD_A, FIELD_B, FIELD_C):
        samples = TangentFieldSamples(pts, field(pts))
        assert samples.is_tangent(), field.name


def test_field_is_sum_of_parts():
    pts = _interior_points(np.random.default_rng(9), 50)
    total = FIELD_B(pts)
    parts = FIELD_B.stream_part(pts) + FIELD_B.potential_part(pts)
    np.testing.assert_allclose(total, parts, atol=1e-14)


def test_helmholtz_split_separates_families():
    _, rule = gen_gl_tensor(22)
    lmax = 10
    rot = forward_favest(
        TangentFieldSamples(rule.points, FIELD_A.stream_part(rule.points)), rule, lmax
    )
    grad = forward_favest(
        TangentFieldSamples(rule.points, FIELD_A.potential_part(rule.points)), rule, lmax
    )
    # rotated-gradient part carries only curl coefficients and vice versa
    assert np.max(np.abs(rot.div.values)) <= 1e-6
    assert np.max(np.abs(grad.curl.values)) <= 1e-6
    assert np.max(np.abs(rot.curl.values)) > 0.1
    assert np.max(np.abs(grad.div.values)) > 0.01


def test_field_a_is_band_limited():
    _, rule = gen_gl_tensor(22)
    coeffs = forward_favest(
        TangentFieldSamples(rule.points, field_a(rule.points)), rule, 10
    )
    degrees, _ = degrees_orders(10)
    high = degrees > 7
    assert np.max(np.abs(coeffs.div.values[high])) <= 1e-8
    assert np.max(np.abs(coeffs.curl.values[high])) <= 1e-8


def test_finite_differences_match_analytic_gradient():
    analytic = RealHarmonicSum([(4, 0, 0.04), (6, -3, 0.04), (5, 4, 0.3)])

    class NoGradient(SurfaceScalar):
        def value(self, theta, phi):
            return analytic.value(theta, phi)

    pts = _interior_points(np.random.default_rng(3), 200)
    g_exact = surface_gradient(analytic, pts)
    g_fd = surface_gradient(NoGradient(), pts)
    assert np.max(np.abs(g_exact - g_fd)) <= 1e-7
    c_exact = surface_curl(analytic, pts)
    c_fd = surface_curl(NoGradient(), pts)
    assert np.max(np.abs(c_exact - c_fd)) <= 1e-7


def test_gradient_of_polar_angle_cosine():
    class CosTheta(SurfaceScalar):
        def value(self, theta, phi):
            return np.cos(theta)

    pts = _interior_points(np.random.default_rng(4), 64)
    theta, phi = to_spherical(pts)
    theta_hat = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)],
        axis=-1,
    )
    want = -np.sin(theta)[:, None] * theta_hat
    got = surface_gradient(CosTheta(), pts)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_rotated_gradient_is_orthogonal_to_gradient():
    pts = _interior_points(np.random.default_rng(5), 300)
    for scalar in (FIELD_A.stream, FIELD_B.potential, FIELD_C.stream):
        dots = np.sum(surface_curl(scalar, pts) * surface_gradient(scalar, pts), axis=1)
        assert np.max(np.abs(dots)) <= 1e-10


def test_sin14_integral_matches_quadrature():
    for lat in (-np.pi / 2, -0.9, 0.0, 0.37, 1.2, np.pi / 2):
        want, _ = quad(lambda x: np.sin(2.0 * x) ** 14, -np.pi / 2.0, lat)
        assert sin14_latitude_integral(lat) == pytest.approx(want, abs=1e-12)


def test_pole_guard():
    near_pole = np.array([[1e-8, 0.0, np.sqrt(1.0 - 1e-16)]])
    with pytest.raises(ValueError):
        surface_gradient(FIELD_A.stream, near_pole)
    with pytest.raises(ValueError):
        FIELD_C(np.array([[0.0, 0.0, -1.0]]))


def test_get_field():
    assert get_field("b") is FIELD_B
    with pytest.raises(ValueError):
        get_field("d")
