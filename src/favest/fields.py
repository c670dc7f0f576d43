"""Simulated tangent test fields and the surface differential operators.

Every field is a Helmholtz pair T = L s + grad_* v built from a scalar
stream function s and a scalar potential v, where

    grad_* = theta_hat d/dtheta + phi_hat (1/sin theta) d/dphi
    L s    = x cross grad_* s

Three named fields with increasing roughness are provided:

* field a: band-limited combination of real spherical harmonics (smooth,
  recovered to rounding error once the transform degree reaches 6),
* field b: the same stream with a potential summing four C^2 local bumps
  of geodesic distance (errors decay slowly with degree),
* field c: stream and potential built from caps with log-type kernels plus
  a latitude integral (rough; errors decay slowest).

Scalar pieces with an analytic gradient use it; the rest are differenced
centrally in (theta, phi) with step 1e-5, which keeps operator error far
below the fields' own approximation floor.  Neither route is defined at
the poles (the tangent frame degenerates), hence the 1e-6 pole guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import check_unit, from_spherical, to_spherical
from .legendre import legendre_table, tri_index

_POLE_GUARD = 1e-6
_FD_STEP = 1e-5


class SurfaceScalar:
    """Real scalar function of position on the sphere.

    Subclasses implement ``value(theta, phi)`` (vectorized) and may
    implement ``gradient(theta, phi) -> (d_theta, d_phi)``; a ``None``
    gradient means callers must difference numerically.
    """

    def value(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    gradient = None

    def __call__(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return self.value(theta, phi)


class RealHarmonicSum(SurfaceScalar):
    """Finite sum of orthonormal real spherical harmonics.

    Terms are (l, m, coefficient) with the usual tesseral convention:
    m = 0 is the zonal harmonic, m > 0 carries sqrt(2)*(-1)^m * cos(m phi),
    m < 0 carries sqrt(2)*(-1)^|m| * sin(|m| phi).  Gradients are analytic.
    """

    def __init__(self, terms: list[tuple[int, int, float]]):
        if not terms:
            raise ValueError("need at least one (l, m, coeff) term")
        self.terms = [(int(l), int(m), float(c)) for l, m, c in terms]
        self.lmax = max(l for l, _, _ in self.terms)

    def _trig(self, m: int, phi: np.ndarray, derivative: bool) -> np.ndarray:
        if m == 0:
            return np.zeros_like(phi) if derivative else np.ones_like(phi)
        am = abs(m)
        scale = np.sqrt(2.0) * (-1.0) ** am
        if m > 0:
            return -scale * am * np.sin(am * phi) if derivative else scale * np.cos(am * phi)
        return scale * am * np.cos(am * phi) if derivative else scale * np.sin(am * phi)

    def value(self, theta, phi):
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        p = legendre_table(self.lmax, np.cos(theta))
        out = np.zeros(np.broadcast(theta, phi).shape)
        for l, m, c in self.terms:
            out += c * p[..., tri_index(l, abs(m))] * self._trig(m, phi, derivative=False)
        return out

    def gradient(self, theta, phi):
        """Analytic (d/dtheta, d/dphi); undefined at the poles."""
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        t = np.cos(theta)
        s = np.sin(theta)
        p = legendre_table(self.lmax, t)
        d_theta = np.zeros(np.broadcast(theta, phi).shape)
        d_phi = np.zeros_like(d_theta)
        for l, m, c in self.terms:
            am = abs(m)
            plm = p[..., tri_index(l, am)]
            below = p[..., tri_index(l - 1, am)] if l - 1 >= am else 0.0
            ratio = np.sqrt((l * l - am * am) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > 0 else 0.0
            dp = (l * t * plm - ratio * below) / s
            d_theta += c * dp * self._trig(m, phi, derivative=False)
            d_phi += c * plm * self._trig(m, phi, derivative=True)
        return d_theta, d_phi


class CartesianScalar(SurfaceScalar):
    """Scalar given as a closed form in the Cartesian position."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, theta, phi):
        return self.fn(from_spherical(theta, phi))


def _frame(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta_hat = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1
    )
    phi_hat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    return theta_hat, phi_hat


def _angular_derivatives(
    fn: SurfaceScalar, theta: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if fn.gradient is not None:
        return fn.gradient(theta, phi)
    d_theta = (fn(theta + _FD_STEP, phi) - fn(theta - _FD_STEP, phi)) / (2.0 * _FD_STEP)
    d_phi = (fn(theta, phi + _FD_STEP) - fn(theta, phi - _FD_STEP)) / (2.0 * _FD_STEP)
    return d_theta, d_phi


def _angles_checked(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = check_unit(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    theta, phi = to_spherical(pts)
    if theta.size and (np.min(theta) < _POLE_GUARD or np.max(theta) > np.pi - _POLE_GUARD):
        raise ValueError(
            f"points within {_POLE_GUARD:.0e} radians of a pole; "
            "the tangent frame is degenerate there"
        )
    return pts, theta, phi


def surface_gradient(fn: SurfaceScalar, points: np.ndarray) -> np.ndarray:
    """Tangent vector field grad_* fn at the given points, shape (N, 3)."""
    _, theta, phi = _angles_checked(points)
    d_theta, d_phi = _angular_derivatives(fn, theta, phi)
    theta_hat, phi_hat = _frame(theta, phi)
    return theta_hat * d_theta[:, None] + phi_hat * (d_phi / np.sin(theta))[:, None]


def surface_curl(fn: SurfaceScalar, points: np.ndarray) -> np.ndarray:
    """Rotated gradient L fn = x cross grad_* fn, shape (N, 3).

    Uses x cross theta_hat = phi_hat and x cross phi_hat = -theta_hat, so
    no cross products are formed numerically.
    """
    _, theta, phi = _angles_checked(points)
    d_theta, d_phi = _angular_derivatives(fn, theta, phi)
    theta_hat, phi_hat = _frame(theta, phi)
    return phi_hat * d_theta[:, None] - theta_hat * (d_phi / np.sin(theta))[:, None]


@dataclass
class TangentField:
    """A named Helmholtz pair: rotational part L(stream) + grad_*(potential)."""

    name: str
    stream: SurfaceScalar
    potential: SurfaceScalar

    def stream_part(self, points: np.ndarray) -> np.ndarray:
        return surface_curl(self.stream, points)

    def potential_part(self, points: np.ndarray) -> np.ndarray:
        return surface_gradient(self.potential, points)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.stream_part(points) + self.potential_part(points)


def _center(lat: float, lon: float) -> np.ndarray:
    return np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def _bump(sigma: float, lat: float, lon: float):
    """C^2 bump of geodesic distance to a center: cubic B-spline profile."""
    center = _center(lat, lon)
    knots = np.array([(j - 2.0) / sigma for j in range(5)])
    signs = np.array([(-1.0) ** j * comb(4, j) for j in range(5)], dtype=np.float64)
    scale = sigma**3 / 12.0

    def fn(points: np.ndarray) -> np.ndarray:
        r = np.arccos(np.clip(points @ center, -1.0, 1.0))
        return scale * np.sum(signs * np.abs(r[..., None] - knots) ** 3, axis=-1)

    return fn


def _cap_kernel(lat: float, lon: float):
    """Log-type cap kernel; rough at its center, where 1 - x.c -> 0."""
    center = _center(lat, lon)

    def fn(points: np.ndarray) -> np.ndarray:
        t = np.clip(points @ center, -1.0, 1.0)
        a = np.maximum(1.0 - t, 1e-15)
        return -0.5 * (
            (3.0 * t + 3.0 * np.sqrt(2.0) * a**1.5 - 4.0)
            + (3.0 * t * t - 4.0 * t + 1.0) * np.log(a)
            + (3.0 * t - 1.0) * a * np.log(np.sqrt(2.0 * a) + a)
        )

    return fn


# Power-reduced cosine expansion of sin^14(u): constant + sum_j B_j cos((14-2j)u).
_SIN14_CONST = comb(14, 7) / 2.0**14
_SIN14_COEFFS = [(-comb(14, j) * (-1.0) ** j / 2.0**13, 14 - 2 * j) for j in range(7)]


def sin14_latitude_integral(lat: np.ndarray) -> np.ndarray:
    """Closed form of the integral of sin^14(2 xi) for xi from -pi/2 to lat."""
    lat = np.asarray(lat, dtype=np.float64)

    def antiderivative(x):
        out = _SIN14_CONST * x
        for coeff, k in _SIN14_COEFFS:
            out = out + coeff * np.sin(2.0 * k * x) / (2.0 * k)
        return out

    return antiderivative(lat) - antiderivative(-np.pi / 2.0)


def _combine(parts: list[tuple[float, object]]):
    def fn(points: np.ndarray) -> np.ndarray:
        total = 0.0
        for weight, piece in parts:
            total = total + weight * piece(points)
        return total

    return fn


_STREAM_SMOOTH = RealHarmonicSum(
    [(1, 0, -1.0 / np.sqrt(3.0)), (5, 4, 8.0 * np.sqrt(2.0) / (3.0 * np.sqrt(385.0)))]
)

_POTENTIAL_SMOOTH = RealHarmonicSum([(4, 0, 1.0 / 25.0), (6, -3, 1.0 / 25.0)])

_POTENTIAL_BUMPS = CartesianScalar(
    _combine(
        [
            (1.0 / 8.0, _bump(5.0, np.pi / 6.0, 0.0)),
            (-1.0 / 7.0, _bump(3.0, np.pi / 5.0, -np.pi / 7.0)),
            (1.0 / 9.0, _bump(5.0, -np.pi / 6.0, np.pi / 2.0)),
            (-1.0 / 8.0, _bump(3.0, -np.pi / 5.0, np.pi / 3.0)),
        ]
    )
)


def _rough_stream_fn(points: np.ndarray) -> np.ndarray:
    lat = np.pi / 2.0 - to_spherical(points)[0]
    return sin14_latitude_integral(lat) - 3.0 * _cap_kernel(np.pi / 4.0, -np.pi / 12.0)(points)


_STREAM_ROUGH = CartesianScalar(_rough_stream_fn)

_POTENTIAL_CAPS = CartesianScalar(
    _combine(
        [
            (5.0 / 2.0, _cap_kernel(np.pi / 4.0, 0.0)),
            (-7.0 / 4.0, _cap_kernel(np.pi / 6.0, np.pi / 9.0)),
            (-3.0 / 2.0, _cap_kernel(5.0 * np.pi / 16.0, np.pi / 10.0)),
        ]
    )
)

FIELD_A = TangentField("a", stream=_STREAM_SMOOTH, potential=_POTENTIAL_SMOOTH)
FIELD_B = TangentField("b", stream=_STREAM_SMOOTH, potential=_POTENTIAL_BUMPS)
FIELD_C = TangentField("c", stream=_STREAM_ROUGH, potential=_POTENTIAL_CAPS)

TANGENT_FIELDS = {f.name: f for f in (FIELD_A, FIELD_B, FIELD_C)}


def get_field(name: str) -> TangentField:
    try:
        return TANGENT_FIELDS[name]
    except KeyError:
        raise ValueError(
            f"unknown field {name!r}; available: {sorted(TANGENT_FIELDS)}"
        ) from None


def field_a(points: np.ndarray) -> np.ndarray:
    """Sample the smooth band-limited field, shape (N, 3)."""
    return FIELD_A(points)


def field_b(points: np.ndarray) -> np.ndarray:
    """Sample the bump-potential field, shape (N, 3)."""
    return FIELD_B(points)


def field_c(points: np.ndarray) -> np.ndarray:
    """Sample the rough cap-kernel field, shape (N, 3)."""
    return FIELD_C(points)
