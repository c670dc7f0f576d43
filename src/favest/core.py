"""Shared types and index maps for spherical spectral data.

Complex coefficient tables are stored flat in degree-major order: the entry
for degree ``l`` and order ``m`` lives at index ``l*l + l + m``, so a table
resolved to degree ``lmax`` has ``(lmax + 1)**2`` entries.  Out-of-range
reads (|m| > l or l beyond the table) are defined to be zero; every
assembly loop in the package relies on that convention instead of special
casing boundary indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

FOUR_PI = 4.0 * np.pi

#: Quadrature rule kinds understood by the package.
RULE_KINDS = ("gl-tensor", "spherical-design", "custom")


def flat_index(l: int, m: int) -> int:
    """Return the flat position of (l, m) in degree-major coefficient order.

    Parameters
    ----------
    l : int
        Degree, ``l >= 0``.
    m : int
        Order with ``|m| <= l``.

    Raises ValueError naming the argument unless both are integers in range.
    """
    l = check_int(l, "l")
    m = check_int(m, "m", -l)
    if m > l:
        raise ValueError(f"order out of range: m={m} > l={l}")
    return l * l + l + m


def flat_size(lmax: int) -> int:
    """Number of (l, m) pairs with l <= lmax."""
    return (check_int(lmax, "lmax") + 1) ** 2


@lru_cache(maxsize=1, typed=True)  # typed: lmax=2.0 or lmax=True must not hit a cached 2 or 1
def degrees_orders(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Return integer arrays (ls, ms) listing (l, m) in flat order.

    The last lmax's arrays are cached and shared, hence read-only.
    """
    size = flat_size(lmax)
    ls = np.empty(size, dtype=np.int64)
    ms = np.empty(size, dtype=np.int64)
    for l in range(lmax + 1):
        sl = slice(l * l, (l + 1) ** 2)
        ls[sl] = l
        ms[sl] = np.arange(-l, l + 1)
    ls.flags.writeable = False
    ms.flags.writeable = False
    return ls, ms


def check_int(value, name: str, low: float = 0) -> int:
    """``value`` as an int of at least ``low``, numpy integers included; else ValueError naming ``name``.

    A bool is not taken for an integer.  ``low=-math.inf`` accepts any integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_unit(points: np.ndarray) -> np.ndarray:
    """Validate that points lie on the unit sphere to 1e-9; returns them as float64.

    Accepts a single point of shape (3,) or a batch of shape (N, 3).
    Non-finite points are rejected too.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have trailing dimension 3, got shape {pts.shape}")
    norms = np.sqrt(np.sum(pts * pts, axis=-1))
    err = np.max(np.abs(norms - 1.0)) if norms.size else 0.0
    if not err <= 1e-9:  # also rejects NaN
        raise ValueError(f"points deviate from the unit sphere by {err:.3e} (tol 1.0e-09)")
    return pts


def to_spherical(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert unit Cartesian points to colatitude/longitude.

    Returns (theta, phi) with theta = arccos(z) in [0, pi] and
    phi = atan2(y, x) mapped into [0, 2*pi).  At the poles phi is 0.
    """
    pts = check_unit(points)
    theta = np.arccos(np.clip(pts[..., 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2.0 * np.pi)
    return theta, phi


def from_spherical(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Convert colatitude/longitude arrays to unit Cartesian points."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


@dataclass
class ScalarCoefficients:
    """Flat table of scalar spherical harmonic coefficients up to ``lmax``.

    ``values`` is complex128 of length ``(lmax + 1)**2`` in degree-major
    order; treat instances as immutable after construction.
    """

    lmax: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.lmax = check_int(self.lmax, "lmax")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (flat_size(self.lmax),):
            raise ValueError(
                f"expected {flat_size(self.lmax)} coefficients for lmax={self.lmax}, "
                f"got shape {vals.shape}"
            )
        self.values = vals

    @classmethod
    def zeros(cls, lmax: int) -> "ScalarCoefficients":
        return cls(lmax, np.zeros(flat_size(lmax), dtype=np.complex128))

    def get(self, l: int, m: int) -> complex:
        """Coefficient at (l, m); zero for any out-of-range pair.

        Raises ValueError naming the argument unless l and m are integers.
        """
        l = check_int(l, "l", -math.inf)
        m = check_int(m, "m", -math.inf)
        if l < 0 or l > self.lmax or abs(m) > l:
            return 0.0 + 0.0j
        return complex(self.values[l * l + l + m])

    def copy(self) -> "ScalarCoefficients":
        return ScalarCoefficients(self.lmax, self.values.copy())


@dataclass
class VectorCoefficients:
    """Paired coefficient tables of a tangent field expansion.

    ``div`` holds the coefficients of the gradient-type family and ``curl``
    those of the rotational family, both with the same ``lmax``.  Degree
    zero carries no tangent harmonics, so both l=0 entries must be zero.
    """

    div: ScalarCoefficients
    curl: ScalarCoefficients

    def __post_init__(self) -> None:
        if self.div.lmax != self.curl.lmax:
            raise ValueError(
                f"div/curl tables disagree on lmax: {self.div.lmax} vs {self.curl.lmax}"
            )
        if self.div.lmax < 1:
            raise ValueError("vector coefficients need lmax >= 1")
        if abs(self.div.values[0]) != 0.0 or abs(self.curl.values[0]) != 0.0:
            raise ValueError("l=0 entries of vector coefficient tables must be zero")

    @property
    def lmax(self) -> int:
        return self.div.lmax

    @classmethod
    def zeros(cls, lmax: int) -> "VectorCoefficients":
        return cls(ScalarCoefficients.zeros(lmax), ScalarCoefficients.zeros(lmax))

    def copy(self) -> "VectorCoefficients":
        return VectorCoefficients(self.div.copy(), self.curl.copy())


@dataclass
class TangentFieldSamples:
    """Samples of a tangent vector field at unit-sphere points.

    ``points`` is (N, 3) float64, ``values`` is (N, 3) complex128 holding
    the three Cartesian components per point.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.points = check_unit(np.atleast_2d(np.asarray(self.points, dtype=np.float64)))
        vals = np.atleast_2d(np.asarray(self.values, dtype=np.complex128))
        if vals.shape != self.points.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match points shape {self.points.shape}"
            )
        self.values = vals

    @classmethod
    def _at_checked_points(cls, points: np.ndarray, values: np.ndarray) -> "TangentFieldSamples":
        """Samples at already validated unit points, such as a rule's, without ``check_unit``.

        ``values`` must be the matching (N, 3) complex128 array.
        """
        samples = cls.__new__(cls)
        samples.points, samples.values = points, values
        return samples

    def __len__(self) -> int:
        return self.points.shape[0]

    def max_normal_component(self) -> float:
        """Largest |values_k . points_k| over the sample set (bilinear dot)."""
        if len(self) == 0:
            return 0.0
        return float(np.max(np.abs(np.sum(self.values * self.points, axis=1))))

    def is_tangent(self) -> bool:
        scale = 1.0 + (float(np.max(np.abs(self.values))) if len(self) else 0.0)
        return self.max_normal_component() <= 1e-8 * scale


@dataclass(frozen=True)
class TensorGrid:
    """Iso-latitude tensor product grid.

    ``ring_thetas`` are strictly increasing colatitudes in (0, pi);
    ``ring_weights`` are per-point weights, already including the 2pi/n_phi
    longitudinal factor; each ring carries ``n_phi`` equispaced longitudes
    ``phi_j = 2*pi*j/n_phi``.  Points enumerate ring-major.  The ring arrays
    are read-only copies; ``_slot`` caches the fast path's plan (see ``scalar``).
    """

    ring_thetas: np.ndarray
    ring_weights: np.ndarray
    n_phi: int
    _slot: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        th = np.atleast_1d(np.array(self.ring_thetas, dtype=np.float64))
        w = np.atleast_1d(np.array(self.ring_weights, dtype=np.float64))
        if th.ndim != 1 or th.shape != w.shape:
            raise ValueError("ring_thetas and ring_weights must be matching 1-d arrays")
        if th.size == 0:
            raise ValueError("grid needs at least one ring")
        # Written so that NaN fails them.
        if not np.all((th > 0.0) & (th < np.pi)):
            raise ValueError("ring colatitudes must lie strictly inside (0, pi)")
        if not np.all(np.diff(th) > 0.0):
            raise ValueError("ring colatitudes must be strictly increasing")
        if not np.all(np.isfinite(w)):
            raise ValueError("ring weights must be finite")
        object.__setattr__(self, "n_phi", check_int(self.n_phi, "n_phi", 1))
        th.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "ring_thetas", th)
        object.__setattr__(self, "ring_weights", w)

    @property
    def n_theta(self) -> int:
        return self.ring_thetas.size

    def __len__(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def phis(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    def points(self) -> np.ndarray:
        """All grid points, ring-major, shape (n_theta * n_phi, 3)."""
        theta = np.repeat(self.ring_thetas, self.n_phi)
        phi = np.tile(self.phis, self.n_theta)
        return from_spherical(theta, phi)


def _ring_grid(points: np.ndarray, weights: np.ndarray) -> TensorGrid | None:
    """The tensor grid of a ring-major rule, or None if the rule has none.

    n_phi is the length of the leading run of points whose z agrees with
    the first point's to 1e-14, and each run of n_phi points is one ring,
    with equal weights to 1e-12 relative.  A ring's colatitude is
    arctan2(hypot(x, y), z) of its first point, which keeps full precision
    near the poles, where arccos(z) does not.  The grid's points, as
    :meth:`TensorGrid.points` forms them from the rings' first points, must
    reproduce all points to 1e-12: that puts every point of a ring at its z
    and point j at longitude 2*pi*j/n_phi, so the fast path, which reads the
    grid and not the points, transforms the rule.  They are compared ring by
    longitude, by broadcasting, so no (N, 3) array of them is formed.
    """
    z = points[:, 2]
    n_phi = int(np.argmax(np.abs(z - z[0]) > 1e-14)) or len(z)
    if len(z) % n_phi:
        return None
    w = weights.reshape(-1, n_phi)
    if not np.allclose(w, w[:, :1], rtol=1e-12, atol=0.0):
        return None
    first = points[::n_phi]
    try:
        grid = TensorGrid(np.arctan2(np.hypot(first[:, 0], first[:, 1]), first[:, 2]), w[:, 0], n_phi)
    except ValueError:  # rings out of order, or on a pole
        return None
    theta, phi = grid.ring_thetas[:, None], grid.phis
    # The products from_spherical forms: sin(theta) cos(phi), sin(theta) sin(phi), cos(theta).
    rebuilt = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    rings = points.reshape(grid.n_theta, n_phi, 3)
    if all(np.max(np.abs(x - rings[..., i])) <= 1e-12 for i, x in enumerate(rebuilt)):
        return grid
    return None


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of a quadrature rule on the unit sphere.

    ``exactness`` is the polynomial degree the rule claims to integrate
    exactly; certification against that claim is a separate operation.
    ``grid`` is the iso-latitude tensor structure of the points and weights,
    worked out by :func:`_ring_grid` (None unless the rule is ring-major);
    it is what enables the fast transform path.  Frozen, with read-only
    copies of ``points`` and ``weights``: the transforms trust the checks made here.
    ``_slot`` caches the NUFFT's stencil factors (see ``scalar``).
    """

    points: np.ndarray
    weights: np.ndarray
    exactness: int
    kind: str = "custom"
    grid: TensorGrid | None = field(default=None, init=False, repr=False)
    _slot: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = check_unit(np.atleast_2d(np.array(self.points, dtype=np.float64)))
        w = np.atleast_1d(np.array(self.weights, dtype=np.float64))
        if w.shape != (pts.shape[0],):
            raise ValueError(
                f"weights shape {w.shape} does not match {pts.shape[0]} points"
            )
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "exactness", check_int(self.exactness, "exactness"))
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        total = float(np.sum(w))
        if abs(total - FOUR_PI) > 1e-8:
            raise ValueError(
                f"weights sum to {total:.12e}, expected 4*pi = {FOUR_PI:.12e} within 1e-8"
            )
        if self.kind == "spherical-design":
            expected = FOUR_PI / self.points.shape[0]
            if not np.allclose(w, expected, rtol=1e-12, atol=0.0):
                raise ValueError("spherical-design rules must have equal weights 4*pi/N")
        object.__setattr__(self, "grid", _ring_grid(pts, w))

    def __len__(self) -> int:
        return self.points.shape[0]
