"""Pointwise vector spherical harmonics and the direct vector transforms.

The two tangent families are assembled from scalar harmonics at coupled
degrees: the div family mixes degrees l-1 and l+1 through the c/d branch
weights, the curl family stays at degree l with a factor i.  Writing the
spin components out in the Cartesian basis gives, per family,

    comp1 = -(B(+1) - B(-1)) / sqrt(2)
    comp2 = -i (B(+1) + B(-1)) / sqrt(2)
    comp3 = B(0)

These direct evaluations are the reference route: the fast transforms must
reproduce them exactly (they are the same finite sums reorganized), which
is what the equivalence tests pin down.  Direct transforms cost O(N L^2)
and exist for validation, not speed.  They batch the points so that each
batch's Y table holds at most ``legendre._CHUNK_ENTRIES`` doubles, and
share no contraction code with the scalar transforms they check.  Per
batch they loop over the degrees l only: the coupling formulas are
evaluated on the array of orders m = -l..l, and each shifted set of Y
columns is one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    QuadratureRule,
    ScalarCoefficients,
    TangentFieldSamples,
    VectorCoefficients,
    check_int,
    check_unit,
    flat_index,
    flat_size,
)
from . import legendre
from .coupling import cg_explicit, coupling_weight_c, coupling_weight_d
from .legendre import ylm_table

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class VshValue:
    """Cartesian values of the two harmonics at one or many points."""

    div: np.ndarray
    curl: np.ndarray


def _column(table: np.ndarray, lmax: int, l: int, m) -> np.ndarray:
    """Columns Y(l, m) of a Y table for an order or an array of orders.

    One gather; orders with |m| > l, and any l outside 0..lmax, read zero.
    """
    valid = (np.abs(m) <= l) & (0 <= l <= lmax)
    return table[:, np.where(valid, l * l + l + m, 0)] * valid


def _bd_from_table(l: int, m, table: np.ndarray, lmax: int) -> tuple[np.ndarray, ...]:
    """(B+1, B0, B-1, D+1, D0, D-1) of harmonics (l, m) from a Y table.

    m is one order or an array of orders; each part is then (N,) or (N, m.size).
    """
    c = coupling_weight_c(l)
    d = coupling_weight_d(l)
    return (
        c * cg_explicit(-1, 1, l, m) * _column(table, lmax, l - 1, m - 1)
        + d * cg_explicit(1, 1, l, m) * _column(table, lmax, l + 1, m - 1),
        c * cg_explicit(-1, 0, l, m) * _column(table, lmax, l - 1, m)
        + d * cg_explicit(1, 0, l, m) * _column(table, lmax, l + 1, m),
        c * cg_explicit(-1, -1, l, m) * _column(table, lmax, l - 1, m + 1)
        + d * cg_explicit(1, -1, l, m) * _column(table, lmax, l + 1, m + 1),
        1j * cg_explicit(0, 1, l, m) * _column(table, lmax, l, m - 1),
        1j * cg_explicit(0, 0, l, m) * _column(table, lmax, l, m),
        1j * cg_explicit(0, -1, l, m) * _column(table, lmax, l, m + 1),
    )


def _spin_to_cartesian(plus: np.ndarray, zero: np.ndarray, minus: np.ndarray) -> np.ndarray:
    return np.stack(
        [-_INV_SQRT2 * (plus - minus), -1j * _INV_SQRT2 * (plus + minus), zero],
        axis=-1,
    )


def _table_batches(n: int, lmax: int) -> list[slice]:
    """Point batches whose complex degree-(lmax+1) Y table holds at most ``_CHUNK_ENTRIES`` doubles."""
    return legendre._batches(n, 2 * (lmax + 2) ** 2, legendre._CHUNK_ENTRIES)


def _families_from_table(l: int, m, table: np.ndarray, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(div, curl) values of harmonics (l, m) from a Y table: (N, 3), or (N, m.size, 3) for an array m."""
    b_plus, b_zero, b_minus, d_plus, d_zero, d_minus = _bd_from_table(l, m, table, lmax)
    return _spin_to_cartesian(b_plus, b_zero, b_minus), _spin_to_cartesian(d_plus, d_zero, d_minus)


def eval_vsh(l: int, m: int, points: np.ndarray) -> VshValue:
    """Evaluate both tangent harmonics of index (l, m) at the given points.

    Raises ValueError naming the argument unless l is an integer >= 1 and
    m an integer with |m| <= l.
    """
    l = check_int(l, "l", 1)
    flat_index(l, m)  # checks the order
    single = np.asarray(points).ndim == 1
    pts = check_unit(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    div, curl = _families_from_table(l, m, ylm_table(l + 1, pts), l + 1)
    if single:
        return VshValue(div=div[0], curl=curl[0])
    return VshValue(div=div, curl=curl)


def forward_vsht_direct(
    samples: TangentFieldSamples, rule: QuadratureRule, lmax: int
) -> VectorCoefficients:
    """Vector coefficients by direct quadrature against each harmonic.

    Computes a(l, m) = sum_k w_k conj(ydiv(l, m, x_k)) . T_k and the curl
    analogue for every 1 <= l <= lmax, |m| <= l.  Raises ValueError unless
    lmax is an integer >= 1.
    """
    lmax = check_int(lmax, "lmax", 1)
    if samples.points.shape != rule.points.shape or not np.allclose(
        samples.points, rule.points, rtol=0.0, atol=1e-12
    ):
        raise ValueError("sample points do not match the quadrature rule points")
    weighted = rule.weights[:, None] * samples.values
    a = np.zeros(flat_size(lmax), dtype=np.complex128)
    b = np.zeros(flat_size(lmax), dtype=np.complex128)
    for batch in _table_batches(len(rule), lmax):
        table = ylm_table(lmax + 1, rule.points[batch])
        for l in range(1, lmax + 1):
            div, curl = _families_from_table(l, np.arange(-l, l + 1), table, lmax + 1)
            rows = slice(l * l, (l + 1) * (l + 1))
            a[rows] += np.einsum("nmc,nc->m", div.conj(), weighted[batch])
            b[rows] += np.einsum("nmc,nc->m", curl.conj(), weighted[batch])
    return VectorCoefficients(ScalarCoefficients(lmax, a), ScalarCoefficients(lmax, b))


def adjoint_vsht_direct(coeffs: VectorCoefficients, points: np.ndarray) -> TangentFieldSamples:
    """Synthesize the tangent field sum of a(l,m) ydiv + b(l,m) ycurl."""
    pts = check_unit(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    lmax = coeffs.lmax
    out = np.zeros((pts.shape[0], 3), dtype=np.complex128)
    for batch in _table_batches(pts.shape[0], lmax):
        table = ylm_table(lmax + 1, pts[batch])
        for l in range(1, lmax + 1):
            div, curl = _families_from_table(l, np.arange(-l, l + 1), table, lmax + 1)
            rows = slice(l * l, (l + 1) * (l + 1))
            out[batch] += np.einsum("nmc,m->nc", div, coeffs.div.values[rows])
            out[batch] += np.einsum("nmc,m->nc", curl, coeffs.curl.values[rows])
    return TangentFieldSamples(points=pts, values=out)
