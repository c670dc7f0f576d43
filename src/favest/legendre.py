"""Fully normalized associated Legendre functions and spherical harmonics.

All evaluations work in the normalized basis directly: ``Pbar(l, m, t)``
absorbs ``sqrt((2l+1)/(4pi) * (l-m)!/(l+m)!)`` and the Condon-Shortley
phase, so the complex harmonics are::

    Y(l, m) = Pbar(l, m, cos(theta)) * exp(i*m*phi)          for m >= 0
    Y(l, -m) = (-1)**m * conj(Y(l, m))

Running the three-term recurrences on the normalized values keeps every
intermediate bounded by ``sqrt((2l+1)/(4pi))``; evaluating raw ``P_l^m``
and rescaling afterwards overflows near degree 150, which the certified
quadrature degrees here exceed in product form.

One recurrence serves the package: ``_legendre_by_order`` returns an
order-major table ``q[m, l, k]`` whose block ``q[m, m:]`` is contiguous, so
each order contracts with a single matmul.  It steps upward in l for all
orders at once, which costs O(lmax) Python steps per batch of points.
Callers batch points with ``_point_chunks`` so that one table holds at most
``_CHUNK_ENTRIES`` doubles.  ``legendre_table`` (triangular layout) and
``ylm_table`` gather from it; ``eval_ylm`` keeps its own single-(l, m)
recurrence as an independent oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import FOUR_PI, check_int, check_unit, degrees_orders, to_spherical

_INV_SQRT_4PI = 1.0 / np.sqrt(FOUR_PI)

#: Most doubles one order-major Legendre table may hold; bounds working memory.
_CHUNK_ENTRIES = 1 << 21


def tri_index(l: int, m: int) -> int:
    """Position of (l, m >= 0) in the packed triangular layout."""
    return l * (l + 1) // 2 + m


def tri_size(lmax: int) -> int:
    return (lmax + 1) * (lmax + 2) // 2


def _batches(n: int, per_item: int, limit: int) -> list[slice]:
    """Equal batches of n items of ``per_item`` entries, at most ``limit`` entries each."""
    most = max(1, limit // per_item)
    count = -(-n // most)
    step = -(-n // count) if n else 1
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _point_chunks(n: int, lmax: int) -> list[slice]:
    """Equal batches of n points whose order-major tables fit in ``_CHUNK_ENTRIES``."""
    return _batches(n, (lmax + 1) ** 2, _CHUNK_ENTRIES)


def _order_phases(lmax: int, phi: np.ndarray) -> np.ndarray:
    """exp(i*m*phi) for m = 0..lmax, shape (lmax+1, phi.size).

    With m = j*B + r and B about sqrt(lmax), each entry is the product of
    exp(i*B*phi)**j and exp(i*phi)**r, both running products of at most
    sqrt(lmax) factors.  That takes two exponentials per point and keeps
    the rounding error at O(sqrt(lmax)) ulp, where one running product
    over all m would reach O(lmax).
    """
    width = math.isqrt(lmax) + 1
    low = np.empty((width, phi.size), dtype=np.complex128)
    high = np.empty((-(-(lmax + 1) // width), phi.size), dtype=np.complex128)
    for powers, step in ((low, 1), (high, width)):
        powers[0] = 1.0
        powers[1:] = np.exp(1j * step * phi)
        np.multiply.accumulate(powers, axis=0, out=powers)
    return (high[:, None] * low).reshape(-1, phi.size)[: lmax + 1]


@lru_cache(maxsize=1)
def _recurrence_coefficients(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (lmax+1, lmax+1) arrays a[l, m], b[l, m] of the l-recurrence.

    Only entries with m <= l - 2 are used; the rest are not meaningful.
    """
    l = np.arange(lmax + 1)[:, None]
    m = np.arange(lmax + 1)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _legendre_by_order(lmax: int, t: np.ndarray) -> np.ndarray:
    """Order-major normalized Legendre values at the 1-d arguments t.

    Returns q of shape (lmax+1, lmax+1, t.size) with ``q[m, l, k]`` equal to
    ``Pbar(l, m, t[k])`` for l >= m; entries with l < m are left unset.
    Arguments within 1e-12 outside [-1, 1] are clipped, others rejected.
    Every value comes from the same floating-point operations, in the same
    order, as a separate recurrence for each (l, m) would use, so
    ``legendre_table`` matches that loop bit for bit, whatever the batching.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.size and (np.max(t) > 1.0 + 1e-12 or np.min(t) < -1.0 - 1e-12):
        raise ValueError("Legendre argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    a, b = _recurrence_coefficients(lmax)

    q = np.empty((lmax + 1, lmax + 1, t.size), dtype=np.float64)
    # Diagonal seed, then one off-diagonal step; rows (m, m) and (m, m + 1)
    # of the flattened table are basic slices.
    rows = q.reshape(-1, t.size)
    diagonal = rows[:: lmax + 2]
    ms = np.arange(1, lmax + 1)
    factors = -np.sqrt((2 * ms + 1) / (2.0 * ms))[:, None] * s
    diagonal[0] = _INV_SQRT_4PI
    for m in range(1, lmax + 1):
        np.multiply(factors[m - 1], diagonal[m - 1], out=diagonal[m])
    ms = np.arange(lmax)
    np.multiply(np.sqrt(2 * ms + 3.0)[:, None] * t, diagonal[:-1], out=rows[1 :: lmax + 2])
    # Upward in l for every order m <= l - 2 at once.
    x = np.empty((lmax, t.size), dtype=np.float64)
    y = np.empty((lmax, t.size), dtype=np.float64)
    for l in range(2, lmax + 1):
        n = l - 1
        np.multiply(t, q[:n, l - 1], out=x[:n])
        np.multiply(b[l, :n, None], q[:n, l - 2], out=y[:n])
        np.subtract(x[:n], y[:n], out=x[:n])
        np.multiply(a[l, :n, None], x[:n], out=q[:n, l])
    return q


def legendre_table(lmax: int, t: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values for all 0 <= m <= l <= lmax.

    Parameters
    ----------
    lmax : int
        Largest degree to evaluate.
    t : array
        Arguments in [-1, 1]; values within 1e-12 outside are clipped.

    Returns
    -------
    array of shape ``t.shape + (tri_size(lmax),)`` with column
    ``tri_index(l, m)`` holding ``Pbar(l, m, t)``.
    """
    lmax = check_int(lmax, "lmax")
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    # Row of (l, m) in the order-major table, listed in triangular order.
    ls, ms = np.tril_indices(lmax + 1)
    rows = ms * (lmax + 1) + ls
    out = np.empty((flat.size, tri_size(lmax)), dtype=np.float64)
    for chunk in _point_chunks(flat.size, lmax):
        q = _legendre_by_order(lmax, flat[chunk])
        out[chunk] = q.reshape(-1, q.shape[2])[rows].T
    return out.reshape(t.shape + (tri_size(lmax),))


def _order_signs(ms: np.ndarray) -> np.ndarray:
    # Y(l, m<0) = (-1)**m * Pbar(l, |m|) * exp(i*m*phi); positive orders carry +1.
    return np.where(ms >= 0, 1.0, np.where(np.abs(ms) % 2 == 0, 1.0, -1.0))


def ylm_table(lmax: int, points: np.ndarray) -> np.ndarray:
    """Complex harmonics Y(l, m) for all l <= lmax at each point.

    Returns an (N, (lmax+1)**2) complex array in degree-major column order.
    The caller is responsible for chunking over points when the table
    would be too large to hold at once.
    """
    pts = check_unit(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    theta_unused, phi = to_spherical(pts)
    del theta_unused
    p = legendre_table(lmax, pts[:, 2])

    ls, ms = degrees_orders(lmax)
    tri = ls * (ls + 1) // 2 + np.abs(ms)
    # exp(i*m*phi) for m = -lmax..lmax, then gathered per flat column.
    orders = np.arange(-lmax, lmax + 1)
    phase = np.exp(1j * np.outer(phi, orders))
    return _order_signs(ms) * p[:, tri] * phase[:, ms + lmax]


def eval_ylm(l: int, m: int, points: np.ndarray) -> np.ndarray:
    """Single harmonic Y(l, m) at one point or a batch of points.

    Out-of-range orders (|m| > l) evaluate to zero, matching the
    coefficient-table convention.  Raises ValueError naming the argument
    unless l is an integer >= 0 and m an integer.
    """
    l = check_int(l, "l")
    m = check_int(m, "m", -math.inf)
    single = np.asarray(points).ndim == 1
    pts = check_unit(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    if abs(m) > l:
        out = np.zeros(pts.shape[0], dtype=np.complex128)
        return out[0] if single else out

    am = abs(m)
    t = pts[:, 2]
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    pmm = np.full(pts.shape[0], _INV_SQRT_4PI)
    for k in range(1, am + 1):
        pmm = -np.sqrt((2 * k + 1) / (2.0 * k)) * s * pmm
    if l == am:
        plm = pmm
    else:
        prev = pmm
        plm = np.sqrt(2 * am + 3.0) * t * pmm
        for k in range(am + 2, l + 1):
            a = np.sqrt((4.0 * k * k - 1.0) / (k * k - am * am))
            b = np.sqrt(((k - 1.0) ** 2 - am * am) / (4.0 * (k - 1.0) ** 2 - 1.0))
            plm, prev = a * (t * plm - b * prev), plm

    phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    sign = 1.0 if (m >= 0 or am % 2 == 0) else -1.0
    out = sign * plm * np.exp(1j * m * phi)
    return out[0] if single else out
