"""Clebsch-Gordan coefficients coupling degree 1 and the transform tables.

Every coefficient the transforms need couples some (j1, m1) with a spin-1
index: C(l, m | j1, m1, 1, m2) with j1 in {l-1, l, l+1} and m1 = m - m2.
Nine closed forms cover all of them; ``cg_explicit`` selects by the offset
pair (j1 - l, m2).  A coefficient whose arguments violate |m| <= l,
|m1| <= j1, or j1 >= 0 is zero by convention (the range-validity rule).

The transforms use them through one sparse operator K per lmax
(``coupling_matrix``, cached), whose row (l, m) holds the nine coefficients
coupling it to the scalar tables at (l + dl, m - m2).  The range-validity
rule lives in K's build: an entry whose source leaves the tables is zero
and is not stored.  ``apply_coupling`` applies K, ``build_adjoint_coupling``
its conjugate transpose through R^T, cached beside K as a view on its
buffers; ``build_cg_tables`` tabulates the coefficients by source index,
the reference the tests check K against.

``wigner_3j`` is the independent check oracle (Racah's single-sum formula
with log-factorial accumulation); production paths never call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .core import ScalarCoefficients, VectorCoefficients, check_int, degrees_orders, flat_size
from .legendre import _batches


def coupling_weight_c(l):
    """Weight sqrt((l+1)/(2l+1)) of the degree-(l-1) branch; l may be an array."""
    if np.any(np.asarray(l) < 0):
        raise ValueError(f"degree must be non-negative, got {l}")
    return np.sqrt((l + 1.0) / (2.0 * l + 1.0))


def coupling_weight_d(l):
    """Weight sqrt(l/(2l+1)) of the degree-(l+1) branch; d(0) = 0; l may be an array."""
    if np.any(np.asarray(l) < 0):
        raise ValueError(f"degree must be non-negative, got {l}")
    return np.sqrt(l / (2.0 * l + 1.0))


def cg_explicit(dl: int, m2: int, l, m):
    """One of the nine closed-form coefficients C(l, m | l+dl, m-m2, 1, m2).

    Parameters
    ----------
    dl : int
        Offset j1 - l of the coupled degree, in {-1, 0, +1}.
    m2 : int
        Spin-1 order, in {-1, 0, +1}.
    l, m : int or integer arrays
        Total degree and order (the upper indices); arrays broadcast and
        give an array of coefficients, ints give a float.

    Returns zero wherever the arguments are out of range.
    """
    if dl not in (-1, 0, 1) or m2 not in (-1, 0, 1):
        raise ValueError(f"unknown coefficient kind (dl={dl}, m2={m2})")
    j1 = l + dl
    m1 = m - m2
    # The dl = 0 couplings vanish identically at l = 0.
    valid = (l >= 0) & (j1 >= 0) & (abs(m) <= l) & (abs(m1) <= j1) & ((dl != 0) | (l > 0))
    if np.ndim(valid) == 0:
        return float(_cg_closed_form(dl, m2, l, m)) if valid else 0.0
    l, m = np.broadcast_arrays(l, m)
    out = np.zeros(valid.shape)
    out[valid] = _cg_closed_form(dl, m2, l[valid], m[valid])
    return out


def _cg_closed_form(dl: int, m2: int, l, m):
    """Closed form of kind (dl, m2) at in-range (l, m); ints or arrays."""
    if dl == -1:
        if m2 == 1:
            return np.sqrt((l + m) * (l + m - 1.0) / ((2.0 * l) * (2.0 * l - 1.0)))
        if m2 == 0:
            return np.sqrt((l + m) * (l - m) / (l * (2.0 * l - 1.0)))
        return np.sqrt((l - m) * (l - m - 1.0) / ((2.0 * l) * (2.0 * l - 1.0)))
    if dl == 1:
        if m2 == 1:
            return np.sqrt((l - m + 1.0) * (l - m + 2.0) / ((2.0 * l + 2.0) * (2.0 * l + 3.0)))
        if m2 == 0:
            return -np.sqrt((l - m + 1.0) * (l + m + 1.0) / ((2.0 * l + 3.0) * (l + 1.0)))
        return np.sqrt((l + m + 1.0) * (l + m + 2.0) / ((2.0 * l + 3.0) * (2.0 * l + 2.0)))
    if m2 == 1:
        return -np.sqrt((l + m) * (l - m + 1.0) / (l * (2.0 * l + 2.0)))
    if m2 == 0:
        return m / np.sqrt(l * (l + 1.0))
    return np.sqrt((l + m + 1.0) * (l - m) / (l * (2.0 * l + 2.0)))


def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol for integer arguments via Racah's formula.

    Factorials are accumulated as log-gammas and each term of the
    alternating sum is exponentiated separately, which is stable for the
    degree range exercised here.  Selection-rule violations return zero.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0

    def lfact(n: int) -> float:
        return lgamma(n + 1.0)

    log_delta = 0.5 * (
        lfact(j1 + j2 - j3) + lfact(j1 - j2 + j3) + lfact(-j1 + j2 + j3) - lfact(j1 + j2 + j3 + 1)
    )
    log_front = 0.5 * (
        lfact(j1 + m1) + lfact(j1 - m1) + lfact(j2 + m2) + lfact(j2 - m2)
        + lfact(j3 + m3) + lfact(j3 - m3)
    )
    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        log_term = (
            lfact(t) + lfact(j3 - j2 + t + m1) + lfact(j3 - j1 + t - m2)
            + lfact(j1 + j2 - j3 - t) + lfact(j1 - t - m1) + lfact(j2 - t + m2)
        )
        total += (-1.0) ** t * np.exp(log_delta + log_front - log_term)
    return (-1.0) ** (j1 - j2 - m3) * total


def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> float:
    """General CG coefficient <j1 m1; j2 m2 | j3 m3> via the 3j oracle."""
    if m1 + m2 != m3:
        return 0.0
    return (-1.0) ** (m3 + j1 - j2) * np.sqrt(2.0 * j3 + 1.0) * wigner_3j(
        j1, j2, j3, m1, m2, -m3
    )


@dataclass(frozen=True)
class CGTables:
    """Precomputed forward coupling tables over all l <= lmax + 1.

    ``xi[i]`` (i = 1..6) and ``mu[i]`` (i = 1..3) are real flat arrays of
    length (lmax + 2)**2 indexed degree-major, zero wherever the underlying
    coefficient arguments leave their valid range.  ``c`` and ``d`` hold the
    branch weights for l = 0..lmax+1.  All arrays are read-only.
    """

    lmax: int
    xi: dict[int, np.ndarray]
    mu: dict[int, np.ndarray]
    c: np.ndarray
    d: np.ndarray


@lru_cache(maxsize=1, typed=True)  # typed, as coupling_matrix
def build_cg_tables(lmax: int) -> CGTables:
    """Tabulate the six xi and three mu coupling arrays for degree lmax.

    The tables extend to degree lmax + 1 because they are indexed by the
    source (l +- 1, m +- 1) of each coupling.  The last lmax's tables are
    cached and shared, hence read-only.
    """
    top = check_int(lmax, "lmax") + 1
    ls, ms = degrees_orders(top)
    c_up = coupling_weight_c(ls + 1)
    # d(l - 1) for l >= 1; at l = 0 the coefficient itself is zero.
    d_down = coupling_weight_d(np.maximum(ls - 1, 0))
    xi = {
        1: c_up * cg_explicit(-1, 1, ls + 1, ms + 1),
        2: d_down * cg_explicit(1, 1, ls - 1, ms + 1),
        3: c_up * cg_explicit(-1, -1, ls + 1, ms - 1),
        4: d_down * cg_explicit(1, -1, ls - 1, ms - 1),
        5: c_up * cg_explicit(-1, 0, ls + 1, ms),
        6: d_down * cg_explicit(1, 0, ls - 1, ms),
    }
    mu = {
        1: cg_explicit(0, 1, ls, ms + 1),
        2: cg_explicit(0, 0, ls, ms),
        3: cg_explicit(0, -1, ls, ms - 1),
    }
    degrees = np.arange(top + 1)
    c = coupling_weight_c(degrees)
    d = coupling_weight_d(degrees)
    for array in (*xi.values(), *mu.values(), c, d):
        array.flags.writeable = False
    return CGTables(lmax=lmax, xi=xi, mu=mu, c=c, d=d)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# The (dl, m2) kinds of a div and of a curl row, in the order of their
# sources (l + dl, m - m2) in the flat layout.
_DIV_KINDS = ((-1, 1), (-1, 0), (-1, -1), (1, 1), (1, 0), (1, -1))
_CURL_KINDS = ((0, 1), (0, 0), (0, -1))
#: Most entries one batch of rows stages densely while K is built.
_STAGING_ENTRIES = 1 << 16


@lru_cache(maxsize=1, typed=True)  # typed: lmax=3.0 or lmax=True must not hit a cached lmax=3 or 1
def coupling_matrix(lmax: int):
    """The real matrix R of the forward coupling K = D_out R D_in; cached, read-only.

    K maps the scalar forward tables F of the three Cartesian components at
    degree lmax + 1, flattened point-major (entry 3k + j is component j at
    flat index k), to the degree-lmax div table stacked over the curl
    table.  With U = -F1 + i F2, V = F1 + i F2, W = F3, s = 1/sqrt(2) and
    C(dl, m2) = ``cg_explicit(dl, m2, l, m)``:

        div(l, m)  = sum over dl = -1, +1 of w(dl) [s C(dl, 1) U(l+dl, m-1)
                     + C(dl, 0) W(l+dl, m) + s C(dl, -1) V(l+dl, m+1)],
        curl(l, m) = -i [s C(0, 1) U(l, m-1) + C(0, 0) W(l, m) + s C(0, -1) V(l, m+1)],

    with w(-1) = c(l) and w(+1) = d(l).  D_in = diag(1, i, 1) per point and
    D_out = 1 on div rows, i on curl rows leave R real.  An entry whose
    source leaves the tables is zero by the range-validity rule and is not
    stored: at most ten per div row, five per curl row, none at degree 0.
    The adjoint coupling is K^H = D_in^H R^T D_out^H.
    """
    from scipy.sparse import csr_array  # deferred: adds about 24 ms to import favest

    lmax = check_int(lmax, "lmax", 1)
    ls, ms = degrees_orders(lmax)
    n = ls.size
    # Filled in batches of rows, so that the dense staging of a batch stays
    # small next to K; fifteen entries per (div, curl) row pair bound K's.
    data = np.empty(15 * n)
    indices = np.empty(15 * n, dtype=np.int32)
    indptr = np.zeros(2 * n + 1, dtype=np.int32)
    end = 0
    for block, kinds in enumerate((_DIV_KINDS, _CURL_KINDS)):
        width = sum(2 if m2 else 1 for _, m2 in kinds)  # ten slots per div row, five per curl row
        for rows in _batches(n, width, _STAGING_ENTRIES):
            l, m = ls[rows], ms[rows]
            weights = {-1: coupling_weight_c(l), 0: -1.0, 1: coupling_weight_d(l)}
            # Slots in increasing column order per row.
            vals = np.zeros((l.size, width))
            cols = np.zeros((l.size, width), dtype=np.int32)
            slot = 0
            for dl, m2 in kinds:
                coef = weights[dl] * cg_explicit(dl, m2, l, m)
                src = 3 * ((l + dl) * (l + dl + 1) + m - m2)
                for col, factor in ((0, -m2 * _INV_SQRT2), (1, _INV_SQRT2)) if m2 else ((2, 1.0),):
                    vals[:, slot] = factor * coef
                    cols[:, slot] = src + col
                    slot += 1
            keep = vals != 0.0
            first = block * n + rows.start
            indptr[first + 1 : first + 1 + l.size] = end + np.cumsum(np.count_nonzero(keep, axis=1))
            start, end = end, int(indptr[first + l.size])
            data[start:end] = vals[keep]
            indices[start:end] = cols[keep]
    matrix = csr_array((data[:end], indices[:end], indptr), shape=(2 * n, 3 * flat_size(lmax + 1)))
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


@lru_cache(maxsize=1)
def _coupling_transpose(lmax: int):
    """R^T, kept beside R: a CSC view on :func:`coupling_matrix`'s read-only buffers."""
    return coupling_matrix(lmax).T


def apply_coupling(f: np.ndarray, lmax: int) -> VectorCoefficients:
    """Apply K to the scalar forward tables ``f`` of the Cartesian components.

    ``f`` has shape (flat_size(lmax + 1), 3); the result is the degree-lmax
    vector coefficients.  See :func:`coupling_matrix`.
    """
    x = f * np.array([1.0, 1j, 1.0])  # D_in
    # R is real, so it acts on the complex entries as (real, imag) pairs.
    out = (coupling_matrix(lmax) @ x.view(np.float64).reshape(-1, 2)).view(np.complex128).reshape(2, -1)
    out[1] *= 1j  # D_out
    return VectorCoefficients(ScalarCoefficients(lmax, out[0]), ScalarCoefficients(lmax, out[1]))


def build_adjoint_coupling(coeffs: VectorCoefficients) -> np.ndarray:
    """Apply K^H: the three scalar tables whose synthesis is the tangent field.

    Returns the (flat_size(lmax + 1), 3) complex table of one degree-(lmax+1)
    scalar coefficient column per Cartesian component, D_in^H R^T D_out^H
    applied to the div table stacked over the curl table.
    """
    lmax = coeffs.lmax
    stacked = np.concatenate([coeffs.div.values, -1j * coeffs.curl.values])  # D_out^H
    merged = (_coupling_transpose(lmax) @ stacked.view(np.float64).reshape(-1, 2)).view(np.complex128).reshape(-1, 3)
    merged[:, 1] *= -1j  # D_in^H
    return merged
