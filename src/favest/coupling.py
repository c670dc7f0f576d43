"""Clebsch-Gordan coefficients coupling degree 1 and the transform tables.

Every coefficient the transforms need couples some (j1, m1) with a spin-1
index: C(l, m | j1, m1, 1, m2) with j1 in {l-1, l, l+1} and m1 = m - m2.
Nine closed forms cover all of them; ``cg_explicit`` selects by the offset
pair (j1 - l, m2).  A coefficient whose arguments violate |m| <= l,
|m1| <= j1, or j1 >= 0 is zero by convention: assembly code reads tables
at shifted indices and relies on those zeros instead of branching at
boundaries (the range-validity rule).

``wigner_3j`` is the independent check oracle (Racah's single-sum formula
with log-factorial accumulation); production paths never call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .core import VectorCoefficients, degrees_orders


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


@lru_cache(maxsize=8)
def build_cg_tables(lmax: int) -> CGTables:
    """Tabulate the six xi and three mu coupling arrays for degree lmax.

    The tables extend to degree lmax + 1 because the forward assembly reads
    them at shifted indices l +- 1.  Results are cached per lmax and shared,
    hence read-only.
    """
    if lmax < 0:
        raise ValueError(f"lmax must be non-negative, got {lmax}")
    top = lmax + 1
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


@lru_cache(maxsize=64)
def _shift_index(src_lmax: int, dl: int, dm: int, out_lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Source index and validity mask of :func:`_shift_read`; cached, read-only."""
    ls, ms = degrees_orders(out_lmax)
    sl = ls + dl
    sm = ms + dm
    valid = (sl >= 0) & (sl <= src_lmax) & (np.abs(sm) <= sl)
    idx = np.where(valid, sl * sl + sl + sm, 0)
    idx.flags.writeable = False
    valid.flags.writeable = False
    return idx, valid


def _shift_read(flat: np.ndarray, src_lmax: int, dl: int, dm: int, out_lmax: int) -> np.ndarray:
    """Gather flat[(l+dl, m+dm)] over all (l, m) with l <= out_lmax.

    Out-of-range source pairs contribute zero.
    """
    idx, valid = _shift_index(src_lmax, dl, dm, out_lmax)
    out = np.where(valid, flat[idx], 0.0)
    return out.astype(flat.dtype)


@dataclass
class AdjointCoupling:
    """The nine synthesis coefficient arrays of the adjoint transform.

    Flat complex arrays of length (lmax + 2)**2: ``nu[1..6]`` derive from
    the div-family table, ``eta[1..3]`` from the curl-family table.
    """

    lmax: int
    nu: dict[int, np.ndarray]
    eta: dict[int, np.ndarray]


def build_adjoint_coupling(coeffs: VectorCoefficients) -> AdjointCoupling:
    """Combine vector coefficients with the CG tables into synthesis arrays.

    Each array multiplies coefficient reads at degree l +- 1 (or l) with the
    matching xi/mu entries; every range restriction in their definitions is
    realized by the zero-read convention rather than explicit branches.
    """
    lmax = coeffs.lmax
    tables = build_cg_tables(lmax)
    xi = tables.xi
    mu = tables.mu
    top = lmax + 1

    def a_at(dl: int, dm: int) -> np.ndarray:
        return _shift_read(coeffs.div.values, lmax, dl, dm, top)

    def b_at(dl: int, dm: int) -> np.ndarray:
        return _shift_read(coeffs.curl.values, lmax, dl, dm, top)

    nu = {
        1: a_at(1, 1) * xi[1] - a_at(1, -1) * xi[3],
        2: a_at(-1, 1) * xi[2] - a_at(-1, -1) * xi[4],
        3: 1j * (a_at(1, 1) * xi[1] + a_at(1, -1) * xi[3]),
        4: 1j * (a_at(-1, 1) * xi[2] + a_at(-1, -1) * xi[4]),
        5: a_at(1, 0) * xi[5],
        6: a_at(-1, 0) * xi[6],
    }
    eta = {
        1: 1j * (b_at(0, 1) * mu[1] - b_at(0, -1) * mu[3]),
        2: b_at(0, 1) * mu[1] + b_at(0, -1) * mu[3],
        3: 1j * b_at(0, 0) * mu[2],
    }
    return AdjointCoupling(lmax=lmax, nu=nu, eta=eta)
