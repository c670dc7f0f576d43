"""Scalar spherical harmonic transforms: direct sums, the fast grid path and a NUFFT.

The forward transform computes quadrature approximations of the Fourier
coefficients,

    F(l, m) = sum_k w_k f_k conj(Y(l, m, x_k)),

and the adjoint evaluates the partial sum S(g; x) = sum_{l,m} g_{l,m} Y(l,m,x).
With A the synthesis matrix, A[k, (l, m)] = Y(l, m, x_k), and W the diagonal
of the weights, the adjoint is A g and the forward is A^H W f.  Each route
is a pair of kernels, A and the unweighted A^H, on validated (N, c) or
((lmax + 1)**2, c) complex columns; :func:`_forward_columns` forms W f once,
as a temporary the kernel may overwrite.
The direct variants accept arbitrary points; the fast variants require an
iso-latitude tensor grid and replace the longitudinal sums by FFTs, with the
per-ring convention F_m = (2pi/n_phi) * sum_j f_j exp(-i*m*phi_j) absorbed
into the ring weights.  On equispaced longitudes exp(i*m*phi_j) depends on
m mod n_phi only, so one ring DFT serves every order on any n_phi: when
n_phi < 2*lmax + 1, orders m and m + n_phi share a bin, which the forward
reads for both and the adjoint sums them into, as libsharp does on
HEALPix's polar rings (Reinecke & Seljebotn, A&A 554, A112, 2013).

Both variants work order by order.  The direct path batches points so that
each batch's order-major Legendre table (``legendre._legendre_by_order``)
holds at most ``legendre._CHUNK_ENTRIES`` doubles.  Per batch, order m >= 0
is one real matmul of its contiguous block Pbar(l, m), l = m..lmax, against
the batch's columns times cos(m*phi) and sin(m*phi); since
Y(l, -m) = (-1)**m conj(Y(l, m)), that one product serves orders m and -m.
That costs O(M * lmax**2) arithmetic in O(lmax) Python steps per batch.

The fast path keeps one plan per (grid, lmax) on the grid, built on first
use.  It pairs mirrored rings and merges orders m and -m, after Schaeffer
("Efficient spherical harmonic transforms aimed at pseudospectral
numerical simulations", G-cubed 14, 2013), through the identity
Pbar(l, m, -t) = (-1)**(l - m) Pbar(l, m, t).  Rings k and n_theta - 1 - k
pair when cos(theta_k) + cos(theta_{n_theta - 1 - k}) is at most
``_MIRROR_TOL`` = 8 eps in magnitude; each pair is one plan row, at the
northern ring's cosine t, and its southern ring is evaluated at -t.  Every
unpaired ring is a row of its own: the equator of an odd n_theta, or each
ring of an asymmetric grid.  For each order |m| the plan stores two
contiguous blocks of the rows' Legendre values, l - m even and l - m odd,
filled straight from the kernel one batch of rows at a time; that is
about n_rows * (lmax + 1)**2 / 2 doubles, half the rings' worth on a
symmetric grid.  After the ring FFT the bins m and -m of each row's ring
and of its mirror are gathered order-major, into their sum S and
difference D, so each |m| is two real matmuls (the even block against S,
the odd block against D) serving m and -m at once, and one precomputed
gather puts the result in flat order.  The adjoint is the exact
transpose: a row's ring receives the even plus the odd degrees, its
mirror the even minus the odd.  A transform needs O(N) working memory
beyond the plan.  The grid's ring arrays are read-only and its fields
frozen, so a cached plan cannot go stale.

The NUFFT route serves arbitrary points in O(lmax**3 + M) arithmetic, after
Keiner, Kunis & Potts ("Using NFFT 3", ACM TOMS 36(4), 2009).  Extended to
colatitudes in [0, 2pi) by f(2pi - theta, phi) = f(theta, phi + pi), the
partial sum is a 2-D trigonometric polynomial of degree lmax in theta and
phi.  The adjoint samples it with the fast path on an auxiliary grid of
n longitudes and n/2 mirrored rings (its plan holds about
(lmax + 2)**3 / 4 doubles, cached per lmax), takes its Fourier
coefficients with one FFT, and evaluates it at the points by a type-2
NUFFT: the coefficients, divided by the Fourier transform of the
exponential-of-semicircle kernel (Barnett, Magland & af Klinteberg, SIAM
J. Sci. Comput. 41(5), 2019), are synthesized on a twice oversampled
2n x 2n grid and interpolated with the kernel's 13 x 13 stencil.  As in
FINUFFT, n is the smallest even number of at least max(2*lmax + 2, 26)
for which 2n is a fast FFT length, and the fine grid is pruned: of its 2n
rows only the n + 26 that stencils reach are formed, from
theta = -13 pi / n on, so no stencil wraps in theta, and of its
frequencies only the (2*lmax + 1)**2 kept ones are synthesized, first in
theta on the kept columns, then in phi on the formed rows.  The forward
is the exact transpose of those steps.  Both agree with the direct sums
to about 1e-12 relative.

The 13 x 13 stencil is the product of two 1-D kernels, one along theta
and one along phi, and is applied as such.  The fine grid is formed
phi-major, as 2n columns of its reached rows, so the adjoint's last
inverse FFT and the forward's first FFT run along axis 0.  Points are
taken in order of colatitude, in batches whose first stencil rows lie
within ``_BAND_ROWS`` = 6 rows of each other, of at most
``_STENCIL_ENTRIES // 13**2`` points; a batch reads from, and spreads
into, a band of at most 18 of the formed rows.  Per batch, the adjoint
is one sparse product of the points' phi taps (a CSR matrix with 13
entries per point) with the band's 2n columns, then a sum over the band's
rows weighted by the theta taps, a dense block of one row per point;
the forward is the exact transpose, the theta block times the samples,
spread by the CSC transpose of the same matrix.  After NFFT3's
precomputation, the frozen ``QuadratureRule`` keeps each batch's point
indices, band, CSR matrix with its transpose (a view on the same
buffers) and theta block, 272 to 312 bytes per point, for the last fine
grid and width it was transformed at: a repeated call on a rule
evaluates no kernel, builds no sparse matrix and expands no weight
block.  Raw point arrays, which may change between calls, build each
batch's factors when it is asked for and keep none.

The route of a scalar transform is decided, and run, in this module alone.
:func:`forward_sht` and :func:`adjoint_sht`, which the certifier
``quadrature.verify_exactness`` uses, are the scalar transforms; the vector
transforms run their three columns through the private pair behind them,
:func:`_forward_columns` / :func:`_adjoint_columns`.
``path`` is one of :data:`PATHS`.  ``path="auto"`` takes the fast path on
a grid (the one a rule works out from its points, if any), else the
NUFFT from scalar degree 33 and 2000 points on (:func:`_nufft_pays`),
where it measured faster than the direct sums, else the direct sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import QuadratureRule, ScalarCoefficients, TensorGrid, check_int, check_unit, flat_size
from .legendre import _CHUNK_ENTRIES, _batches, _legendre_by_order, _order_phases, _point_chunks

if TYPE_CHECKING:
    from scipy.sparse import csc_array, csr_array


def _order_rows(lmax: int) -> tuple[np.ndarray, ...]:
    """Order-major positions of the flat coefficient rows.

    Returns (ms, ls, rows) over 0 <= m <= l <= lmax, where rows holds the
    flat index of (l, m), then (ms, ls, rows, signs) again restricted to
    m >= 1 with rows holding (l, -m) and signs (-1)**m.
    """
    ls, ms = np.tril_indices(lmax + 1)
    neg = ms > 0
    lsn, msn = ls[neg], ms[neg]
    signs = np.where(msn % 2, -1.0, 1.0)[:, None]
    return ms, ls, ls * ls + ls + ms, msn, lsn, lsn * lsn + lsn - msn, signs


def _forward_direct_values(f: np.ndarray, points: np.ndarray, lmax: int) -> np.ndarray:
    """Unweighted sums sum_k f_k conj(Y(l, m, x_k)) of the (N, c) columns f, in point chunks."""
    phi = np.arctan2(points[:, 1], points[:, 0])
    c = f.shape[1]
    # Complex columns are viewed as pairs of real ones, points last, so each
    # order is one real matmul of its Legendre block against the rows
    # [cos(m phi) f, sin(m phi) f], built per order to stay in cache.
    f_rows = np.ascontiguousarray(f.view(np.float64).T)
    acc = np.zeros((lmax + 1, lmax + 1, 2 * c), dtype=np.complex128)
    for chunk in _point_chunks(points.shape[0], lmax):
        q = _legendre_by_order(lmax, points[chunk, 2])
        phase = _order_phases(lmax, phi[chunk])
        part = f_rows[:, chunk]
        cols = np.empty((2, 2 * c, q.shape[2]), dtype=np.float64)
        for m in range(lmax + 1):
            np.multiply(phase[m].real, part, out=cols[0])
            np.multiply(phase[m].imag, part, out=cols[1])
            acc[m, m:] += (q[m, m:] @ cols.reshape(4 * c, -1).T).view(np.complex128)
        del q  # free the table before the next chunk allocates its own
    # F(l, m) = cos part - i sin part; (-1)**m F(l, -m) = cos part + i sin part.
    ms, ls, rows, msn, lsn, rows_neg, signs = _order_rows(lmax)
    out = np.empty((flat_size(lmax), c), dtype=np.complex128)
    out[rows] = acc[ms, ls, :c] - 1j * acc[ms, ls, c:]
    out[rows_neg] = signs * (acc[msn, lsn, :c] + 1j * acc[msn, lsn, c:])
    return out


def _adjoint_direct_values(values: np.ndarray, lmax: int, points: np.ndarray) -> np.ndarray:
    """Adjoint sums of the (size, c) coefficient columns at the (N, 3) unit points."""
    phi = np.arctan2(points[:, 1], points[:, 0])
    c = values.shape[1]
    # With g+ = g(l, m) and g- = (-1)**m g(l, -m), both weighing Pbar(l, m):
    # g+ exp(i m phi) + g- exp(-i m phi) = (g+ + g-) cos(m phi) + i (g+ - g-) sin(m phi).
    ms, ls, rows, msn, lsn, rows_neg, signs = _order_rows(lmax)
    plus = np.zeros((lmax + 1, lmax + 1, c), dtype=np.complex128)
    minus = np.zeros_like(plus)
    plus[ms, ls] = values[rows]
    minus[msn, lsn] = signs * values[rows_neg]
    cols = np.concatenate([plus + minus, 1j * (plus - minus)], axis=2).view(np.float64)
    # The complex output as real pairs, points last.
    out = np.zeros((2 * c, points.shape[0]), dtype=np.float64)
    for chunk in _point_chunks(points.shape[0], lmax):
        q = _legendre_by_order(lmax, points[chunk, 2])
        phase = _order_phases(lmax, phi[chunk])
        part = out[:, chunk]
        r = np.empty((2, 2 * c, q.shape[2]), dtype=np.float64)
        for m in range(lmax + 1):
            np.matmul(cols[m, m:].T, q[m, m:], out=r.reshape(4 * c, -1))
            r[0] *= phase[m].real
            r[1] *= phase[m].imag
            part += r[0]
            part += r[1]
        del q  # free the table before the next chunk allocates its own
    return np.ascontiguousarray(out.T).view(np.complex128)


#: Two rings pair when their cosines cancel to within this: 8 ulp of 1.
_MIRROR_TOL = 8.0 * np.finfo(np.float64).eps
#: A plan fills from kernel tables of an eighth of its rows, held between
#: this many doubles and ``legendre._CHUNK_ENTRIES``: a table stays small
#: next to the plan (about n_rows * (lmax + 1)**2 / 2 doubles), and the
#: kernel, which takes O(lmax) Python steps per table, runs few times.
_PLAN_ENTRIES = 1 << 18


@dataclass(frozen=True)
class _GridPlan:
    """The fast path's precomputed state for one (grid, lmax); see :func:`_plan`."""

    rings: np.ndarray  # (rows,) the ring of each row: paired rows first
    mirrors: np.ndarray  # (pairs,) the mirrored ring of each paired row
    even: list[np.ndarray]  # per order m: (rows, .) Pbar(l, m) for l - m even
    odd: list[np.ndarray]  # per order m: (rows, .) Pbar(l, m) for l - m odd
    starts: tuple[int, ...]  # per order m: its first accumulator row
    slots: np.ndarray  # flat (l, m) -> accumulator slot 2 * row + (m < 0)
    sources: np.ndarray  # accumulator slot -> flat (l, m) or (l, -m)
    signs: np.ndarray  # per flat (l, m): (-1)**m for m < 0, else 1


def _plan(grid: TensorGrid, lmax: int) -> _GridPlan:
    """The grid's paired Legendre blocks for lmax, built on first use and cached.

    Rings k and n_theta - 1 - k pair when their cosines cancel to within
    ``_MIRROR_TOL``.  Each pair is one row, at the cosine t of its northern
    ring, and every unpaired ring is a row of its own.  The rows' Legendre
    values are filled straight from the kernel, one batch of rows at a
    time, into two contiguous blocks per order m: the degrees with l - m
    even and those with l - m odd.  The accumulator holds, per order, the
    even then the odd degrees, each row with the columns of m and of -m;
    its layout depends on lmax alone, so plans share it.
    The grid keeps the plan of one lmax, replaced when another is asked
    for, as a rule keeps its NUFFT stencils for one degree.
    """
    plan = grid._plans.get(lmax)
    if plan is None:
        grid._plans.clear()  # free the old plan before the new one is built
        plan = _build_plan(grid, lmax)
        grid._plans[lmax] = plan
    return plan


def _build_plan(grid: TensorGrid, lmax: int) -> _GridPlan:
    t = np.cos(grid.ring_thetas)
    n = grid.n_theta
    k = np.arange(n // 2)
    north = k[np.abs(t[k] + t[n - 1 - k]) <= _MIRROR_TOL]
    south = n - 1 - north
    rings = np.r_[north, np.setdiff1d(np.arange(n), np.r_[north, south])]

    # Every block is a view on one buffer: a plan is one allocation, not 2(lmax + 1) heap chunks.
    widths = [w for m in range(lmax + 1) for w in ((lmax - m) // 2 + 1, (lmax - m + 1) // 2)]
    ends = np.cumsum([0] + widths) * rings.size
    buffer = np.empty(ends[-1])
    blocks = [buffer[a:b].reshape(rings.size, w) for a, b, w in zip(ends[:-1], ends[1:], widths)]
    even, odd = blocks[0::2], blocks[1::2]
    per_row = (lmax + 1) ** 2
    limit = min(_CHUNK_ENTRIES, max(_PLAN_ENTRIES, -(-rings.size // 8) * per_row))
    for batch in _batches(rings.size, per_row, limit):
        q = _legendre_by_order(lmax, t[rings[batch]])
        for m in range(lmax + 1):
            even[m][batch] = q[m, m::2].T
            odd[m][batch] = q[m, m + 1 :: 2].T
        del q  # free the table before the next batch allocates its own
    for block in even + odd:
        block.flags.writeable = False
    return _GridPlan(rings, south, even, odd, *_accumulator_layout(lmax))


@lru_cache(maxsize=4, typed=True)
def _accumulator_layout(lmax: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """A plan's (starts, slots, sources, signs): the accumulator's layout for lmax, shared by plans."""
    # Per order m, the accumulator holds its even degrees, then its odd ones.
    degrees = [np.r_[m : lmax + 1 : 2, m + 1 : lmax + 1 : 2] for m in range(lmax + 1)]
    ls = np.concatenate(degrees)
    ms = np.repeat(np.arange(lmax + 1), [d.size for d in degrees])
    sources = np.stack([ls * ls + ls + ms, ls * ls + ls - ms], axis=1).reshape(-1)
    slots = np.empty(flat_size(lmax), dtype=np.intp)
    slots[sources[1::2]] = np.arange(1, sources.size, 2)
    slots[sources[0::2]] = np.arange(0, sources.size, 2)  # m = 0 reads the +m slot
    orders = np.concatenate([np.arange(-l, l + 1) for l in range(lmax + 1)])
    signs = np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0)
    for index in (slots, sources, signs):
        index.flags.writeable = False
    return tuple(np.cumsum([0] + [d.size for d in degrees[:-1]]).tolist()), slots, sources, signs


def _gather_orders(spectrum: np.ndarray, rings: np.ndarray, lmax: int) -> np.ndarray:
    """Order-major (lmax + 1, rings, 2, c): the DFT bins m and -m of the rings, modulo the width."""
    width, c = spectrum.shape[1:]
    part = np.empty((lmax + 1, rings.size, 2, c), dtype=np.complex128)
    part[:, :, 0] = spectrum[rings, : lmax + 1].transpose(1, 0, 2)
    negative = spectrum[rings, width - 1 : width - 1 - lmax : -1]  # bins -1, ..., -lmax
    part[1:, :, 1] = negative.transpose(1, 0, 2)
    part[0, :, 1] = part[0, :, 0]  # order 0 has one bin; its unused -m half stays defined
    return part


def _scatter_orders(spectrum: np.ndarray, rings: np.ndarray, part: np.ndarray, lmax: int) -> None:
    """Write order-major real pairs (lmax + 1, rings, 4c) to the rings' bins m and -m."""
    width, c = spectrum.shape[1:]
    part = part.view(np.complex128).reshape(lmax + 1, rings.size, 2, c)
    spectrum[rings, : lmax + 1] = part[:, :, 0].transpose(1, 0, 2)
    spectrum[rings, width - 1 : width - 1 - lmax : -1] = part[1:, :, 1].transpose(1, 0, 2)


def _forward_fast_values(f: np.ndarray, grid: TensorGrid, lmax: int) -> np.ndarray:
    """Unweighted sums of the grid's (size, c) columns f; the ring FFT overwrites f."""
    from scipy import fft  # deferred, like scipy.sparse in _stencil_factors

    plan = _plan(grid, lmax)
    # Ring DFT, sum_j f_j exp(-2pi i j m / n_phi), in f's memory.
    spectrum = fft.fft(f.reshape(grid.n_theta, grid.n_phi, -1), axis=1, overwrite_x=True)
    folds = -(-(2 * lmax + 1) // grid.n_phi)  # periods that hold the bins of orders -lmax..lmax
    if folds > 1:  # orders m and m + n_phi share a bin: repeat the spectrum past -lmax
        spectrum = np.tile(spectrum, (1, folds, 1))
    total = _gather_orders(spectrum, plan.rings, lmax)
    mirror = _gather_orders(spectrum, plan.mirrors, lmax)
    # Pbar(l, m, -t) = (-1)**(l - m) Pbar(l, m, t): the even degrees read
    # ring + mirror, the odd ones ring - mirror.
    pairs, c = mirror.shape[1], mirror.shape[3]
    diff = total.copy()
    diff[:, :pairs] -= mirror
    total[:, :pairs] += mirror
    del mirror
    # Complex columns are viewed as pairs of real ones, so each order is two
    # real matmuls, each serving m and -m.
    total = total.reshape(lmax + 1, -1, 2 * c).view(np.float64)
    diff = diff.reshape(lmax + 1, -1, 2 * c).view(np.float64)
    acc = np.empty((plan.sources.size // 2, 4 * c))
    for m, (start, even, odd) in enumerate(zip(plan.starts, plan.even, plan.odd)):
        mid = start + even.shape[1]
        np.matmul(even.T, total[m], out=acc[start:mid])
        np.matmul(odd.T, diff[m], out=acc[mid : mid + odd.shape[1]])
    out = np.take(acc.view(np.complex128).reshape(-1, c), plan.slots, axis=0)
    out *= plan.signs[:, None]
    return out


def _adjoint_fast_values(values: np.ndarray, lmax: int, grid: TensorGrid) -> np.ndarray:
    from scipy import fft

    plan = _plan(grid, lmax)
    c = values.shape[1]
    coeffs = np.take(values, plan.sources, axis=0)
    coeffs *= plan.signs[plan.sources, None]
    coeffs = coeffs.reshape(-1, 2 * c).view(np.float64)
    rows, pairs = plan.rings.size, plan.mirrors.size
    # The transpose of the forward: a row's ring gets the even plus the odd
    # degrees, its mirror even minus odd.  Order-major, m and -m per row.
    total = np.empty((lmax + 1, rows, 4 * c))
    mirror = np.empty((lmax + 1, pairs, 4 * c))
    odd_part = np.empty((rows, 4 * c))
    for m, (start, even, odd) in enumerate(zip(plan.starts, plan.even, plan.odd)):
        mid = start + even.shape[1]
        np.matmul(even, coeffs[start:mid], out=total[m])
        np.matmul(odd, coeffs[mid : mid + odd.shape[1]], out=odd_part)
        np.subtract(total[m, :pairs], odd_part[:pairs], out=mirror[m])
        total[m] += odd_part
    folds = -(-(2 * lmax + 1) // grid.n_phi)  # as in the forward
    spectrum = np.zeros((grid.n_theta, folds * grid.n_phi, c), dtype=np.complex128)
    _scatter_orders(spectrum, plan.rings, total, lmax)
    _scatter_orders(spectrum, plan.mirrors, mirror, lmax)
    del total, mirror
    if folds > 1:  # add the orders that share a bin
        spectrum = spectrum.reshape(grid.n_theta, folds, grid.n_phi, c).sum(axis=1)
    # norm="forward" leaves the inverse unscaled: the plain sum over orders.
    out = fft.ifft(spectrum, axis=1, norm="forward", overwrite_x=True)
    return out.reshape(len(grid), values.shape[1])


#: Width, in fine-grid points per axis, of the NUFFT's spreading kernel.
_NUFFT_WIDTH = 13
#: A batch of NUFFT stencils holds at most ``_STENCIL_ENTRIES // width**2``
#: points, whose first stencil rows lie within ``_BAND_ROWS`` rows of each
#: other; that bounds a call's working memory to a few band-sized blocks.
#: A rule keeps its batches' separable factors besides, 272 to 312 bytes per
#: point (see :func:`_stencil_bands`).
_STENCIL_ENTRIES = 1 << 18
_BAND_ROWS = 6
#: A scalar transform on points without a usable grid takes the NUFFT from
#: this degree and this many points on, where it measured faster than the
#: direct sums, whose cost per point grows with the degree (see CHANGES.md).
_NUFFT_MIN_DEGREE = 33
_NUFFT_MIN_POINTS = 2000


def _nufft_pays(degree: int, n_points: int) -> bool:
    """Whether a scalar transform of this degree on n scattered points takes the NUFFT."""
    return degree >= _NUFFT_MIN_DEGREE and n_points >= _NUFFT_MIN_POINTS


PATHS = ("auto", "direct-scalar", "fast-scalar", "nufft")


def _pick_path(path: str, grid: TensorGrid | None, degree: int, n_points: int) -> str:
    """Name the route of a degree-``degree`` scalar transform on n_points points.

    "auto" takes "fast-scalar" on a grid, else "nufft" where
    :func:`_nufft_pays` says so, else "direct-scalar".  An explicit route
    is kept; "fast-scalar" without a grid raises ValueError.
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; expected one of {PATHS}")
    if path == "fast-scalar" and grid is None:
        raise ValueError("fast-scalar path requires a rule with tensor-grid structure")
    if path != "auto":
        return path
    if grid is not None:
        return "fast-scalar"
    return "nufft" if _nufft_pays(degree, n_points) else "direct-scalar"


def forward_sht(f: np.ndarray, rule: QuadratureRule, lmax: int, path: str = "auto") -> ScalarCoefficients:
    """Forward scalar transform A^H W f of the rule's N samples f, up to degree lmax.

    ``path`` is one of :data:`PATHS`; "auto" picks the route as the module
    docstring says.  Raises ValueError on non-finite samples.
    """
    lmax = check_int(lmax, "lmax")
    vals = np.asarray(f, dtype=np.complex128)
    if vals.shape != (len(rule),):
        raise ValueError(f"sample array of shape {vals.shape} does not match {len(rule)} points")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sample values must be finite")
    return ScalarCoefficients(lmax, _forward_columns(vals[:, None], rule, lmax, path)[:, 0])


def adjoint_sht(coeffs: ScalarCoefficients, rule_or_points, path: str = "auto") -> np.ndarray:
    """Evaluate the harmonic partial sum A g at a rule's, a grid's or raw (N, 3) unit points.

    ``path`` picks the route as in :func:`forward_sht`.  Raises ValueError
    on non-finite coefficients and on raw points off the unit sphere.
    """
    if not np.all(np.isfinite(coeffs.values)):
        raise ValueError("coefficient values must be finite")
    return _adjoint_columns(coeffs.values[:, None], coeffs.lmax, rule_or_points, path)[1][:, 0]


def _target(rule_or_points) -> tuple[np.ndarray, TensorGrid | None, QuadratureRule | None]:
    """(points, grid, rule) of a QuadratureRule, a TensorGrid or a raw (N, 3) array.

    The points are unit: a rule checked its own when it was built, a grid
    makes them, and raw ones are checked here.
    """
    if isinstance(rule_or_points, QuadratureRule):
        return rule_or_points.points, rule_or_points.grid, rule_or_points
    if isinstance(rule_or_points, TensorGrid):
        return rule_or_points.points(), rule_or_points, None
    return check_unit(np.atleast_2d(np.asarray(rule_or_points, dtype=np.float64))), None, None


def _forward_columns(f: np.ndarray, rule: QuadratureRule, degree: int, path: str) -> np.ndarray:
    """A^H W f on the route ``path`` picks, for (N, c) complex f; the kernel may overwrite W f."""
    route = _pick_path(path, rule.grid, degree, len(rule))
    wf = rule.weights[:, None] * f
    if route == "fast-scalar":
        return _forward_fast_values(wf, rule.grid, degree)
    if route == "nufft":
        return _forward_nufft_values(wf, rule.points, degree, rule)
    return _forward_direct_values(wf, rule.points, degree)


def _adjoint_columns(
    values: np.ndarray, degree: int, rule_or_points, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """(points, A g) for the (size, c) columns g, on the route ``path`` picks.

    A rule keeps the NUFFT's stencil factors; see :func:`_stencil_bands`.
    """
    points, grid, rule = _target(rule_or_points)
    route = _pick_path(path, grid, degree, points.shape[0])
    if route == "fast-scalar":
        return points, _adjoint_fast_values(values, degree, grid)
    if route == "nufft":
        return points, _adjoint_nufft_values(values, degree, points, rule)
    return points, _adjoint_direct_values(values, degree, points)


def _es_kernel(z: np.ndarray, width: int) -> np.ndarray:
    """Exponential of semicircle exp(beta * (sqrt(1 - z**2) - 1)), beta = 2.30 * width."""
    return np.exp(2.3 * width * (np.sqrt(np.maximum(0.0, 1.0 - z * z)) - 1.0))


@lru_cache(maxsize=4)
def _nufft_setup(lmax: int, width: int) -> tuple[TensorGrid, tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The auxiliary grid, where its kept frequencies sit, and their factors.

    The grid has n longitudes and the n/2 rings theta_j = pi * (2j + 1) / n,
    so that with its reflection theta -> 2pi - theta it is the equispaced
    n x n torus grid offset by half a step in theta.  n is the smallest even
    number of at least 2*lmax + 2 and 2*width for which 2n is a fast FFT
    length (``scipy.fft.next_fast_len``); any even n >= 2*lmax + 2 keeps the
    frequencies -lmax..lmax.  They sit at ``coarse`` in the n x n spectrum,
    and at ``kept`` along either axis of the spectrum of the 2n x 2n fine
    grid.  Of the fine grid only the n + 2*width rows that stencils reach
    are formed, the first at theta = -width * pi / n (see
    :func:`_stencil_factors`).  The separable factors
    ``theta_factors[k1] * phi_factors[k2]`` turn the unscaled DFT of the
    torus samples into fine-grid coefficients: they divide by n**2, remove
    the half-step offset and move the first row to -width * pi / n with
    exp(-i*pi*k1*(1 + width)/n), and divide by the kernel's Fourier
    transform p(k1) * p(k2), where

        p(k) = (w/2) * int_{-1}^{1} kernel(z) cos(k * w * pi * z / (2n)) dz

    is evaluated by Gauss-Legendre quadrature.
    """
    from scipy.fft import next_fast_len  # deferred, like scipy.sparse in _stencil_factors

    n = max(2 * lmax + 2, 2 * width)
    while next_fast_len(2 * n) != 2 * n:
        n += 2
    grid = TensorGrid(np.pi * (2 * np.arange(n // 2) + 1) / n, np.ones(n // 2), n)
    freqs = np.r_[0 : lmax + 1, -lmax:0]
    z, wz = np.polynomial.legendre.leggauss(4 * width)
    p = 0.5 * width * (np.cos(np.outer(freqs, z) * (width * np.pi / (2 * n))) @ (wz * _es_kernel(z, width)))
    theta_factors = (np.exp(-1j * np.pi * freqs * (1.0 + width) / n) / (n * n * p))[:, None, None]
    phi_factors = (1.0 / p)[:, None]
    kept = freqs % (2 * n)
    for factors in (theta_factors, phi_factors, kept):
        factors.flags.writeable = False
    return grid, np.ix_(freqs % n, freqs % n), kept, theta_factors, phi_factors


@dataclass(frozen=True)
class _StencilBatch:
    """One batch of a point set's NUFFT stencils, as separable factors; see :func:`_stencil_factors`."""

    idx: np.ndarray  # (b,) the batch's points, in colatitude order
    band: slice  # the fine-grid rows its stencils reach
    phi: csr_array  # (b, n_fine): each point's width kernel values along phi, at their columns
    phi_t: csc_array  # phi's transpose, a view on the same buffers
    theta: np.ndarray  # (b, band rows): each point's width kernel values along theta, zero off them


def _stencil_factors(points: np.ndarray, n_fine: int, width: int):
    """Sort the points by colatitude, batch them and place their stencils.

    The fine grid has spacing 2pi/n_fine in both angles, and its row 0 at
    theta = -width * 2pi / n_fine, so colatitude theta sits at row
    theta * n_fine / (2pi) + width, in [width, n_fine/2 + width], and every
    stencil lies in the first n_fine/2 + 2*width rows.  Each point's width
    nearest nodes per axis carry the 1-D kernel values; columns wrap in phi.
    A batch holds points whose first stencil rows lie within ``_BAND_ROWS``
    rows of each other, at most ``_STENCIL_ENTRIES // width**2`` of them, so
    it reads and spreads a band of at most _BAND_ROWS + width - 1 rows.
    Yields a :class:`_StencilBatch` per batch, built when it is asked for.
    """
    from scipy.sparse import csr_array  # deferred: adds about 24 ms to import favest

    if not points.shape[0]:
        return
    theta, phi = _sphere_angles(points)
    order = np.argsort(theta)
    scale = n_fine / (2.0 * np.pi)
    # Each point's first row, as the batches compute it; a band starts every _BAND_ROWS rows.
    first = np.ceil((theta[order] * scale + width) - 0.5 * width)
    edges = np.r_[np.searchsorted(first, np.arange(first[0], first[-1] + 1, _BAND_ROWS)), order.size]
    del first
    offsets = np.arange(width, dtype=np.int32)
    for lo, hi in zip(edges[:-1], edges[1:]):
        for batch in _batches(hi - lo, width * width, _STENCIL_ENTRIES):
            idx = order[lo:hi][batch]
            taps = []
            for x, shift in ((theta[idx], width), (phi[idx], 0)):
                s = (x * scale + shift)[:, None]
                # The width nodes within width/2 grid steps of the point, and their kernel values.
                start = np.ceil(s - 0.5 * width)
                z = (s - start - offsets) * (2.0 / width)
                taps.append(((start + offsets).astype(np.int32), _es_kernel(z, width)))
            (rows, theta_weights), (cols, phi_weights) = taps
            # In colatitude order the batch's first point has its lowest row, its last the highest.
            band = slice(int(rows[0, 0]), int(rows[-1, -1]) + 1)
            theta_taps = np.zeros((idx.size, band.stop - band.start))
            np.put_along_axis(theta_taps, rows - band.start, theta_weights, axis=1)
            indptr = np.arange(0, idx.size * width + 1, width, dtype=np.int32)
            columns = (cols % n_fine).reshape(-1)
            phi_taps = csr_array((phi_weights.reshape(-1), columns, indptr), shape=(idx.size, n_fine))
            yield _StencilBatch(idx, band, phi_taps, phi_taps.T, theta_taps)


def _stencil_bands(points: np.ndarray, n_fine: int, width: int, rule: QuadratureRule | None = None):
    """The points' stencil batches (:class:`_StencilBatch`), in colatitude order.

    ``rule``, if given, is the frozen rule the points are: its ``_stencils``
    keeps the batches for one (n_fine, width), replaced when another is
    asked for, so a repeated call builds nothing.  Raw points, which may
    change between calls, build each batch when it is asked for and keep none.
    """
    if rule is None:
        return _stencil_factors(points, n_fine, width)
    batches = rule._stencils.get((n_fine, width))
    if batches is None:
        batches = tuple(_stencil_factors(points, n_fine, width))
        rule._stencils.clear()
        rule._stencils[n_fine, width] = batches
    return batches


def _sphere_angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # theta from z as the direct sums take it: sin(theta) = sqrt(1 - z**2).
    return np.arccos(np.clip(points[:, 2], -1.0, 1.0)), np.arctan2(points[:, 1], points[:, 0])


def _adjoint_nufft_values(
    values: np.ndarray, lmax: int, points: np.ndarray, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Adjoint sum at arbitrary points through the auxiliary grid and a 2-D NUFFT.

    The partial sum, extended to theta in [0, 2pi) by f(2pi - theta, phi) =
    f(theta, phi + pi), is a 2-D trigonometric polynomial of degree lmax in
    each variable.  Its samples on the auxiliary grid (the fast path) give
    its Fourier coefficients by one FFT; a type-2 NUFFT with the
    exponential-of-semicircle kernel evaluates it at the points.  The fine
    grid is synthesized in theta on the kept columns only, then in phi on
    the rows that stencils reach only.  ``rule`` is the rule the points
    are, if any, which keeps their stencil factors (see :func:`_stencil_bands`).
    """
    from scipy import fft

    width = _NUFFT_WIDTH
    grid, coarse, kept, theta_factors, phi_factors = _nufft_setup(lmax, width)
    n, c = grid.n_phi, values.shape[1]
    height = n + 2 * width  # the fine-grid rows stencils reach
    half = _adjoint_fast_values(values, lmax, grid).reshape(n // 2, n, c)
    torus = np.concatenate([half, np.roll(half[::-1], n // 2, axis=1)])
    spectrum = fft.fft2(torus, axes=(0, 1), overwrite_x=True)
    # Phi-major from here on; ``coarse`` picks the same frequencies along both axes.
    kept_coeffs = spectrum.transpose(1, 0, 2)[coarse]
    del half, torus, spectrum  # free them before the fine grid is formed
    kept_coeffs *= phi_factors[:, :, None]
    kept_coeffs *= theta_factors.transpose(1, 0, 2)
    columns = np.zeros((kept.size, 2 * n, c), dtype=np.complex128)
    columns[:, kept] = kept_coeffs
    del kept_coeffs
    rows = np.zeros((2 * n, height, c), dtype=np.complex128)
    rows[kept] = fft.ifft(columns, axis=1, norm="forward", overwrite_x=True)[:, :height]
    del columns
    # The fine-grid values as real pairs, phi-major: one column of fine rings per longitude.
    nodes = fft.ifft(rows, axis=0, norm="forward", overwrite_x=True).view(np.float64)
    out = np.empty((points.shape[0], 2 * c), dtype=np.float64)
    for batch in _stencil_bands(points, 2 * n, width, rule):
        # Along phi: the band's rows at each point's longitude; then along theta.
        b = batch.idx.size
        near = (batch.phi @ nodes[:, batch.band].reshape(2 * n, -1)).reshape(b, -1, 2 * c)
        out[batch.idx] = np.einsum("kr,krc->kc", batch.theta, near)
    return out.view(np.complex128)


def _forward_nufft_values(
    f: np.ndarray, points: np.ndarray, lmax: int, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Unweighted sums of the (N, c) columns f at arbitrary points: the NUFFT adjoint's transpose.

    Spreads the samples onto the fine grid's reached rows (type-1 NUFFT),
    one colatitude band at a time, transforms them in phi, and the kept
    columns in theta, zero-padded to the fine grid's 2n rows.  It scales
    the kept frequencies with the conjugate factors, folds the reflected
    half of the torus back, and analyses on the auxiliary grid.
    """
    from scipy import fft

    width = _NUFFT_WIDTH
    grid, coarse, kept, theta_factors, phi_factors = _nufft_setup(lmax, width)
    n, c = grid.n_phi, f.shape[1]
    pairs = f.view(np.float64)
    nodes = np.zeros((2 * n, n + 2 * width, 2 * c), dtype=np.float64)
    for batch in _stencil_bands(points, 2 * n, width, rule):
        # Each sample along theta over the band's rows, then along phi.
        b = batch.idx.size
        near = np.einsum("kr,kc->krc", batch.theta, pairs[batch.idx]).reshape(b, -1)
        nodes[:, batch.band] += (batch.phi_t @ near).reshape(2 * n, -1, 2 * c)
    columns = fft.fft(nodes.view(np.complex128), axis=0, overwrite_x=True)[kept]
    del nodes  # free the fine grid before the theta transform
    coeffs = fft.fft(columns, n=2 * n, axis=1, overwrite_x=True)[:, kept]
    del columns
    coeffs *= theta_factors.transpose(1, 0, 2).conj()
    coeffs *= phi_factors[:, :, None]
    spectrum = np.zeros((n, n, c), dtype=np.complex128)
    spectrum.transpose(1, 0, 2)[coarse] = coeffs
    torus = fft.ifft2(spectrum, axes=(0, 1), norm="forward", overwrite_x=True)
    half = torus[: n // 2] + np.roll(torus[n // 2 :][::-1], n // 2, axis=1)
    return _forward_fast_values(half.reshape(-1, c), grid, lmax)
