"""Scalar spherical harmonic transforms: direct sums, the fast grid path and a NUFFT.

The forward transform computes quadrature approximations of the Fourier
coefficients,

    F(l, m) = sum_k w_k f_k conj(Y(l, m, x_k)),

and the adjoint evaluates the partial sum S(g; x) = sum_{l,m} g_{l,m} Y(l,m,x).
With A the synthesis matrix, A[k, (l, m)] = Y(l, m, x_k), and W the diagonal
of the weights, the adjoint is A g and the forward is A^H W f.  Each route
is a pair of kernels, A and the unweighted A^H, on validated (N, c) sample
columns, float64 or complex128, or ((lmax + 1)**2, c) complex coefficient
columns; :func:`_forward_columns` forms W f once, as a temporary the kernel
may overwrite.  Each forward kernel computes only the orders m >= 0 of
real samples, as SHTns does for real data (Schaeffer, G-cubed 14, 2013),
and writes F(l, -m) = (-1)**m conj F(l, m) from them.
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
the batch's columns times cos(m*phi) and sin(m*phi), one real column per
real sample and two per complex one; since Y(l, -m) = (-1)**m conj(Y(l, m)),
that one product serves orders m and -m.
That costs O(M * lmax**2) arithmetic in O(lmax) Python steps per batch.

The fast path's plan for (grid, lmax) pairs mirrored rings and merges
orders m and -m, after Schaeffer ("Efficient spherical harmonic
transforms aimed at pseudospectral numerical simulations", G-cubed 14,
2013), through the identity
Pbar(l, m, -t) = (-1)**(l - m) Pbar(l, m, t).  Rings k and n_theta - 1 - k
pair when cos(theta_k) + cos(theta_{n_theta - 1 - k}) is at most
``_MIRROR_TOL`` = 8 eps in magnitude; each pair is one plan row, at the
northern ring's cosine t, and its southern ring is evaluated at -t.  Every
unpaired ring is a row of its own: the equator of an odd n_theta, or each
ring of an asymmetric grid.  The orders 0..lmax fall into groups of
consecutive orders lo..hi - 1, each grown while its padding, the
(hi - lo) * (hi - lo - 1) / 2 degrees by which its orders fall short of
order lo's lmax - lo + 1, stays at most 1/32 of its entries plus 8.  For
each group the plan stores two stacked (orders, rows, widest) blocks of
the rows' Legendre values, l - m even and l - m odd, each order's
zero-padded to order lo's count, filled straight from the kernel one
batch of rows at a time; that is about n_rows * (lmax + 1)**2 / 2
doubles, half the rings' worth on a symmetric grid, plus the padding, 3.6
to 6.5 % of it at lmax = 257 to 64.  After the ring FFT the bins m and -m
of each row's ring and of its mirror are gathered order-major, into their
sum S and difference D, so each group of orders is two stacked real
matmuls (the even blocks against S, the odd blocks against D) serving m
and -m at once, and one precomputed gather puts the result in flat order.
Real samples take a real FFT of each ring and gather bin m alone, so
every matmul is half as wide; on a
folded grid order m reads bin m mod n_phi, conjugated past n_phi / 2.
That order contraction, from the rings' DFT bins to the flat table
(:func:`_contract_orders`), also ends the NUFFT's forward; its transpose,
:func:`_expand_orders`, starts both adjoints: a row's ring receives the
even plus the odd degrees, its mirror the even minus the odd.  A
transform needs O(N) working memory beyond the plan.

The NUFFT route serves arbitrary points in O(lmax**3 + M) arithmetic, after
Keiner, Kunis & Potts ("Using NFFT 3", ACM TOMS 36(4), 2009).  Extended to
colatitudes in [0, 2pi) by f(2pi - theta, phi) = f(theta, phi + pi), the
partial sum is a 2-D trigonometric polynomial of degree lmax in theta and
phi.  Both directions are one chain of stages, the forward running the
adjoint's transposed in reverse order, and neither forms samples on the
auxiliary grid of n longitudes and n/2 mirrored rings.  The adjoint's order
expansion on that grid (its plan holds about (lmax + 2)**3 / 4 doubles)
gives the rings' bins -lmax..lmax; followed by the same
rings reversed and turned by pi (bin m times (-1)**m), they are the n x n
torus's rows, whose DFT in theta gives the polynomial's Fourier
coefficients.  Divided by the Fourier transform of the
exponential-of-semicircle kernel (Barnett, Magland & af Klinteberg, SIAM
J. Sci. Comput. 41(5), 2019), these are synthesized on a twice oversampled
2n x 2n grid and interpolated with the kernel's 13 x 13 stencil, a type-2
NUFFT.  As in FINUFFT, n is the smallest even number of at least
max(2*lmax + 2, 26) for which 2n is a fast FFT length, and the fine grid is
pruned: of its 2n rows only the n + 26 that stencils reach are formed, from
theta = -13 pi / n on, so no stencil wraps in theta, and of its
frequencies only the (2*lmax + 1)**2 kept ones are synthesized, first in
theta on the kept columns, then in phi on the formed rows.  The forward
spreads (type 1), folds the reflected half of the torus back onto the
rings and ends with the order contraction.  Real samples spread one real
column each, take a real FFT in phi and keep the frequencies m >= 0 only.
Both directions agree with the direct sums to about 1e-12 relative.

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
precomputation, a ``QuadratureRule`` keeps each batch's point indices,
band, CSR matrix with its transpose (a view on the same buffers) and
theta block, 272 to 312 bytes per point: a repeated call on a rule
evaluates no kernel, builds no sparse matrix and expands no weight
block.  Raw point arrays, which may change between calls, build each
batch's factors when it is asked for and keep none.

Every cache keeps its last entry, as FINUFFT's plan and NFFT3's
``nfsft_precompute`` keep the one precomputation in hand.  A grid keeps
its plan of the last lmax, and a rule its stencil factors of the last fine
grid and width, in its one ``_slot``, which :func:`_keep_last` alone reads
and writes; both are frozen, so an entry cannot go stale, and it goes with
its object.  Each ``lru_cache`` in the package, such as K's or the
NUFFT's auxiliary grid's, holds the last degree's entry.  The CLI and
the certifier transform at one degree at a time, so no warm call misses;
a caller that alternates degrees rebuilds at each change.

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


def _real_columns(f: np.ndarray) -> np.ndarray:
    """The (N, c) columns f as real ones: float64 f itself, complex128 f as (re, im) pairs."""
    return f.view(np.float64) if np.iscomplexobj(f) else f


def _forward_direct_values(f: np.ndarray, points: np.ndarray, lmax: int) -> np.ndarray:
    """Unweighted sums sum_k f_k conj(Y(l, m, x_k)) of the (N, c) columns f, in point chunks."""
    phi = np.arctan2(points[:, 1], points[:, 0])
    c = f.shape[1]
    # Real columns, points last (complex ones as pairs of real ones), so each
    # order is one real matmul of its Legendre block against the rows
    # [cos(m phi) f, sin(m phi) f], built per order to stay in cache.
    f_rows = np.ascontiguousarray(_real_columns(f).T)
    k = f_rows.shape[0]
    acc = np.zeros((lmax + 1, lmax + 1, 2 * k))
    for chunk in _point_chunks(points.shape[0], lmax):
        q = _legendre_by_order(lmax, points[chunk, 2])
        phase = _order_phases(lmax, phi[chunk])
        part = f_rows[:, chunk]
        cols = np.empty((2, k, q.shape[2]), dtype=np.float64)
        for m in range(lmax + 1):
            np.multiply(phase[m].real, part, out=cols[0])
            np.multiply(phase[m].imag, part, out=cols[1])
            acc[m, m:] += q[m, m:] @ cols.reshape(2 * k, -1).T
        del q  # free the table before the next chunk allocates its own
    if np.iscomplexobj(f):
        acc = acc.view(np.complex128)
    # F(l, m) = cos part - i sin part; (-1)**m F(l, -m) = cos part + i sin part,
    # which for real f is (-1)**m conj F(l, m).
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
    folds: int  # periods of n_phi bins that hold the bins of orders -lmax..lmax
    even: list[np.ndarray]  # per order m: (rows, .) Pbar(l, m) for l - m even, a view into its group's block
    odd: list[np.ndarray]  # per order m: (rows, .) Pbar(l, m) for l - m odd, likewise
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]  # per group: (orders, rows, widest) even and odd blocks
    groups: tuple[tuple[slice, slice, slice], ...]  # per group: its orders, even and odd accumulator rows
    slots: np.ndarray  # flat (l, m) -> accumulator slot 2 * row + (m < 0)
    sources: np.ndarray  # accumulator slot -> flat (l, m) or (l, -m); 0 on padding
    signs: np.ndarray  # per flat (l, m): (-1)**m for m < 0, else 1
    source_signs: np.ndarray  # per accumulator slot: the sign of its source, 0 on padding


def _keep_last(owner: TensorGrid | QuadratureRule, key, build):
    """The entry for ``key`` in the owner's one slot, or ``build()``'s, which then replaces it."""
    if owner._slot is not None and owner._slot[0] == key:
        return owner._slot[1]
    object.__setattr__(owner, "_slot", None)  # free the old entry before the new one is built
    entry = build()
    object.__setattr__(owner, "_slot", (key, entry))
    return entry


def _plan(grid: TensorGrid, lmax: int) -> _GridPlan:
    """The grid's paired Legendre blocks for lmax, kept in its slot (see :func:`_keep_last`).

    Rings k and n_theta - 1 - k pair when their cosines cancel to within
    ``_MIRROR_TOL``.  Each pair is one row, at the cosine t of its northern
    ring, and every unpaired ring is a row of its own.  The rows' Legendre
    values are filled straight from the kernel, one batch of rows at a
    time, into two stacked blocks per group of orders (see
    :func:`_accumulator_layout`): the degrees with l - m even and those with
    l - m odd, each order's zero-padded to the group's widest.  The
    accumulator's layout depends on lmax alone, so plans share it.
    """
    return _keep_last(grid, lmax, lambda: _build_plan(grid, lmax))


def _build_plan(grid: TensorGrid, lmax: int) -> _GridPlan:
    """Pair the grid's rings and fill the groups' stacked Legendre blocks, views on one zeroed buffer."""
    t = np.cos(grid.ring_thetas)
    n = grid.n_theta
    k = np.arange(n // 2)
    north = k[np.abs(t[k] + t[n - 1 - k]) <= _MIRROR_TOL]
    south = n - 1 - north
    rings = np.r_[north, np.setdiff1d(np.arange(n), np.r_[north, south])]

    # Every block is a view on one buffer: a plan is one allocation, not two heap chunks per group.
    layout = _accumulator_layout(lmax)
    groups = layout[0]
    widths = [((lmax - o.start) // 2 + 1, (lmax - o.start + 1) // 2) for o, _, _ in groups]
    shapes = [(o.stop - o.start, rings.size, w) for (o, _, _), pair in zip(groups, widths) for w in pair]
    ends = np.cumsum([0] + [np.prod(shape) for shape in shapes])
    buffer = np.zeros(ends[-1])  # a shorter order's padding columns stay zero
    stacks = [buffer[a:b].reshape(shape) for a, b, shape in zip(ends[:-1], ends[1:], shapes)]
    blocks = tuple(zip(stacks[0::2], stacks[1::2]))
    even, odd = [], []
    for (orders, _, _), (evens, odds) in zip(groups, blocks):
        for i, m in enumerate(range(orders.start, orders.stop)):
            even.append(evens[i, :, : (lmax - m) // 2 + 1])
            odd.append(odds[i, :, : (lmax - m + 1) // 2])
    per_row = (lmax + 1) ** 2
    limit = min(_CHUNK_ENTRIES, max(_PLAN_ENTRIES, -(-rings.size // 8) * per_row))
    for batch in _batches(rings.size, per_row, limit):
        q = _legendre_by_order(lmax, t[rings[batch]])
        for m in range(lmax + 1):
            even[m][batch] = q[m, m::2].T
            odd[m][batch] = q[m, m + 1 :: 2].T
        del q  # free the table before the next batch allocates its own
    for block in even + odd + stacks:
        block.flags.writeable = False
    folds = -(-(2 * lmax + 1) // grid.n_phi)
    return _GridPlan(rings, south, folds, even, odd, blocks, *layout)


@lru_cache(maxsize=1, typed=True)
def _accumulator_layout(
    lmax: int,
) -> tuple[tuple[tuple[slice, slice, slice], ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A plan's (groups, slots, sources, signs, source_signs): the accumulator's layout for lmax, shared by plans.

    Consecutive orders lo..hi - 1 form a group while its padding, the
    (hi - lo) * (hi - lo - 1) / 2 columns by which each order's degrees fall
    short of order lo's, is at most 1/32 of the group's entries plus 8
    columns, the slack that lets the narrow blocks of high orders group.
    Per group the accumulator holds, order by order, the even degrees
    padded to order lo's count of them, then the odd ones likewise; each
    row has the slots of m and of -m.  A padding slot reads flat index 0
    with sign 0.
    """
    per_order = lmax + 1 - np.arange(lmax + 1)  # the degrees m..lmax of order m
    groups, ls, ms, lo, start = [], [], [], 0, 0
    while lo <= lmax:
        hi = lo + 1
        while hi <= lmax and 16 * (hi - lo + 1) * (hi - lo) <= per_order[lo : hi + 1].sum() + 256:
            hi += 1
        order = np.arange(lo, hi)[:, None]
        rows = []
        for first in (order, order + 1):  # the even degrees, then the odd ones
            degrees = first + 2 * np.arange((lmax - first[0, 0]) // 2 + 1)
            ls.append(degrees.reshape(-1))
            ms.append(np.broadcast_to(order, degrees.shape).reshape(-1))
            rows.append(slice(start, start + degrees.size))
            start += degrees.size
        groups.append((slice(lo, hi), *rows))
        lo = hi
    ls, ms = np.concatenate(ls), np.concatenate(ms)
    held = np.repeat(ls <= lmax, 2)  # per slot: not padding
    sources = np.stack([ls * ls + ls + ms, ls * ls + ls - ms], axis=1).reshape(-1)
    sources[~held] = 0
    slots = np.empty(flat_size(lmax), dtype=np.intp)
    at = np.flatnonzero(held)
    slots[sources[at[1::2]]] = at[1::2]
    slots[sources[at[0::2]]] = at[0::2]  # m = 0 reads the +m slot
    orders = np.concatenate([np.arange(-l, l + 1) for l in range(lmax + 1)])
    signs = np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0)
    source_signs = np.where(held, signs[sources], 0).astype(np.int8)  # a byte per slot
    for index in (slots, sources, signs, source_signs):
        index.flags.writeable = False
    return tuple(groups), slots, sources, signs, source_signs


def _gather_orders(spectrum: np.ndarray, rings: np.ndarray, lmax: int, h: int) -> np.ndarray:
    """Order-major (lmax + 1, rings, h, c): the rings' DFT bins m and, for h = 2, -m, modulo the width."""
    width, c = spectrum.shape[1:]
    part = np.empty((lmax + 1, rings.size, h, c), dtype=np.complex128)
    part[:, :, 0] = spectrum[rings, : lmax + 1].transpose(1, 0, 2)
    if h == 2:
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


def _contract_orders(spectrum: np.ndarray, plan: _GridPlan, lmax: int, real: bool) -> np.ndarray:
    """Flat unweighted sums from the ring-major DFT bins (rings, width, c) of a grid's rings.

    Complex samples give bin m at column m and bin -m at width - m, as a
    DFT of at least 2*lmax + 1 bins does; real samples give bins 0..lmax
    only, and F(l, -m) = (-1)**m conj F(l, m) gives the rest.
    """
    h = 1 if real else 2
    total = _gather_orders(spectrum, plan.rings, lmax, h)
    mirror = _gather_orders(spectrum, plan.mirrors, lmax, h)
    # Pbar(l, m, -t) = (-1)**(l - m) Pbar(l, m, t): the even degrees read
    # ring + mirror, the odd ones ring - mirror.
    pairs, c = mirror.shape[1], mirror.shape[3]
    diff = total.copy()
    diff[:, :pairs] -= mirror
    total[:, :pairs] += mirror
    del mirror
    # Complex columns are viewed as pairs of real ones, so each group of
    # orders is two stacked real matmuls, each serving m and, for h = 2, -m.
    total = total.reshape(lmax + 1, -1, h * c).view(np.float64)
    diff = diff.reshape(lmax + 1, -1, h * c).view(np.float64)
    k = 2 * h * c
    acc = np.empty((plan.sources.size // 2, k))
    for (orders, even_rows, odd_rows), (even, odd) in zip(plan.groups, plan.blocks):
        g = even.shape[0]
        np.matmul(even.transpose(0, 2, 1), total[orders], out=acc[even_rows].reshape(g, -1, k))
        np.matmul(odd.transpose(0, 2, 1), diff[orders], out=acc[odd_rows].reshape(g, -1, k))
    acc = acc.view(np.complex128).reshape(-1, h, c)
    if real:  # the -m slot of each row holds conj F(l, m)
        acc = np.concatenate([acc, acc.conj()], axis=1)
    out = np.take(acc.reshape(-1, c), plan.slots, axis=0)
    out *= plan.signs[:, None]
    return out


def _forward_fast_values(f: np.ndarray, grid: TensorGrid, lmax: int) -> np.ndarray:
    """Unweighted sums of the grid's (size, c) columns f; the ring FFT overwrites complex f."""
    from scipy import fft  # deferred, like scipy.sparse in _stencil_factors

    plan = _plan(grid, lmax)
    rings = f.reshape(grid.n_theta, grid.n_phi, -1)
    if not np.iscomplexobj(f):
        # Bins 0..n_phi // 2 of each real ring; order m reads bin b = m mod n_phi,
        # which past n_phi / 2 is the conjugate of bin n_phi - b.
        spectrum = fft.rfft(rings, axis=1)
        if spectrum.shape[1] <= lmax:  # a folded grid: orders past n_phi / 2 share bins
            bins = np.arange(lmax + 1) % grid.n_phi
            flip = bins > grid.n_phi // 2
            spectrum = np.take(spectrum, np.where(flip, grid.n_phi - bins, bins), axis=1)
            spectrum[:, flip] = spectrum[:, flip].conj()
        return _contract_orders(spectrum, plan, lmax, real=True)
    # Ring DFT, sum_j f_j exp(-2pi i j m / n_phi), in f's memory.
    spectrum = fft.fft(rings, axis=1, overwrite_x=True)
    if plan.folds > 1:  # orders m and m + n_phi share a bin: repeat the spectrum past -lmax
        spectrum = np.tile(spectrum, (1, plan.folds, 1))
    return _contract_orders(spectrum, plan, lmax, real=False)


def _expand_orders(values: np.ndarray, plan: _GridPlan, lmax: int, n_rings: int, width: int) -> np.ndarray:
    """Ring-major DFT bins (n_rings, width, c) of the flat columns: the transpose of :func:`_contract_orders`.

    Bin m lands at column m and bin -m at width - m, for width >= 2*lmax + 1;
    a row's ring gets the even plus the odd degrees, its mirror the even
    minus the odd.  Bins no order reaches stay zero.
    """
    c = values.shape[1]
    k = 4 * c
    coeffs = np.take(values, plan.sources, axis=0)
    coeffs *= plan.source_signs[:, None]  # padding slots read zero
    coeffs = coeffs.reshape(-1, 2 * c).view(np.float64)
    rows, pairs = plan.rings.size, plan.mirrors.size
    total = np.empty((lmax + 1, rows, k))
    mirror = np.empty((lmax + 1, pairs, k))
    odd_part = np.empty((max(even.shape[0] for even, _ in plan.blocks), rows, k))
    for (orders, even_rows, odd_rows), (even, odd) in zip(plan.groups, plan.blocks):
        g = even.shape[0]
        part = odd_part[:g]
        np.matmul(even, coeffs[even_rows].reshape(g, -1, k), out=total[orders])
        np.matmul(odd, coeffs[odd_rows].reshape(g, -1, k), out=part)
        np.subtract(total[orders, :pairs], part[:, :pairs], out=mirror[orders])
        total[orders] += part
    spectrum = np.zeros((n_rings, width, c), dtype=np.complex128)
    _scatter_orders(spectrum, plan.rings, total, lmax)
    _scatter_orders(spectrum, plan.mirrors, mirror, lmax)
    return spectrum


def _adjoint_fast_values(values: np.ndarray, lmax: int, grid: TensorGrid) -> np.ndarray:
    from scipy import fft

    plan = _plan(grid, lmax)
    spectrum = _expand_orders(values, plan, lmax, grid.n_theta, plan.folds * grid.n_phi)
    if plan.folds > 1:  # add the orders that share a bin
        spectrum = spectrum.reshape(grid.n_theta, plan.folds, grid.n_phi, -1).sum(axis=1)
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
    docstring says.  Real samples (any non-complex dtype, as float64) stay
    real, so the route computes the orders m >= 0 only and writes
    F(l, -m) = (-1)**m conj F(l, m) from them; complex samples take the
    full transform.  Raises ValueError on non-finite samples.
    """
    lmax = check_int(lmax, "lmax")
    vals = np.asarray(f)
    vals = vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64, copy=False)
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
    """A^H W f on the route ``path`` picks, for (N, c) float64 or complex128 f; the kernel may overwrite W f.

    Real f stays real, so its kernel computes the orders m >= 0 only.
    """
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


@lru_cache(maxsize=1)
def _nufft_setup(lmax: int, width: int) -> tuple[TensorGrid, np.ndarray, np.ndarray, np.ndarray]:
    """The auxiliary grid, where its kept frequencies sit, and their factors.

    The grid has n longitudes and the n/2 rings theta_j = pi * (2j + 1) / n,
    so that with its reflection theta -> 2pi - theta it is the equispaced
    n x n torus grid offset by half a step in theta.  n is the smallest even
    number of at least 2*lmax + 2 and 2*width for which 2n is a fast FFT
    length (``scipy.fft.next_fast_len``); any even n >= 2*lmax + 2 keeps the
    frequencies -lmax..lmax.  They sit at ``kept`` along either axis of the
    spectrum of the 2n x 2n fine grid, and at ``kept % n`` of the n x n
    torus's.  Of the fine grid only the n + 2*width rows that stencils
    reach are formed, the first at theta = -width * pi / n (see
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
    return grid, kept, theta_factors, phi_factors


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

    ``rule``, if given, is the frozen rule the points are, whose slot keeps
    the batches of one (n_fine, width) (see :func:`_keep_last`).  Raw points,
    which may change between calls, build each batch when it is asked for
    and keep none.
    """
    if rule is None:
        return _stencil_factors(points, n_fine, width)
    return _keep_last(rule, (n_fine, width), lambda: tuple(_stencil_factors(points, n_fine, width)))


def _sphere_angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # theta from z as the direct sums take it: sin(theta) = sqrt(1 - z**2).
    return np.arccos(np.clip(points[:, 2], -1.0, 1.0)), np.arctan2(points[:, 1], points[:, 0])


def _adjoint_nufft_values(
    values: np.ndarray, lmax: int, points: np.ndarray, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Adjoint sum at arbitrary points: the transpose of :func:`_forward_nufft_values`, stage for stage.

    The partial sum, extended to theta in [0, 2pi) by f(2pi - theta, phi) =
    f(theta, phi + pi), is a 2-D trigonometric polynomial of degree lmax in
    each variable.  The auxiliary rings' bins (:func:`_expand_orders`) and
    the same rings reflected are the torus rows, whose DFT in theta gives
    its Fourier coefficients; a type-2 NUFFT with the exponential-of-semicircle
    kernel evaluates it at the points, forming the fine grid in theta on the
    kept columns, then in phi on the reached rows.  ``rule`` is the rule the
    points are, if any, which keeps their stencil factors (see :func:`_stencil_bands`).
    """
    from scipy import fft

    width = _NUFFT_WIDTH
    grid, kept, theta_factors, phi_factors = _nufft_setup(lmax, width)
    n, c = grid.n_phi, values.shape[1]
    height = n + 2 * width  # the fine-grid rows stencils reach
    # Torus row n - 1 - j is auxiliary ring j turned by pi, which multiplies its bin m by (-1)**m.
    signs = np.where(kept % 2, -1.0, 1.0)[:, None]
    torus = _expand_orders(values, _plan(grid, lmax), lmax, n // 2, kept.size)
    torus = np.concatenate([torus, signs * torus[::-1]])
    # The DFT in theta of the torus rows' ring spectra, kept frequencies only; phi-major from here on.
    coeffs = fft.fft(torus, axis=0, overwrite_x=True)[kept % n].transpose(1, 0, 2)
    del torus  # free it before the fine grid is formed
    coeffs *= theta_factors.transpose(1, 0, 2)
    coeffs *= n * phi_factors[:, :, None]  # n: a ring DFT sums n longitudes
    columns = np.zeros((kept.size, 2 * n, c), dtype=np.complex128)
    columns[:, kept] = coeffs
    del coeffs
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
    columns in theta, zero-padded to the fine grid's 2n rows; real samples
    keep the phi frequencies m >= 0 only.  It scales the kept frequencies
    with the conjugate factors, transforms them back in theta to the ring
    spectra of the torus rows, folds the reflected half of the torus onto
    the auxiliary grid's rings, and hands those to the grid's order
    contraction.
    """
    from scipy import fft

    width = _NUFFT_WIDTH
    grid, kept, theta_factors, phi_factors = _nufft_setup(lmax, width)
    n, c = grid.n_phi, f.shape[1]
    real = not np.iscomplexobj(f)
    samples = _real_columns(f)
    k = samples.shape[1]
    nodes = np.zeros((2 * n, n + 2 * width, k), dtype=np.float64)
    for batch in _stencil_bands(points, 2 * n, width, rule):
        # Each sample along theta over the band's rows, then along phi.
        b = batch.idx.size
        near = np.einsum("kr,kc->krc", batch.theta, samples[batch.idx]).reshape(b, -1)
        nodes[:, batch.band] += (batch.phi_t @ near).reshape(2 * n, -1, k)
    if real:
        orders = kept[: lmax + 1]  # phi frequencies 0..lmax
        columns = fft.rfft(nodes, axis=0)[: lmax + 1]
    else:
        orders = kept
        columns = fft.fft(nodes.view(np.complex128), axis=0, overwrite_x=True)[kept]
    del nodes  # free the fine grid before the theta transform
    coeffs = fft.fft(columns, n=2 * n, axis=1, overwrite_x=True)[:, kept]
    del columns
    coeffs *= theta_factors.transpose(1, 0, 2).conj()
    coeffs *= n * phi_factors[: orders.size, :, None]  # n: a ring DFT sums n longitudes
    # Theta-major (n, phi frequencies, c); the inverse DFT in theta gives each torus row's ring spectrum.
    spectrum = np.zeros((n, orders.size, c), dtype=np.complex128)
    spectrum[kept % n] = coeffs.transpose(1, 0, 2)
    del coeffs
    torus = fft.ifft(spectrum, axis=0, norm="forward", overwrite_x=True)
    # Auxiliary ring j is torus row j plus row n - 1 - j turned by pi, which
    # multiplies its bin m by (-1)**m.
    signs = np.where(orders % 2, -1.0, 1.0)[:, None]
    rings = torus[: n // 2] + signs * torus[: n // 2 - 1 : -1]
    if real:  # bin 0 of a real ring is real: drop the theta transforms' rounding
        rings[:, 0].imag = 0.0
    return _contract_orders(rings, _plan(grid, lmax), lmax, real)
