"""Error metrics, stability envelopes, and timing helpers.

The stability check certifies the forward assembly numerically: for each
harmonic index the coupling formula bounds every Cartesian component of
the conjugated harmonic by an envelope summing the absolute coupling
coefficients against |Y| at the shifted indices.  The reported ratios

    r_div(L, N)  = max |ydiv(l, m, x_k)|_2 / Vdiv(l, m, x_k)
    r_curl(L, N) = max |ycurl(l, m, x_k)|_2 / Vcurl(l, m, x_k)

stay below sqrt(3) for any point set, and dividing by N they shrink as
point sets grow - the forward sums cannot amplify perturbations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import ScalarCoefficients, TangentFieldSamples, VectorCoefficients, check_int, flat_size
from .coupling import cg_explicit, coupling_weight_c, coupling_weight_d
from .legendre import ylm_table
from .quadrature import gen_gl_tensor
from .scalar import _target
from .transforms import adjoint_favest, forward_favest
from .vsh import _column, _families_from_table, _table_batches

_SQRT2 = np.sqrt(2.0)
_DENOM_FLOOR = 1e-300


def error_metrics(
    reference: TangentFieldSamples, reconstruction: TangentFieldSamples, weights: np.ndarray
) -> tuple[float, float]:
    """(relative weighted L2 error, max pointwise Euclidean error).

    The L2 norm weighs the squared 3-vector magnitudes by the quadrature
    weights. The relative error is undefined for a zero-norm reference.
    """
    if reference.values.shape != reconstruction.values.shape:
        raise ValueError("sample sets have different shapes")
    w = np.asarray(weights, dtype=np.float64)
    diff = reference.values - reconstruction.values
    sq = np.sum(np.abs(diff) ** 2, axis=1)
    ref_sq = np.sum(np.abs(reference.values) ** 2, axis=1)
    num = float(np.sqrt(np.sum(w * sq)))
    den = float(np.sqrt(np.sum(w * ref_sq)))
    if den == 0.0:
        raise ValueError("reference field has zero norm")
    max_abs = float(np.max(np.sqrt(sq))) if sq.size else 0.0
    return num / den, max_abs


@dataclass
class StabilityReport:
    """Worst-case harmonic-to-envelope ratios over a point set."""

    lmax: int
    n_points: int
    ratio_div: float
    ratio_curl: float

    @property
    def ratio_div_per_point(self) -> float:
        return self.ratio_div / self.n_points

    @property
    def ratio_curl_per_point(self) -> float:
        return self.ratio_curl / self.n_points


# The (dl, m2) kinds of the envelope terms, summed in this order.
_DIV_TERMS = ((-1, 1), (1, 1), (-1, -1), (1, -1), (-1, 0), (1, 0))
_CURL_TERMS = ((0, 1), (0, -1), (0, 0))


def _iter_envelopes(lmax: int, points: np.ndarray):
    """Yield (div, curl, env_div, env_curl) per point batch and degree l, orders |m| >= 1.

    The harmonics are (n, 2l, 3) and the envelopes (n, 2l) for a batch of n
    points.  Term (dl, m2) weighs |Y(l + dl, m - m2)|, the source the
    assembly reads, by the absolute coupling coefficient; both are zero off
    the table.
    """
    top = lmax + 1
    for batch in _table_batches(points.shape[0], lmax):
        table = ylm_table(top, points[batch])
        abs_table = np.abs(table)
        for l in range(1, lmax + 1):
            m = np.r_[-l:0, 1 : l + 1]
            weights = {-1: coupling_weight_c(l), 0: 1.0, 1: coupling_weight_d(l)}

            def envelope(kinds) -> np.ndarray:
                terms = (
                    np.abs(weights[dl] * cg_explicit(dl, m2, l, m))
                    * _column(abs_table, top, l + dl, m - m2)
                    for dl, m2 in kinds
                )
                return _SQRT2 * sum(terms)

            div, curl = _families_from_table(l, m, table, top)
            yield div, curl, envelope(_DIV_TERMS), envelope(_CURL_TERMS)


def stability_ratios(lmax: int, rule_or_points) -> StabilityReport:
    """Largest ratio of harmonic magnitude to its coupling envelope.

    Accepts a QuadratureRule or a raw point array; weights never enter.
    Indices scan 1 <= l <= lmax, 1 <= |m| <= l; triples whose envelope
    underflows are skipped.  Raises ValueError unless lmax is an integer >= 1.
    """
    lmax = check_int(lmax, "lmax", 1)
    points = _target(rule_or_points)[0]
    worst_div = 0.0
    worst_curl = 0.0
    for div, curl, env_div, env_curl in _iter_envelopes(lmax, points):
        div_mag = np.sqrt(np.sum(np.abs(div) ** 2, axis=-1))
        curl_mag = np.sqrt(np.sum(np.abs(curl) ** 2, axis=-1))
        ok = env_div > _DENOM_FLOOR
        if np.any(ok):
            worst_div = max(worst_div, float(np.max(div_mag[ok] / env_div[ok])))
        ok = env_curl > _DENOM_FLOOR
        if np.any(ok):
            worst_curl = max(worst_curl, float(np.max(curl_mag[ok] / env_curl[ok])))
    return StabilityReport(
        lmax=lmax, n_points=points.shape[0], ratio_div=worst_div, ratio_curl=worst_curl
    )


def component_envelope_check(lmax: int, rule_or_points) -> float:
    """Largest component magnitude as a fraction of its envelope (<= 1).

    Raises ValueError unless lmax is an integer >= 1.
    """
    lmax = check_int(lmax, "lmax", 1)
    points = _target(rule_or_points)[0]
    worst = 0.0
    for div, curl, env_div, env_curl in _iter_envelopes(lmax, points):
        for fam, env in ((div, env_div), (curl, env_curl)):
            ok = env > _DENOM_FLOOR
            if np.any(ok):
                comp_max = np.max(np.abs(fam), axis=-1)
                worst = max(worst, float(np.max(comp_max[ok] / env[ok])))
    return worst


@dataclass
class BenchRecord:
    """Median transform timings at one degree on a tensor-grid rule."""

    lmax: int
    n_points: int
    n_coeffs: int
    forward_seconds: float
    adjoint_seconds: float
    forward_ratio: float
    adjoint_ratio: float


def bench(
    degrees: list[int],
    repetitions: int = 5,
    path: str = "fast-scalar",
    seed: int = 0,
) -> list[BenchRecord]:
    """Time forward and adjoint transforms over a list of degrees.

    Each degree uses its default Gauss-Legendre rule of exactness 2(L+1)
    and seeded random data; per-degree times are medians over
    ``repetitions`` runs, and each record carries the ratio to the
    previous degree's time (nan for the first).  Raises ValueError unless
    each degree and ``repetitions`` is an integer >= 1.
    """
    degrees = [check_int(lmax, "degrees", 1) for lmax in degrees]
    repetitions = check_int(repetitions, "repetitions", 1)
    rng = np.random.default_rng(seed)
    records: list[BenchRecord] = []
    for lmax in degrees:
        grid, rule = gen_gl_tensor(2 * (lmax + 1))
        values = rng.standard_normal((len(rule), 3)) + 1j * rng.standard_normal((len(rule), 3))
        samples = TangentFieldSamples(rule.points, values)
        size = flat_size(lmax)
        raw = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
        raw[:, 0] = 0.0
        coeffs = VectorCoefficients(
            ScalarCoefficients(lmax, raw[0]), ScalarCoefficients(lmax, raw[1])
        )

        fwd_times = []
        adj_times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            forward_favest(samples, rule, lmax, path=path)
            fwd_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            adjoint_favest(coeffs, rule, path=path)
            adj_times.append(time.perf_counter() - t0)
        fwd = float(np.median(fwd_times))
        adj = float(np.median(adj_times))
        prev = records[-1] if records else None
        records.append(
            BenchRecord(
                lmax=lmax,
                n_points=len(rule),
                n_coeffs=lmax * lmax + lmax,
                forward_seconds=fwd,
                adjoint_seconds=adj,
                forward_ratio=(fwd / prev.forward_seconds) if prev else float("nan"),
                adjoint_ratio=(adj / prev.adjoint_seconds) if prev else float("nan"),
            )
        )
    return records
