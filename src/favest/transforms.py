"""Fast forward and adjoint vector spherical harmonic transforms.

Both directions route all vector work through three scalar transforms of
degree L+1 plus one sparse O(L^2) coupling operator K
(:func:`coupling.coupling_matrix`), which holds the Clebsch-Gordan weights:

* forward: scalar-analyze the three Cartesian components T1, T2, T3 and
  apply K, which reads each vector coefficient from the tables at index
  offsets (l +- 1, m +- 1) and folds in the combinations U = -T1 + i T2,
  V = T1 + i T2, W = T3;
* adjoint: apply K^H to the div and curl tables, which gives one
  degree-(L+1) scalar coefficient table per Cartesian component, and
  scalar-synthesize.

Each scalar transform runs on one of three routes:

* "fast-scalar": the iso-latitude FFT path, O(L^3) on a tensor grid;
* "nufft": any points, through an auxiliary grid and a 2-D non-equispaced
  FFT, O(L^3 + M) on M points and accurate to about 1e-12 relative;
* "direct-scalar": direct sums over any points, O(M L^2).

On every route the scalar forward is A^H W, the adjoint A^H of synthesis
weighted by the diagonal W of the rule's weights.  ``scalar.py`` picks the
route, and runs it, behind one call per direction; its module docstring
states what ``path="auto"`` takes.  The direct route is
algebraically identical to the direct vector transforms for any
point/weight family, not just exact rules - that identity is the main
correctness test of the package.  So is the fast route, except that it
evaluates each southern ring's Legendre values at minus the cosine of its
northern partner, which differs from the ring's own cosine by at most
8 eps; it agrees with the direct route to rounding.  The NUFFT matches
them to its accuracy.

Nothing needs to be prepared by the caller.  K, its transpose (a view on
its buffers) and the scalar routes' plans are built on first use and
cached as the ``scalar`` module docstring says, so a repeated round trip
on one rule at one degree, on any route, evaluates no kernel, builds no
sparse matrix and expands no weight block, in O(N) working memory.
Non-finite input values are rejected with ValueError.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import QuadratureRule, TangentFieldSamples, VectorCoefficients, check_int
from .coupling import apply_coupling, build_adjoint_coupling
from .scalar import _adjoint_columns, _forward_columns


def forward_favest(
    samples: TangentFieldSamples,
    rule: QuadratureRule,
    lmax: int,
    path: str = "auto",
) -> VectorCoefficients:
    """Forward vector transform via three scalar transforms of degree lmax+1.

    Parameters
    ----------
    samples : TangentFieldSamples
        Tangent field values at exactly the rule's points.
    rule : QuadratureRule
        Points and weights; a tensor-grid rule enables the fast path.
    lmax : int
        Largest vector degree to produce, >= 1.
    path : {"auto", "direct-scalar", "fast-scalar", "nufft"}
        Scalar route, picked for "auto" as the ``scalar`` module docstring
        says.  "nufft" and "direct-scalar" run on any rule.

    When every sample's imaginary part is exactly zero, as for a real
    tangent field, the three scalar transforms take real columns and
    compute the orders m >= 0 only; the first sample is tested before the
    rest are scanned, so complex data pays almost nothing for the test.

    Raises ValueError on non-finite sample values, and unless lmax is an
    integer >= 1.
    """
    lmax = check_int(lmax, "lmax", 1)
    if samples.points is not rule.points and (
        samples.points.shape != rule.points.shape
        or not np.allclose(samples.points, rule.points, rtol=0.0, atol=1e-12)
    ):
        raise ValueError("sample points do not match the quadrature rule points")
    if not np.all(np.isfinite(samples.values)):
        raise ValueError("sample values must be finite")
    values = samples.values
    # Real samples take the kernels' m >= 0 half; the first sample spares complex data the scan.
    if not values[:1].imag.any() and not values.imag.any():
        values = values.real
    return apply_coupling(_forward_columns(values, rule, lmax + 1, path), lmax)


def adjoint_favest(
    coeffs: VectorCoefficients,
    rule_or_points,
    path: str = "auto",
) -> TangentFieldSamples:
    """Adjoint vector transform: synthesize the tangent field at points.

    ``rule_or_points`` may be a QuadratureRule, a TensorGrid, or a raw
    (N, 3) array of unit points; weights are never used.  ``path`` picks
    the scalar route as in :func:`forward_favest`.  The synthesis
    applies K^H, which gives three scalar coefficient tables of degree
    lmax+1, one per Cartesian component.  Raises ValueError on non-finite
    coefficient values.
    """
    if not (np.all(np.isfinite(coeffs.div.values)) and np.all(np.isfinite(coeffs.curl.values))):
        raise ValueError("coefficient values must be finite")
    points, values = _adjoint_columns(
        build_adjoint_coupling(coeffs), coeffs.lmax + 1, rule_or_points, path
    )
    return TangentFieldSamples._at_checked_points(points, values)


class RoundtripResult(NamedTuple):
    coeffs: VectorCoefficients
    reconstruction: TangentFieldSamples
    rel_l2: float
    max_abs: float


def roundtrip(samples: TangentFieldSamples, rule: QuadratureRule, lmax: int) -> RoundtripResult:
    """Forward then adjoint at the same points, on the "auto" route, with error metrics."""
    from .diagnostics import error_metrics

    coeffs = forward_favest(samples, rule, lmax)
    recon = adjoint_favest(coeffs, rule)
    rel_l2, max_abs = error_metrics(samples, recon, rule.weights)
    return RoundtripResult(coeffs=coeffs, reconstruction=recon, rel_l2=rel_l2, max_abs=max_abs)


class RepeatErrors(NamedTuple):
    first_vs_input: float
    second_vs_input: float
    second_vs_first: float
    coefficient_drift: float


def repeat_transform_errors(
    samples: TangentFieldSamples, rule: QuadratureRule, lmax: int
) -> RepeatErrors:
    """Apply the "auto"-route roundtrip projection twice and report stability errors.

    The roundtrip is a projection onto the degree-lmax tangent space when
    the rule is exact enough, so the second pass must reproduce the first
    to rounding error even when the first pass changes the field.  Errors
    are infinity norms of pointwise Euclidean magnitudes; the drift is the
    largest entrywise change between the two coefficient tables.
    """
    c1 = forward_favest(samples, rule, lmax)
    t1 = adjoint_favest(c1, rule)
    c2 = forward_favest(t1, rule, lmax)
    t2 = adjoint_favest(c2, rule)

    def inf_norm(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.max(np.sqrt(np.sum(np.abs(x - y) ** 2, axis=1))))

    drift = max(
        float(np.max(np.abs(c2.div.values - c1.div.values))),
        float(np.max(np.abs(c2.curl.values - c1.curl.values))),
    )
    return RepeatErrors(
        first_vs_input=inf_norm(t1.values, samples.values),
        second_vs_input=inf_norm(t2.values, samples.values),
        second_vs_first=inf_norm(t2.values, t1.values),
        coefficient_drift=drift,
    )
