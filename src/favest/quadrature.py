"""Polynomial-exact quadrature rules on the unit sphere.

Two families are supported: Gauss-Legendre tensor rules generated here, and
equal-weight point sets (spherical designs) loaded from text files.  A rule
claiming exactness t must integrate every spherical harmonic with l <= t
exactly; ``verify_exactness`` certifies the claim by checking the defect

    max_{l <= t, |m| <= l} | sum_i w_i Y(l, m, x_i) - sqrt(4pi) [l = m = 0] |

against 1e-8.  Callers that need lossless degree-L vector roundtrips want
t = 2(L+1): the harmonic components are polynomials of degree l+1, so the
Gram integrands reach degree 2(L+1).

The sums are the degree-t scalar forward transform of f = 1 on the rule,
F(l, m) = sum_i w_i conj(Y(l, m, x_i)), whose moduli equal those of the
sums above: ``scalar.forward_sht`` with ``path="auto"``, which picks the
route as the ``scalar`` module docstring says.  A rule with a grid, such as
a Gauss-Legendre rule at its own exactness (n_phi = t + 1, whose orders
above t/2 share ring DFT bins), is certified on the FFT path
(the grid ``QuadratureRule`` works out from its points and weights);
a rule without one takes the NUFFT in O(t**3 + N) for N points, or the
direct sums, O(N * t**2), below the NUFFT's crossover.  The rounding noise
stays far below the 1e-8 pass threshold: the Gauss-Legendre rules up to
t = 140 read defects of at most 2.2e-13 on the FFT path (1.5e-13 at
t = 140).  A rule keeps the NUFFT's stencil factors, and a grid its plan,
so certifying it again, at the same degree, rebuilds none of them.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
from scipy.special import roots_legendre

from .core import FOUR_PI, QuadratureRule, TensorGrid, check_int, check_unit
from .scalar import forward_sht

_BUNDLED_DESIGNS = {"icosahedron12": ("icosahedron12.txt", 5)}


def gen_gl_tensor(t: int) -> tuple[TensorGrid, QuadratureRule]:
    """Gauss-Legendre tensor rule exact for spherical polynomials of degree t.

    Uses ceil((t+1)/2) Gauss-Legendre colatitude rings and t+1 equispaced
    longitudes; each point carries weight (2pi/n_phi) * (Gauss weight).

    Returns the rule's grid (for fast transforms), which the rule works out
    from its points and weights, and the rule.
    """
    t = check_int(t, "t")
    n_theta = (t + 2) // 2
    n_phi = t + 1
    nodes, gauss_w = roots_legendre(n_theta)
    # roots_legendre returns ascending nodes in cos(theta); arccos flips the
    # order, so reverse to keep ring colatitudes increasing.
    thetas = np.arccos(nodes[::-1])
    weights = gauss_w[::-1] * (2.0 * np.pi / n_phi)
    grid = TensorGrid(ring_thetas=thetas, ring_weights=weights, n_phi=n_phi)
    rule = QuadratureRule(grid.points(), np.repeat(weights, n_phi), t, "gl-tensor")
    return rule.grid, rule


def verify_exactness(rule: QuadratureRule, t: int) -> tuple[float, bool]:
    """Certify that a rule integrates all harmonics of degree <= t.

    Returns (max_defect, passed) where the defect is the largest deviation
    of sum_i w_i Y(l, m, x_i) from its exact value and passing means a
    defect of at most 1e-8.
    """
    t = check_int(t, "t")
    sums = forward_sht(np.ones(len(rule), dtype=np.complex128), rule, t).values
    sums[0] -= np.sqrt(FOUR_PI)
    defect = float(np.max(np.abs(sums)))
    return defect, defect <= 1e-8


def load_design(path, t: int) -> QuadratureRule:
    """Load an equal-weight spherical design from a 3-column text file.

    Each non-empty, non-comment line holds ``x y z``.  Points deviating from
    unit norm by more than 1e-6 are rejected; smaller deviations are
    renormalized.  Every point receives weight 4pi/N and the rule claims
    exactness ``t`` (certify separately with :func:`verify_exactness`).
    """
    raw = _read_columns(path)
    if raw.shape[1] != 3:
        raise ValueError(f"design file must have 3 columns, found {raw.shape[1]} in {path}")
    points = _renormalize(raw, path)
    n = points.shape[0]
    return QuadratureRule(
        points=points,
        weights=np.full(n, FOUR_PI / n),
        exactness=t,
        kind="spherical-design",
    )


def bundled_design(name: str = "icosahedron12") -> QuadratureRule:
    """Return a design shipped with the package, e.g. the 12-point icosahedron."""
    try:
        filename, t = _BUNDLED_DESIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown bundled design {name!r}; available: {sorted(_BUNDLED_DESIGNS)}"
        ) from None
    with resources.as_file(resources.files("favest.data").joinpath(filename)) as path:
        return load_design(path, t)


def _read_columns(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(fields)}")
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64)


def _renormalize(points: np.ndarray, path) -> np.ndarray:
    norms = np.sqrt(np.sum(points * points, axis=1))
    err = float(np.max(np.abs(norms - 1.0)))
    if err > 1e-6:
        raise ValueError(f"points in {path} deviate from the unit sphere by {err:.3e} (> 1e-6)")
    return check_unit(points / norms[:, None])
