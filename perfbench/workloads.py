"""The three workloads of the favest benchmark.

Each workload is one closed-loop client of favest's public API.  ``setup``
builds the rule(s) from the seed, ``prepare`` draws the next operation's
inputs (untimed), ``run`` is the timed operation, and ``check`` returns an
error message when the operation's output is wrong.  The transforms are
called the way the CLI and a plain library caller call them: no ``tables=``
and no ``path=``.

Why these three (also recorded in BENCHMARK.json):

* grid-L256: the large-degree FFT path, where the scalar-stage gather and
  the per-call rebuild of Legendre and coupling tables dominate; the only
  workload where a cache keyed on (grid, lmax) can hit and memory matters.
* scattered-L64: the only non-grid route (direct sums over ylm_table).
* certify-t140: the certifier, the only user of the m >= 0 Legendre path;
  the random rule makes a shortcut that relies on tensor structure show as
  no gain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FOUR_PI = 4.0 * np.pi
RTOL = 1e-9
GL_DEFECT_MAX = 1e-8
# The random certification rules come from this many fixed seeds, so that
# each one's defect can be compared with its value at the reference commit.
RANDOM_RULES = 16
RULE_SEED = 20190801
REFERENCE_FILE = Path(__file__).with_name("certify_reference.json")


@dataclass(frozen=True)
class Sizes:
    grid_lmax: int
    scatter_points: int
    scatter_lmax: int
    certify_t: int
    oracle_points: int  # points checked against the direct vector oracle


FULL = Sizes(grid_lmax=256, scatter_points=10_000, scatter_lmax=64,
             certify_t=140, oracle_points=64)
TINY = Sizes(grid_lmax=8, scatter_points=300, scatter_lmax=8,
             certify_t=20, oracle_points=16)


def random_coeffs(fv, rng: np.random.Generator, lmax: int):
    n = (lmax + 1) ** 2
    tables = []
    for _ in range(2):
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        values[0] = 0.0  # degree 0 carries no tangent harmonic
        tables.append(fv.ScalarCoefficients(lmax, values))
    return fv.VectorCoefficients(*tables)


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def equal_weight_rule(fv, points: np.ndarray, exactness: int):
    n = points.shape[0]
    return fv.QuadratureRule(points, np.full(n, FOUR_PI / n), exactness=exactness, kind="custom")


def random_certify_rule(fv, index: int, n: int, t: int):
    """Random equal-weight rule number ``index`` with n points."""
    rng = np.random.default_rng([RULE_SEED, index, n])
    return equal_weight_rule(fv, random_points(rng, n), t)


def roundtrip_error(coeffs, back) -> str | None:
    """forward(adjoint(c)) must return c on an exact rule."""
    scale = max(np.max(np.abs(coeffs.div.values)), np.max(np.abs(coeffs.curl.values)))
    err = max(np.max(np.abs(back.div.values - coeffs.div.values)),
              np.max(np.abs(back.curl.values - coeffs.curl.values)))
    if not err <= RTOL * scale:
        return f"roundtrip error {err:.3e} exceeds {RTOL:.0e} * max|c| = {RTOL * scale:.3e}"
    return None


class Workload:
    name = ""

    def __init__(self, fv, sizes: Sizes) -> None:
        self.fv = fv
        self.sizes = sizes

    def setup(self, seed: int, trace) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, inputs, trace):
        raise NotImplementedError

    def check(self, inputs, outputs) -> str | None:
        raise NotImplementedError

    def transform(self, trace, coeffs, rule, lmax: int):
        samples = trace.call("transforms.adjoint_favest", self.fv.adjoint_favest, coeffs, rule)
        back = trace.call("transforms.forward_favest", self.fv.forward_favest, samples, rule, lmax)
        return samples, back


class GridL256(Workload):
    """Adjoint then forward of fresh random coefficients on one GL grid."""

    name = "grid-L256"

    def setup(self, seed, trace):
        self.lmax = self.sizes.grid_lmax
        _, self.rule = trace.call("quadrature.gen_gl_tensor", self.fv.gen_gl_tensor,
                                  2 * (self.lmax + 1))
        self.rng = np.random.default_rng(seed)

    def prepare(self, i):
        return random_coeffs(self.fv, self.rng, self.lmax)

    def run(self, coeffs, trace):
        return self.transform(trace, coeffs, self.rule, self.lmax)

    def check(self, coeffs, outputs):
        return roundtrip_error(coeffs, outputs[1])


class ScatteredL64(Workload):
    """Adjoint then forward on seeded uniform random points (direct path)."""

    name = "scattered-L64"

    def setup(self, seed, trace):
        self.lmax = self.sizes.scatter_lmax
        self.rng = np.random.default_rng(seed)
        points = random_points(self.rng, self.sizes.scatter_points)
        self.rule = equal_weight_rule(self.fv, points, 0)

    def prepare(self, i):
        return random_coeffs(self.fv, self.rng, self.lmax)

    def run(self, coeffs, trace):
        return self.transform(trace, coeffs, self.rule, self.lmax)

    def check(self, coeffs, outputs):
        samples, back = outputs
        # <c, F(Ac)> = sum_k w_k |(Ac)(x_k)|^2: forward is the weighted adjoint.
        lhs = np.vdot(np.concatenate([coeffs.div.values, coeffs.curl.values]),
                      np.concatenate([back.div.values, back.curl.values]))
        rhs = float(np.sum(self.rule.weights * np.sum(np.abs(samples.values) ** 2, axis=1)))
        if not abs(lhs - rhs) <= RTOL * abs(rhs):
            return f"adjointness: <c, F(Ac)> = {lhs:.16e} vs {rhs:.16e}"
        k = self.sizes.oracle_points
        oracle = self.fv.adjoint_vsht_direct(coeffs, self.rule.points[:k]).values
        err = np.max(np.abs(samples.values[:k] - oracle))
        if not err <= RTOL * np.max(np.abs(oracle)):
            return f"adjoint differs from adjoint_vsht_direct by {err:.3e} on {k} points"
        return None


class CertifyT140(Workload):
    """verify_exactness, alternating the GL rule and a random rule of equal size."""

    name = "certify-t140"

    def setup(self, seed, trace):
        self.t = t = self.sizes.certify_t
        _, gl = trace.call("quadrature.gen_gl_tensor", self.fv.gen_gl_tensor, t)
        self.index = seed % RANDOM_RULES
        self.rules = (gl, random_certify_rule(self.fv, self.index, len(gl), t))

    def prepare(self, i):
        return i % 2

    def run(self, which, trace):
        rule = self.rules[which]
        result = trace.call("quadrature.verify_exactness", self.fv.verify_exactness, rule, self.t)
        # Computed work: one weighted sum per point and (l, m >= 0) pair.
        trace.count(trace.calls[-1].span, float(len(rule)) * ((self.t + 1) * (self.t + 2) // 2))
        return result

    def check(self, which, outputs):
        defect, passed = outputs
        if which == 0:
            if not (defect <= GL_DEFECT_MAX and passed):
                return f"GL rule defect {defect:.3e} (passed={passed}) at t={self.t}"
            return None
        ref = reference_defect(self.t, len(self.rules[1]), self.index)
        if ref is None:
            return f"no reference defect for random rule {self.index} at t={self.t}"
        if not abs(defect - ref) <= RTOL * ref:
            return f"random rule {self.index} defect {defect!r} vs reference {ref!r}"
        return None


def reference_defect(t: int, n: int, index: int) -> float | None:
    table = json.loads(REFERENCE_FILE.read_text())["defects"]
    return table.get(f"t={t},n={n}", {}).get(str(index))


WORKLOADS = {w.name: w for w in (GridL256, ScatteredL64, CertifyT140)}
