from dataclasses import dataclass

import numpy as np
import pytest

import favest.legendre
from favest.core import from_spherical
from favest.legendre import (
    _legendre_by_order,
    _order_phases,
    eval_ylm,
    legendre_table,
    tri_index,
    tri_size,
    ylm_table,
)
from favest.quadrature import gen_gl_tensor

INV_SQRT_4PI = 0.28209479177387814


@dataclass
class LegendreBlock:
    """All normalized Legendre values at a single argument.

    ``values[tri_index(l, m)]`` holds ``Pbar(l, m, t)`` for 0 <= m <= l <= lmax.
    """

    lmax: int
    t: float
    values: np.ndarray

    def get(self, l: int, m: int) -> float:
        if m < 0 or m > l or l > self.lmax:
            return 0.0
        return float(self.values[tri_index(l, m)])


def legendre_block(lmax: int, t: float) -> LegendreBlock:
    """Evaluate every ``Pbar(l, m, t)`` with l <= lmax at one argument."""
    values = legendre_table(lmax, np.asarray([t]))[0]
    return LegendreBlock(lmax=lmax, t=float(t), values=values)


def ylm_row(lmax: int, point: np.ndarray) -> np.ndarray:
    """All Y(l, m) with l <= lmax at one point, flat degree-major order."""
    return ylm_table(lmax, np.asarray(point, dtype=np.float64)[None, :])[0]


def _legendre_table_loop(lmax, t):
    # The per-(l, m) recurrence legendre_table ran before it gathered from
    # _legendre_by_order; kept as the bit-for-bit reference.
    t = np.clip(np.asarray(t, dtype=np.float64), -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    out = np.empty(t.shape + (tri_size(lmax),), dtype=np.float64)
    out[..., 0] = INV_SQRT_4PI
    for m in range(1, lmax + 1):
        out[..., tri_index(m, m)] = (
            -np.sqrt((2 * m + 1) / (2.0 * m)) * s * out[..., tri_index(m - 1, m - 1)]
        )
    for m in range(lmax):
        out[..., tri_index(m + 1, m)] = np.sqrt(2 * m + 3.0) * t * out[..., tri_index(m, m)]
    for m in range(lmax - 1):
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out[..., tri_index(l, m)] = a * (
                t * out[..., tri_index(l - 1, m)] - b * out[..., tri_index(l - 2, m)]
            )
    return out


def _random_points(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_normalized_values_at_frozen_arguments():
    p = legendre_table(2, np.array([1.0, 0.0, -0.37]))
    # constant mode is 1/sqrt(4 pi) at any argument
    assert np.allclose(p[:, tri_index(0, 0)], INV_SQRT_4PI, atol=1e-15)
    assert p[0, tri_index(1, 0)] == pytest.approx(0.4886025119029199, abs=1e-12)
    assert p[0, tri_index(1, 1)] == pytest.approx(0.0, abs=1e-15)
    assert p[1, tri_index(2, 0)] == pytest.approx(-0.3153915652525201, abs=1e-12)


def test_legendre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        legendre_table(-1, np.array([0.0]))
    with pytest.raises(ValueError):
        legendre_table(2, np.array([1.5]))


def test_order_major_kernel_checks_arguments():
    with pytest.raises(ValueError):
        _legendre_by_order(3, np.array([0.2, -1.0 - 1e-9]))
    q = _legendre_by_order(3, np.array([1.0 + 1e-13, -1.0 - 1e-13]))
    assert np.all(np.isfinite(q[0, 0]))


@pytest.mark.parametrize("lmax", [0, 1, 2, 5, 40, 141, 257])
def test_legendre_table_equals_loop_bit_for_bit(lmax, monkeypatch):
    rng = np.random.default_rng(lmax)
    t = np.concatenate([[1.0, -1.0, 0.0, 1.0 + 1e-13], rng.uniform(-1.0, 1.0, 60)])
    expected = _legendre_table_loop(lmax, t)
    assert np.array_equal(legendre_table(lmax, t), expected)
    # Several point chunks, and a 2-d argument array.
    monkeypatch.setattr(favest.legendre, "_CHUNK_ENTRIES", 7 * (lmax + 1) ** 2)
    assert np.array_equal(legendre_table(lmax, t), expected)
    assert np.array_equal(legendre_table(lmax, t.reshape(8, 8)), expected.reshape(8, 8, -1))


def test_order_major_kernel_matches_eval_ylm():
    rng = np.random.default_rng(31)
    z = np.concatenate([[1.0, -1.0], rng.uniform(-1.0, 1.0, 23)])
    theta = np.arccos(z)
    pts = from_spherical(theta, np.zeros_like(theta))
    for lmax in (0, 3, 17, 64, 150):
        q = _legendre_by_order(lmax, z)
        assert q.shape == (lmax + 1, lmax + 1, z.size)
        # Every (l, m) at small lmax, a spread of them above.
        ls = range(lmax + 1) if lmax <= 17 else {0, 1, lmax // 3, lmax // 2, lmax - 1, lmax}
        for l in ls:
            ms = range(l + 1) if lmax <= 17 else {0, min(1, l), l // 2, max(l - 1, 0), l}
            for m in ms:
                # At phi = 0, Y(l, m) = Pbar(l, m, z).
                ref = eval_ylm(l, m, pts).real
                assert np.max(np.abs(q[m, l] - ref)) <= 1e-12, (lmax, l, m)


@pytest.mark.parametrize("lmax", [0, 1, 3, 8, 9, 15, 16, 140])
def test_order_phases_match_direct_exponentials(lmax):
    rng = np.random.default_rng(lmax)
    phi = np.concatenate([[0.0, np.pi, -np.pi / 2], rng.uniform(-np.pi, np.pi, 40)])
    ref = np.exp(1j * np.outer(np.arange(lmax + 1), phi))
    phases = _order_phases(lmax, phi)
    assert phases.shape == (lmax + 1, phi.size)
    assert np.max(np.abs(phases - ref)) <= 1e-13


def test_legendre_block_accessor():
    block = legendre_block(3, 0.25)
    assert block.get(0, 0) == pytest.approx(INV_SQRT_4PI)
    assert block.get(2, 3) == 0.0
    assert block.get(5, 0) == 0.0


def test_eval_ylm_out_of_range_is_zero():
    pts = _random_points(np.random.default_rng(0), 10)
    assert np.all(eval_ylm(2, 3, pts) == 0.0)


def test_ylm_row_north_pole():
    row = ylm_row(1, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(
        row, [INV_SQRT_4PI, 0.0, 0.4886025119029199, 0.0], atol=1e-12
    )


def test_ylm_table_matches_eval_ylm():
    rng = np.random.default_rng(3)
    pts = _random_points(rng, 40)
    table = ylm_table(6, pts)
    for l, m in [(0, 0), (1, -1), (3, 2), (6, -6), (5, 0)]:
        assert np.allclose(
            table[:, l * l + l + m], eval_ylm(l, m, pts), atol=1e-13
        )


def test_scipy_cross_check():
    sph = pytest.importorskip("scipy.special")
    if hasattr(sph, "sph_harm_y"):
        def oracle(l, m, theta, phi):
            return sph.sph_harm_y(l, m, theta, phi)
    else:
        def oracle(l, m, theta, phi):
            return sph.sph_harm(m, l, phi, theta)
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.05, np.pi - 0.05, size=25)
    phi = rng.uniform(0, 2 * np.pi, size=25)
    pts = from_spherical(theta, phi)
    for l in range(0, 9):
        for m in range(-l, l + 1):
            assert np.allclose(
                eval_ylm(l, m, pts), oracle(l, m, theta, phi), atol=1e-12
            ), (l, m)


def test_conjugation_symmetry():
    rng = np.random.default_rng(5)
    pts = _random_points(rng, 30)
    for l in (1, 4, 9, 17):
        for m in range(1, l + 1):
            lhs = eval_ylm(l, -m, pts)
            rhs = (-1.0) ** m * np.conj(eval_ylm(l, m, pts))
            assert np.allclose(lhs, rhs, atol=1e-13), (l, m)


def test_addition_theorem_to_degree_50():
    # sum_m Y(l,m,x) conj(Y(l,m,y)) = (2l+1)/(4 pi) P_l(x.y)
    from numpy.polynomial.legendre import legval

    rng = np.random.default_rng(19)
    x = _random_points(rng, 6)
    y = _random_points(rng, 6)
    tx = ylm_table(50, x)
    ty = ylm_table(50, y)
    dots = np.sum(x * y, axis=1)
    for l in range(51):
        sl = slice(l * l, (l + 1) ** 2)
        lhs = np.sum(tx[:, sl] * np.conj(ty[:, sl]), axis=1)
        coeffs = np.zeros(l + 1)
        coeffs[l] = 1.0
        rhs = (2 * l + 1) / (4 * np.pi) * legval(dots, coeffs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11, l


def test_orthonormality_under_exact_rule():
    lmax = 7
    _, rule = gen_gl_tensor(2 * lmax)
    table = ylm_table(lmax, rule.points)
    gram = table.conj().T @ (rule.weights[:, None] * table)
    assert np.max(np.abs(gram - np.eye((lmax + 1) ** 2))) <= 1e-10
