import tracemalloc

import numpy as np
import pytest

import favest.legendre
from favest.core import (
    FOUR_PI,
    QuadratureRule,
    ScalarCoefficients,
    VectorCoefficients,
    flat_index,
    flat_size,
)
from favest.coupling import cg_explicit, clebsch_gordan, coupling_weight_c, coupling_weight_d
from favest.legendre import eval_ylm, ylm_table
from favest.quadrature import gen_gl_tensor
from favest.vsh import _bd_from_table, adjoint_vsht_direct, eval_vsh, forward_vsht_direct

from favest.core import TangentFieldSamples


def _random_points(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def eval_bd(l, m, points):
    """(B+1, B0, B-1, D+1, D0, D-1) of harmonic (l, m), each complex over the points."""
    single = np.asarray(points).ndim == 1
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    parts = _bd_from_table(l, m, ylm_table(l + 1, pts), l + 1)
    return tuple(p[0] if single else p for p in parts)


def test_degree_zero_is_rejected():
    p = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        eval_vsh(0, 0, p)
    with pytest.raises(ValueError):
        eval_vsh(2, 3, p)


def test_d_zero_component_vanishes_at_zonal_order():
    # D0 of (1,0) carries C(1,0 | 1,0,1,0) = 0
    pts = _random_points(np.random.default_rng(1), 10)
    parts = eval_bd(1, 0, pts)
    assert np.all(parts[4] == 0.0)


def test_bd_at_north_pole_keeps_only_zonal_reads():
    # only m'=0 scalar harmonics survive at the pole
    pole = np.array([0.0, 0.0, 1.0])
    b_plus, b_zero, b_minus, d_plus, d_zero, d_minus = eval_bd(1, 1, pole)
    want_b = coupling_weight_c(1) * clebsch_gordan(0, 0, 1, 1, 1, 1) * eval_ylm(0, 0, pole) \
        + coupling_weight_d(1) * clebsch_gordan(2, 0, 1, 1, 1, 1) * eval_ylm(2, 0, pole)
    assert b_plus == pytest.approx(want_b, abs=1e-14)
    want_d = 1j * clebsch_gordan(1, 0, 1, 1, 1, 1) * eval_ylm(1, 0, pole)
    assert d_plus == pytest.approx(want_d, abs=1e-14)
    for other in (b_zero, b_minus, d_zero, d_minus):
        assert abs(other) <= 1e-15


def test_bd_against_general_cg_oracle():
    point = np.array([1.0, 0.0, 0.0])
    l, m = 2, -2
    got = eval_bd(l, m, point)
    c = coupling_weight_c(l)
    d = coupling_weight_d(l)

    def scalar(j, mm):
        return eval_ylm(j, mm, point) if abs(mm) <= j else 0.0

    for idx, m2 in ((0, 1), (1, 0), (2, -1)):
        want = c * clebsch_gordan(l - 1, m - m2, 1, m2, l, m) * scalar(l - 1, m - m2) \
            + d * clebsch_gordan(l + 1, m - m2, 1, m2, l, m) * scalar(l + 1, m - m2)
        assert got[idx] == pytest.approx(want, abs=1e-13), m2
    for idx, m2 in ((3, 1), (4, 0), (5, -1)):
        want = 1j * clebsch_gordan(l, m - m2, 1, m2, l, m) * scalar(l, m - m2)
        assert got[idx] == pytest.approx(want, abs=1e-13), m2


def test_tangency_at_random_points():
    pts = _random_points(np.random.default_rng(9), 100)
    value = eval_vsh(3, 1, pts)
    for family in (value.div, value.curl):
        normal = np.abs(np.sum(family * pts, axis=1))
        assert np.max(normal) <= 1e-10 * (1.0 + np.max(np.abs(family)))


def test_single_harmonic_norm_under_exact_rule():
    _, rule = gen_gl_tensor(4)
    value = eval_vsh(1, 0, rule.points)
    norm = np.sum(rule.weights * np.sum(np.abs(value.div) ** 2, axis=1))
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_gram_matrix_is_identity():
    # components of degree-l harmonics are polynomials of degree l+1, so
    # pairwise products need exactness 2l+2
    lmax = 4
    _, rule = gen_gl_tensor(2 * lmax + 2)
    rows = []
    for l in range(1, lmax + 1):
        for m in range(-l, l + 1):
            value = eval_vsh(l, m, rule.points)
            rows.append(value.div)
            rows.append(value.curl)
    stacked = np.stack(rows)  # (n_harmonics, N, 3)
    weighted = stacked * rule.weights[None, :, None]
    gram = np.einsum("ikc,jkc->ij", np.conj(stacked), weighted)
    assert np.max(np.abs(gram - np.eye(len(rows)))) <= 1e-10


def test_forward_direct_picks_out_harmonics():
    _, rule = gen_gl_tensor(6)
    value = eval_vsh(2, 1, rule.points)
    samples = TangentFieldSamples(rule.points, value.div)
    coeffs = forward_vsht_direct(samples, rule, 2)
    assert coeffs.div.get(2, 1) == pytest.approx(1.0, abs=1e-10)
    rest = coeffs.div.values.copy()
    rest[flat_index(2, 1)] = 0.0
    assert np.max(np.abs(rest)) <= 1e-10
    assert np.max(np.abs(coeffs.curl.values)) <= 1e-10


def test_forward_direct_curl_harmonic():
    _, rule = gen_gl_tensor(8)
    value = eval_vsh(3, -2, rule.points)
    samples = TangentFieldSamples(rule.points, value.curl)
    coeffs = forward_vsht_direct(samples, rule, 3)
    assert coeffs.curl.get(3, -2) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(coeffs.div.values)) <= 1e-10


def test_forward_direct_zero_field_and_mismatch():
    _, rule = gen_gl_tensor(4)
    samples = TangentFieldSamples(rule.points, np.zeros_like(rule.points))
    coeffs = forward_vsht_direct(samples, rule, 1)
    assert np.all(coeffs.div.values == 0.0)
    assert np.all(coeffs.curl.values == 0.0)
    other = TangentFieldSamples(rule.points[::-1], np.zeros_like(rule.points))
    with pytest.raises(ValueError):
        forward_vsht_direct(other, rule, 1)


def test_adjoint_direct_unit_mass():
    pts = _random_points(np.random.default_rng(3), 25)
    a = ScalarCoefficients.zeros(1)
    a.values[flat_index(1, 0)] = 1.0
    coeffs = VectorCoefficients(a, ScalarCoefficients.zeros(1))
    out = adjoint_vsht_direct(coeffs, pts)
    want = eval_vsh(1, 0, pts).div
    assert np.max(np.abs(out.values - want)) <= 1e-13

    zero = adjoint_vsht_direct(VectorCoefficients.zeros(3), pts)
    assert np.all(zero.values == 0.0)


def test_adjoint_direct_matches_termwise_sum():
    rng = np.random.default_rng(17)
    lmax = 4
    pts = _random_points(rng, 30)
    size = flat_size(lmax)
    raw = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    raw[:, 0] = 0.0
    coeffs = VectorCoefficients(
        ScalarCoefficients(lmax, raw[0]), ScalarCoefficients(lmax, raw[1])
    )
    out = adjoint_vsht_direct(coeffs, pts)
    manual = np.zeros((30, 3), dtype=np.complex128)
    for l in range(1, lmax + 1):
        for m in range(-l, l + 1):
            value = eval_vsh(l, m, pts)
            manual += coeffs.div.get(l, m) * value.div
            manual += coeffs.curl.get(l, m) * value.curl
    assert np.max(np.abs(out.values - manual)) <= 1e-12


def test_direct_forward_after_adjoint_is_identity():
    rng = np.random.default_rng(29)
    lmax = 5
    _, rule = gen_gl_tensor(2 * lmax + 2)
    size = flat_size(lmax)
    raw = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    raw[:, 0] = 0.0
    coeffs = VectorCoefficients(
        ScalarCoefficients(lmax, raw[0]), ScalarCoefficients(lmax, raw[1])
    )
    field = adjoint_vsht_direct(coeffs, rule.points)
    rec = forward_vsht_direct(field, rule, lmax)
    assert np.max(np.abs(rec.div.values - coeffs.div.values)) <= 1e-9
    assert np.max(np.abs(rec.curl.values - coeffs.curl.values)) <= 1e-9


def test_direct_oracles_batch_points_in_bounded_memory(monkeypatch):
    rng = np.random.default_rng(47)
    lmax, n = 8, 600
    pts = _random_points(rng, n)
    rule = QuadratureRule(pts, np.full(n, FOUR_PI / n), exactness=0)
    samples = TangentFieldSamples(pts, rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    one_fwd = forward_vsht_direct(samples, rule, lmax)
    one_adj = adjoint_vsht_direct(one_fwd, pts).values
    # Three batches of 200 points, each with a (200, (lmax + 2)**2) complex table.
    limit = 200 * 2 * (lmax + 2) ** 2
    monkeypatch.setattr(favest.legendre, "_CHUNK_ENTRIES", limit)
    peaks = []
    for call in (lambda: forward_vsht_direct(samples, rule, lmax), lambda: adjoint_vsht_direct(one_fwd, pts)):
        tracemalloc.start()
        try:
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # One batch's table is 8 * limit bytes; the whole table would be three times that.
    assert max(peaks) <= 6 * 8 * limit, peaks
    fwd = forward_vsht_direct(samples, rule, lmax)
    for got, want in ((fwd.div.values, one_fwd.div.values), (fwd.curl.values, one_fwd.curl.values)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(result.values, one_adj)


def _reference_families(l, m, pts):
    """(div, curl) of harmonic (l, m), each (N, 3): one (l, m) at a time, from the coupling formulas."""
    table = ylm_table(l + 1, pts)

    def y(j, k):
        return table[:, j * j + j + k] if abs(k) <= j else np.zeros(len(pts))

    c, d = coupling_weight_c(l), coupling_weight_d(l)
    b = [c * cg_explicit(-1, s, l, m) * y(l - 1, m - s) + d * cg_explicit(1, s, l, m) * y(l + 1, m - s)
         for s in (1, 0, -1)]
    e = [1j * cg_explicit(0, s, l, m) * y(l, m - s) for s in (1, 0, -1)]
    r = 1.0 / np.sqrt(2.0)
    return tuple(np.stack([-r * (p - q), -1j * r * (p + q), z], axis=-1) for p, z, q in (b, e))


@pytest.mark.parametrize("lmax", [1, 5, 12])
def test_direct_oracles_match_a_loop_over_every_harmonic(lmax):
    rng = np.random.default_rng([71, lmax])
    n = 40
    pts = _random_points(rng, n)
    rule = QuadratureRule(pts, np.full(n, FOUR_PI / n), exactness=0)
    samples = TangentFieldSamples(pts, rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    raw = rng.standard_normal((2, flat_size(lmax))) + 1j * rng.standard_normal((2, flat_size(lmax)))
    raw[:, 0] = 0.0
    coeffs = VectorCoefficients(ScalarCoefficients(lmax, raw[0]), ScalarCoefficients(lmax, raw[1]))
    want_a, want_b = np.zeros_like(raw)
    want_field = np.zeros((n, 3), dtype=np.complex128)
    weighted = rule.weights[:, None] * samples.values
    for l in range(1, lmax + 1):
        for m in range(-l, l + 1):
            div, curl = _reference_families(l, m, pts)
            k = flat_index(l, m)
            want_a[k] = np.sum(div.conj() * weighted)
            want_b[k] = np.sum(curl.conj() * weighted)
            want_field += raw[0, k] * div + raw[1, k] * curl
    got = forward_vsht_direct(samples, rule, lmax)
    for values, want in ((got.div.values, want_a), (got.curl.values, want_b)):
        assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))
    field = adjoint_vsht_direct(coeffs, pts).values
    assert np.max(np.abs(field - want_field)) <= 1e-13 * np.max(np.abs(want_field))
