import gc
import tracemalloc

import numpy as np
import pytest

import favest.core
import favest.scalar
from favest.core import (
    FOUR_PI,
    QuadratureRule,
    ScalarCoefficients,
    TangentFieldSamples,
    VectorCoefficients,
    flat_index,
    flat_size,
)
from favest.coupling import apply_coupling
from favest.fields import field_a, field_b, field_c
from favest.quadrature import gen_gl_tensor
from favest.scalar import _forward_columns, adjoint_sht, forward_sht
from favest.transforms import (
    adjoint_favest,
    forward_favest,
    repeat_transform_errors,
    roundtrip,
)
from favest.vsh import adjoint_vsht_direct, eval_vsh, forward_vsht_direct


def _random_points(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_tangent(rng, points):
    raw = rng.standard_normal(points.shape) + 1j * rng.standard_normal(points.shape)
    raw -= np.sum(raw * points, axis=1)[:, None] * points
    return TangentFieldSamples(points, raw)


def _random_coeffs(rng, lmax):
    size = flat_size(lmax)
    raw = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    raw[:, 0] = 0.0
    return VectorCoefficients(
        ScalarCoefficients(lmax, raw[0]), ScalarCoefficients(lmax, raw[1])
    )


def test_forward_matches_direct_oracle():
    rng = np.random.default_rng(12)
    lmax = 12
    _, rule = gen_gl_tensor(26)
    samples = _random_tangent(rng, rule.points)
    fast = forward_favest(samples, rule, lmax)
    direct = forward_vsht_direct(samples, rule, lmax)
    assert np.max(np.abs(fast.div.values - direct.div.values)) <= 1e-10
    assert np.max(np.abs(fast.curl.values - direct.curl.values)) <= 1e-10


def test_forward_picks_out_high_order_harmonic():
    _, rule = gen_gl_tensor(12)
    value = eval_vsh(5, 4, rule.points)
    samples = TangentFieldSamples(rule.points, value.div)
    coeffs = forward_favest(samples, rule, 5)
    assert coeffs.div.get(5, 4) == pytest.approx(1.0, abs=1e-9)
    rest = coeffs.div.values.copy()
    rest[flat_index(5, 4)] = 0.0
    assert np.max(np.abs(rest)) <= 1e-9
    assert np.max(np.abs(coeffs.curl.values)) <= 1e-9


def test_adjoint_matches_direct_oracle():
    rng = np.random.default_rng(21)
    lmax = 12
    coeffs = _random_coeffs(rng, lmax)
    pts = _random_points(rng, 500)
    fast = adjoint_favest(coeffs, pts)
    direct = adjoint_vsht_direct(coeffs, pts)
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-10


def test_adjoint_zero_coefficients():
    pts = _random_points(np.random.default_rng(0), 40)
    out = adjoint_favest(VectorCoefficients.zeros(6), pts)
    assert np.all(out.values == 0.0)


def test_forward_recovers_coefficients_after_adjoint():
    rng = np.random.default_rng(33)
    lmax = 9
    coeffs = _random_coeffs(rng, lmax)
    _, rule = gen_gl_tensor(2 * (lmax + 1) + 2)
    field = adjoint_favest(coeffs, rule)
    rec = forward_favest(field, rule, lmax)
    assert np.max(np.abs(rec.div.values - coeffs.div.values)) <= 1e-9
    assert np.max(np.abs(rec.curl.values - coeffs.curl.values)) <= 1e-9


def test_monopole_entries_are_exactly_zero():
    rng = np.random.default_rng(8)
    _, rule = gen_gl_tensor(10)
    samples = _random_tangent(rng, rule.points)
    coeffs = forward_favest(samples, rule, 3)
    assert coeffs.div.values[0] == 0.0
    assert coeffs.curl.values[0] == 0.0


def test_paths_agree_and_bad_path_rejected():
    rng = np.random.default_rng(14)
    lmax = 6
    grid, rule = gen_gl_tensor(2 * (lmax + 1))
    samples = _random_tangent(rng, rule.points)
    coeffs = _random_coeffs(rng, lmax)
    fast = forward_favest(samples, rule, lmax, path="fast-scalar")
    synthesis = adjoint_favest(coeffs, rule, path="fast-scalar").values
    for path in ("direct-scalar", "nufft"):
        other = forward_favest(samples, rule, lmax, path=path)
        assert np.max(np.abs(fast.div.values - other.div.values)) <= 1e-11, path
        assert np.max(np.abs(fast.curl.values - other.curl.values)) <= 1e-11, path
        for where in (rule, grid, rule.points):
            values = adjoint_favest(coeffs, where, path=path).values
            assert np.max(np.abs(values - synthesis)) <= 1e-11 * np.max(np.abs(synthesis)), path
    with pytest.raises(ValueError):
        forward_favest(samples, rule, lmax, path="warp")


def test_auto_routes_by_degree_and_point_count(monkeypatch):
    routes = []  # every kernel call: no kernel runs another route's
    for name in ("_forward_direct_values", "_adjoint_direct_values",
                 "_forward_nufft_values", "_adjoint_nufft_values",
                 "_forward_fast_values", "_adjoint_fast_values"):
        def record(*args, _fn=getattr(favest.scalar, name), _name=name):
            routes.append(_name.split("_")[2])
            return _fn(*args)

        monkeypatch.setattr(favest.scalar, name, record)
    rng = np.random.default_rng(20)
    top = favest.scalar._NUFFT_MIN_DEGREE  # scalar degree of vector degree top - 1
    most = favest.scalar._NUFFT_MIN_POINTS
    for lmax, n, expected in (
        (top - 1, most, "nufft"),
        (top - 1, most - 1, "direct"),
        (top - 2, most, "direct"),
    ):
        rule = QuadratureRule(_random_points(rng, n), np.full(n, FOUR_PI / n), exactness=0)
        coeffs = _random_coeffs(rng, lmax)
        samples = adjoint_favest(coeffs, rule)
        forward_favest(samples, rule, lmax)
        adjoint_favest(coeffs, rule.points)
        # The scalar transforms at the same scalar degree take the same route.
        scalar = ScalarCoefficients.zeros(lmax + 1)
        forward_sht(samples.values[:, 0], rule, lmax + 1)
        adjoint_sht(scalar, rule)
        adjoint_sht(scalar, rule.points)
        assert routes == [expected] * 6, (lmax, n, routes)
        routes.clear()
    # A grid with enough longitudes keeps the FFT path at any size.
    _, gl = gen_gl_tensor(2 * top)
    adjoint_favest(_random_coeffs(rng, top - 1), gl)
    adjoint_sht(ScalarCoefficients.zeros(top), gl)
    assert routes == ["fast"] * 2


def test_fast_path_needs_a_grid():
    rng = np.random.default_rng(15)
    _, rule = gen_gl_tensor(10)  # n_phi = 11 < 2*(5+1)+1: the fast path folds orders 6 and -5
    samples = _random_tangent(rng, rule.points)
    coeffs = _random_coeffs(rng, 5)
    fast = forward_favest(samples, rule, 5, path="fast-scalar")
    direct = forward_favest(samples, rule, 5, path="direct-scalar")
    for got, want in ((fast.div, direct.div), (fast.curl, direct.curl)):
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))
    fast = adjoint_favest(coeffs, rule, path="fast-scalar").values
    direct = adjoint_favest(coeffs, rule, path="direct-scalar").values
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))
    # raw points have no grid, so the fast path cannot be forced
    with pytest.raises(ValueError):
        adjoint_favest(coeffs, rule.points, path="fast-scalar")


def test_point_mismatch_rejected():
    rng = np.random.default_rng(16)
    _, rule = gen_gl_tensor(8)
    samples = _random_tangent(rng, _random_points(rng, len(rule)))
    with pytest.raises(ValueError):
        forward_favest(samples, rule, 2)


def test_linearity():
    rng = np.random.default_rng(44)
    lmax = 5
    _, rule = gen_gl_tensor(12)
    s1 = _random_tangent(rng, rule.points)
    s2 = _random_tangent(rng, rule.points)
    alpha = 0.7 - 1.3j
    beta = -2.1 + 0.4j
    mixed = TangentFieldSamples(rule.points, alpha * s1.values + beta * s2.values)
    c_mixed = forward_favest(mixed, rule, lmax)
    c1 = forward_favest(s1, rule, lmax)
    c2 = forward_favest(s2, rule, lmax)
    want_div = alpha * c1.div.values + beta * c2.div.values
    want_curl = alpha * c1.curl.values + beta * c2.curl.values
    assert np.max(np.abs(c_mixed.div.values - want_div)) <= 1e-11
    assert np.max(np.abs(c_mixed.curl.values - want_curl)) <= 1e-11


def test_reality_of_projection():
    # real input samples project onto a conjugation-closed span
    rng = np.random.default_rng(55)
    lmax = 8
    _, rule = gen_gl_tensor(2 * (lmax + 1))
    raw = rng.standard_normal(rule.points.shape)
    raw -= np.sum(raw * rule.points, axis=1)[:, None] * rule.points
    samples = TangentFieldSamples(rule.points, raw)
    rec = adjoint_favest(forward_favest(samples, rule, lmax), rule)
    assert np.max(np.abs(rec.values.imag)) <= 1e-9


def test_roundtrip_field_a_is_lossless():
    _, rule = gen_gl_tensor(22)
    samples = TangentFieldSamples(rule.points, field_a(rule.points))
    result = roundtrip(samples, rule, 10)
    assert result.rel_l2 <= 1e-9
    assert result.coeffs.lmax == 10
    assert len(result.reconstruction) == len(rule)


def test_repeat_projection_is_idempotent():
    rng = np.random.default_rng(66)
    lmax = 6
    _, rule = gen_gl_tensor(2 * (lmax + 1))
    samples = _random_tangent(rng, rule.points)
    errors = repeat_transform_errors(samples, rule, lmax)
    # first pass truncates the random field, second pass must be stable
    assert errors.first_vs_input > 1e-3
    assert errors.second_vs_first <= 1e-9
    assert errors.coefficient_drift <= 1e-9


def test_repeat_zero_field():
    _, rule = gen_gl_tensor(8)
    samples = TangentFieldSamples(rule.points, np.zeros_like(rule.points))
    errors = repeat_transform_errors(samples, rule, 3)
    assert errors == (0.0, 0.0, 0.0, 0.0)


def test_roundtrip_zero_field_is_domain_error():
    _, rule = gen_gl_tensor(8)
    samples = TangentFieldSamples(rule.points, np.zeros_like(rule.points))
    with pytest.raises(ValueError):
        roundtrip(samples, rule, 3)


def test_non_finite_input_rejected():
    rng = np.random.default_rng(17)
    lmax = 5
    _, rule = gen_gl_tensor(2 * (lmax + 1))
    samples = _random_tangent(rng, rule.points)
    samples.values[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        forward_favest(samples, rule, lmax)
    with pytest.raises(ValueError, match="finite"):
        forward_sht(samples.values[:, 1], rule, lmax)
    coeffs = _random_coeffs(rng, lmax)
    coeffs.curl.values[7] = np.inf
    for where in (rule, rule.points):
        with pytest.raises(ValueError, match="finite"):
            adjoint_favest(coeffs, where)
        with pytest.raises(ValueError, match="finite"):
            adjoint_sht(coeffs.curl, where)


def test_adjoint_rejects_non_finite_points():
    coeffs = _random_coeffs(np.random.default_rng(20), 3)
    pts = np.array([[np.nan, 0.0, 1.0], [0.0, 0.0, 1.0]])
    for path in ("auto", "direct-scalar", "nufft"):
        with pytest.raises(ValueError):
            adjoint_favest(coeffs, pts, path=path)


def _weighted_rule(rng, n):
    weights = rng.uniform(0.5, 1.5, n)
    return QuadratureRule(_random_points(rng, n), weights * FOUR_PI / weights.sum(), exactness=0)


@pytest.mark.parametrize("seed", range(4))
def test_adjointness_on_every_path(seed):
    # <c, F s> = <A c, W s>: the forward transform is the weighted adjoint of
    # the synthesis, for arbitrary (even non-tangent) samples and any rule.
    rng = np.random.default_rng([9, seed])
    lmax = int(rng.integers(1, 13))
    _, gl = gen_gl_tensor(2 * (lmax + 1))
    scattered = _weighted_rule(rng, 150)
    cases = [(gl, "fast-scalar"), (gl, "direct-scalar"), (gl, "nufft"),
             (scattered, "direct-scalar"), (scattered, "nufft")]
    for rule, path in cases:
        values = rng.standard_normal((len(rule), 3)) + 1j * rng.standard_normal((len(rule), 3))
        samples = TangentFieldSamples(rule.points, values)
        coeffs = _random_coeffs(rng, lmax)
        fs = forward_favest(samples, rule, lmax, path=path)
        ac = adjoint_favest(coeffs, rule, path=path)
        lhs = np.vdot(coeffs.div.values, fs.div.values) + np.vdot(coeffs.curl.values, fs.curl.values)
        rhs = np.vdot(ac.values, rule.weights[:, None] * values)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (lmax, path, lhs, rhs)


def test_grid_plan_is_built_once_per_lmax(monkeypatch):
    calls = []
    original = favest.scalar._legendre_by_order

    def counting(lmax, t):
        calls.append(lmax)
        return original(lmax, t)

    monkeypatch.setattr(favest.scalar, "_legendre_by_order", counting)
    rng = np.random.default_rng(18)
    lmax = 6
    grid, rule = gen_gl_tensor(2 * (lmax + 2))
    coeffs = _random_coeffs(rng, lmax)
    samples = adjoint_favest(coeffs, rule)
    assert calls == [lmax + 1]
    forward_favest(samples, rule, lmax)
    adjoint_favest(coeffs, rule)
    assert calls == [lmax + 1]  # forward and adjoint share the degree-(lmax+1) plan
    forward_favest(samples, rule, lmax + 1)
    assert calls == [lmax + 1, lmax + 2]
    assert grid._slot[0] == lmax + 2  # the grid keeps its last degree's plan only
    adjoint_favest(coeffs, rule)
    assert calls == [lmax + 1, lmax + 2, lmax + 1]
    assert grid._slot[0] == lmax + 1


def _retained_bytes(degrees, n, seed):
    """Bytes left allocated once a rule of n random points, transformed at each degree, is dropped."""
    rng = np.random.default_rng(seed)
    rule = QuadratureRule(_random_points(rng, n), np.full(n, FOUR_PI / n), exactness=0)
    coeffs = [_random_coeffs(rng, lmax) for lmax in (40, *degrees)]
    forward_favest(adjoint_favest(coeffs[0], rule), rule, 40)  # imports what the NUFFT route imports
    tracemalloc.start()
    try:
        for c in coeffs[1:]:
            forward_favest(adjoint_favest(c, rule), rule, c.lmax)
        del rule
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_dropped_rule_leaves_one_degrees_shared_state():
    # What the NUFFT route shares across rules of one degree, K included,
    # is kept for the last degree only, and the rule takes its stencil factors with it.
    one = _retained_bytes([96], 3000, 131)
    four = _retained_bytes(range(97, 101), 3000, 137)
    assert four <= 1.5 * one, (four, one)


def test_grid_is_immutable():
    grid, _ = gen_gl_tensor(8)
    for array in (grid.ring_thetas, grid.ring_weights):
        with pytest.raises(ValueError):
            array[0] = 0.5
    with pytest.raises(AttributeError):
        grid.n_phi = 3


def test_adjoint_reuses_the_rules_checked_points(monkeypatch):
    rng = np.random.default_rng(23)
    _, rule = gen_gl_tensor(12)
    coeffs = _random_coeffs(rng, 5)
    checks = []
    original = favest.core.check_unit

    def counted(*args, **kwargs):
        checks.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(favest.core, "check_unit", counted)
    samples = adjoint_favest(coeffs, rule)
    assert samples.points is rule.points and not checks
    assert samples.values.shape == rule.points.shape and samples.values.dtype == np.complex128
    # Samples a caller builds are still checked.
    TangentFieldSamples(rule.points, samples.values)
    assert checks


def test_working_memory_is_linear_in_points():
    rng = np.random.default_rng(19)
    lmax = 96
    _, rule = gen_gl_tensor(2 * (lmax + 1))
    coeffs = _random_coeffs(rng, lmax)
    samples = adjoint_favest(coeffs, rule)  # warm-up builds the plan and tables
    forward_favest(samples, rule, lmax)
    budget = 6 * samples.values.nbytes
    for call in (lambda: forward_favest(samples, rule, lmax), lambda: adjoint_favest(coeffs, rule)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (peak, budget)


def test_warm_grid_forward_peaks_at_three_and_a_half_inputs():
    # A warm forward on complex samples measured 1.32 MiB here, 3.34 times
    # the (N, 3) complex input, with the ring FFT in place; one more N-sized
    # complex array, such as an out-of-place ring FFT, would exceed the bound.
    rng = np.random.default_rng(29)
    lmax = 64
    _, rule = gen_gl_tensor(2 * (lmax + 1))
    samples = adjoint_favest(_random_coeffs(rng, lmax), rule)
    forward_favest(samples, rule, lmax)  # warm-up builds the plan and K
    tracemalloc.start()
    try:
        forward_favest(samples, rule, lmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * samples.values.nbytes, (peak, samples.values.nbytes)


@pytest.mark.parametrize("field", [field_a, field_b, field_c])
def test_real_fields_take_the_real_half_with_the_same_forward(field):
    rng = np.random.default_rng(83)
    scattered = _random_points(rng, 2500)
    rules = (
        (gen_gl_tensor(42)[1], 20),
        (QuadratureRule(scattered, np.full(2500, FOUR_PI / 2500), 0), 40),  # the NUFFT
    )
    for rule, lmax in rules:
        samples = TangentFieldSamples(rule.points, field(rule.points))
        assert samples.values.dtype == np.complex128 and not samples.values.imag.any()
        got = forward_favest(samples, rule, lmax)
        # The complex128 copy, passed to the scalar stage as it is.
        want = apply_coupling(_forward_columns(samples.values, rule, lmax + 1, "auto"), lmax)
        for a, b in ((got.div.values, want.div.values), (got.curl.values, want.curl.values)):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


def test_forward_passes_complex_samples_on_as_complex(monkeypatch):
    seen = []
    for name in ("_forward_fast_values", "_forward_nufft_values"):
        def spy(f, *args, _fn=getattr(favest.scalar, name)):
            seen.append(f.dtype)
            return _fn(f, *args)

        monkeypatch.setattr(favest.scalar, name, spy)
    rng = np.random.default_rng(89)
    _, grid_rule = gen_gl_tensor(22)
    scattered = _random_points(rng, 2500)
    nufft_rule = QuadratureRule(scattered, np.full(2500, FOUR_PI / 2500), 0)
    for rule, lmax in ((grid_rule, 10), (nufft_rule, 40)):
        real = TangentFieldSamples(rule.points, field_a(rule.points))
        last = TangentFieldSamples(rule.points, real.values.copy())
        last.values[-1, 0] += 1e-3j  # only the last sample is complex
        for samples in (_random_tangent(rng, rule.points), last, real):
            forward_favest(samples, rule, lmax)
    assert seen == [np.complex128, np.complex128, np.float64] * 2
