import tracemalloc

import numpy as np
import pytest

import favest.legendre
from favest import VectorCoefficients, adjoint_favest, forward_favest
from favest.core import FOUR_PI, QuadratureRule, ScalarCoefficients, degrees_orders, flat_size
from favest.legendre import eval_ylm, ylm_table
from favest.quadrature import gen_gl_tensor, verify_exactness
from favest.scalar import (
    TensorGrid,
    _adjoint_direct_values,
    _adjoint_fast_values,
    _adjoint_nufft_values,
    _forward_direct_values,
    _forward_fast_values,
    _forward_nufft_values,
    _nufft_setup,
    _plan,
    adjoint_sht,
    forward_sht,
)


def ylm_row(lmax, point):
    """All Y(l, m) with l <= lmax at one point, flat degree-major order."""
    return ylm_table(lmax, np.asarray(point, dtype=np.float64)[None, :])[0]


def _random_points(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_constant_function_projects_onto_monopole():
    _, rule = gen_gl_tensor(8)
    f = np.full(len(rule), 1.0 / np.sqrt(FOUR_PI), dtype=np.complex128)
    coeffs = forward_sht(f, rule, 3, path="direct-scalar")
    assert coeffs.get(0, 0) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(coeffs.values[1:])) <= 1e-10


def test_single_harmonic_recovered_exactly():
    _, rule = gen_gl_tensor(6)
    f = eval_ylm(3, 2, rule.points)
    coeffs = forward_sht(f, rule, 3, path="direct-scalar")
    assert coeffs.get(3, 2) == pytest.approx(1.0, abs=1e-10)
    others = coeffs.values.copy()
    others[3 * 3 + 3 + 2] = 0.0
    assert np.max(np.abs(others)) <= 1e-10


def test_single_point_rule_gives_scaled_conjugate_row():
    point = np.array([0.6, -0.48, 0.64])
    point /= np.linalg.norm(point)
    rule = QuadratureRule(point[None, :], np.array([FOUR_PI]), exactness=0)
    coeffs = forward_sht(np.ones(1, dtype=np.complex128), rule, 4, path="direct-scalar")
    assert np.allclose(coeffs.values, FOUR_PI * np.conj(ylm_row(4, point)), atol=1e-13)


def test_forward_rejects_length_mismatch():
    _, rule = gen_gl_tensor(4)
    with pytest.raises(ValueError):
        forward_sht(np.ones(len(rule) + 1), rule, 2, path="direct-scalar")
    with pytest.raises(ValueError):
        forward_sht(np.ones(len(rule)), rule, -1, path="direct-scalar")


def test_adjoint_unit_masses():
    rng = np.random.default_rng(2)
    pts = _random_points(rng, 20)
    g = ScalarCoefficients.zeros(2)
    g.values[0] = 1.0
    out = adjoint_sht(g, pts, path="direct-scalar")
    assert np.allclose(out, 1.0 / np.sqrt(FOUR_PI), atol=1e-14)

    g = ScalarCoefficients.zeros(1)
    g.values[2] = 1.0  # (1, 0)
    pole = adjoint_sht(g, np.array([[0.0, 0.0, 1.0]]), path="direct-scalar")
    assert pole[0] == pytest.approx(0.4886025119, abs=1e-10)

    zero = adjoint_sht(ScalarCoefficients.zeros(5), pts, path="direct-scalar")
    assert np.all(zero == 0.0)


def test_adjointness_identity():
    # <forward(f), g>_spectrum == <f, adjoint(g)>_weighted for any rule
    rng = np.random.default_rng(23)
    lmax = 16
    _, rule = gen_gl_tensor(2 * lmax)
    f = rng.standard_normal(len(rule)) + 1j * rng.standard_normal(len(rule))
    gv = rng.standard_normal(flat_size(lmax)) + 1j * rng.standard_normal(flat_size(lmax))
    g = ScalarCoefficients(lmax, gv)
    lhs = np.vdot(forward_sht(f, rule, lmax, path="direct-scalar").values, gv)
    rhs = np.sum(rule.weights * np.conj(f) * adjoint_sht(g, rule.points, path="direct-scalar"))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_exact_recovery_forward_after_adjoint():
    rng = np.random.default_rng(31)
    lmax = 10
    _, rule = gen_gl_tensor(2 * lmax)
    gv = rng.standard_normal(flat_size(lmax)) + 1j * rng.standard_normal(flat_size(lmax))
    g = ScalarCoefficients(lmax, gv)
    f = adjoint_sht(g, rule.points, path="direct-scalar")
    rec = forward_sht(f, rule, lmax, path="direct-scalar")
    assert np.max(np.abs(rec.values - gv)) <= 1e-10


@pytest.mark.parametrize("lmax", [3, 17, 64])
def test_fast_matches_direct(lmax):
    rng = np.random.default_rng(lmax)
    grid, rule = gen_gl_tensor(2 * (lmax + 1))
    f = rng.standard_normal(len(rule)) + 1j * rng.standard_normal(len(rule))
    fast = forward_sht(f, rule, lmax, path="fast-scalar")
    direct = forward_sht(f, rule, lmax, path="direct-scalar")
    assert np.max(np.abs(fast.values - direct.values)) <= 1e-11

    gv = rng.standard_normal(flat_size(lmax)) + 1j * rng.standard_normal(flat_size(lmax))
    g = ScalarCoefficients(lmax, gv)
    out_fast = adjoint_sht(g, grid, path="fast-scalar")
    out_direct = adjoint_sht(g, rule.points, path="direct-scalar")
    assert np.max(np.abs(out_fast - out_direct)) <= 1e-11


def _ring_weights(rng, n_theta, n_phi):
    """Random positive ring weights whose rule sums to 4pi."""
    w = rng.uniform(0.1, 1.0, n_theta)
    return w * FOUR_PI / (n_phi * np.sum(w))


def _fast_against_direct(grid, lmax, seed):
    """Relative errors of the fast forward and adjoint kernels against the direct ones."""
    rng = np.random.default_rng(seed)
    pts = grid.points()
    f = rng.standard_normal((len(grid), 3)) + 1j * rng.standard_normal((len(grid), 3))
    g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
    direct = _forward_direct_values(f, pts, lmax)
    forward = _relative(_forward_fast_values(f.copy(), grid, lmax), direct)
    adjoint = _relative(_adjoint_fast_values(g, lmax, grid), _adjoint_direct_values(g, lmax, pts))
    return forward, adjoint


def test_paired_plan_on_odd_ring_count_keeps_the_equator_as_a_row():
    lmax = 17
    grid, _ = gen_gl_tensor(2 * (lmax + 1))
    assert grid.n_theta == 19
    assert max(_fast_against_direct(grid, lmax, 43)) <= 1e-12
    plan = _plan(grid, lmax)
    assert plan.mirrors.size == 9 and plan.rings.size == 10
    assert plan.rings[-1] == 9  # the equator, unpaired


def test_asymmetric_grid_makes_every_ring_its_own_row():
    rng = np.random.default_rng(47)
    lmax = 12
    thetas = np.sort(rng.uniform(0.05, np.pi - 0.05, 11))
    grid = TensorGrid(thetas, _ring_weights(rng, 11, 2 * lmax + 3), 2 * lmax + 3)
    assert max(_fast_against_direct(grid, lmax, 53)) <= 1e-12
    plan = _plan(grid, lmax)
    assert plan.mirrors.size == 0 and np.array_equal(plan.rings, np.arange(11))


@pytest.mark.parametrize("perturbed", [[0, 1, 2, 3, 4, 5], [2]])
def test_rings_mirrored_only_to_1e_9_are_not_paired(perturbed):
    rng = np.random.default_rng(59)
    lmax = 10
    north = np.sort(rng.uniform(0.1, 1.5, 6))
    south_cos = -np.cos(north)
    south_cos[perturbed] += 1e-9
    thetas = np.r_[north, np.arccos(south_cos)[::-1]]
    grid = TensorGrid(thetas, _ring_weights(rng, 12, 2 * lmax + 1), 2 * lmax + 1)
    assert max(_fast_against_direct(grid, lmax, 61)) <= 1e-12
    plan = _plan(grid, lmax)
    assert plan.mirrors.size == 6 - len(perturbed)
    assert plan.rings.size == 12 - plan.mirrors.size


def test_paired_plan_holds_half_the_rings_legendre_values():
    lmax = 64
    grid, _ = gen_gl_tensor(2 * (lmax + 1))
    plan = _plan(grid, lmax)
    held = sum(block.nbytes for block in plan.even + plan.odd)
    full = grid.n_theta * sum(lmax - m + 1 for m in range(lmax + 1)) * 8
    assert held <= 0.55 * full
    # The views leave out their groups' padding; the buffer they share holds it.
    assert plan.even[0].base.nbytes <= 0.55 * full
    assert all(not block.flags.writeable for block in plan.even + plan.odd)
    # The blocks are views on one buffer, and plans of one lmax share the accumulator's layout.
    assert all(block.base is plan.even[0].base for block in plan.even + plan.odd)
    other = _plan(gen_gl_tensor(lmax)[0], lmax)  # orders fold on its lmax + 1 longitudes
    assert other.slots is plan.slots and other.sources is plan.sources and other.signs is plan.signs
    assert other.groups is plan.groups and other.source_signs is plan.source_signs


def _contract_by_order(spectrum, plan, lmax, real):
    """Flat sums from the rings' DFT bins, one order and one sign of m at a time, on the plan's views."""
    width, c = spectrum.shape[1:]
    pairs = plan.mirrors.size
    out = np.empty((flat_size(lmax), c), dtype=np.complex128)
    for m in range(lmax + 1):
        for sign in (1,) if real or m == 0 else (1, -1):
            bin_, factor = (m, 1.0) if sign > 0 else (width - m, (-1.0) ** m)
            ring, mirror = spectrum[plan.rings, bin_], spectrum[plan.mirrors, bin_]
            total, diff = ring.copy(), ring.copy()
            total[:pairs] += mirror
            diff[:pairs] -= mirror
            for first, block, part in ((m, plan.even[m], total), (m + 1, plan.odd[m], diff)):
                ls = np.arange(first, lmax + 1, 2)
                out[ls * ls + ls + sign * m] = factor * (block.T @ part)
        if real and m:
            ls = np.arange(m, lmax + 1)
            out[ls * ls + ls - m] = (-1.0) ** m * out[ls * ls + ls + m].conj()
    return out


def _expand_by_order(values, plan, lmax, n_rings, width):
    """The rings' DFT bins of the flat columns, one order and one sign of m at a time."""
    pairs = plan.mirrors.size
    spectrum = np.zeros((n_rings, width, values.shape[1]), dtype=np.complex128)
    for m in range(lmax + 1):
        for sign in (1,) if m == 0 else (1, -1):
            bin_, factor = (m, 1.0) if sign > 0 else (width - m, (-1.0) ** m)
            parts = []
            for first, block in ((m, plan.even[m]), (m + 1, plan.odd[m])):
                ls = np.arange(first, lmax + 1, 2)
                parts.append(block @ (factor * values[ls * ls + ls + sign * m]))
            spectrum[plan.rings, bin_] = parts[0] + parts[1]
            spectrum[plan.mirrors, bin_] = (parts[0] - parts[1])[:pairs]
    return spectrum


def test_order_groups_match_the_per_order_contraction():
    from favest.scalar import _accumulator_layout, _contract_orders, _expand_orders

    rng = np.random.default_rng(47)  # the asymmetric grid of test_asymmetric_grid_makes_every_ring_its_own_row
    thetas = np.sort(rng.uniform(0.05, np.pi - 0.05, 11))
    cases = [(gen_gl_tensor(2 * (lmax + 1))[0], lmax) for lmax in (1, 2, 17, 64)]
    cases += [(gen_gl_tensor(30)[0], 30), (TensorGrid(thetas, _ring_weights(rng, 11, 27), 27), 12)]
    rng = np.random.default_rng(73)
    for grid, lmax in cases:
        plan = _plan(grid, lmax)
        width = plan.folds * grid.n_phi
        for c in (1, 2):
            for real in (True, False):
                bins = lmax + 1 if real else width
                spectrum = rng.standard_normal((grid.n_theta, bins, 2 * c)).view(np.complex128)
                want = _contract_by_order(spectrum, plan, lmax, real)
                assert _relative(_contract_orders(spectrum, plan, lmax, real), want) <= 1e-14, (lmax, c, real)
            g = rng.standard_normal((flat_size(lmax), 2 * c)).view(np.complex128)
            want = _expand_by_order(g, plan, lmax, grid.n_theta, width)
            assert _relative(_expand_orders(g, plan, lmax, grid.n_theta, width), want) <= 1e-14, (lmax, c)
            # Real coefficient columns take the same stage.
            want = _expand_by_order(g.real + 0j, plan, lmax, grid.n_theta, width)
            assert _relative(_expand_orders(g.real + 0j, plan, lmax, grid.n_theta, width), want) <= 1e-14

    # A group grows while its padding is at most 1/32 of its entries plus 8 columns.
    for lmax, count, padding in ((140, 22, 0.0428), (257, 30, 0.0358)):
        groups = _accumulator_layout(lmax)[0]
        assert len(groups) == count
        entries = lmax + 1 - np.arange(lmax + 2)  # per order; order lmax + 1 has none
        for orders, _, _ in groups:
            lo, hi = orders.start, orders.stop
            assert (hi - lo) * (hi - lo - 1) / 2 <= entries[lo:hi].sum() / 32 + 8
            grown = (hi - lo + 1) * (hi - lo) / 2 > entries[lo : hi + 1].sum() / 32 + 8
            assert hi == lmax + 1 or grown
        held = (lmax + 1) * (lmax + 2) // 2
        assert padding - 1e-3 < (_accumulator_layout(lmax)[2].size // 2 - held) / held <= padding


def _ring_grid(thetas, n_phi):
    """A grid on the given rings whose equal weights sum to 4pi, as a rule's must."""
    thetas = np.asarray(thetas)
    return TensorGrid(thetas, np.full(thetas.size, FOUR_PI / (thetas.size * n_phi)), n_phi)


def test_fast_path_folds_aliased_orders():
    # On n_phi < 2*lmax + 1 longitudes, orders m and m + n_phi share a DFT bin;
    # the fast path still matches the direct sums on both kernels.
    rng = np.random.default_rng(41)
    asymmetric = [0.3, 1.0, 1.7, 2.6]
    cases = [
        (_ring_grid(asymmetric, 1), 9),
        (_ring_grid(asymmetric, 2), 9),
        (_ring_grid(asymmetric, 7), 9),  # 7: an odd prime < 19
        (_ring_grid([0.4, 1.2, np.pi - 0.4], 5), 12),  # one mirrored pair
        (gen_gl_tensor(10)[0], 6),  # one order past the old n_phi >= 2*lmax + 1 bound
        (gen_gl_tensor(40)[0], 40),
    ]
    for grid, lmax in cases:
        assert grid.n_phi < 2 * lmax + 1
        rule = QuadratureRule(grid.points(), np.repeat(grid.ring_weights, grid.n_phi), 0)
        f = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        g = rng.standard_normal(flat_size(lmax)) + 1j * rng.standard_normal(flat_size(lmax))
        g = ScalarCoefficients(lmax, g)
        want = forward_sht(f, rule, lmax, path="direct-scalar").values
        assert _relative(forward_sht(f, rule, lmax, path="fast-scalar").values, want) <= 1e-12, grid
        want = adjoint_sht(g, rule, path="direct-scalar")
        assert _relative(adjoint_sht(g, grid, path="fast-scalar"), want) <= 1e-12, grid
        assert grid._slot[0] == lmax


def _real_half_cases():
    """(route, where, lmax): the direct sums, the fast path unfolded and folded, and the NUFFT."""
    rng = np.random.default_rng(43)
    return [
        ("direct", _awkward_points(rng, 300), 17),
        ("fast", gen_gl_tensor(36)[0], 17),  # n_phi = 37 >= 2 * 17 + 1
        ("fast", gen_gl_tensor(30)[0], 30),  # a GL grid at its own degree: n_phi = 31 folds orders
        ("nufft", _awkward_points(rng, 2500), 40),
    ]


@pytest.mark.parametrize("case", range(4), ids=["direct", "fast", "fast-folded", "nufft"])
def test_real_samples_take_the_half_with_orders_m_at_least_0(case):
    route, where, lmax = _real_half_cases()[case]
    forward = getattr(favest.scalar, f"_forward_{route}_values")
    rng = np.random.default_rng([case, lmax])
    n = len(where)
    z = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x = z.real.copy()
    real = forward(x.copy(), where, lmax)
    # The same samples as complex128 take the full transform.
    assert _relative(real, forward(x.astype(np.complex128), where, lmax)) <= 1e-14
    # F(l, -m) = (-1)**m conj F(l, m), exactly.
    ls, ms = degrees_orders(lmax)
    half = ms >= 0
    mirrored = ls[half] * ls[half] + ls[half] - ms[half]
    signs = np.where(ms[half] % 2, -1.0, 1.0)[:, None]
    assert np.array_equal(real[mirrored], signs * real[half].conj())
    # A complex transform is the real transforms of its two parts.
    parts = real + 1j * forward(z.imag.copy(), where, lmax)
    assert _relative(forward(z.copy(), where, lmax), parts) <= 1e-14


def test_forward_sht_keeps_real_samples_real(monkeypatch):
    _, rule = gen_gl_tensor(20)
    fast, seen = favest.scalar._forward_fast_values, []

    def spy(f, grid, lmax):
        seen.append(f.dtype)
        return fast(f, grid, lmax)

    monkeypatch.setattr(favest.scalar, "_forward_fast_values", spy)
    x = np.cos(rule.points[:, 0])
    for f in (x, x.astype(np.float32), np.ones(len(rule), dtype=int), x + 0j):
        forward_sht(f, rule, 10)
    assert seen == [np.float64] * 3 + [np.complex128]


def test_tensor_grid_validation():
    with pytest.raises(ValueError):
        TensorGrid(np.array([0.5, 0.4]), np.array([1.0, 1.0]), 4)  # not increasing
    with pytest.raises(ValueError):
        TensorGrid(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 4)  # touches pole
    with pytest.raises(ValueError):
        TensorGrid(np.array([0.5]), np.array([1.0]), 0)
    for bad in (3.5, float("nan"), "3"):
        with pytest.raises(ValueError, match="n_phi"):
            TensorGrid(np.array([0.5]), np.array([1.0]), bad)
    assert TensorGrid(np.array([0.5]), np.array([1.0]), np.int32(3)).n_phi == 3
    grid = TensorGrid(np.array([0.5, 1.0]), np.array([1.0, 1.0]), 3)
    assert grid.n_theta == 2
    assert len(grid) == 6
    assert grid.points().shape == (6, 3)


def test_tensor_grid_rejects_nan_colatitude():
    with pytest.raises(ValueError, match="colatitudes"):
        TensorGrid(np.array([np.nan, 1.0]), np.array([1.0, 1.0]), 8)
    with pytest.raises(ValueError, match="colatitudes"):
        TensorGrid(np.array([0.5, np.nan]), np.array([1.0, 1.0]), 8)


def test_tensor_grid_rejects_non_finite_weights():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="weights"):
            TensorGrid(np.array([0.5, 1.0]), np.array([bad, 1.0]), 8)


def test_direct_paths_across_chunk_boundaries(monkeypatch):
    rng = np.random.default_rng(29)
    lmax, n = 9, 37
    pts = _random_points(rng, n)
    pts[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    f = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
    one_fwd = _forward_direct_values(f, pts, lmax)
    one_adj = _adjoint_direct_values(g, lmax, pts)
    # At most 16, then at most 5, points per chunk.
    for per_chunk in (16, 5):
        monkeypatch.setattr(favest.legendre, "_CHUNK_ENTRIES", per_chunk * (lmax + 1) ** 2)
        assert len(favest.legendre._point_chunks(n, lmax)) == -(-n // per_chunk)
        fwd = _forward_direct_values(f, pts, lmax)
        adj = _adjoint_direct_values(g, lmax, pts)
        assert np.max(np.abs(fwd - one_fwd)) <= 1e-12 * np.max(np.abs(one_fwd))
        assert np.max(np.abs(adj - one_adj)) <= 1e-12 * np.max(np.abs(one_adj))
    y = ylm_table(lmax, pts)
    ref_fwd = y.conj().T @ f
    ref_adj = y @ g
    assert np.max(np.abs(one_fwd - ref_fwd)) <= 1e-12 * np.max(np.abs(ref_fwd))
    assert np.max(np.abs(one_adj - ref_adj)) <= 1e-12 * np.max(np.abs(ref_adj))


def test_direct_adjoint_rejects_non_unit_points():
    pts = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.6]])
    with pytest.raises(ValueError):
        adjoint_sht(ScalarCoefficients.zeros(2), pts, path="direct-scalar")


def _awkward_points(rng, n):
    """Random points led by both poles, phi = 0, phi = pi and phi just below 2pi."""
    pts = _random_points(rng, n)
    s = np.sin(0.7)
    special = [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [s, 0.0, np.cos(0.7)],
        [-s, 0.0, np.cos(0.7)],
        [s * np.cos(1e-13), -s * np.sin(1e-13), np.cos(0.7)],
    ]
    k = min(n, len(special))
    pts[:k] = special[:k]
    return pts


def _relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n, lmax", [(1, 5), (1, 40), (7, 0), (60, 3), (700, 17), (2500, 65)])
def test_nufft_matches_direct(n, lmax):
    rng = np.random.default_rng([n, lmax])
    pts = _awkward_points(rng, n)
    f = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
    assert _relative(_adjoint_nufft_values(g, lmax, pts), _adjoint_direct_values(g, lmax, pts)) <= 1e-11
    forward = _forward_nufft_values(f, pts, lmax)
    assert _relative(forward, _forward_direct_values(f, pts, lmax)) <= 1e-11


@pytest.mark.parametrize("lmax", [0, 5, 40, 46])  # 46: the NUFFT pads n from 94 to 96
@pytest.mark.parametrize("route", ["direct", "nufft", "fast"])
def test_each_route_is_an_adjoint_pair(route, lmax):
    # <A^H f, g> = <f, A g>: each forward kernel is the unweighted adjoint of its adjoint kernel.
    rng = np.random.default_rng([lmax, len(route)])
    forward = getattr(favest.scalar, f"_forward_{route}_values")
    adjoint = getattr(favest.scalar, f"_adjoint_{route}_values")
    if route == "fast":
        # The second grid folds orders above its n_phi / 2 into shared bins.
        grids = (gen_gl_tensor(2 * (lmax + 1))[0], TensorGrid(np.array([0.2, 1.3, 2.0]), np.ones(3), 5))
        places = [(grid.points(), grid) for grid in grids]
    else:
        places = [(pts, pts) for pts in (_awkward_points(rng, n) for n in (1, 37, 2500))]
    for pts, where in places:
        f = rng.standard_normal((len(pts), 2)) + 1j * rng.standard_normal((len(pts), 2))
        g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
        analysis = forward(f.copy(), where, lmax)
        lhs = np.vdot(analysis, g)
        rhs = np.vdot(f, adjoint(g, lmax, where))
        bound = 1e-12 * np.linalg.norm(analysis) * np.linalg.norm(g)
        assert abs(lhs - rhs) <= bound, (len(pts), lhs, rhs)


def test_nufft_error_falls_as_kernel_widens(monkeypatch):
    rng = np.random.default_rng(37)
    lmax = 30
    pts = _awkward_points(rng, 400)
    g = rng.standard_normal((flat_size(lmax), 1)) + 1j * rng.standard_normal((flat_size(lmax), 1))
    f = rng.standard_normal((400, 1)) + 1j * rng.standard_normal((400, 1))
    adjoint = _adjoint_direct_values(g, lmax, pts)
    forward = _forward_direct_values(f, pts, lmax)
    errors = []
    for width in (3, 5, 7, 9, 11, 13):
        monkeypatch.setattr(favest.scalar, "_NUFFT_WIDTH", width)
        errors.append((
            _relative(_adjoint_nufft_values(g, lmax, pts), adjoint),
            _relative(_forward_nufft_values(f, pts, lmax), forward),
        ))
    # About one digit per unit of width: each step of two gains at least 30x.
    for wider, narrower in zip(errors[1:], errors):
        assert wider[0] * 30 <= narrower[0] and wider[1] * 30 <= narrower[1], errors
    assert max(errors[-1]) <= 1e-11


def test_nufft_stencil_batches_match_one_batch(monkeypatch):
    rng = np.random.default_rng(41)
    lmax, n = 12, 50
    pts = _awkward_points(rng, n)
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
    width = favest.scalar._NUFFT_WIDTH
    n_fine = 2 * _nufft_setup(lmax, width)[0].n_phi
    monkeypatch.setattr(favest.scalar, "_BAND_ROWS", n_fine)
    assert len(list(favest.scalar._stencil_bands(pts, n_fine, width))) == 1
    one_fwd = _forward_nufft_values(f, pts, lmax)
    one_adj = _adjoint_nufft_values(g, lmax, pts)
    monkeypatch.setattr(favest.scalar, "_STENCIL_ENTRIES", 8 * width * width)
    counts = []
    for band_rows in (n_fine, 6):  # split by point count, then by colatitude band as well
        monkeypatch.setattr(favest.scalar, "_BAND_ROWS", band_rows)
        counts.append(len(list(favest.scalar._stencil_bands(pts, n_fine, width))))
        assert np.array_equal(_adjoint_nufft_values(g, lmax, pts), one_adj)
        assert _relative(_forward_nufft_values(f, pts, lmax), one_fwd) <= 1e-14
    assert counts[0] == 7 and counts[1] > 7, counts


def test_nufft_factors_are_the_dense_factors_separated():
    for lmax in (0, 5, 40):
        width = favest.scalar._NUFFT_WIDTH
        grid, _, theta_factors, phi_factors = _nufft_setup(lmax, width)
        # The (2 lmax + 1)**2 table the factors once were, on the auxiliary grid's n.
        n = grid.n_phi
        freqs = np.r_[0 : lmax + 1, -lmax:0]
        z, wz = np.polynomial.legendre.leggauss(4 * width)
        kernel = np.exp(2.3 * width * (np.sqrt(1.0 - z * z) - 1.0))
        p = 0.5 * width * (np.cos(np.outer(freqs, z) * (width * np.pi / (2 * n))) @ (wz * kernel))
        # The fine grid's first formed row sits at theta = -width * pi / n:
        # a phase of width * pi / n per frequency.
        dense = (np.exp(-1j * np.pi * freqs * (1 + width) / n) / (n * n * p))[:, None] / p[None, :]
        assert theta_factors.shape == (2 * lmax + 1, 1, 1) and phi_factors.shape == (2 * lmax + 1, 1)
        assert _relative((theta_factors * phi_factors)[..., 0], dense) <= 1e-15


def test_nufft_forward_spreads_without_a_second_fine_grid(monkeypatch):
    rng = np.random.default_rng(71)
    lmax, n = 64, 2000
    width = favest.scalar._NUFFT_WIDTH
    # Small stencil blocks, so that the fine grid dominates the peak.
    monkeypatch.setattr(favest.scalar, "_STENCIL_ENTRIES", 64 * width * width)
    pts = _awkward_points(rng, n)
    f = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    g = rng.standard_normal((flat_size(lmax), 1)) + 1j * rng.standard_normal((flat_size(lmax), 1))
    fine_grid = (4 * lmax + 4) ** 2 * 16  # bytes of the 2n x 2n complex fine grid
    # The adjoint is the same chain transposed; it frees each block before the
    # fine grid is formed, so it is held closer.
    for kernel, bound in (
        (lambda: _forward_nufft_values(f, pts, lmax), 1.75),
        (lambda: _adjoint_nufft_values(g, lmax, pts), 1.3),
    ):
        kernel()  # warm-up: the auxiliary grid and its plan
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One fine grid plus bands, never a whole-grid temporary per stencil batch.
        assert peak <= bound * fine_grid, (peak, fine_grid)


def test_nufft_batches_take_consecutive_colatitude_bands(monkeypatch):
    rng = np.random.default_rng(73)
    width, n_fine = favest.scalar._NUFFT_WIDTH, 260
    monkeypatch.setattr(favest.scalar, "_STENCIL_ENTRIES", 64 * width * width)
    pts = _awkward_points(rng, 2000)
    batches = list(favest.scalar._stencil_bands(pts, n_fine, width))
    assert sorted(np.concatenate([batch.idx for batch in batches])) == list(range(2000))
    starts = [batch.band.start for batch in batches]
    assert starts == sorted(starts)
    # Kernel start rows span n_fine / 2 + 1 rows in all; sorted batches share
    # that span and add one kernel width each.
    heights = [batch.band.stop - batch.band.start for batch in batches]
    assert sum(heights) <= n_fine // 2 + 1 + len(batches) * width, heights


def test_nufft_stencils_lie_inside_the_fine_grid():
    rng = np.random.default_rng(79)
    pts = _awkward_points(rng, 300)  # both poles included
    for lmax in range(9):
        for width in range(3, 14):
            n_fine = 2 * _nufft_setup(lmax, width)[0].n_phi
            for batch in favest.scalar._stencil_bands(pts, n_fine, width):
                rows = batch.band
                assert 0 <= rows.start < rows.stop <= n_fine, (lmax, width, rows)
                assert batch.phi.shape == (batch.idx.size, n_fine)
                assert batch.theta.shape == (batch.idx.size, rows.stop - rows.start)
                # Each stencil's width rows are consecutive and lie inside its batch's band.
                nonzero = batch.theta != 0.0
                first = nonzero.argmax(axis=1)
                assert np.all(nonzero.sum(axis=1) == width) and first.max() + width <= rows.stop - rows.start
                assert np.all(np.take_along_axis(nonzero, first[:, None] + np.arange(width), axis=1))


def test_nufft_stencil_factors_are_the_kernel_at_each_node():
    rng = np.random.default_rng(113)
    pts = _awkward_points(rng, 200)  # both poles, and phi just below 2pi
    theta = np.arccos(pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    for lmax, width in ((8, 5), (20, 13)):
        n_fine = 2 * _nufft_setup(lmax, width)[0].n_phi
        step = 2.0 * np.pi / n_fine
        for batch in favest.scalar._stencil_bands(pts, n_fine, width):
            phi_taps = batch.phi.toarray()
            for k, point in enumerate(batch.idx):
                (rows,) = np.nonzero(batch.theta[k])
                (cols,) = np.nonzero(phi_taps[k])
                assert np.array_equal(rows, np.arange(rows[0], rows[0] + width))
                # The columns wrap in phi: one run of width consecutive ones, modulo n_fine.
                assert cols.size == width and np.sum(~np.isin((cols + 1) % n_fine, cols)) == 1
                # Fine row r sits at theta = (band.start + r - width) * step.
                z_theta = (theta[point] / step + width - (batch.band.start + rows)) * (2.0 / width)
                d_phi = (phi[point] - cols * step + np.pi) % (2.0 * np.pi) - np.pi
                z_phi = d_phi / step * (2.0 / width)
                assert np.all(np.abs(z_theta) <= 1.0) and np.all(np.abs(z_phi) <= 1.0)
                got = np.outer(batch.theta[k, rows], phi_taps[k, cols])
                want = np.outer(favest.scalar._es_kernel(z_theta, width), favest.scalar._es_kernel(z_phi, width))
                assert np.allclose(got, want, rtol=1e-11, atol=1e-15), (lmax, width, point)


def test_nufft_adjoint_rejects_non_unit_points():
    pts = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.6]])
    with pytest.raises(ValueError):
        adjoint_favest(VectorCoefficients.zeros(2), pts, path="nufft")


def test_nufft_auxiliary_grid_takes_the_paired_plan():
    rng = np.random.default_rng(67)
    lmax, n = 65, 300
    pts = _awkward_points(rng, n)
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
    assert _relative(_adjoint_nufft_values(g, lmax, pts), _adjoint_direct_values(g, lmax, pts)) <= 1e-11
    assert _relative(_forward_nufft_values(f, pts, lmax), _forward_direct_values(f, pts, lmax)) <= 1e-11
    grid = _nufft_setup(lmax, favest.scalar._NUFFT_WIDTH)[0]
    plan = _plan(grid, lmax)
    assert grid.n_theta == 66 and plan.mirrors.size == 33 and plan.rings.size == 33


def test_nufft_grid_is_the_smallest_fast_even_size():
    from scipy.fft import next_fast_len

    for width in range(3, 14):
        for lmax in range(301):
            n = _nufft_setup(lmax, width)[0].n_phi
            low = max(2 * lmax + 2, 2 * width)
            assert n % 2 == 0 and n >= low and next_fast_len(2 * n) == 2 * n, (lmax, width, n)
            assert all(next_fast_len(2 * m) != 2 * m for m in range(low, n, 2)), (lmax, width, n)


@pytest.mark.parametrize("lmax, n_aux", [(46, 96), (140, 288)])
def test_nufft_matches_direct_on_a_padded_grid(lmax, n_aux):
    rng = np.random.default_rng(lmax)
    pts = _awkward_points(rng, 300)
    assert _nufft_setup(lmax, favest.scalar._NUFFT_WIDTH)[0].n_phi == n_aux > 2 * lmax + 2
    f = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
    g = rng.standard_normal((flat_size(lmax), 2)) + 1j * rng.standard_normal((flat_size(lmax), 2))
    assert _relative(_adjoint_nufft_values(g, lmax, pts), _adjoint_direct_values(g, lmax, pts)) <= 1e-11
    assert _relative(_forward_nufft_values(f, pts, lmax), _forward_direct_values(f, pts, lmax)) <= 1e-11


def test_nufft_stencils_reach_only_the_formed_rows():
    # The fine grid holds only the n_fine/2 + 2*width rows stencils can reach.
    rng = np.random.default_rng(83)
    pts = _awkward_points(rng, 300)  # both poles included
    for lmax in (0, 8, 40):
        for width in range(3, 14):
            n_fine = 2 * _nufft_setup(lmax, width)[0].n_phi
            for batch in favest.scalar._stencil_bands(pts, n_fine, width):
                rows = batch.band
                assert 0 <= rows.start < rows.stop <= n_fine // 2 + 2 * width, (lmax, width, rows)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = favest.scalar._es_kernel

    def counted(z, width):
        calls.append(width)
        return kernel(z, width)

    monkeypatch.setattr(favest.scalar, "_es_kernel", counted)
    return calls


def _random_rule(rng, n):
    pts = _random_points(rng, n)
    return QuadratureRule(pts, np.full(n, FOUR_PI / n), exactness=0)


def test_nufft_stencil_factors_are_built_once_per_rule(monkeypatch):
    rng = np.random.default_rng(89)
    calls = _count_kernel_calls(monkeypatch)
    first, second = _random_rule(rng, 2500), _random_rule(rng, 2500)
    t = 40
    defects = [verify_exactness(rule, t) for rule in (first, second)]
    assert calls and first._slot[0] == second._slot[0] == (168, 13)
    calls.clear()
    # Warm: each rule reads its own entry, and builds nothing.
    assert [verify_exactness(rule, t) for rule in (first, second)] == defects
    assert calls == []
    # A vector transform at scalar degree t reads the same entry both ways.
    lmax = t - 1
    coeffs = VectorCoefficients.zeros(lmax)
    coeffs.div.values[1:] = rng.standard_normal(flat_size(lmax) - 1)
    for _ in range(2):
        samples = adjoint_favest(coeffs, first)
        forward_favest(samples, first, lmax)
    assert calls == [] and first._slot[0] == (168, 13)
    # The cached factors give what factors built afresh give, on the real ones verify_exactness sums.
    fresh = _forward_nufft_values(first.weights[:, None], first.points, t)[:, 0]
    fresh[0] -= np.sqrt(FOUR_PI)
    assert np.max(np.abs(fresh)) == defects[0][0]


def _count_sparse_builds(monkeypatch):
    from scipy.sparse import _base

    builds = []
    init = _base._spbase.__init__

    def counted(self, *args, **kwargs):
        builds.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_base._spbase, "__init__", counted)
    return builds


def test_warm_nufft_calls_on_a_rule_build_no_stencil(monkeypatch):
    rng = np.random.default_rng(107)
    rule, fresh = _random_rule(rng, 2500), _random_rule(rng, 2500)
    t = 40
    lmax = t - 1
    coeffs = VectorCoefficients.zeros(lmax)
    coeffs.div.values[1:] = rng.standard_normal(flat_size(lmax) - 1)
    verify_exactness(rule, t)  # cold: the rule's stencil factors
    forward_favest(adjoint_favest(coeffs, rule), rule, lmax)  # cold: K and its transpose
    kernels = _count_kernel_calls(monkeypatch)
    builds = _count_sparse_builds(monkeypatch)
    verify_exactness(fresh, t)
    assert kernels and builds  # both counters see a cold call
    kernels.clear()
    builds.clear()
    verify_exactness(rule, t)
    assert kernels == [] and builds == []
    # The vector transforms at scalar degree t, coupling included: see
    # test_warm_vector_round_trip_builds_nothing.
    for _ in range(2):
        forward_favest(adjoint_favest(coeffs, rule), rule, lmax)
    assert kernels == [] and builds == []


@pytest.mark.parametrize(
    "make_rule, route",
    [(lambda rng: _random_rule(rng, 3000), "nufft"), (lambda rng: gen_gl_tensor(82)[1], "fast-scalar")],
    ids=["nufft", "grid"],
)
def test_warm_vector_round_trip_builds_nothing(monkeypatch, make_rule, route):
    rng = np.random.default_rng(127)
    rule, lmax = make_rule(rng), 40
    assert favest.scalar._pick_path("auto", rule.grid, lmax + 1, len(rule)) == route
    coeffs = VectorCoefficients.zeros(lmax)
    coeffs.div.values[1:] = rng.standard_normal(flat_size(lmax) - 1)
    coeffs.curl.values[1:] = rng.standard_normal(flat_size(lmax) - 1)
    want = forward_favest(adjoint_favest(coeffs, rule), rule, lmax)  # cold: plans, factors, K
    kernels = _count_kernel_calls(monkeypatch)
    builds = _count_sparse_builds(monkeypatch)
    for _ in range(2):
        got = forward_favest(adjoint_favest(coeffs, rule), rule, lmax)
        assert np.array_equal(got.div.values, want.div.values)
        assert np.array_equal(got.curl.values, want.curl.values)
    # No kernel evaluation and no sparse matrix, K's transpose included.
    assert kernels == [] and builds == []


def test_nufft_rule_keeps_its_separable_factors_in_320_bytes_per_point():
    rng = np.random.default_rng(109)
    rule = _random_rule(rng, 10000)
    verify_exactness(rule, 65)
    _, batches = rule._slot
    width = favest.scalar._NUFFT_WIDTH
    buffers = {}
    for batch in batches:
        # Each point keeps its phi taps as a sparse row, and its theta taps as a row of the band.
        assert batch.phi.nnz == np.count_nonzero(batch.theta) == width * batch.idx.size
        for value in vars(batch).values():
            arrays = (value.data, value.indices, value.indptr) if hasattr(value, "indptr") else (value,)
            for array in arrays:
                if isinstance(array, np.ndarray):
                    while isinstance(array.base, np.ndarray):  # a view keeps its base alive
                        array = array.base
                    buffers[id(array)] = array.nbytes
    assert sum(buffers.values()) <= 320 * len(rule), sum(buffers.values()) / len(rule)


def test_nufft_stencil_cache_keys_on_degree_and_width(monkeypatch):
    rng = np.random.default_rng(97)
    rule = _random_rule(rng, 2500)
    calls = _count_kernel_calls(monkeypatch)
    verify_exactness(rule, 40)  # n = 84: fine grid 168
    assert rule._slot[0] == (168, 13)
    calls.clear()
    # A rule keeps the factors of its last (fine grid, width) only.
    verify_exactness(rule, 60)  # n = 126: fine grid 252
    assert calls and rule._slot[0] == (252, 13)
    calls.clear()
    monkeypatch.setattr(favest.scalar, "_NUFFT_WIDTH", 9)
    defect, _ = verify_exactness(rule, 40)
    assert calls and rule._slot[0] == (168, 9)
    sums = _forward_direct_values(rule.weights[:, None].astype(complex), rule.points, 40)[:, 0]
    sums[0] -= np.sqrt(FOUR_PI)
    assert abs(defect - np.max(np.abs(sums))) <= 1e-7  # width 9: about 1e-9 relative


def test_nufft_on_raw_points_holds_one_batch_of_stencil_factors(monkeypatch):
    rng = np.random.default_rng(103)
    lmax, n = 8, 20000
    width = favest.scalar._NUFFT_WIDTH
    monkeypatch.setattr(favest.scalar, "_STENCIL_ENTRIES", 64 * width * width)
    pts = _random_points(rng, n)
    f = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    g = rng.standard_normal((flat_size(lmax), 1)) + 1j * rng.standard_normal((flat_size(lmax), 1))
    _adjoint_nufft_values(g, lmax, pts)  # warm-up: the auxiliary grid and its plan
    peaks = []
    for call in (lambda: _adjoint_nufft_values(g, lmax, pts), lambda: _forward_nufft_values(f, pts, lmax)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The angles, their order and the adjoint's output take about 60 bytes
    # per point; the whole point set's factors would add about 310 more.
    assert max(peaks) <= 100 * n, peaks


def test_nufft_on_a_changed_raw_array_gives_the_new_points_values(monkeypatch):
    rng = np.random.default_rng(101)
    lmax = 40
    coeffs = VectorCoefficients.zeros(lmax)
    coeffs.div.values[1:] = rng.standard_normal(flat_size(lmax) - 1)
    pts = _random_points(rng, 2500)
    width = favest.scalar._NUFFT_WIDTH
    n_fine = 2 * _nufft_setup(lmax + 1, width)[0].n_phi  # counted below: the stencil factors only
    calls = _count_kernel_calls(monkeypatch)
    for _ in range(2):
        batches = sum(1 for _ in favest.scalar._stencil_bands(pts, n_fine, width))
        calls.clear()
        got = adjoint_favest(coeffs, pts, path="nufft").values
        want = adjoint_favest(coeffs, pts.copy(), path="direct-scalar").values
        assert _relative(got, want) <= 1e-11
        # Raw points build their factors, one kernel per axis and batch, on every call.
        assert len(calls) == 2 * batches
        calls.clear()
        pts[:] = pts[:, [2, 0, 1]]  # the same array, other points
