import tracemalloc

import numpy as np
import pytest

from favest.core import ScalarCoefficients, VectorCoefficients, degrees_orders, flat_index, flat_size
from favest.coupling import (
    _coupling_transpose,
    apply_coupling,
    build_adjoint_coupling,
    build_cg_tables,
    cg_explicit,
    clebsch_gordan,
    coupling_matrix,
    coupling_weight_c,
    coupling_weight_d,
    wigner_3j,
)


def test_frozen_coefficient_values():
    assert cg_explicit(0, 0, 1, 1) == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    for l in range(1, 12):
        assert cg_explicit(0, 0, l, 0) == 0.0
    assert cg_explicit(-1, 1, 2, 1) == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_cg_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cg_explicit(2, 0, 3, 1)
    with pytest.raises(ValueError):
        cg_explicit(0, -2, 3, 1)


def test_cg_out_of_range_returns_zero():
    assert cg_explicit(-1, 0, 0, 0) == 0.0  # coupled degree would be -1
    assert cg_explicit(0, 1, 3, 4) == 0.0  # |m| > l
    assert cg_explicit(-1, 1, 1, -1) == 0.0  # |m - m2| > l - 1


def test_wigner_3j_frozen_and_selection_rules():
    assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / np.sqrt(3), abs=1e-14)
    assert wigner_3j(1, 1, 1, 1, 1, -2) == 0.0  # |m3| > j3
    assert wigner_3j(2, 1, 1, 1, 0, 0) == 0.0  # m-sum violated
    assert wigner_3j(5, 1, 2, 0, 0, 0) == 0.0  # triangle violated


def test_clebsch_gordan_selection_rule():
    assert clebsch_gordan(1, 0, 1, 1, 1, 0) == 0.0
    assert clebsch_gordan(1, 0, 1, 0, 1, 0) == 0.0  # vanishing 3j case


def test_explicit_formulas_match_oracle():
    # all nine (dl, m2) branches against the factorial-sum route
    for l in range(0, 13):
        for m in range(-l, l + 1):
            for dl in (-1, 0, 1):
                for m2 in (-1, 0, 1):
                    got = cg_explicit(dl, m2, l, m)
                    want = clebsch_gordan(l + dl, m - m2, 1, m2, l, m) if l + dl >= 0 else 0.0
                    assert got == pytest.approx(want, abs=1e-13), (dl, m2, l, m)


def test_branch_weights():
    assert coupling_weight_c(1) == pytest.approx(0.8164965809277260, abs=1e-15)
    assert coupling_weight_d(1) == pytest.approx(0.5773502691896258, abs=1e-15)
    assert coupling_weight_d(0) == 0.0
    for l in range(101):
        assert coupling_weight_c(l) ** 2 + coupling_weight_d(l) ** 2 == pytest.approx(
            1.0, abs=1e-14
        )


def test_table_zero_patterns():
    tables = build_cg_tables(6)
    for l in range(8):
        assert tables.mu[2][flat_index(l, 0)] == 0.0
    for m in (-1, 0, 1):
        assert tables.xi[2][flat_index(1, m)] == 0.0  # d_0 = 0 kills the branch
    for i in range(1, 7):
        assert np.all(np.isfinite(tables.xi[i]))
    for i in range(1, 4):
        assert np.all(np.isfinite(tables.mu[i]))
    assert tables.c[1] == pytest.approx(coupling_weight_c(1))
    assert tables.d.shape == tables.c.shape == (8,)


def test_mu_antisymmetry():
    tables = build_cg_tables(29)
    for l in range(0, 31):
        for m in range(0, l + 1):
            lhs = tables.mu[1][flat_index(l, -m)]
            rhs = -tables.mu[3][flat_index(l, m)]
            assert lhs == pytest.approx(rhs, abs=1e-14), (l, m)


def test_adjoint_coupling_zero_input():
    merged = build_adjoint_coupling(VectorCoefficients.zeros(4))
    assert merged.shape == (flat_size(5), 3)
    assert np.all(merged == 0.0)


def test_adjoint_coupling_unit_div_mass():
    a = ScalarCoefficients.zeros(1)
    a.values[flat_index(1, 0)] = 1.0
    coeffs = VectorCoefficients(a, ScalarCoefficients.zeros(1))
    merged = build_adjoint_coupling(coeffs)
    # the z column at (0,0) reads a(1,0) against c_1 * C(1,0 | 0,0,1,0)
    want = coupling_weight_c(1) * cg_explicit(-1, 0, 1, 0)
    assert merged[0, 2] == pytest.approx(want, abs=1e-14)
    assert np.all(merged[0, :2] == 0.0)
    # a degree-1 mass couples to degrees 0 and 2 only: nothing at degree 1
    assert np.all(merged[1:4] == 0.0)


def test_adjoint_coupling_unit_curl_mass():
    b = ScalarCoefficients.zeros(1)
    b.values[flat_index(1, 0)] = 1.0
    coeffs = VectorCoefficients(ScalarCoefficients.zeros(1), b)
    merged = build_adjoint_coupling(coeffs)
    assert merged[flat_index(1, 0), 2] == 0.0  # C(1,0 | 1,0,1,0) = 0
    assert merged[flat_index(1, 0), 0] == 0.0
    assert np.all(merged[0] == 0.0)


# The coupling as it was assembled before the sparse operator K: shifted
# reads of the xi/mu tables.  Kept as the reference K is checked against.
_S = 1.0 / np.sqrt(2.0)


def _shift_read(flat, src_lmax, dl, dm, out_lmax):
    """flat[(l+dl, m+dm)] over all (l, m) with l <= out_lmax; zero out of range."""
    ls, ms = degrees_orders(out_lmax)
    sl, sm = ls + dl, ms + dm
    valid = (sl >= 0) & (sl <= src_lmax) & (np.abs(sm) <= sl)
    idx = np.where(valid, sl * sl + sl + sm, 0)
    return np.where(valid[:, None], flat[idx], 0.0)


def _reference_forward(f, lmax):
    """(a, b), each (size(lmax), k), from scalar tables f of shape (size(lmax+1), 3, k)."""
    tables = build_cg_tables(lmax)
    xi = {i: v[:, None] for i, v in tables.xi.items()}
    mu = {i: v[:, None] for i, v in tables.mu.items()}
    top = lmax + 1
    fu = -f[:, 0] + 1j * f[:, 1]
    fv = f[:, 0] + 1j * f[:, 1]
    fw = f[:, 2]

    def read(values, dl, dm):
        return _shift_read(values, top, dl, dm, lmax)

    a = _S * (
        read(xi[1] * fu, -1, -1)
        + read(xi[2] * fu, 1, -1)
        + read(xi[3] * fv, -1, 1)
        + read(xi[4] * fv, 1, 1)
    ) + read(xi[5] * fw, -1, 0) + read(xi[6] * fw, 1, 0)
    b = -1j * _S * (read(mu[1] * fu, 0, -1) + read(mu[3] * fv, 0, 1)) - 1j * read(mu[2] * fw, 0, 0)
    a[0] = 0.0
    b[0] = 0.0
    return a, b


def _reference_adjoint(a, b, lmax):
    """The merged (size(lmax+1), 3, k) tables from the nine nu/eta synthesis arrays."""
    tables = build_cg_tables(lmax)
    xi = {i: v[:, None] for i, v in tables.xi.items()}
    mu = {i: v[:, None] for i, v in tables.mu.items()}
    top = lmax + 1

    def a_at(dl, dm):
        return _shift_read(a, lmax, dl, dm, top)

    def b_at(dl, dm):
        return _shift_read(b, lmax, dl, dm, top)

    nu = {
        1: a_at(1, 1) * xi[1] - a_at(1, -1) * xi[3],
        2: a_at(-1, 1) * xi[2] - a_at(-1, -1) * xi[4],
        3: 1j * (a_at(1, 1) * xi[1] + a_at(1, -1) * xi[3]),
        4: 1j * (a_at(-1, 1) * xi[2] + a_at(-1, -1) * xi[4]),
        5: a_at(1, 0) * xi[5],
        6: a_at(-1, 0) * xi[6],
    }
    eta = {
        1: 1j * (b_at(0, 1) * mu[1] - b_at(0, -1) * mu[3]),
        2: b_at(0, 1) * mu[1] + b_at(0, -1) * mu[3],
        3: 1j * b_at(0, 0) * mu[2],
    }
    return np.stack(
        [-_S * (nu[1] + nu[2] + eta[1]), -_S * (nu[3] + nu[4] - eta[2]), nu[5] + nu[6] + eta[3]],
        axis=1,
    )


def _dense_k(lmax):
    """K = D_out R D_in as a dense complex matrix."""
    n = flat_size(lmax)
    d_in = np.tile([1.0, 1j, 1.0], flat_size(lmax + 1))
    d_out = np.r_[np.ones(n), np.full(n, 1j)]
    return d_out[:, None] * coupling_matrix(lmax).toarray() * d_in


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("lmax", range(1, 21))
def test_k_matches_shifted_read_reference(lmax):
    size_in = 3 * flat_size(lmax + 1)
    n = flat_size(lmax)
    k = _dense_k(lmax)
    a, b = _reference_forward(np.eye(size_in).reshape(-1, 3, size_in), lmax)
    assert _relative(k, np.vstack([a, b])) <= 1e-15
    eye = np.eye(2 * n)
    merged = _reference_adjoint(eye[:n], eye[n:], lmax)
    assert _relative(k.conj().T, merged.reshape(size_in, 2 * n)) <= 1e-15


def test_k_matches_shifted_read_reference_at_lmax_64():
    lmax = 64
    rng = np.random.default_rng(64)
    n = flat_size(lmax)
    f = rng.standard_normal((flat_size(lmax + 1), 3, 3)) + 1j * rng.standard_normal((flat_size(lmax + 1), 3, 3))
    ab = rng.standard_normal((2 * n, 3)) + 1j * rng.standard_normal((2 * n, 3))
    ab[[0, n]] = 0.0
    a, b = _reference_forward(f, lmax)
    merged = _reference_adjoint(ab[:n], ab[n:], lmax)
    for j in range(3):
        got = apply_coupling(f[:, :, j], lmax)
        assert _relative(got.div.values, a[:, j]) <= 1e-15
        assert _relative(got.curl.values, b[:, j]) <= 1e-15
        coeffs = VectorCoefficients(ScalarCoefficients(lmax, ab[:n, j]), ScalarCoefficients(lmax, ab[n:, j]))
        assert _relative(build_adjoint_coupling(coeffs), merged[:, :, j]) <= 1e-15


@pytest.mark.parametrize("lmax", range(1, 7))
def test_dense_adjoint_coupling_is_conjugate_transpose_of_forward(lmax):
    top, n = flat_size(lmax + 1), flat_size(lmax)
    forward = np.empty((2 * n, 3 * top), dtype=np.complex128)
    for j, column in enumerate(np.eye(3 * top)):
        coeffs = apply_coupling(column.reshape(top, 3), lmax)
        forward[:, j] = np.r_[coeffs.div.values, coeffs.curl.values]
    adjoint = np.zeros((3 * top, 2 * n), dtype=np.complex128)
    for j in [*range(1, n), *range(n + 1, 2 * n)]:  # degree 0 carries no tangent harmonic
        unit = np.zeros(2 * n)
        unit[j] = 1.0
        coeffs = VectorCoefficients(ScalarCoefficients(lmax, unit[:n]), ScalarCoefficients(lmax, unit[n:]))
        adjoint[:, j] = build_adjoint_coupling(coeffs).reshape(-1)
    assert np.array_equal(adjoint, forward.conj().T)
    assert np.array_equal(forward, _dense_k(lmax))
    # the nine-array adjoint was already the conjugate transpose of the shifted reads
    a, b = _reference_forward(np.eye(3 * top).reshape(top, 3, -1), lmax)
    eye = np.eye(2 * n)
    merged = _reference_adjoint(eye[:n], eye[n:], lmax).reshape(3 * top, 2 * n)
    assert np.array_equal(merged, np.vstack([a, b]).conj().T)


def test_coupling_matrix_is_cached_real_and_sparse():
    lmax = 9
    k = coupling_matrix(lmax)
    assert coupling_matrix(lmax) is k
    n = flat_size(lmax)
    assert k.shape == (2 * n, 3 * flat_size(lmax + 1))
    assert k.data.dtype == np.float64 and k.indices.dtype == np.int32
    per_row = np.diff(k.indptr)
    assert per_row[0] == per_row[n] == 0  # degree 0
    assert per_row[:n].max() == 10 and per_row[n:].max() == 5
    assert np.all(k.data != 0.0)
    with pytest.raises(ValueError):
        k.data[0] = 1.0
    with pytest.raises(ValueError):
        coupling_matrix(0)


def test_coupling_transpose_is_cached_as_a_view_on_k():
    lmax = 9
    k, kt = coupling_matrix(lmax), _coupling_transpose(lmax)
    assert _coupling_transpose(lmax) is kt and kt.format == "csc"
    for mine, theirs in ((kt.data, k.data), (kt.indices, k.indices), (kt.indptr, k.indptr)):
        assert np.shares_memory(mine, theirs) and not mine.flags.writeable
    assert np.array_equal(kt.toarray(), k.toarray().T)


def test_coupling_matrix_build_stages_little_beyond_k():
    lmax = 128
    coupling_matrix(lmax)  # the cached degrees_orders tables are not staging
    tracemalloc.start()
    try:
        k = coupling_matrix.__wrapped__(lmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
    assert peak <= 1.5 * stored, (peak, stored)


def test_tables_match_scalar_cg_loop():
    # the vectorised build against one scalar cg_explicit call per entry
    for lmax in range(21):
        tables = build_cg_tables(lmax)
        ls, ms = degrees_orders(lmax + 1)
        size = flat_size(lmax + 1)
        xi = {i: np.zeros(size) for i in range(1, 7)}
        mu = {i: np.zeros(size) for i in range(1, 4)}
        for k in range(size):
            l, m = int(ls[k]), int(ms[k])
            xi[1][k] = coupling_weight_c(l + 1) * cg_explicit(-1, 1, l + 1, m + 1)
            xi[3][k] = coupling_weight_c(l + 1) * cg_explicit(-1, -1, l + 1, m - 1)
            xi[5][k] = coupling_weight_c(l + 1) * cg_explicit(-1, 0, l + 1, m)
            if l >= 1:
                xi[2][k] = coupling_weight_d(l - 1) * cg_explicit(1, 1, l - 1, m + 1)
                xi[4][k] = coupling_weight_d(l - 1) * cg_explicit(1, -1, l - 1, m - 1)
                xi[6][k] = coupling_weight_d(l - 1) * cg_explicit(1, 0, l - 1, m)
            mu[1][k] = cg_explicit(0, 1, l, m + 1)
            mu[2][k] = cg_explicit(0, 0, l, m)
            mu[3][k] = cg_explicit(0, -1, l, m - 1)
        for i in range(1, 7):
            assert np.array_equal(tables.xi[i], xi[i]), (lmax, "xi", i)
        for i in range(1, 4):
            assert np.array_equal(tables.mu[i], mu[i]), (lmax, "mu", i)
        degrees = range(lmax + 2)
        assert np.array_equal(tables.c, [coupling_weight_c(l) for l in degrees])
        assert np.array_equal(tables.d, [coupling_weight_d(l) for l in degrees])


def test_tables_are_cached_and_read_only():
    tables = build_cg_tables(7)
    assert build_cg_tables(7) is tables
    for array in (*tables.xi.values(), *tables.mu.values(), tables.c, tables.d):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_cg_explicit_accepts_arrays():
    ls = np.array([[0, 1, 2], [3, 4, 5]])
    ms = np.array([[0, -1, 2], [3, 0, -6]])
    for dl in (-1, 0, 1):
        for m2 in (-1, 0, 1):
            got = cg_explicit(dl, m2, ls, ms)
            assert got.shape == ls.shape
            want = [[cg_explicit(dl, m2, int(l), int(m)) for l, m in zip(lr, mr)]
                    for lr, mr in zip(ls, ms)]
            assert np.array_equal(got, want), (dl, m2)
