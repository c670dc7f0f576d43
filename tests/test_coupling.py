import numpy as np
import pytest

from favest.core import ScalarCoefficients, VectorCoefficients, degrees_orders, flat_index, flat_size
from favest.coupling import (
    build_adjoint_coupling,
    build_cg_tables,
    cg_explicit,
    clebsch_gordan,
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
    coupling = build_adjoint_coupling(VectorCoefficients.zeros(4))
    for i in range(1, 7):
        assert np.all(coupling.nu[i] == 0.0)
    for i in range(1, 4):
        assert np.all(coupling.eta[i] == 0.0)


def test_adjoint_coupling_unit_div_mass():
    a = ScalarCoefficients.zeros(1)
    a.values[flat_index(1, 0)] = 1.0
    coeffs = VectorCoefficients(a, ScalarCoefficients.zeros(1))
    coupling = build_adjoint_coupling(coeffs)
    # nu5 at (0,0) reads a(1,0) against c_1 * C(1,0 | 0,0,1,0)
    want = coupling_weight_c(1) * cg_explicit(-1, 0, 1, 0)
    assert coupling.nu[5][0] == pytest.approx(want, abs=1e-14)
    assert coupling.nu[1][0] == 0.0
    # low-degree zero branches of the nu arrays with a d-weight
    for i in (2, 4, 6):
        assert np.all(coupling.nu[i][:4] == 0.0)


def test_adjoint_coupling_unit_curl_mass():
    b = ScalarCoefficients.zeros(1)
    b.values[flat_index(1, 0)] = 1.0
    coeffs = VectorCoefficients(ScalarCoefficients.zeros(1), b)
    coupling = build_adjoint_coupling(coeffs)
    assert coupling.eta[3][flat_index(1, 0)] == 0.0  # C(1,0 | 1,0,1,0) = 0
    assert coupling.eta[1][flat_index(1, 0)] == 0.0
    for i in range(1, 4):
        assert coupling.eta[i][0] == 0.0


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
