"""Unit-disk Mobius maps and the pseudo-hyperbolic / hyperbolic distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcontract import disk
from hypcontract.disk import (
    BOUNDARY_GUARD,
    check_disk_point,
    mobius,
    rho,
    sigma,
    sigma_real,
)

# High-precision oracle values (mpmath, 40 digits), frozen.
MOBIUS_HALF_HALFI = 0.58823529411764705882 - 0.35294117647058823529j
RHO_HALF_HALFI = 0.68599434057003534951
SIGMA_HALF_HALFI = 1.6806997724280035645
ONE_MINUS_RHO_SQ_HALF_HALFI = 0.52941176470588235294

disk_points = st.builds(
    lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
    st.floats(0.0, 0.95),
    st.floats(0.0, 2.0 * np.pi),
)


def _pairs(n, seed, cap=0.95):
    rng = np.random.default_rng(seed)
    u = rng.random((4, n))
    z = cap * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
    w = cap * np.sqrt(u[2]) * np.exp(2j * np.pi * u[3])
    return z, w


def test_check_disk_point_rejects_boundary_and_nonfinite():
    check_disk_point(0.5 + 0.5j)
    with pytest.raises(ValueError):
        check_disk_point(1.0)
    with pytest.raises(ValueError):
        check_disk_point(1.0 - BOUNDARY_GUARD)
    with pytest.raises(ValueError):
        check_disk_point(complex("nan"))
    with pytest.raises(ValueError):
        check_disk_point(np.array([0.1, 0.999999999999]))


def test_mobius_at_zero_negates():
    for w in (0.3, -0.2 + 0.7j, 0.1j):
        assert mobius(0.0, w) == -w


def test_mobius_fixes_base_point():
    assert mobius(0.5, 0.5) == 0.0
    assert abs(mobius(0.3 + 0.2j, 0.3 + 0.2j)) == 0.0
    assert mobius(0.5, 0.0) == 0.5


def test_mobius_oracle_value():
    np.testing.assert_allclose(mobius(0.5, 0.5j), MOBIUS_HALF_HALFI, rtol=1e-15)


@settings(deadline=None, max_examples=200)
@given(disk_points, disk_points)
def test_mobius_involution(a, z):
    assert abs(mobius(a, mobius(a, z)) - z) < 1e-12


@settings(deadline=None, max_examples=200)
@given(disk_points, disk_points, disk_points)
def test_rho_mobius_invariance(a, z, w):
    assert abs(rho(mobius(a, z), mobius(a, w)) - rho(z, w)) < 1e-12


def test_rho_basics():
    assert rho(0.0, 0.3 + 0.4j) == 0.5
    assert rho(0.3 + 0.2j, 0.3 + 0.2j) == 0.0
    z, w = _pairs(2000, 5)
    r = rho(z, w)
    assert np.all(r < 1.0)
    np.testing.assert_allclose(r, rho(w, z), rtol=0, atol=1e-15)


def test_rho_oracle_value():
    np.testing.assert_allclose(rho(0.5, 0.5j), RHO_HALF_HALFI, rtol=1e-15)


def test_sigma_values():
    np.testing.assert_allclose(sigma(0.0, 0.5), np.log(3.0), rtol=1e-15)
    assert sigma(0.2 - 0.1j, 0.2 - 0.1j) == 0.0
    np.testing.assert_allclose(sigma(0.5, 0.5j), SIGMA_HALF_HALFI, rtol=1e-12)


def test_sigma_symmetry_and_triangle():
    z, w = _pairs(2000, 6)
    v = _pairs(2000, 7)[0]
    np.testing.assert_allclose(sigma(z, w), sigma(w, z), rtol=1e-13)
    assert np.all(sigma(z, w) <= sigma(z, v) + sigma(v, w) + 1e-12)


def test_sigma_real_matches_sigma_on_reals():
    rng = np.random.default_rng(8)
    a = rng.uniform(-0.95, 0.95, 500)
    b = rng.uniform(-0.95, 0.95, 500)
    np.testing.assert_allclose(sigma_real(a, b), sigma(a + 0j, b + 0j), atol=1e-12)


def test_one_minus_rho_squared_identity():
    # 1 - rho^2 = (1-|z|^2)(1-|w|^2) / |1 - conj(z) w|^2
    assert 1.0 - rho(0.0, 0.6j) ** 2 == pytest.approx(1 - 0.36, abs=1e-15)
    assert 1.0 - rho(0.4 + 0.1j, 0.4 + 0.1j) ** 2 == 1.0
    z, w = _pairs(5000, 9)
    product = (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2) / np.abs(1.0 - np.conj(z) * w) ** 2
    np.testing.assert_allclose(1.0 - rho(z, w) ** 2, product, rtol=0, atol=1e-12)
    np.testing.assert_allclose(1.0 - rho(0.5, 0.5j) ** 2, ONE_MINUS_RHO_SQ_HALF_HALFI, rtol=1e-15)


def test_abs_monotonicity_rho_and_sigma():
    z, w = _pairs(20000, 10)
    az, aw = np.abs(z), np.abs(w)
    assert np.all(rho(az, aw) <= rho(z, w) + 1e-12)
    assert np.all(sigma_real(az, aw) <= sigma(z, w) + 1e-12)


def test_modulus_lower_bound_on_denominator():
    z, w = _pairs(20000, 11)
    assert np.all(np.abs(1.0 - np.conj(z) * w) >= 1.0 - np.abs(z) * np.abs(w) - 1e-15)



def test_checked_points_keep_their_bits_and_skip_the_checks(monkeypatch):
    z, w = _pairs(20_000, 7, cap=0.999)  # a block of 16,384 rows and more
    w[-1] = z[-1]
    plain_rho, plain_sigma = rho(z, w), sigma(z, w)
    checks = []
    monkeypatch.setattr(disk, "check_disk_point", checks.append)
    assert rho(z, w, checked=True).tobytes() == plain_rho.tobytes()
    assert sigma(z, w, checked=True).tobytes() == plain_sigma.tobytes()
    assert checks == []
    sigma(z, w)
    assert len(checks) == 2
