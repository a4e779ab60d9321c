"""Mobius geometry of the complex unit ball and the Bergman form."""

import functools
import math

import numpy as np
import pytest

from hypcontract import ball as ball_module
from hypcontract import disk, harness
from hypcontract.ball import (
    _sum_last,
    bergman_form,
    beta,
    check_ball_point,
    embed_modulus,
    inner,
    mobius,
    norm,
    rho,
)

# High-precision oracle values (mpmath, 40 digits), frozen.
RHO_HALF_PAIR = 0.66143782776614764763   # rho((0.5, 0), (0, 0.5))
BETA_HALF_PAIR = 1.5907309224478112611   # beta of the same pair
LOG_3 = 1.0986122886681096914


def _samples(dim, count, seed, cap=0.95):
    """Random points of the dim-ball with radius bounded by cap."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    r = cap * rng.random(count) ** (1.0 / (2 * dim))
    return x * (r / np.maximum(norm(x), 1e-300))[:, None]


class TestInnerProduct:
    def test_conjugate_symmetric(self):
        u = np.array([1.0 + 2.0j, -0.5j, 0.25])
        v = np.array([0.3 - 0.1j, 2.0, 1.0 + 1.0j])
        assert inner(u, v) == pytest.approx(np.conj(inner(v, u)))

    def test_second_slot_conjugated(self):
        u = np.array([1.0 + 1.0j])
        v = np.array([2.0j])
        # sum u_i conj(v_i) = (1+i)(-2i) = 2 - 2i
        assert inner(u, v) == pytest.approx(2.0 - 2.0j)
        a, b = 0.7 - 0.2j, -1.5 + 0.4j
        assert inner(a * u, b * v) == pytest.approx(a * np.conj(b) * inner(u, v))

    def test_norm_squared_is_self_inner(self):
        z = _samples(3, 50, seed=7)
        np.testing.assert_allclose(norm(z) ** 2, np.real(inner(z, z)), rtol=1e-12)


class TestCheckBallPoint:
    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            check_ball_point(0.5)

    def test_rejects_boundary_and_outside(self):
        with pytest.raises(ValueError):
            check_ball_point([1.0, 0.0])
        with pytest.raises(ValueError):
            check_ball_point([0.8, 0.8])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            check_ball_point([np.nan, 0.0])
        with pytest.raises(ValueError):
            check_ball_point([np.inf])

    def test_accepts_interior_point(self):
        z = check_ball_point([0.3, 0.4j])
        assert z.dtype == complex
        assert norm(z) == pytest.approx(0.5)


class TestMobius:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_invariants(self, dim):
        z = _samples(dim, 200, seed=11 + dim)
        w = _samples(dim, 200, seed=47 + dim)
        zero = np.zeros_like(z)
        # phi_a(a) = 0 and phi_a(0) = a
        np.testing.assert_allclose(norm(mobius(z, z)), 0.0, atol=1e-12)
        np.testing.assert_allclose(mobius(z, zero), z, atol=1e-13)
        # involution: phi_a(phi_a(w)) = w
        np.testing.assert_allclose(mobius(z, mobius(z, w)), w, atol=1e-11)

    def test_base_point_zero_is_negation(self):
        w = np.array([0.2 + 0.1j, -0.3j])
        np.testing.assert_allclose(mobius(np.zeros(2), w), -w, atol=1e-15)

    def test_dim_one_reduces_to_disk_automorphism(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, w = (
                complex(*p) * 0.9
                for p in rng.uniform(-0.7, 0.7, size=(2, 2))
            )
            got = mobius(np.array([a]), np.array([w]))[0]
            assert abs(got - disk.mobius(a, w)) < 1e-14
            assert abs(rho(np.array([a]), np.array([w])) - disk.rho(a, w)) < 1e-14


class TestRhoBeta:
    def test_rho_from_origin_is_norm(self):
        w = _samples(3, 100, seed=5)
        np.testing.assert_allclose(rho(np.zeros((100, 3)), w), norm(w), atol=1e-14)

    def test_one_minus_rho_squared_identity(self):
        # 1 - rho^2 = (1-|z|^2)(1-|w|^2) / |1 - <z, w>|^2
        for dim in (1, 2, 3):
            z = _samples(dim, 300, seed=21 + dim)
            w = _samples(dim, 300, seed=81 + dim)
            lhs = 1.0 - rho(z, w) ** 2
            rhs = (1.0 - norm(z) ** 2) * (1.0 - norm(w) ** 2) / np.abs(1.0 - inner(z, w)) ** 2
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_beta_on_radius_half(self):
        np.testing.assert_allclose(
            beta(np.zeros(2), np.array([0.5, 0.0])), LOG_3, rtol=1e-14
        )

    def test_oracle_pair(self):
        z = np.array([0.5, 0.0])
        w = np.array([0.0, 0.5])
        np.testing.assert_allclose(rho(z, w), RHO_HALF_PAIR, rtol=1e-14)
        np.testing.assert_allclose(beta(z, w), BETA_HALF_PAIR, rtol=1e-13)

    def test_beta_symmetric_and_monotone(self):
        z = np.array([0.1, 0.2j])
        w = np.array([-0.3, 0.4])
        assert beta(z, w) == pytest.approx(beta(w, z), rel=1e-13)
        ts = np.linspace(0.0, 0.9, 30)
        along_ray = beta(np.zeros((30, 1)), ts[:, None].astype(complex))
        assert np.all(np.diff(along_ray) > 0.0)


class TestColumnSum:
    """``_sum_last`` has the bytes of ``np.sum(x, axis=-1)`` at every length."""

    @staticmethod
    def _rows(n, dtype):
        """Random rows, with -0.0 first entries, an all -0.0 row and an all +0.0 row."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal((40, n))
        if dtype is complex:
            x = x + 1j * rng.standard_normal((40, n))
            x[1::5, 0] = complex(-0.0, -0.0)
            x[2::5, -1] = complex(-0.0, 1.0)
        x[::3, 0] = -0.0
        x[3] = -0.0
        x[4] = 0.0
        return x.astype(dtype)

    @staticmethod
    def _assert_same_bytes(x):
        got, want = _sum_last(x), np.sum(x, axis=-1)
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_two_dimensional(self, n, dtype):
        self._assert_same_bytes(self._rows(n, dtype))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_dimensional(self, n, dtype):
        for row in self._rows(n, dtype):
            self._assert_same_bytes(row)

    def test_signed_zero_sums_to_positive_zero(self):
        # numpy starts the reduction from +0.0, and so must the column adds
        assert not np.signbit(_sum_last(np.array([-0.0])))
        assert not np.signbit(_sum_last(np.array([[-0.0, -0.0]]))[0])


def _full_ball_embed_modulus(z):
    """The point (|z|, 0, ..., 0) of the same ball: the layout embed_modulus had before B^1."""
    z = check_ball_point(z)
    out = np.zeros_like(z)
    out[..., 0] = norm(z)
    return out


@pytest.mark.parametrize("dim", range(1, 9))
def test_slice_beta_has_the_bytes_of_the_full_ball_layout(dim):
    # one 16-chunk block of the verify stream, ending in its degenerate pair
    n = harness.BLOCK_CHUNKS * harness.CHUNK_SIZE
    spec = harness.SampleSpec(count=n, seed=63)
    pairs = functools.partial(harness.ball_pair_chunk, spec, dim)
    z, w, _ = harness._stream(spec, pairs, None)(0, n)
    got = beta(embed_modulus(z), embed_modulus(w))
    want = beta(_full_ball_embed_modulus(z), _full_ball_embed_modulus(w))
    assert got.tobytes() == want.tobytes()


class TestModulusProjection:
    def test_embed_modulus_layout(self):
        # the point (|z|,) of the disk slice B^1, for one point and for a batch
        for z in (np.array([0.3j, 0.4]), _samples(3, 20, seed=4)):
            e = embed_modulus(z)
            assert e.shape == z.shape[:-1] + (1,)
            assert np.real(e[..., 0]).tobytes() == np.asarray(norm(z)).tobytes()
            assert np.all(np.imag(e) == 0.0)
            assert not np.any(np.signbit(np.imag(e)))

    def test_moduli_of_oracle_pair_coincide(self):
        # both oracle points project to (0.5, 0), so the projected distance
        # collapses to zero while beta stays at 1.59...
        z = np.array([0.5, 0.0])
        w = np.array([0.0, 0.5])
        assert beta(embed_modulus(z), embed_modulus(w)) == pytest.approx(0.0, abs=1e-15)
        assert beta(z, w) > 1.5

    def test_projected_distance_is_one_dimensional(self):
        z = _samples(3, 40, seed=9)
        w = _samples(3, 40, seed=10)
        got = beta(embed_modulus(z), embed_modulus(w))
        expected = np.abs(2.0 * np.arctanh(norm(z)) - 2.0 * np.arctanh(norm(w)))
        np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_modulus_projection_contracts_beta(dim):
    # distance between the moduli never exceeds the distance between the
    # points themselves; sampled over the whole ball
    z = _samples(dim, 4000, seed=100 + dim)
    w = _samples(dim, 4000, seed=200 + dim)
    margin = beta(z, w) - beta(embed_modulus(z), embed_modulus(w))
    assert float(np.min(margin)) >= -1e-12


class TestBergmanForm:
    def test_at_origin_twice_euclidean(self):
        u = np.array([1.0 + 1.0j, 0.5])
        v = np.array([0.2, -0.3j])
        got = bergman_form(np.zeros(2), u, v)
        assert got == pytest.approx(2.0 * complex(inner(u, v)), rel=1e-15)

    def test_dim_one_oracle(self):
        got = bergman_form(np.array([0.5]), np.array([1.0]), np.array([1.0]))
        assert got == pytest.approx(32.0 / 9.0, rel=1e-15)

    def test_sesquilinear(self):
        z = np.array([0.2, 0.1j])
        u = np.array([1.0, 2.0j])
        v = np.array([-0.5j, 0.7])
        a, b = 1.3 - 0.4j, 0.2 + 2.0j
        base = bergman_form(z, u, v)
        assert bergman_form(z, a * u, b * v) == pytest.approx(
            a * np.conj(b) * base, rel=1e-13
        )

    def test_conjugate_symmetric(self):
        z = np.array([0.3j, -0.2])
        u = np.array([0.9, 1.0 + 0.5j])
        v = np.array([-1.0j, 0.4])
        assert bergman_form(z, u, v) == pytest.approx(
            np.conj(bergman_form(z, v, u)), rel=1e-13
        )

    def test_positive_definite_sampled(self):
        rng = np.random.default_rng(17)
        z = _samples(2, 10_000, seed=55)
        u = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        vals = bergman_form(z, u, u)
        assert np.max(np.abs(np.imag(vals))) < 1e-10
        assert np.min(np.real(vals)) > 0.0
        # dominated below by twice the euclidean norm (the z-dependent factors
        # only inflate it)
        assert np.all(np.real(vals) >= 2.0 * norm(u) ** 2 * (1.0 - 1e-12))


def test_log_three_constant_consistency():
    assert LOG_3 == pytest.approx(math.log(3.0), rel=1e-15)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_checked_points_keep_their_bits_and_skip_the_checks(monkeypatch, dim):
    z, w = _samples(dim, 6_000, 5, cap=0.999), _samples(dim, 6_000, 6, cap=0.999)
    w[-1] = z[-1]
    plain = {
        "mobius": mobius(z, w), "rho": rho(z, w), "beta": beta(z, w),
        "embedded": beta(embed_modulus(z), embed_modulus(w)),
    }
    checks = []
    original = ball_module._checked_norms
    monkeypatch.setattr(ball_module, "_checked_norms", lambda x: (checks.append(x), original(x))[1])
    checked = {
        "mobius": mobius(z, w, checked=True), "rho": rho(z, w, checked=True),
        "beta": beta(z, w, checked=True),
        "embedded": beta(embed_modulus(z, checked=True), embed_modulus(w, checked=True), checked=True),
    }
    assert {k: v.tobytes() for k, v in checked.items()} == {k: v.tobytes() for k, v in plain.items()}
    assert checks == []
    beta(embed_modulus(z), embed_modulus(w))
    assert len(checks) == 4  # both points, then both embedded points
