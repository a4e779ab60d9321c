"""Weights on intervals: distances, curvature, families, grid reports."""

import math
import re

import mpmath
import numpy as np
import pytest

from hypcontract.weights import (
    FAMILY_KINDS,
    GridSpec,
    Interval,
    QuadratureError,
    Weight,
    WeightFamily,
    _family_sign,
    compare_weights,
    curvature_k,
    disk_diameter_weight,
    family_weight,
    half_plane_weight,
    omega_distance,
    strip_weight,
    verify_curvature_bound,
)

# High-precision oracle (mpmath, 40 digits): integral of (pi/2)sec(pi t/2)
# from 0 to 1/2, equal to log tan(3 pi / 8).
D_STRIP_0_HALF = 0.88137358701954302523


def _strip_density_only() -> Weight:
    w = strip_weight()
    return Weight(domain=w.domain, density=w.density, name="strip-fd")


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(-math.inf, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        Interval(0.0, math.inf)
        Interval(-math.inf, 0.0)

    def test_contains(self):
        j = Interval(-1.0, 1.0)
        assert j.contains(0.0)
        assert j.contains(np.array([-0.5, 0.5]))
        assert not j.contains(1.0)
        assert not j.contains(np.array([0.0, 1.5]))
        assert not j.contains(math.inf)


class TestGridSpec:
    def test_finite_interval(self):
        ts = GridSpec(n=11).points(Interval(-1.0, 1.0))
        assert len(ts) == 11
        assert ts[0] > -1.0 and ts[-1] < 1.0
        np.testing.assert_allclose(np.diff(ts), ts[1] - ts[0])

    def test_infinite_interval(self):
        ts = GridSpec(n=101).points(Interval(0.0, math.inf))
        assert len(ts) == 101
        assert np.all(np.isfinite(ts))
        assert np.all(ts > 0.0)
        assert ts[-1] > 1e4

    def test_needs_points(self):
        with pytest.raises(ValueError):
            GridSpec(n=0).points(Interval(0.0, 1.0))


class TestOmegaDistance:
    def test_half_plane_log(self):
        w = half_plane_weight()
        np.testing.assert_allclose(omega_distance(w, 1.0, math.e), 1.0, rtol=1e-14)
        assert omega_distance(w, 2.0, 2.0) == 0.0

    def test_strip_oracle(self):
        w = strip_weight()
        np.testing.assert_allclose(omega_distance(w, 0.0, 0.5), D_STRIP_0_HALF, rtol=1e-13)

    def test_symmetry_under_swap(self):
        w = strip_weight()
        assert omega_distance(w, -0.3, 0.7) == omega_distance(w, 0.7, -0.3)

    def test_quadrature_matches_antiderivative(self):
        w_fd = _strip_density_only()
        w = strip_weight()
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = rng.uniform(-0.95, 0.95, 2)
            dq = omega_distance(w_fd, a, b)
            dc = omega_distance(w, a, b)
            assert abs(dq - dc) < 1e-13 * dc

    def test_quadrature_route_takes_arrays(self):
        w = _strip_density_only()
        rng = np.random.default_rng(5)
        # 1,200 pairs span three row slices of the rule; the last is partial
        a, b = rng.uniform(-0.99, 0.99, (2, 1200))
        out = omega_distance(w, a, b)
        assert out.shape == (1200,)
        np.testing.assert_array_equal(out, [omega_distance(w, ai, bi) for ai, bi in zip(a, b)])
        grid = omega_distance(w, a[:6].reshape(2, 3), 0.25)
        assert grid.shape == (2, 3)
        np.testing.assert_array_equal(grid.ravel(), omega_distance(w, a[:6], np.full(6, 0.25)))

    def test_quadrature_error_when_the_density_rounds(self):
        # 1e-12 from the end, the sin-form density carries ~1e-4 relative
        # rounding noise, so successive steps never agree to 1e-10
        with pytest.raises(QuadratureError) as exc:
            omega_distance(_strip_density_only(), 1.0 - 1e-12, 0.0)
        assert exc.value.estimate > 0.0

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-8])
    def test_quadrature_near_the_ends_matches_mpmath(self, gap):
        # (pi/2) / sin(pi (1 - |t|) / 2) is the strip density, evaluated without
        # the cancellation in pi t / 2 - pi / 2 (1 - |t| is exact near the ends)
        def density(t):
            return (np.pi / 2) / np.sin(np.pi * (1.0 - np.abs(t)) / 2)

        w = Weight(Interval(-1.0, 1.0), density)
        with mpmath.workdps(40):
            def primitive(t):
                return mpmath.log(mpmath.tan(mpmath.pi / 4 + mpmath.pi * mpmath.mpf(t) / 4))

            for a, b in ((1.0 - gap, -(1.0 - gap)), (-(1.0 - gap), 0.0), (1.0 - gap, 0.5)):
                exact = abs(primitive(b) - primitive(a))
                assert abs(omega_distance(w, a, b) - exact) < 1e-9 * exact

    def test_antiderivative_route_broadcasts(self):
        w = strip_weight()
        a = np.array([0.0, 0.1, -0.2])
        b = np.array([0.5, 0.5, 0.5])
        out = omega_distance(w, a, b)
        assert out.shape == (3,)
        np.testing.assert_allclose(out[0], D_STRIP_0_HALF, rtol=1e-13)

    def test_additivity(self):
        w = strip_weight()
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-0.95, 0.95, 3))
            lhs = omega_distance(w, a, c)
            rhs = omega_distance(w, a, b) + omega_distance(w, b, c)
            assert abs(lhs - rhs) < 1e-11

    def test_rejects_outside_domain(self):
        w = strip_weight()
        with pytest.raises(ValueError):
            omega_distance(w, 0.0, 1.5)
        with pytest.raises(ValueError):
            omega_distance(_strip_density_only(), -2.0, 0.0)

    def test_quadrature_error_carries_estimate(self):
        err = QuadratureError("no convergence", 1e-3)
        assert err.estimate == 1e-3
        assert "1.000e-03" in str(err)


class TestCurvature:
    def test_half_plane_constant(self):
        w = half_plane_weight()
        ts = GridSpec(n=101).points(w.domain)
        np.testing.assert_allclose(curvature_k(w, ts), -1.0, atol=1e-9)

    def test_strip_at_zero(self):
        np.testing.assert_allclose(curvature_k(strip_weight(), 0.0), -1.0, atol=1e-12)

    def test_disk_diameter_closed_form(self):
        w = disk_diameter_weight()
        ts = np.linspace(-0.9, 0.9, 181)
        np.testing.assert_allclose(curvature_k(w, ts), -(1.0 + ts**2) / 2.0, atol=1e-12)
        assert curvature_k(w, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_families_analytic(self):
        # Unbounded domains are evaluated on finite windows; far out the density
        # of the sinh/linear members underflows and the quotient is meaningless.
        cases = [
            (WeightFamily("sin", k=1.0, C1=math.pi / 2, C2=-math.pi / 2,
                          domain=Interval(-1, 1)), None),
            (WeightFamily("sin", k=1.7, C1=2.0, C2=0.4, domain=Interval(-0.15, 1.2)), None),
            (WeightFamily("sinh", k=1.0, C1=1.0, C2=0.0,
                          domain=Interval(0.0, math.inf)), (0.01, 8.0)),
            (WeightFamily("sinh", k=2.5, C1=0.7, C2=-2.0,
                          domain=Interval(-math.inf, 2.5)), (-7.5, 2.49)),
            (WeightFamily("linear", k=1.0, C=0.0, domain=Interval(0.0, math.inf)),
             (1e-3, 1e3)),
            (WeightFamily("linear", k=3.0, C=-2.0, domain=Interval(-math.inf, 1.9)),
             (-1e3, 1.89)),
        ]
        for fam, window in cases:
            w = family_weight(fam)
            ts = GridSpec().points(fam.domain) if window is None else np.linspace(*window, 1001)
            ks = np.asarray(curvature_k(w, ts))
            assert np.max(np.abs(ks + fam.k**2)) < 1e-8, fam

    def test_finite_difference_fallback(self):
        # Restricted to a domain away from the sec singularities at +-1: the
        # fixed-step second difference cannot track the blow-up any closer.
        strip = strip_weight()
        w = Weight(domain=Interval(-0.93, 0.93), density=strip.density, name="strip-fd")
        assert not w.has_analytic_derivatives
        ts = GridSpec(n=201, shrink=1e-3).points(w.domain)
        ks = curvature_k(w, ts.reshape(3, 67))
        assert np.max(np.abs(ks + 1.0)) < 3e-6
        # the whole-array differences equal the scalar calls bit for bit
        scalar = np.array([curvature_k(w, float(t)) for t in ts]).reshape(3, 67)
        assert ks.tobytes() == scalar.tobytes()

    def test_stencil_near_endpoint_rejected(self):
        w = _strip_density_only()
        with pytest.raises(ValueError):
            curvature_k(w, 1.0 - 1e-9)
        with pytest.raises(ValueError):
            curvature_k(w, 1.5)
        # an array is rejected by its first entry whose stencil leaves J
        with pytest.raises(ValueError, match=r"^t=0\.999999999 too close"):
            curvature_k(w, np.array([0.0, 0.5, 1.0 - 1e-9, -1.0 + 1e-6]))


class TestFamilies:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightFamily("классic")  # noqa: RUF001 - deliberate bad kind
        with pytest.raises(ValueError):
            WeightFamily("sin", k=0.5)
        with pytest.raises(ValueError):
            WeightFamily("sin", C1=-1.0)
        assert set(FAMILY_KINDS) == {"sin", "sinh", "linear"}

    @pytest.mark.parametrize("kind", ["sin", "sinh", "linear"])
    @pytest.mark.parametrize("name", ["k", "C1", "C2", "C"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, kind, name, value):
        with pytest.raises(ValueError):
            WeightFamily(kind, domain=Interval(0.1, 1.0), **{name: value})

    def test_denominator_must_not_vanish(self):
        with pytest.raises(ValueError):
            family_weight(WeightFamily("sin", C1=1.0, C2=0.0, domain=Interval(-1, 1)))
        with pytest.raises(ValueError):
            family_weight(WeightFamily("sinh", C1=1.0, C2=0.0, domain=Interval(-1, 1)))
        with pytest.raises(ValueError):
            family_weight(WeightFamily("linear", C=0.0, domain=Interval(-1, 1)))
        with pytest.raises(ValueError):
            family_weight(WeightFamily("sin", C1=1.0, C2=0.5, domain=Interval(0.0, math.inf)))

    def test_strip_weight_is_sin_member(self):
        w = strip_weight()
        assert w.density(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        ts = np.linspace(-0.9, 0.9, 7)
        np.testing.assert_allclose(
            w.density(ts), (math.pi / 2) / np.cos(math.pi * ts / 2), rtol=1e-13
        )

    def test_half_plane_weight_is_linear_member(self):
        w = half_plane_weight()
        ts = np.array([0.5, 1.0, 7.0])
        np.testing.assert_allclose(w.density(ts), 1.0 / ts, rtol=1e-15)

    def test_sinh_member_density(self):
        w = family_weight(
            WeightFamily("sinh", k=1.0, C1=1.0, C2=0.0, domain=Interval(0.0, math.inf))
        )
        np.testing.assert_allclose(w.density(1.0), 1.0 / math.sinh(1.0), rtol=1e-14)

    def test_negative_branch_density_positive(self):
        w = family_weight(
            WeightFamily("linear", k=2.0, C=0.0, domain=Interval(-math.inf, 0.0))
        )
        ts = np.array([-3.0, -1.0, -0.1])
        assert np.all(w.density(ts) > 0.0)
        np.testing.assert_allclose(w.density(-1.0), 0.5, rtol=1e-15)

    def test_derivatives_match_finite_differences(self):
        fam = WeightFamily("sin", k=1.4, C1=1.1, C2=0.3, domain=Interval(0.1, 2.0))
        w = family_weight(fam)
        ts = np.linspace(0.3, 1.8, 31)
        h = 1e-6
        fd1 = (w.density(ts + h) - w.density(ts - h)) / (2 * h)
        fd2 = (w.density(ts + h) - 2 * w.density(ts) + w.density(ts - h)) / h**2
        np.testing.assert_allclose(w.d1(ts), fd1, rtol=1e-8)
        np.testing.assert_allclose(w.d2(ts), fd2, rtol=1e-3)


# Members with both denominator signs and with infinite interval ends, each
# with the sign of its denominator on the interval.
TABLE_MEMBERS = [
    (WeightFamily("sin", C1=math.pi / 2, C2=-math.pi / 2, domain=Interval(-1, 1)), -1.0),
    (WeightFamily("sin", C1=2.0, C2=0.4, domain=Interval(-0.15, 1.2)), 1.0),
    (WeightFamily("sin", C1=1.3, C2=-0.2, domain=Interval(-2.0, 0.1)), -1.0),
    (WeightFamily("sinh", C1=1.0, C2=0.0, domain=Interval(0.0, math.inf)), 1.0),
    (WeightFamily("sinh", C1=0.7, C2=-2.0, domain=Interval(-math.inf, 2.5)), -1.0),
    (WeightFamily("linear", C=0.0, domain=Interval(0.0, math.inf)), 1.0),
    (WeightFamily("linear", C=-2.0, domain=Interval(-math.inf, 1.9)), -1.0),
    (WeightFamily("linear", C=0.3, domain=Interval(-7.0, -0.4)), -1.0),
]


def _reference_closures(fam: WeightFamily, s: float) -> dict:
    """Each family's formulas written out, in the operation order the table must keep."""
    k, C1, C2, C = fam.k, fam.C1, fam.C2, fam.C
    if fam.kind == "sin":
        return {
            "density": lambda t: C1 / (k * s * np.sin(C1 * t + C2)),
            "d1": lambda t: -(C1**2) * s * np.cos(C1 * t + C2)
            / (k * (s * np.sin(C1 * t + C2)) ** 2),
            "d2": lambda t: (C1**3 / k) * (
                1.0 / (s * np.sin(C1 * t + C2))
                + 2.0 * np.cos(C1 * t + C2) ** 2 / (s * np.sin(C1 * t + C2)) ** 3
            ),
            "antiderivative": lambda t: np.log(np.abs(np.tan(0.5 * (C1 * t + C2)))) / (k * s),
        }
    if fam.kind == "sinh":
        return {
            "density": lambda t: C1 / (k * s * np.sinh(C1 * t + C2)),
            "d1": lambda t: -(C1**2) * s * np.cosh(C1 * t + C2)
            / (k * (s * np.sinh(C1 * t + C2)) ** 2),
            "d2": lambda t: (C1**3 / k) * (
                2.0 * np.cosh(C1 * t + C2) ** 2 / (s * np.sinh(C1 * t + C2)) ** 3
                - 1.0 / (s * np.sinh(C1 * t + C2))
            ),
            "antiderivative": lambda t: np.log(np.abs(np.tanh(0.5 * (C1 * t + C2)))) / (k * s),
        }
    return {
        "density": lambda t: 1.0 / (k * s * (t + C)),
        "d1": lambda t: -s / (k * (s * (t + C)) ** 2),
        "d2": lambda t: 2.0 / (k * (s * (t + C)) ** 3),
        "antiderivative": lambda t: np.log(np.abs(t + C)) / (k * s),
    }


def _bits(x) -> bytes:
    """The bytes of x, with every NaN (overflow far out on a half-line) made canonical."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


class TestFamilyTable:
    """The table-built closures give the bytes of the per-family formulas."""

    @pytest.mark.parametrize("k", [1.0, 2.5])
    @pytest.mark.parametrize("fam,sign", TABLE_MEMBERS, ids=lambda v: getattr(v, "kind", None))
    def test_closures_keep_their_bytes(self, fam, sign, k):
        fam = WeightFamily(fam.kind, k=k, C1=fam.C1, C2=fam.C2, C=fam.C, domain=fam.domain)
        assert _family_sign(fam) == sign
        w = family_weight(fam)
        ref = _reference_closures(fam, sign)
        ts = GridSpec(n=1001).points(fam.domain)
        with np.errstate(all="ignore"):
            for name, f in ref.items():
                got, want = getattr(w, name)(ts), f(ts)
                if name == "d2" and fam.kind == "linear" and k != 1.0:
                    # (1/k) * (2/S**3) rounds differently from 2/(k S**3).
                    np.testing.assert_array_max_ulp(got, want, maxulp=2)
                    continue
                assert _bits(got) == _bits(want), name
                for t in ts[::100]:
                    assert _bits(getattr(w, name)(float(t))) == _bits(f(float(t))), (name, t)

    @pytest.mark.parametrize(
        "fam,sign",
        [
            (WeightFamily("linear", C=-0.5, domain=Interval(0.5, 2.0)), 1.0),
            (WeightFamily("linear", C=-0.5, domain=Interval(-1.0, 0.5)), -1.0),
            (WeightFamily("linear", C=-0.5, domain=Interval(0.5, math.inf)), 1.0),
            (WeightFamily("linear", C=-0.5, domain=Interval(-math.inf, 0.5)), -1.0),
            (WeightFamily("sinh", C1=2.0, C2=-1.0, domain=Interval(0.5, 3.0)), 1.0),
            (WeightFamily("sinh", C1=2.0, C2=-1.0, domain=Interval(-1.0, 0.5)), -1.0),
            (WeightFamily("sinh", C1=2.0, C2=-1.0, domain=Interval(0.5, math.inf)), 1.0),
            (WeightFamily("sinh", C1=2.0, C2=-1.0, domain=Interval(-math.inf, 0.5)), -1.0),
            (WeightFamily("sin", C1=1.0, C2=0.0, domain=Interval(0.0, 3.0)), 1.0),
            (WeightFamily("sin", C1=1.0, C2=0.0, domain=Interval(-3.0, 0.0)), -1.0),
        ],
    )
    def test_sign_with_a_zero_at_an_end(self, fam, sign):
        assert _family_sign(fam) == sign
        assert family_weight(fam).density(GridSpec(n=3).points(fam.domain)[1]) > 0.0

    @pytest.mark.parametrize(
        "fam,message",
        [
            (WeightFamily("linear", C=-0.5, domain=Interval(0.0, 1.0)),
             "t + C vanishes inside the interval"),
            (WeightFamily("linear", C=-0.5, domain=Interval(0.0, math.inf)),
             "t + C vanishes inside the interval"),
            (WeightFamily("sinh", C1=2.0, C2=-1.0, domain=Interval(0.0, 1.0)),
             "sinh(C1 t + C2) vanishes inside the interval"),
            (WeightFamily("sinh", C1=2.0, C2=-1.0, domain=Interval(-math.inf, 1.0)),
             "sinh(C1 t + C2) vanishes inside the interval"),
            (WeightFamily("sin", C1=1.0, C2=0.0, domain=Interval(0.0, 4.0)),
             "sin(C1 t + C2) vanishes inside the interval"),
            (WeightFamily("sin", C1=1.0, C2=0.5, domain=Interval(0.0, math.inf)),
             "sin family cannot live on an unbounded interval"),
        ],
    )
    def test_zero_inside_keeps_its_message(self, fam, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            family_weight(fam)

    def test_names(self):
        assert strip_weight().name == "strip"
        assert half_plane_weight().name == "half_plane"
        fam = WeightFamily("sinh", k=2.0, C1=0.5, C2=1.0, domain=Interval(0.0, 1.0))
        assert family_weight(fam).name == "sinh(k=2,C1=0.5,C2=1)"
        fam = WeightFamily("linear", k=3.0, C=0.25, domain=Interval(0.0, 1.0))
        assert family_weight(fam).name == "linear(k=3,C=0.25)"


def test_lambda_link_satisfies_liouville_equation():
    # log(2 k^2 w^2) must satisfy lam'' = exp(lam); finite-difference check.
    fam = WeightFamily("sinh", k=2.0, C1=1.0, C2=1.0, domain=Interval(-0.5, 2.0))
    w = family_weight(fam)

    def lam(t):
        return np.log(2.0 * fam.k**2 * w.density(t) ** 2)

    ts = np.linspace(0.0, 1.5, 61)
    h = np.finfo(float).eps ** 0.25
    lam_dd = (lam(ts + h) - 2 * lam(ts) + lam(ts - h)) / h**2
    assert np.max(np.abs(lam_dd - np.exp(lam(ts)))) < 1e-5


class TestReports:
    def test_curvature_bound_passes_for_families(self):
        for w in (strip_weight(), half_plane_weight()):
            report = verify_curvature_bound(w)
            assert report.passed
            assert report.max_curvature == pytest.approx(-1.0, abs=1e-8)
            assert report.n_points == 1001

    def test_curvature_bound_negative_control(self):
        report = verify_curvature_bound(disk_diameter_weight())
        assert not report.passed
        assert report.max_curvature == pytest.approx(-0.5, abs=1e-6)
        assert abs(report.argmax) < 1e-2

    def test_compare_weights_quarter_pi(self):
        report = compare_weights(strip_weight(), disk_diameter_weight(), math.pi / 4)
        assert report.passed
        assert report.min_ratio == pytest.approx(math.pi / 4, abs=1e-6)
        assert abs(report.argmin) < 1e-2

    def test_compare_weights_factor_one_fails(self):
        report = compare_weights(strip_weight(), disk_diameter_weight(), 1.0)
        assert not report.passed
        assert report.min_ratio < 1.0

    def test_compare_weight_with_itself(self):
        w = strip_weight()
        report = compare_weights(w, w, 1.0)
        assert report.passed
        assert report.min_ratio == pytest.approx(1.0, abs=1e-15)
