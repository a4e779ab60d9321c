"""The linearized closed-form solution of lambda'' = exp(lambda) against the closed forms."""

import math

import numpy as np
import pytest

from hypcontract.liouville import (
    DEFAULT_LAMBDA_CAP,
    LiouvilleState,
    closed_form_dlambda,
    closed_form_lambda,
    family_initial_state,
    lambda_to_weight,
    solve_liouville,
)
from hypcontract.weights import GridSpec, Interval, WeightFamily, curvature_k, family_weight

# High-precision oracle values (mpmath, 40 digits), frozen.
LOG_PI_SQ_HALF = 1.5963125911388550389   # log(pi^2 / 2)
LOG_2_OVER_SINH2_1 = 0.3702684574175540422  # log(2 / sinh(1)^2)
# (lambda, lambda') of the near-linear members C1 = C2 = 1e-5 at t = -0.4, 1, 2.4.
NEAR_LINEAR = {
    "sin": (
        (1.7147984281039267498, -3.3333333332933334567),
        (-0.69314718042661197608, -0.99999999986666666666),
        (-1.7544036822989527163, -0.58823529389098040751),
    ),
    "sinh": (
        (1.7147984280799267498, -3.3333333333733334567),
        (-0.69314718069327864275, -1.0000000001333333333),
        (-1.754403683069619383, -0.58823529434431374084),
    ),
}

SINH_FAM = WeightFamily("sinh", k=1.0, C1=1.0, C2=1.0, domain=Interval(-0.5, 1.5))
SIN_FAM = WeightFamily(
    "sin", k=1.0, C1=math.pi / 2, C2=-math.pi / 2, domain=Interval(-1.0, 1.0)
)
LINEAR_FAM = WeightFamily("linear", k=1.0, C=1.0, domain=Interval(-0.5, 2.5))


def _sup_error(fam, t0, t1, n=301):
    traj = solve_liouville(family_initial_state(fam, t0), t1)
    grid = np.linspace(min(t0, t1), max(t0, t1), n)
    return float(np.max(np.abs(traj.interpolate(grid) - closed_form_lambda(fam, grid)))), traj


class TestClosedForms:
    def test_linear_log2(self):
        fam = WeightFamily("linear", k=1.0, C=0.0, domain=Interval(0.5, 2.0))
        assert closed_form_lambda(fam, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_sin_at_strip_minimum(self):
        np.testing.assert_allclose(closed_form_lambda(SIN_FAM, 0.0), LOG_PI_SQ_HALF, rtol=1e-14)

    def test_sinh_oracle(self):
        fam = WeightFamily("sinh", k=1.0, C1=1.0, C2=0.0, domain=Interval(0.1, 3.0))
        np.testing.assert_allclose(closed_form_lambda(fam, 1.0), LOG_2_OVER_SINH2_1, rtol=1e-14)

    def test_exp_lambda_matches_weight_squared(self):
        # exp(lambda) == 2 k^2 w^2 for family members; k cancels inside lambda.
        for fam in (
            SINH_FAM,
            SIN_FAM,
            LINEAR_FAM,
            WeightFamily("sinh", k=2.0, C1=1.3, C2=0.5, domain=Interval(0.0, 2.0)),
            WeightFamily("linear", k=3.0, C=1.0, domain=Interval(-0.5, 2.5)),
        ):
            w = family_weight(fam)
            ts = GridSpec(n=101).points(fam.domain)
            lam = np.asarray(closed_form_lambda(fam, ts))
            np.testing.assert_allclose(
                np.exp(lam), 2.0 * fam.k**2 * w.density(ts) ** 2, rtol=1e-12
            )

    def test_dlambda_matches_finite_difference(self):
        ts = np.linspace(0.1, 0.9, 17)
        h = 1e-6
        fd = (closed_form_lambda(SINH_FAM, ts + h) - closed_form_lambda(SINH_FAM, ts - h)) / (2 * h)
        np.testing.assert_allclose(closed_form_dlambda(SINH_FAM, ts), fd, rtol=1e-8)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            closed_form_lambda(SINH_FAM, 2.0)
        with pytest.raises(ValueError):
            closed_form_dlambda(LINEAR_FAM, 3.0)


# Members with both denominator signs and with infinite interval ends.
TABLE_MEMBERS = [
    SIN_FAM,
    WeightFamily("sin", C1=2.0, C2=0.4, domain=Interval(-0.15, 1.2)),
    WeightFamily("sinh", C1=1.0, C2=0.0, domain=Interval(0.0, math.inf)),
    WeightFamily("sinh", C1=0.7, C2=-2.0, domain=Interval(-math.inf, 2.5)),
    WeightFamily("linear", C=0.0, domain=Interval(0.0, math.inf)),
    WeightFamily("linear", C=-2.0, domain=Interval(-math.inf, 1.9)),
]


def _reference_closed_forms(fam: WeightFamily, t):
    """(lambda, lambda') of each family written out, in the operation order the table keeps."""
    C1, C2, C = fam.C1, fam.C2, fam.C
    u = C1 * t + C2
    if fam.kind == "sin":
        return (
            np.log(2.0 * C1**2) - 2.0 * np.log(np.abs(np.sin(u))),
            -2.0 * C1 * np.cos(u) / np.sin(u),
        )
    if fam.kind == "sinh":
        return (
            np.log(2.0 * C1**2) - 2.0 * np.log(np.abs(np.sinh(u))),
            -2.0 * C1 * np.cosh(u) / np.sinh(u),
        )
    return np.log(2.0) - 2.0 * np.log(np.abs(t + C)), -2.0 / (t + C)


@pytest.mark.parametrize("k", [1.0, 2.5])
@pytest.mark.parametrize("fam", TABLE_MEMBERS, ids=lambda fam: fam.kind)
def test_closed_forms_keep_their_bytes(fam, k):
    fam = WeightFamily(fam.kind, k=k, C1=fam.C1, C2=fam.C2, C=fam.C, domain=fam.domain)
    ts = GridSpec(n=1001).points(fam.domain)
    with np.errstate(all="ignore"):
        lam, dlam = _reference_closed_forms(fam, ts)
    # Far out on a half-line sinh overflows; the closed forms refuse those points.
    finite = np.isfinite(lam) & np.isfinite(dlam)
    assert finite.sum() > 500
    ts, lam, dlam = ts[finite], lam[finite], dlam[finite]
    assert closed_form_lambda(fam, ts).tobytes() == lam.tobytes()
    assert closed_form_dlambda(fam, ts).tobytes() == dlam.tobytes()
    for t, want, dwant in zip(ts[::100], lam[::100], dlam[::100]):
        state = family_initial_state(fam, float(t))
        assert (state.lam, state.dlam) == (want, dwant)
        assert math.copysign(1.0, state.dlam) == math.copysign(1.0, dwant)


class TestSolver:
    def test_matches_sinh_family(self):
        err, traj = _sup_error(SINH_FAM, 0.0, 1.0)
        assert err < 1e-12
        assert not traj.blown_up

    def test_matches_sin_family(self):
        err, _ = _sup_error(SIN_FAM, -0.5, 0.5)
        assert err < 1e-12

    def test_matches_linear_family(self):
        err, _ = _sup_error(LINEAR_FAM, 0.0, 1.0)
        assert err < 1e-12
        # wider window from the module contract examples
        err2, _ = _sup_error(LINEAR_FAM, 0.0, 2.0)
        assert err2 < 1e-12

    @pytest.mark.parametrize("kind", ["sin", "sinh"])
    def test_near_linear_member_matches_mpmath(self, kind):
        # kappa = -+1e-10: the sin and sinh members differ from the linear one,
        # and from each other, by about 1e-11.
        fam = WeightFamily(kind, k=1.0, C1=1e-5, C2=1e-5, domain=Interval(-0.5, 2.5))
        ts = np.array([-0.4, 1.0, 2.4])
        expected = np.array(NEAR_LINEAR[kind])
        for t0, t1 in ((-0.4, 2.4), (2.4, -0.4)):
            traj = solve_liouville(family_initial_state(fam, t0), t1)
            np.testing.assert_allclose(traj.interpolate(ts), expected[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                traj.interpolate_dlam(ts), expected[:, 1], rtol=0, atol=1e-12
            )

    def test_backward_integration(self):
        traj = solve_liouville(family_initial_state(SINH_FAM, 1.0), 0.0)
        assert (traj.t_min, traj.t_max) == (0.0, 1.0)
        grid = np.linspace(0.0, 1.0, 201)
        err = np.max(np.abs(traj.interpolate(grid) - closed_form_lambda(SINH_FAM, grid)))
        assert err < 1e-12
        err_d = np.max(np.abs(traj.interpolate_dlam(grid) - closed_form_dlambda(SINH_FAM, grid)))
        assert err_d < 1e-12

    def test_symmetry_about_sin_minimum(self):
        # dlambda = 0 at t = 0 for the strip-family member; the trajectory must
        # mirror across the minimum.
        assert abs(closed_form_dlambda(SIN_FAM, 0.0)) < 1e-15
        fwd = solve_liouville(family_initial_state(SIN_FAM, 0.0), 0.4)
        bwd = solve_liouville(family_initial_state(SIN_FAM, 0.0), -0.4)
        s = np.linspace(0.0, 0.4, 101)
        assert np.max(np.abs(fwd.interpolate(s) - bwd.interpolate(-s))) < 1e-12

    def test_first_integral_drift(self):
        for fam, t0, t1 in ((SINH_FAM, 0.0, 1.0), (SIN_FAM, -0.5, 0.5), (LINEAR_FAM, 0.0, 2.0)):
            traj = solve_liouville(family_initial_state(fam, t0), t1)
            energy = traj.energy(np.linspace(t0, t1, 301))
            assert np.max(np.abs(energy - energy[0])) < 1e-12
            assert energy[0] == pytest.approx(2.0 * traj.kappa, abs=1e-12)

    def test_dense_output_derivative(self):
        traj = solve_liouville(family_initial_state(SINH_FAM, 0.0), 1.0)
        grid = np.linspace(0.0, 1.0, 201)
        err = np.max(np.abs(traj.interpolate_dlam(grid) - closed_form_dlambda(SINH_FAM, grid)))
        assert err < 1e-12

    def test_interpolation_hits_knots_and_bounds(self):
        # The one knot is the initial state, which the closed form reproduces
        # exactly; points outside the span are rejected.
        for fam, t0, t1 in ((SINH_FAM, 0.0, 1.0), (SIN_FAM, 0.3, -0.5), (LINEAR_FAM, 0.0, 1.0)):
            initial = family_initial_state(fam, t0)
            traj = solve_liouville(initial, t1)
            assert traj.interpolate(t0) == initial.lam
            assert traj.interpolate_dlam(t0) == initial.dlam
        traj = solve_liouville(family_initial_state(SINH_FAM, 0.0), 1.0)
        with pytest.raises(ValueError):
            traj.interpolate(1.5)
        with pytest.raises(ValueError):
            traj.interpolate_dlam(-0.2)

    def test_blow_up_is_flagged_not_raised(self):
        # The sin member is singular at t = 1; marching past it must return a
        # flagged partial trajectory that stops where lambda reaches the cap,
        # 2e-11 short of the pole.
        traj = solve_liouville(family_initial_state(SIN_FAM, 0.0), 2.0)
        assert traj.blown_up
        assert traj.t_min == 0.0
        assert abs(traj.t_max - 1.0) < 1e-9
        assert traj.t_max < 1.0
        assert traj.interpolate(traj.t_max) == pytest.approx(DEFAULT_LAMBDA_CAP, abs=1e-3)

    def test_blow_up_backward(self):
        traj = solve_liouville(family_initial_state(SIN_FAM, 0.0), -2.0)
        assert traj.blown_up
        assert abs(traj.t_min + 1.0) < 1e-9

    @pytest.mark.parametrize("t0", [0.0, 2.0])
    def test_blow_up_of_linear_family(self, t0):
        # kappa is 0 up to rounding here; the pole of 2/(t+1)^2 is at t = -1.
        traj = solve_liouville(family_initial_state(LINEAR_FAM, t0), -3.0)
        assert traj.blown_up
        assert abs(traj.t_min + 1.0) < 1e-9
        assert traj.t_max == t0

    def test_no_blow_up_short_of_the_pole(self):
        traj = solve_liouville(family_initial_state(SIN_FAM, 0.0), 0.999)
        assert not traj.blown_up
        assert traj.t_max == 0.999

    def test_tolerance_is_recorded(self):
        traj = solve_liouville(family_initial_state(SINH_FAM, 0.0), 1.0, tol=1e-6)
        assert traj.tol == 1e-6
        assert (traj.accepted, traj.rejected) == (1, 0)

    def test_argument_validation(self):
        init = family_initial_state(SINH_FAM, 0.0)
        with pytest.raises(ValueError):
            solve_liouville(init, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            solve_liouville(init, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                solve_liouville(init, bad)
        with pytest.raises(ValueError):
            LiouvilleState(0.0, math.inf, 0.0)


class TestLambdaToWeight:
    def test_round_trip_reproduces_families(self):
        for fam, t0, t1 in (
            (SINH_FAM, 0.0, 1.0),
            (SIN_FAM, -0.4, 0.4),
            (LINEAR_FAM, 0.0, 1.0),
            (WeightFamily("sinh", k=2.0, C1=1.0, C2=1.0, domain=Interval(-0.5, 1.5)), 0.0, 1.0),
        ):
            traj = solve_liouville(family_initial_state(fam, t0), t1)
            w_num = lambda_to_weight(traj, k=fam.k)
            w_ref = family_weight(fam)
            ts = np.linspace(t0 + 1e-6, t1 - 1e-6, 401)
            assert np.max(np.abs(w_num.density(ts) - w_ref.density(ts))) < 1e-10, fam

    def test_linear_family_k2_density(self):
        fam = WeightFamily("linear", k=2.0, C=1.0, domain=Interval(-0.5, 2.5))
        traj = solve_liouville(family_initial_state(fam, 0.0), 1.0)
        w = lambda_to_weight(traj, k=2.0)
        ts = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(w.density(ts), 1.0 / (2.0 * (ts + 1.0)), atol=1e-10)

    def test_numeric_weight_curvature(self):
        # No analytic derivatives on purpose: curvature goes through the
        # finite-difference route applied to the solution.
        traj = solve_liouville(family_initial_state(SINH_FAM, 0.0), 1.0)
        w = lambda_to_weight(traj, k=1.0)
        assert not w.has_analytic_derivatives
        ts = np.linspace(0.05, 0.95, 181)
        ks = np.asarray(curvature_k(w, ts))
        assert np.max(np.abs(ks + 1.0)) < 1e-4

    def test_domain_matches_trajectory_span(self):
        traj = solve_liouville(family_initial_state(SINH_FAM, 0.0), 1.0)
        w = lambda_to_weight(traj)
        assert w.domain.lo == traj.t_min
        assert w.domain.hi == traj.t_max

    def test_rejects_small_k_and_short_trajectories(self):
        traj = solve_liouville(family_initial_state(SINH_FAM, 0.0), 1.0)
        with pytest.raises(ValueError):
            lambda_to_weight(traj, k=0.5)
        # lambda starts above the cap: the trajectory is the single point t0
        empty = solve_liouville(LiouvilleState(0.0, 60.0, 1.0), 1.0)
        assert empty.blown_up
        assert empty.t_min == empty.t_max == 0.0
        with pytest.raises(ValueError):
            lambda_to_weight(empty)


def test_family_initial_state_matches_closed_forms():
    st = family_initial_state(SINH_FAM, 0.5)
    assert st.t == 0.5
    assert st.lam == closed_form_lambda(SINH_FAM, 0.5)
    assert st.dlam == closed_form_dlambda(SINH_FAM, 0.5)
