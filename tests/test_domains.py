"""Planar domains: densities, curvature, path length, and geodesic distance."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

from hypcontract import domains
from hypcontract.disk import sigma
from hypcontract.domains import (
    HalfPlane,
    PathPolyline,
    PoincareDisk,
    Strip,
    density,
    distance,
    gauss_curvature,
    gauss_curvature_fd,
    path_length,
)
from hypcontract.liouville import family_initial_state, lambda_to_weight, solve_liouville
from hypcontract.weights import (
    GridSpec,
    Interval,
    Weight,
    WeightFamily,
    disk_diameter_weight,
    half_plane_weight,
    strip_weight,
)

# High-precision oracle values (mpmath, 40 digits), frozen.
LOG_3 = 1.0986122886681096914
D_STRIP_0_HALF = 0.88137358701954302523     # strip distance 0 -> 0.5
STRIP_DENSITY_AT_HALF = 2.2214414690791831235  # (pi/2) / cos(pi/4)
D_HP_ORACLE = 1.4505745138225802087         # half-plane distance 1+i -> 2+3i

DISK = PoincareDisk()
HP = HalfPlane()
STRIP = Strip(strip_weight())


def strip_oracle(z, w):
    """Exact strip distance: sigma at the preimages under strip_map, z = tanh(-i pi zeta / 4)."""
    return float(sigma(np.tanh(-0.25j * np.pi * z), np.tanh(-0.25j * np.pi * w)))


class TestDensity:
    def test_disk(self):
        assert density(DISK, 0.0) == pytest.approx(2.0)
        assert density(DISK, 0.5j) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_strip_depends_on_re_only(self):
        assert density(STRIP, 0.5 + 7.0j) == pytest.approx(STRIP_DENSITY_AT_HALF, rel=1e-14)
        assert density(STRIP, 0.5 + 7.0j) == density(STRIP, 0.5 - 2.0j)

    def test_half_plane(self):
        assert density(HP, 1.0 + 1.0j) == pytest.approx(1.0)
        assert density(HP, 4.0 - 3.0j) == pytest.approx(0.25)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            density(DISK, 1.1)
        with pytest.raises(ValueError):
            density(HP, -0.5 + 1.0j)
        with pytest.raises(ValueError):
            density(STRIP, 1.5 + 0.1j)

    def test_containment_predicates(self):
        assert DISK.contains(0.99)
        assert not DISK.contains(1.0)
        assert HP.contains(1e-6 + 5.0j)
        assert not HP.contains(1.0j)
        assert STRIP.contains(-0.9 + 100.0j)
        assert not STRIP.contains(np.nan)


class TestCurvature:
    def test_closed_forms(self):
        assert gauss_curvature(DISK, 0.3 + 0.2j) == pytest.approx(-1.0)
        assert gauss_curvature(HP, 2.0 + 5.0j) == pytest.approx(-1.0)
        assert gauss_curvature(STRIP, 0.4 - 2.0j) == pytest.approx(-1.0, abs=1e-10)

    def test_diameter_weight_strip_has_milder_curvature(self):
        # 2/(1-t^2) solves curv == -(1+t^2)/2, so only -1/2 at the center
        s = Strip(disk_diameter_weight())
        assert gauss_curvature(s, 0.0) == pytest.approx(-0.5, abs=1e-12)
        assert gauss_curvature(s, 0.6 + 1.0j) == pytest.approx(-(1.0 + 0.36) / 2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dom,z",
        [(DISK, 0.3 + 0.2j), (HP, 1.0 + 1.0j), (STRIP, 0.4 - 2.0j)],
    )
    def test_finite_difference_agrees(self, dom, z):
        cf = float(np.real(gauss_curvature(dom, z)))
        assert abs(gauss_curvature_fd(dom, z) - cf) < 1e-5

    def test_finite_difference_stencil_must_fit(self):
        with pytest.raises(ValueError):
            gauss_curvature_fd(DISK, 0.9995)
        with pytest.raises(ValueError):
            gauss_curvature_fd(HP, 1e-4 + 1.0j)


class TestPathPolyline:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            PathPolyline((0.1,))

    def test_consecutive_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PathPolyline((0.0, 0.0, 0.5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PathPolyline((0.0, complex(np.inf, 0.0)))

    def test_straight_constructor(self):
        p = PathPolyline.straight(0.0, 1.0j, n_interior=3)
        assert len(p.nodes) == 5
        np.testing.assert_allclose(p.as_array(), 1.0j * np.linspace(0.0, 1.0, 5))


class TestPathLength:
    def test_disk_diameter_segment(self):
        assert path_length(DISK, PathPolyline.straight(0.0, 0.5)) == pytest.approx(
            LOG_3, rel=1e-12
        )

    def test_strip_horizontal_segment(self):
        got = path_length(STRIP, PathPolyline.straight(0.0, 0.5))
        assert got == pytest.approx(D_STRIP_0_HALF, rel=1e-12)

    def test_strip_vertical_segment_is_density_times_height(self):
        x0 = 0.25
        got = path_length(STRIP, PathPolyline.straight(x0 + 0.0j, x0 + 1.0j))
        assert got == pytest.approx(float(STRIP.weight.density(x0)), rel=1e-14)

    def test_invariant_under_node_refinement(self):
        a = path_length(STRIP, PathPolyline.straight(0.0, 0.5))
        b = path_length(STRIP, PathPolyline.straight(0.0, 0.5, n_interior=7))
        assert abs(a - b) < 1e-9

    def test_segment_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            path_length(DISK, PathPolyline((0.0, 0.999999999)))
        with pytest.raises(ValueError):
            # endpoints inside, chord exits the half-plane
            path_length(HP, PathPolyline((1.0 - 10.0j, -0.5 + 0.0j)))


# 40-digit mpmath distances of half-plane pairs (at the parsed doubles) whose
# closed form once lost most of its bits.
HP_FROZEN = {
    (1e-323 + 0j, 3e-323 + 1e-16j): "1412.712514217165062387604734310493941429",
    (1e-323 + 0j, 3e-323 + 1e-300j): "104.8441813965471139573081982721233835681",
}


class TestDistanceClosedForm:
    def test_disk_radius_half(self):
        r = distance(DISK, 0.0, 0.5)
        assert r.method == "closed_form"
        assert r.value == pytest.approx(LOG_3, rel=1e-14)
        assert r.value == pytest.approx(float(sigma(0.0, 0.5)), rel=1e-15)

    def test_half_plane_real_axis_is_log_ratio(self):
        assert distance(HP, 1.0, math.e).value == pytest.approx(1.0, rel=1e-14)

    def test_half_plane_oracle_pair(self):
        assert distance(HP, 1.0 + 1.0j, 2.0 + 3.0j).value == pytest.approx(
            D_HP_ORACLE, rel=1e-13
        )

    @pytest.mark.parametrize(
        "z,w",
        [
            (3.0, 1e300),
            (1e-300, 1e300),
            (1.0 + 1.0j, 1e200 - 1e200j),
            (1e-200 + 5.0j, 1.0),
            (1.0 + 1.0j, 1.0 + 1.0j + 1e-12),
            (2.0, 2.0 + 1e-9j),
            (1e-100, 1.000001e-100),
            # both real parts subnormal: sqrt(Re z) sqrt(Re w) is subnormal too
            (1e-323, 3e-323 + 1e-16j),
            (1e-323, 3e-323 + 1e-300j),
        ],
    )
    def test_half_plane_matches_mpmath_far_and_near(self, z, w):
        z, w = complex(z), complex(w)
        with mpmath.workdps(60):
            zm, wm = mpmath.mpc(z.real, z.imag), mpmath.mpc(w.real, w.imag)
            oracle = mpmath.acosh(1 + abs(zm - wm) ** 2 / (2 * zm.real * wm.real))
            frozen = HP_FROZEN.get((z, w))
            if frozen is not None:
                assert abs(oracle / mpmath.mpf(frozen) - 1) < 1e-38
        value = distance(HP, z, w).value
        assert math.isfinite(value)
        assert value == pytest.approx(float(oracle), rel=1e-14)

    def test_coincident_points(self):
        r = distance(STRIP, 0.2 + 1.0j, 0.2 + 1.0j)
        assert r.value == 0.0
        assert r.method == "closed_form"

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            distance(DISK, 0.0, 1.5)
        with pytest.raises(ValueError):
            distance(HP, -1.0, 2.0)

    def test_cayley_transport_to_half_plane(self):
        # (1-z)/(1+z) is an isometry from the disk onto the half-plane
        rng = np.random.default_rng(8)
        for _ in range(20):
            z, w = (complex(*p) * 0.65 for p in rng.uniform(-1.0, 1.0, size=(2, 2)))
            cz = (1.0 - z) / (1.0 + z)
            cw = (1.0 - w) / (1.0 + w)
            assert distance(HP, cz, cw).value == pytest.approx(
                distance(DISK, z, w).value, abs=1e-9
            )


class TestDistanceVariational:
    def test_strip_equal_height_pair(self):
        r = distance(STRIP, 0.0, 0.5)
        assert r.method == "variational"
        assert r.certificate["converged"]
        # the horizontal segment is the geodesic; the one-dimensional integral
        # is also the certified lower bound
        lb = r.certificate["lower_bound"]
        assert lb == pytest.approx(D_STRIP_0_HALF, rel=1e-12)
        assert r.value >= lb - 1e-12
        assert r.value == pytest.approx(D_STRIP_0_HALF, rel=1e-3)

    def test_strip_offset_pair_stays_above_lower_bound(self):
        r = distance(STRIP, -0.3 + 0.0j, 0.4 + 0.9j)
        assert r.method == "variational"
        assert r.certificate["converged"]
        assert r.value >= r.certificate["lower_bound"] - 1e-12
        straight = path_length(STRIP, PathPolyline.straight(-0.3 + 0.0j, 0.4 + 0.9j))
        assert r.value <= straight + 1e-9

    def test_half_plane_weight_matches_half_plane(self):
        # 1/t on (0, inf) is the half-plane metric, whose minimum lies at the
        # infinite end; every branch of the first integral meets the closed form
        strip_hp = Strip(half_plane_weight())
        rng = np.random.default_rng(5)
        pairs = [(1.0, 1.0 + 3.0j), (1.0, 1.0 + 100.0j), (0.01, 0.01 + 1.0j), (2.0 + 1.0j, 5.0 - 3.0j)]
        pairs += [tuple(complex(rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(2))
                  for _ in range(20)]
        for z, w in pairs:
            r = distance(strip_hp, z, w)
            exact = distance(HP, z, w).value
            assert r.certificate["converged"]
            assert abs(r.value - exact) / exact < 1e-6

    def test_certificate_contents(self):
        r = distance(STRIP, 0.1, 0.3 + 0.2j)
        cert = r.certificate
        assert set(cert) >= {"iterations", "converged", "lower_bound", "c", "turning_point",
                             "error_estimate"}
        assert isinstance(cert["iterations"], int) and cert["converged"]
        assert 0.0 < cert["c"] < float(STRIP.weight.density(0.1))
        assert cert["turning_point"] is None
        assert 0.0 <= cert["error_estimate"] < 1e-9
        turned = distance(STRIP, 0.6, 0.6 + 2.0j).certificate
        assert 0.0 < turned["turning_point"] < 0.6
        assert turned["c"] == pytest.approx(float(STRIP.weight.density(turned["turning_point"])))

    @pytest.mark.parametrize(
        "strip",
        # the second has no analytic derivatives, as lambda_to_weight weights
        [STRIP, Strip(dataclasses.replace(strip_weight(), d1=None, d2=None))],
        ids=["analytic", "numeric"],
    )
    def test_strip_matches_conformal_oracle(self, strip):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(60):
            z, w = (complex(rng.uniform(-0.99, 0.99), rng.uniform(-2.0, 2.0)) for _ in range(2))
            r = distance(strip, z, w)
            assert r.certificate["converged"]
            worst = max(worst, abs(r.value - strip_oracle(z, w)) / strip_oracle(z, w))
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "z,w",
        [
            (0.0, 3.0j),  # equal Re on the minimizer of w: the vertical line
            (1e-3, 1e-3 + 3.0j),  # equal Re near the minimizer
            (1e-12, 1e-12 + 3.0j),
            (0.98, 0.98 + 3.0j),  # same side, near the boundary
            (-0.98, 0.97 + 0.1j),  # opposite sides
            (0.2 + 1.0j, -0.7 + 1.0j),  # dy = 0
            (0.3 + 1.0j, 0.3 + 1.0001j),  # separation 1e-4
            (0.3 + 1.0j, 0.30007 + 1.00007j),
        ],
    )
    def test_edge_cases_match_conformal_oracle(self, z, w):
        r = distance(STRIP, z, w)
        assert r.certificate["converged"]
        assert abs(r.value - strip_oracle(z, w)) / strip_oracle(z, w) < 1e-6


def test_triangle_inequality_closed_form_domains():
    rng = np.random.default_rng(23)
    for _ in range(40):
        a, b, c = (complex(*p) * 0.68 for p in rng.uniform(-1.0, 1.0, size=(3, 2)))
        ab = distance(DISK, a, b).value
        bc = distance(DISK, b, c).value
        ac = distance(DISK, a, c).value
        assert ac <= ab + bc + 1e-12
    for _ in range(40):
        a, b, c = (complex(abs(p[0]) + 0.05, p[1]) for p in rng.uniform(-2.0, 2.0, size=(3, 2)))
        ab = distance(HP, a, b).value
        bc = distance(HP, b, c).value
        ac = distance(HP, a, c).value
        assert ac <= ab + bc + 1e-12


def test_triangle_inequality_strip_variational():
    # each leg is accurate far below the slack, so a violation would indicate
    # a broken geodesic solver
    rng = np.random.default_rng(42)
    for _ in range(15):
        pts = rng.uniform(-0.6, 0.6, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        a, b, c = (complex(p) for p in pts)
        ab = distance(STRIP, a, b).value
        bc = distance(STRIP, b, c).value
        ac = distance(STRIP, a, c).value
        assert ac <= ab + bc + 1e-6


def test_straight_polyline_is_an_upper_bound():
    rng = np.random.default_rng(77)
    for dom, scale in ((DISK, 0.7), (STRIP, 0.6)):
        for _ in range(10):
            z, w = (complex(*p) for p in rng.uniform(-1.0, 1.0, size=(2, 2)) * scale)
            dv = distance(dom, z, w).value
            assert dv <= path_length(dom, PathPolyline.straight(z, w)) + 1e-9


def test_secant_ratio_converges_to_density():
    # d(z, z + h u) / (h * density(z)) -> 1; errors shrink about linearly in h
    cases = (
        (DISK, 0.3 + 0.1j, np.exp(0.7j)),
        (HP, 1.0 + 0.5j, np.exp(0.3j)),
        (STRIP, 0.2 + 0.4j, np.exp(1.1j)),
    )
    for dom, z, u in cases:
        errs = []
        for h in (1e-2, 1e-3, 1e-4):
            d = distance(dom, z, z + h * u).value
            errs.append(abs(d / (h * density(dom, z)) - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


def test_strip_requires_positive_weight():
    bad = Weight(domain=Interval(-1.0, 1.0), density=lambda t: np.asarray(t), name="signed")
    with pytest.raises(ValueError):
        Strip(bad)


def test_strip_requires_log_convex_weight():
    # exp(-t^2) has curv_w = 2 exp(2 t^2) > 0; the first integral needs curv_w <= 0
    bump = Weight(domain=Interval(-1.0, 1.0), density=lambda t: np.exp(-np.square(t)), name="bump")
    with pytest.raises(ValueError, match="log-convex"):
        Strip(bump)


def _scipy_brentq(f, a, b, xtol):
    root, info = optimize.brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
    return root, info.iterations, info.converged


def _liouville_weight():
    """The strip weight rebuilt from a Liouville solve: no d1, so _slope differences."""
    fam = WeightFamily("sin", k=1.0, C1=math.pi / 2, C2=-math.pi / 2, domain=Interval(-1.0, 1.0))
    return lambda_to_weight(solve_liouville(family_initial_state(fam, -0.9), 0.9))


def _slope_problem(wt):
    lo, hi = GridSpec(n=2, shrink=1e-15).points(wt.domain)
    return (lambda x: domains._slope(wt, x)), float(lo), float(hi)


class TestBrentq:
    """``domains._brentq`` against scipy's ``brentq``, the implementation it ports."""

    @pytest.mark.parametrize("xtol", [1e-15, 1e-12])
    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: (x - 0.3) * (1.0 + x * x) ** 2, -1.5, 1.7),
            (lambda x: x**5 - 0.1, 1.0, -0.5),
            (lambda x: math.tanh(40.0 * (x - 0.123)), -2.0, 2.5),
            (lambda x: math.tanh(0.5 * x + 0.2), -3.0, 1.0),
            (lambda x: 1e-160 * (x - 0.3), -1.1, 1.3),  # a step denominator underflows to 0.0
            (lambda x: x, -1.0, 1.0),  # the first secant step lands on f = 0.0 exactly
            (lambda x: x - 0.25, -0.5, 1.0),
        ],
        ids=["cubic", "quintic-bump", "x5-reversed", "tanh-steep", "tanh-flat", "tiny", "mid-zero",
             "mid-zero-offset"],
    )
    def test_matches_scipy(self, f, a, b, xtol):
        root, iterations, converged = domains._brentq(f, a, b, xtol)
        ref_root, ref_iterations, ref_converged = _scipy_brentq(f, a, b, xtol)
        assert root.hex() == ref_root.hex()
        assert (iterations, converged) == (ref_iterations, ref_converged)

    @pytest.mark.parametrize("xtol", [1e-15, 1e-12])
    @pytest.mark.parametrize(
        "weight",
        [strip_weight, disk_diameter_weight, _liouville_weight],
        ids=["strip", "disk-diameter", "liouville"],
    )
    def test_slopes_match_scipy(self, weight, xtol):
        f, lo, hi = _slope_problem(weight())
        root, iterations, converged = domains._brentq(f, lo, hi, xtol)
        ref_root, ref_iterations, ref_converged = _scipy_brentq(f, lo, hi, xtol)
        assert root.hex() == ref_root.hex()
        assert (iterations, converged) == (ref_iterations, ref_converged)

    def test_coarse_xtol_matches_scipy(self):
        # at xtol 1e-3 one step here is short only because of the "- delta" in
        # the short-step test
        def f(x):
            return math.exp(x) - math.exp(0.6668432232664916)

        assert domains._brentq(f, -1.1, 1.3, 1e-3) == _scipy_brentq(f, -1.1, 1.3, 1e-3)

    def test_iteration_cap_matches_scipy(self):
        def f(x):
            return math.copysign(1.0, x)

        assert domains._brentq(f, -1.0, 1.3, 1e-300) == _scipy_brentq(f, -1.0, 1.3, 1e-300)
        assert domains._brentq(f, -1.0, 1.3, 1e-300)[1:] == (100, False)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 0.0)], ids=["at-a", "at-b"])
    def test_root_at_an_end(self, a, b):
        # scipy reports no iteration count here (its counter is never set), so
        # only the root and the flag are compared
        root, iterations, converged = domains._brentq(lambda x: x, a, b, 1e-12)
        ref_root, _, ref_converged = _scipy_brentq(lambda x: x, a, b, 1e-12)
        assert root.hex() == ref_root.hex() == (0.0).hex()
        assert (iterations, converged) == (0, ref_converged) == (0, True)

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: x * x + 1.0, -1.0, 2.0),  # same-sign ends
            (lambda x: math.nan if x < 0.0 else x, -1.0, 2.0),  # NaN at a
            (lambda x: math.nan if x > 1.0 else x, -1.0, 2.0),  # NaN at b
            (lambda x: math.nan if abs(x) < 0.9 else x, -1.0, 2.0),  # NaN midway
        ],
        ids=["same-sign", "nan-at-a", "nan-at-b", "nan-midway"],
    )
    def test_bad_brackets_raise_value_error(self, f, a, b):
        with pytest.raises(ValueError):
            _scipy_brentq(f, a, b, 1e-12)
        with pytest.raises(ValueError):
            domains._brentq(f, a, b, 1e-12)

    def test_unconverged_minimizer_raises(self, monkeypatch):
        monkeypatch.setattr(domains, "_brentq", lambda f, a, b, xtol: (0.5 * (a + b), 100, False))
        with pytest.raises(RuntimeError, match="did not converge after 100 iterations"):
            domains._minimizer(strip_weight())


HP_STRIP = Strip(half_plane_weight())
DIAMETER_STRIP = Strip(disk_diameter_weight())


@pytest.mark.parametrize(
    "strip,z,w,value,c,iterations,converged,turning_point",
    # frozen from the scipy brentq implementation: repr(value), repr(c), the
    # root search's iteration count and flag, repr(turning point)
    [
        (STRIP, 0.1, 0.3 + 0.2j, "0.469291144073125", "1.1711739825664147", 10, True, None),
        (STRIP, 0.6, 0.6 + 2j, "4.1478770702559595", "1.6594163354592804", 14, True,
         "0.2089947170246869"),
        (STRIP, 0.98, 0.98 + 3j, "11.615568859217703", "1.5992451260222333", 13, True,
         "0.12025841748048827"),
        # dy beyond double precision: no root solve, c at its limit w(m)
        (STRIP, 0.0, 40j, "62.83185307179586", "1.5707963267948966", 0, True,
         "-1.0096403787854242e-16"),
        (STRIP, 0.0, 3j, "4.71238898038469", "1.5707963267948966", 0, True,
         "-1.0096403787854242e-16"),
        (STRIP, -0.98, 0.97 + 0.1j, "7.907609623681146", "0.12321519451161933", 11, True, None),
        (STRIP, 0.3 + 1j, 0.3 + 1.0001j, "0.0001762945931070853", "1.7629459301299613", 7, True,
         "0.2999999989995491"),
        # the root converges, the quadrature error estimate does not meet the bound
        (STRIP, 0.1 - 20j, -0.2 + 25j, "70.74840457143115", "1.5707963267948966", 15, False, None),
        (STRIP, 0.2 + 0.4j, -0.3 + 1j, "1.2631879016896854", "1.2399886677275302", 10, True, None),
        (STRIP, -0.5 + 0.1j, -0.9 - 1.5j, "4.602163179043765", "1.7470050423405818", 13, True,
         "-0.28839089250904054"),
        (HP_STRIP, 1 + 1j, 2 + 3j, "1.45057451382258", "0.4961389383570899", 18, True,
         "2.0155644370735972"),
        (HP_STRIP, 0.5, 0.5 + 4j, "4.1894250945222025", "0.48507125007366186", 18, True,
         "2.0615528128045977"),
        (DIAMETER_STRIP, 0.2 + 0.4j, -0.7 - 0.3j, "2.686683042983349", "1.3836774968962307", 11,
         True, None),
    ],
)
def test_strip_distances_keep_their_bytes(strip, z, w, value, c, iterations, converged,
                                          turning_point):
    r = distance(strip, z, w)
    cert = r.certificate
    assert (repr(r.value), repr(cert["c"])) == (value, c)
    assert (cert["iterations"], cert["converged"]) == (iterations, converged)
    tp = cert["turning_point"]
    assert (None if tp is None else repr(tp)) == turning_point


def test_strip_geodesics_read_the_stride_8_nodes_of_the_shared_rule():
    # the step-1/32 tanh-sinh rule the distances above were frozen with, by its own formula
    t = np.arange(-182, 183) / 32.0
    x = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(t)))
    w = (np.pi / 128.0) * np.cosh(t) / np.cosh(0.5 * np.pi * np.sinh(t)) ** 2
    assert np.array_equal(domains._CLAIRAUT_X, x)
    assert np.array_equal(domains._CLAIRAUT_W, w)
