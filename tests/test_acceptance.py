"""Acceptance gate: one test per shipped guarantee, at the advertised tolerances.

Run ``pytest tests/test_acceptance.py -v`` for a one-line verdict per
criterion, or add ``-s`` for the measured numbers.
"""

import math
import time

import numpy as np

from hypcontract import ball, disk
from hypcontract.catalog import catalog, get
from hypcontract.domains import (
    HalfPlane,
    PathPolyline,
    PoincareDisk,
    Strip,
    density,
    distance,
    path_length,
)
from hypcontract.harness import (
    KV_FACTOR,
    InequalityCase,
    SampleSpec,
    ball_pair_chunk,
    default_config,
    run_suite,
    verify_abs_inequalities,
    verify_kv_factor,
    verify_modulus_contraction,
    verify_pavlovic,
    verify_pointwise_gradient,
    verify_re_contraction,
    verify_schwarz_pick,
)
from hypcontract.liouville import family_initial_state, closed_form_lambda, solve_liouville
from hypcontract.weights import (
    GridSpec,
    Interval,
    Weight,
    WeightFamily,
    compare_weights,
    curvature_k,
    disk_diameter_weight,
    family_weight,
    half_plane_weight,
    omega_distance,
    strip_weight,
)

SINH_FAM = WeightFamily("sinh", k=1.0, C1=1.0, C2=1.0, domain=Interval(-0.5, 1.5))
SIN_FAM = WeightFamily(
    "sin", k=1.0, C1=math.pi / 2, C2=-math.pi / 2, domain=Interval(-1.0, 1.0)
)
LINEAR_FAM = WeightFamily("linear", k=1.0, C=1.0, domain=Interval(-0.5, 2.5))

DISK_ENTRIES = ("identity", "blaschke", "blaschke_product", "power", "constant", "scaled_exp")


def test_criterion_01_distance_quadrature_vs_antiderivative():
    # adaptive quadrature and the closed-form antiderivative agree on the
    # weighted interval distance for all three solution families
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    windows = {
        "sin": (SIN_FAM, -0.95, 0.95),
        "sinh": (SINH_FAM, -0.45, 1.45),
        "linear": (LINEAR_FAM, -0.45, 2.45),
    }
    worst = 0.0
    for kind, (fam, lo, hi) in windows.items():
        w = family_weight(fam)
        w_quad = Weight(domain=w.domain, density=w.density, name=f"{kind}-quad")
        pairs = rng.uniform(lo, hi, size=(50, 2))
        for a, b in pairs:
            exact = omega_distance(w, a, b)
            quad = omega_distance(w_quad, a, b)
            worst = max(worst, abs(quad - exact) / exact)
    dt = time.perf_counter() - t0
    print(f"criterion 1: max |quad - antiderivative| / antiderivative = {worst:.3e} in {dt:.2f}s")
    assert worst < 1e-13
    assert dt < 5.0


def test_criterion_02_curvature_constancy_of_families():
    # every family member has curvature identically -k^2; analytic route on
    # 1001-point grids, finite-difference fallback, and the flat control
    rng = np.random.default_rng(2)
    kinds = ("sin", "sinh", "linear")
    worst_analytic = 0.0
    worst_fd = 0.0
    for i in range(20):
        kind = kinds[i % 3]
        k = 1.0 + 2.0 * rng.random()
        C1 = 0.6 + 1.4 * rng.random()
        C2 = -1.0 + 2.0 * rng.random()
        if kind == "sin":
            m = int(rng.integers(-1, 2))
            u_lo = m * math.pi + 0.35 + 0.15 * rng.random()
            u_hi = (m + 1) * math.pi - 0.35 - 0.15 * rng.random()
            dom = Interval((u_lo - C2) / C1, (u_hi - C2) / C1)
            fam = WeightFamily("sin", k=k, C1=C1, C2=C2, domain=dom)
        elif kind == "sinh":
            u_a = 0.35 + 0.3 * rng.random()
            u_b = 3.0 + 1.0 * rng.random()
            u_lo, u_hi = (u_a, u_b) if rng.random() < 0.5 else (-u_b, -u_a)
            dom = Interval((u_lo - C2) / C1, (u_hi - C2) / C1)
            fam = WeightFamily("sinh", k=k, C1=C1, C2=C2, domain=dom)
        else:
            C = -1.0 + 2.0 * rng.random()
            a = 0.35 + 0.3 * rng.random()
            b = 3.5 + 1.0 * rng.random()
            lo, hi = (-C + a, -C + b) if rng.random() < 0.5 else (-C - b, -C - a)
            fam = WeightFamily("linear", k=k, C=C, domain=Interval(lo, hi))
        w = family_weight(fam)
        ts = GridSpec(n=1001).points(fam.domain)
        worst_analytic = max(
            worst_analytic, float(np.max(np.abs(curvature_k(w, ts) + fam.k**2)))
        )
    # finite-difference fallback: density-only members of each kind on
    # well-conditioned windows (the relative step heuristic needs the window
    # away from density poles)
    fd_members = (
        (strip_weight(), Interval(-0.93, 0.93), 1.0),
        (family_weight(SINH_FAM), Interval(-0.45, 1.5), 1.0),
        (
            family_weight(WeightFamily("linear", k=2.0, C=1.0, domain=Interval(-0.4, 2.0))),
            Interval(-0.4, 2.0),
            4.0,
        ),
    )
    for member, window, k_sq in fd_members:
        w_fd = Weight(domain=window, density=member.density)
        ts_fd = GridSpec(n=1001, shrink=1e-3).points(window)
        worst_fd = max(worst_fd, float(np.max(np.abs(curvature_k(w_fd, ts_fd) + k_sq))))
    control = float(curvature_k(disk_diameter_weight(), 0.0))
    print(
        f"criterion 2: analytic {worst_analytic:.3e}, fd {worst_fd:.3e}, "
        f"control k(0) = {control:.12f}"
    )
    assert worst_analytic < 1e-8
    assert worst_fd < 3e-6
    assert abs(control + 0.5) < 1e-8


def test_criterion_03_liouville_solver_matches_closed_forms():
    # the linearized closed-form solver reproduces all three closed-form
    # solutions of lambda'' = exp(lambda) on unit windows and conserves the
    # first integral
    worst_sup = 0.0
    worst_drift = 0.0
    for fam, t0, t1 in ((SINH_FAM, 0.0, 1.0), (SIN_FAM, -0.5, 0.5), (LINEAR_FAM, 0.0, 1.0)):
        traj = solve_liouville(family_initial_state(fam, t0), t1)
        grid = np.linspace(t0, t1, 301)
        sup = float(np.max(np.abs(traj.interpolate(grid) - closed_form_lambda(fam, grid))))
        energy = traj.energy(grid)
        drift = float(np.max(np.abs(energy - energy[0])))
        worst_sup = max(worst_sup, sup)
        worst_drift = max(worst_drift, drift)
    print(f"criterion 3: sup error {worst_sup:.3e}, energy drift {worst_drift:.3e}")
    assert worst_sup < 1e-12
    assert worst_drift < 1e-12


def test_criterion_04_variational_distance_cross_validation():
    # the strip geodesic from Clairaut's first integral agrees with the
    # conformal transport of the disk distance and with the half-plane closed
    # form, stays under the straight polyline; Cayley transport and secant
    # ratios tie the closed forms to the densities
    dk, hp, st = PoincareDisk(), HalfPlane(), Strip(strip_weight())
    st_hp = Strip(half_plane_weight())
    rng = np.random.default_rng(4)
    strip_map = get("strip_map")

    worst_rel = 0.0
    for _ in range(100):
        z, w = (complex(rng.uniform(-0.99, 0.99), rng.uniform(-2.0, 2.0)) for _ in range(2))
        pre_z, pre_w = np.tanh(-0.25j * math.pi * z), np.tanh(-0.25j * math.pi * w)
        assert abs(strip_map.eval(pre_z) - z) < 1e-12
        exact = float(disk.sigma(pre_z, pre_w))
        got = distance(st, z, w)
        assert got.certificate["converged"]
        assert got.value <= path_length(st, PathPolyline.straight(z, w)) + 1e-9
        worst_rel = max(worst_rel, abs(got.value - exact) / exact)
        z, w = (complex(rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(2))
        exact = distance(hp, z, w).value
        worst_rel = max(worst_rel, abs(distance(st_hp, z, w).value - exact) / exact)
    assert worst_rel < 1e-6

    worst_cayley = 0.0
    for _ in range(100):
        z, w = (complex(*p) * 0.65 for p in rng.uniform(-1.0, 1.0, size=(2, 2)))
        cz, cw = (1.0 - z) / (1.0 + z), (1.0 - w) / (1.0 + w)
        worst_cayley = max(
            worst_cayley, abs(distance(hp, cz, cw).value - distance(dk, z, w).value)
        )
    assert worst_cayley < 1e-9

    finals = []
    for dom, z, u in (
        (dk, 0.3 + 0.1j, np.exp(0.7j)),
        (hp, 1.0 + 0.5j, np.exp(0.3j)),
        (st, 0.2 + 0.4j, np.exp(1.1j)),
    ):
        errs = [
            abs(distance(dom, z, z + h * u).value / (h * density(dom, z)) - 1.0)
            for h in (1e-2, 1e-3, 1e-4)
        ]
        assert errs[0] > errs[1] > errs[2]
        finals.append(errs[2])
    print(
        f"criterion 4: first-integral rel {worst_rel:.3e}, cayley {worst_cayley:.3e}, "
        f"secant finals {[f'{e:.2e}' for e in finals]}"
    )
    assert max(finals) < 1e-2


def test_criterion_05_distance_contraction_theorem():
    # d_w(Re f(z), Re f(w)) <= sigma(z, w) at ten thousand sampled pairs for
    # both curvature-admissible weight/function pairings
    t0 = time.perf_counter()
    spec = SampleSpec(count=10_000)
    mins = {}
    for fn, weight in (("strip_map", strip_weight()), ("cayley", half_plane_weight())):
        case = InequalityCase(
            id=f"re_contraction:{fn}", function=get(fn), target=weight
        )
        rep = verify_re_contraction(case, spec)
        assert rep.status == "pass"
        assert rep.samples_used == 10_000
        mins[fn] = rep.min_margin
    dt = time.perf_counter() - t0
    print(f"criterion 5: min margins {mins} in {dt:.2f}s")
    assert min(mins.values()) >= -1e-9
    assert dt < 60.0


def test_criterion_06_pointwise_gradient_bound():
    # w(Re f(z)) |f'(z)| (1 - |z|^2)/2 <= 1 over the full evaluation grid
    maxima = {}
    for fn, weight in (("strip_map", strip_weight()), ("cayley", half_plane_weight())):
        case = InequalityCase(
            id=f"pointwise_gradient:{fn}", function=get(fn), target=weight
        )
        rep = verify_pointwise_gradient(case)
        assert rep.status == "pass"
        maxima[fn] = rep.extras["max_lhs"]
    print(f"criterion 6: grid maxima {maxima}")
    assert max(maxima.values()) <= 1.0 + 1e-9


def test_criterion_07_classical_disk_inequalities():
    # modulus contraction, the derivative-modulus bound, and the two-point
    # contraction for every disk-codomain entry; automorphisms achieve equality
    spec = SampleSpec(count=10_000)
    worst = math.inf
    for name in DISK_ENTRIES:
        f = get(name)
        for rep in (
            verify_modulus_contraction(InequalityCase(id=f"mod:{name}", function=f), spec),
            verify_schwarz_pick(InequalityCase(id=f"sp:{name}", function=f), spec),
            verify_pavlovic(InequalityCase(id=f"pav:{name}", function=f)),
        ):
            assert rep.status == "pass", rep.case_id
            worst = min(worst, rep.min_margin)
    eq_rep = verify_schwarz_pick(
        InequalityCase(id="sp:blaschke", function=get("blaschke")), spec
    )
    eq = float(np.max(np.abs(eq_rep.margins)))
    print(f"criterion 7: min margin {worst:.3e}, automorphism equality {eq:.3e}")
    assert worst >= -1e-9
    assert eq < 1e-10


def test_criterion_08_modulus_projection_on_the_ball():
    # pseudo-hyperbolic and metric modulus monotonicity on the disk plus the
    # projection contraction on balls of dimension 1..3; the one-dimensional
    # ball reduces exactly to the disk
    spec = SampleSpec(count=100_000)
    reports = list(verify_abs_inequalities(spec, dims=(1, 2, 3)))
    mins = {r.case_id: r.min_margin for r in reports}
    for r in reports:
        assert r.status == "pass", r.case_id
        assert r.samples_used == 100_000
    z, w = ball_pair_chunk(SampleSpec(count=1000), 1, 0, 1000)
    rho_gap = float(np.max(np.abs(ball.rho(z, w) - np.asarray(disk.rho(z[:, 0], w[:, 0])))))
    sig = np.asarray(disk.sigma(z[:, 0], w[:, 0]))
    beta_rel = float(
        np.max(np.abs(ball.beta(z, w) - sig) / np.maximum(sig, 1e-300))
    )
    print(f"criterion 8: min margins {mins}, n=1 rho gap {rho_gap:.3e}, beta rel {beta_rel:.3e}")
    assert min(mins.values()) >= -1e-12
    assert rho_gap < 1e-14
    # distances amplify a one-ulp rho difference by 2/(1-rho^2); relative
    # agreement is the meaningful statement for beta
    assert beta_rel < 1e-12


def test_criterion_09_strip_contraction_factor():
    # the real-part contraction into the strip holds with factor 4/pi at
    # boundary-biased samples, and the observed ratio supremum certifies that
    # a factor of 1 would be false
    spec = SampleSpec(count=100_000, scheme="boundary_biased")
    case = InequalityCase(
        id="kv_factor:strip_map", function=get("strip_map"), factor=KV_FACTOR
    )
    rep = verify_kv_factor(case, spec)
    sup = rep.extras["sup_ratio"]
    print(f"criterion 9: min margin {rep.min_margin:.3e}, sup ratio {sup:.10f}")
    assert rep.status == "pass"
    assert rep.min_margin >= -1e-9
    assert sup <= KV_FACTOR + 1e-9
    assert sup >= 1.2


def test_criterion_10_density_comparison():
    # (pi/4) * 2/(1-t^2) <= strip density, tight exactly at the center
    ts = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 10_000)
    ratio = np.asarray(strip_weight().density(ts)) / np.asarray(
        disk_diameter_weight().density(ts)
    )
    min_ratio = float(np.min(ratio))
    report = compare_weights(strip_weight(), disk_diameter_weight(), math.pi / 4.0)
    print(f"criterion 10: min ratio {min_ratio:.12f} (pi/4 = {math.pi / 4:.12f})")
    assert min_ratio >= math.pi / 4.0 - 1e-12
    assert abs(min_ratio - math.pi / 4.0) < 1e-6
    assert report.passed
    # the default grid has the center t = 0 among its points
    assert abs(report.min_ratio - math.pi / 4.0) < 1e-12


def test_criterion_11_bitwise_deterministic_reports():
    # the JSON data payload of a full suite run is identical across worker
    # counts; chunked substreams make the sample streams parallelism-proof
    r1 = run_suite(default_config(count=10_000, workers=1))
    r4 = run_suite(default_config(count=10_000, workers=4))
    same = r1.data_json() == r4.data_json()
    print(
        f"criterion 11: payload bytes {len(r1.data_json())}, identical across workers: {same}"
    )
    assert r1.overall_pass and r4.overall_pass
    assert same


def test_catalog_entries_all_validated():
    # supporting check: the gate above assumes the whole catalog is healthy
    assert len(catalog()) == 8
