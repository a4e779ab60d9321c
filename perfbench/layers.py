"""Where the traced run wraps hypcontract, and the per-layer metrics it derives.

Every wrapper sits on the module attribute that the caller resolves at call
time: ``harness.sigma`` rather than ``disk.sigma`` for the kernels the harness
imported by name, ``ball.beta`` for the ball kernels the harness reaches
through the module, ``cli.run_suite`` for the suite call of ``cmd_verify``.
"""

from __future__ import annotations

import dataclasses
import math
import statistics

from spans import SpanIndex, Tracer, points_of_first_arg, points_of_result, total

VERIFY_FUNCTIONS = (
    "verify_re_contraction",
    "verify_pointwise_gradient",
    "verify_modulus_contraction",
    "verify_schwarz_pick",
    "verify_pavlovic",
    "verify_kv_factor",
    "verify_abs_inequalities",
    "verify_proof_chain",
)

# The verify_* functions that hand their chunks to the worker pool.
POOLED_FUNCTIONS = (
    "verify_re_contraction",
    "verify_modulus_contraction",
    "verify_schwarz_pick",
    "verify_kv_factor",
    "verify_abs_inequalities",
)

DISK_KERNELS = ("disk.sigma", "disk.sigma_real", "disk.mobius")
BALL_KERNELS = ("ball.beta", "ball.embed_modulus")


def _points_of_csv(args, out) -> int:
    return len(out)


def install_verify(tracer: Tracer, hc) -> None:
    """Wrap the layers a ``hypcontract verify`` run goes through."""
    harness, disk, ball, cli = hc.harness, hc.disk, hc.ball, hc.cli
    tracer.patch(harness, "disk_pair_chunk", "harness.sample", nbytes=True)
    tracer.patch(harness, "ball_pair_chunk", "harness.sample", nbytes=True)
    for attr in ("sigma", "sigma_real", "mobius"):
        tracer.patch(harness, attr, f"disk.{attr}", points=points_of_result)
    tracer.patch(disk, "rho", "disk.rho", points=points_of_result)
    tracer.patch(disk, "check_disk_point", "disk.check", points=points_of_first_arg)
    tracer.patch(ball, "beta", "ball.beta", points=points_of_result)
    tracer.patch(ball, "embed_modulus", "ball.embed_modulus")
    tracer.patch(ball, "check_ball_point", "ball.check")

    original_get = harness.catalog_get

    def traced_get(name):
        f = original_get(name)
        return dataclasses.replace(
            f,
            eval=tracer.wrap("catalog.eval", f.eval, points=points_of_first_arg),
            deriv=tracer.wrap("catalog.deriv", f.deriv, points=points_of_first_arg),
        )

    tracer.replace(harness, "catalog_get", traced_get)
    tracer.patch(harness, "omega_distance", "weights.omega_distance")
    tracer.patch(harness, "verify_curvature_bound", "weights.curvature_gate")
    tracer.patch(harness, "validate_config", "harness.validate")
    for name in VERIFY_FUNCTIONS:
        tracer.patch(harness, name, f"harness.{name}")
    tracer.patch(harness.SuiteResult, "to_json", "harness.to_json")
    tracer.patch(harness.SuiteResult, "margins_csv", "harness.margins_csv", points=_points_of_csv)
    tracer.patch(cli, "run_suite", "harness.run_suite")
    tracer.patch(cli, "cmd_verify", "cli.cmd_verify")


def install_queries(tracer: Tracer, hc) -> None:
    """Wrap the layers behind ``hypcontract distance`` and ``hypcontract ode``."""
    tracer.patch(hc.domains, "distance", "domains.distance")
    tracer.patch(hc.domains, "path_length", "domains.path_length")
    tracer.patch(hc.domains, "omega_distance", "weights.omega_distance")
    tracer.patch(hc.liouville, "solve_liouville", "liouville.solve")


def traced_strip(tracer: Tracer, hc):
    """A strip over ``strip_weight()`` whose density calls are spans."""
    w = hc.weights.strip_weight()
    density = tracer.wrap("domains.density", w.density, points=points_of_first_arg)
    return hc.domains.Strip(dataclasses.replace(w, density=density))


def _p90(values) -> float:
    """Nearest-rank 90th percentile: the smallest value with 90% of values at or below.

    With one blow-up solve in eight, this lands in the blow-up solves for any
    batch of solves whose length is a multiple of eight; an interpolating
    quantile would mix them with the slowest regular solve.
    """
    if not values:
        return 0.0
    return float(sorted(values)[math.ceil(0.9 * len(values)) - 1])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def verify_layer_metrics(spans, workers: int) -> dict:
    """Per-layer numbers of one traced ``verify`` run with ``workers`` threads."""
    ix = SpanIndex(spans)
    m = {}
    sample = ix.named("harness.sample")
    m["harness.sample_calls"] = len(sample)
    m["harness.sample_s"] = total(sample)
    m["harness.sample_bytes"] = total(sample, "nbytes")

    drivers = ix.named(*(f"harness.{f}" for f in VERIFY_FUNCTIONS))
    m["harness.driver_self_s"] = sum(ix.self_time(s) for s in drivers)
    # Chunk work is every call under a pooled driver except its curvature gate,
    # which runs once on the calling thread before the pool starts.
    pooled = ix.named(*(f"harness.{f}" for f in POOLED_FUNCTIONS))
    wall = total(pooled)
    busy = sum(ix.busy_by_thread(s, exclude={"weights.curvature_gate"}) for s in pooled)
    m["harness.parallel_efficiency"] = busy / (workers * wall) if wall > 0 else 0.0

    m["harness.validate_s"] = total(ix.named("harness.validate"))
    m["harness.serialize_json_s"] = total(ix.named("harness.to_json"))
    csv = ix.named("harness.margins_csv")
    m["harness.serialize_csv_s"] = total(csv)
    m["harness.csv_bytes"] = total(csv, "points")
    m["cli.self_s"] = sum(ix.self_time(s) for s in ix.named("cli.cmd_verify"))

    in_validation = {"harness.validate"}
    evals = [s for s in ix.named("catalog.eval") if not ix.has_ancestor(s, in_validation)]
    derivs = [s for s in ix.named("catalog.deriv") if not ix.has_ancestor(s, in_validation)]
    m["catalog.eval_calls"] = len(evals)
    m["catalog.eval_points"] = total(evals, "points")
    m["catalog.eval_s"] = total(evals)
    m["catalog.deriv_s"] = total(derivs)

    kernels = ix.named(*DISK_KERNELS)
    checks = ix.named("disk.check")
    m["disk.kernel_calls"] = len(kernels)
    m["disk.kernel_points"] = total(kernels, "points")
    m["disk.kernel_s"] = total(kernels)
    m["disk.check_calls"] = len(checks)
    m["disk.check_s"] = total(checks)

    bk = ix.named(*BALL_KERNELS)
    m["ball.kernel_calls"] = len(bk)
    m["ball.kernel_s"] = total(bk)
    m["ball.check_s"] = total(ix.named("ball.check"))

    omega = ix.named("weights.omega_distance")
    m["weights.omega_distance_calls"] = len(omega)
    m["weights.omega_distance_s"] = total(omega)
    m["weights.curvature_gate_s"] = total(ix.named("weights.curvature_gate"))
    return m


def query_layer_metrics(spans, results) -> tuple[dict, dict]:
    """Per-layer numbers of one traced ``queries`` pass, and the absent ones.

    ``results`` are the per-query records of that pass.  Optimizer iterations,
    convergence and step counts come from what the public results expose; a
    metric whose field is missing is absent (with the reason), not zero.
    """
    ix = SpanIndex(spans)
    m, absent = {}, {}
    dist = ix.named("domains.distance")
    dens = ix.named("domains.density")
    m["domains.distance_calls"] = len(dist)
    m["domains.distance_s"] = total(dist)
    m["domains.path_length_s"] = total(ix.named("domains.path_length"))
    m["domains.density_calls"] = len(dens)
    m["domains.density_points"] = total(dens, "points")
    omega = ix.named("weights.omega_distance")
    m["weights.omega_distance_calls"] = len(omega)
    m["weights.omega_distance_s"] = total(omega)

    d_res = [r for r in results if r["kind"] == "distance" and "error" not in r]
    iters = [r.get("iterations") for r in d_res]
    conv = [r.get("converged") for r in d_res]
    if None in iters:
        absent["domains.optimizer_iters"] = "the distance certificate has no 'iterations'"
    else:
        m["domains.optimizer_iters"] = sum(iters)
    if None in conv:
        absent["domains.unconverged"] = "the distance certificate has no 'converged'"
    else:
        m["domains.unconverged"] = sum(1 for c in conv if not c)

    # Solve spans are recorded in call order, one per record marked "solved".
    solves = ix.named("liouville.solve")
    o_res = [r for r in results if r["kind"] == "ode" and r.get("solved")]
    m["liouville.solve_calls"] = len(solves)
    m["liouville.solve_s"] = sum(
        s.end - s.start for s, r in zip(solves, o_res) if not r["blowup"]
    )
    m["liouville.blowup_solve_s"] = sum(s.end - s.start for s, r in zip(solves, o_res) if r["blowup"])
    ok = [r for r in o_res if "error" not in r]
    acc = [r.get("accepted") for r in ok]
    rej = [r.get("rejected") for r in ok]
    if None in acc or None in rej:
        for key in ("liouville.steps_accepted", "liouville.steps_rejected", "liouville.accept_ratio"):
            absent[key] = "the trajectory has no accepted/rejected step counts"
    else:
        m["liouville.steps_accepted"] = sum(acc)
        m["liouville.steps_rejected"] = sum(rej)
        attempted = sum(acc) + sum(rej)
        m["liouville.accept_ratio"] = sum(acc) / attempted if attempted else 0.0
    return m, absent


def query_latency_metrics(results) -> dict:
    """Medians and 90th percentiles (ms) of untraced query latencies."""
    d_ms = [r["ms"] for r in results if r["kind"] == "distance" and "ms" in r]
    o_ms = [r["ms"] for r in results if r["kind"] == "ode" and "ms" in r]
    return {
        "distance_p50_ms": _median(d_ms),
        "distance_p90_ms": _p90(d_ms),
        "ode_p50_ms": _median(o_ms),
        "ode_p90_ms": _p90(o_ms),
    }


# The queries' end-to-end figures under their per-layer names in the traced run.
QUERY_LAYER_NAMES = {
    "distance_p50_ms": "domains.distance_p50_ms",
    "distance_p90_ms": "domains.distance_p90_ms",
    "distance_max_rel_err": "domains.distance_max_rel_err",
    "ode_p50_ms": "liouville.solve_p50_ms",
    "ode_p90_ms": "liouville.solve_p90_ms",
    "ode_max_abs_err": "liouville.solve_max_abs_err",
}
