"""Strip-geodesic and Liouville queries: inputs, the in-process runner, checks.

The parent benchmark draws the inputs from the workload seed and hands them to
a child process (``python queries.py INPUT.json OUTPUT.json``), which makes the
calls that ``hypcontract distance strip`` and ``hypcontract ode`` make, one at
a time, and writes one record per query.  The parent checks every record
against oracles computed here, independently of the package:

- strip distance: the conformal closed form 2 atanh|(a-b)/(1-conj(a) b)| with
  a = tanh(-i pi z/4), to 1e-3 relative (acceptance criterion 4);
- regular solve: sup error against ``closed_form_lambda`` at most 1e-6
  (criterion 3), over the whole requested window;
- blow-up solve (one solve in eight, a sin-family member run past its
  singularity at tol 1e-6): ``blown_up`` set and ``t_max`` at the singularity.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys
import time

STRIP_RE_CAP = 0.99  # the verify suite's radius cap
STRIP_IM_SPAN = 2.0
DISTANCE_REL_TOL = 1e-3
SOLVE_ABS_TOL = 1e-6
REGULAR_TOL = 1e-10
BLOWUP_TOL = 1e-6
BLOWUP_EVERY = 8
SINGULARITY_REL_TOL = 1e-6
ODE_ROWS = 101  # rows of the error table ``hypcontract ode`` prints


def make_batch(seed: int, batch: int, n_distance: int, n_solve: int) -> list[dict]:
    """Queries of one batch; the same (seed, batch) always gives the same list.

    Distances and solves alternate.  Solve ``j`` with ``j % 8 == 7`` is the
    blow-up solve; the others cycle through the sin, sinh and linear families
    on windows inside their intervals.
    """
    rng = random.Random(f"hypcontract-queries:{seed}:{batch}")
    distances = []
    for _ in range(n_distance):
        z = [rng.uniform(-STRIP_RE_CAP, STRIP_RE_CAP), rng.uniform(-STRIP_IM_SPAN, STRIP_IM_SPAN)]
        w = [rng.uniform(-STRIP_RE_CAP, STRIP_RE_CAP), rng.uniform(-STRIP_IM_SPAN, STRIP_IM_SPAN)]
        distances.append({"kind": "distance", "z": z, "w": w})
    solves = []
    for j in range(n_solve):
        if j % BLOWUP_EVERY == BLOWUP_EVERY - 1:
            solves.append(_blowup_solve(rng))
        else:
            solves.append(_regular_solve(rng, ("sin", "sinh", "linear")[j % 3]))
    out = []
    for i in range(max(n_distance, n_solve)):
        out.extend(q[i] for q in (distances, solves) if i < len(q))
    return out


def _regular_solve(rng: random.Random, family: str) -> dict:
    """A window of one family member, kept 0.2 away from its singularity."""
    c1, c2, c = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    hi = math.pi - 0.2 if family == "sin" else 3.0
    u0, u1 = rng.uniform(0.2, hi), rng.uniform(0.2, hi)
    if family == "linear":
        c1, c2 = 1.0, c  # u = t + C
    return {
        "kind": "ode",
        "blowup": False,
        "family": family,
        "C1": c1,
        "C2": c2 if family != "linear" else 0.0,
        "C": c if family == "linear" else 0.0,
        "t0": (u0 - c2) / c1,
        "t1": (u1 - c2) / c1,
        "tol": REGULAR_TOL,
    }


def _blowup_solve(rng: random.Random) -> dict:
    """A sin-family member integrated forward past its singularity at u = pi."""
    c1, c2 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    u0, u1 = rng.uniform(1.0, 2.5), math.pi + rng.uniform(0.1, 1.0)
    return {
        "kind": "ode",
        "blowup": True,
        "family": "sin",
        "C1": c1,
        "C2": c2,
        "C": 0.0,
        "t0": (u0 - c2) / c1,
        "t1": (u1 - c2) / c1,
        "t_sing": (math.pi - c2) / c1,
        "tol": BLOWUP_TOL,
    }


def strip_oracle(z: complex, w: complex) -> float:
    """Exact strip distance through the conformal map of the strip onto the disk."""
    a = cmath.tanh(-1j * math.pi * z / 4.0)
    b = cmath.tanh(-1j * math.pi * w / 4.0)
    return 2.0 * math.atanh(abs((a - b) / (1.0 - a.conjugate() * b)))


def check(query: dict, record: dict) -> str | None:
    """Why ``record`` is not a correct answer to ``query``; None when it is."""
    if "error" in record:
        return f"raised {record['error']}"
    if query["kind"] == "distance":
        err = distance_rel_err(query, record)
        if not err <= DISTANCE_REL_TOL:
            return f"strip distance off by {err:.3e} relative"
        return None
    if query["blowup"]:
        t_sing = query["t_sing"]
        if not record["blown_up"]:
            return "blow-up not reported"
        if not abs(record["t_max"] - t_sing) <= SINGULARITY_REL_TOL * max(1.0, abs(t_sing)):
            return f"blow-up at t={record['t_max']!r}, singularity at {t_sing!r}"
        return None
    if record["blown_up"]:
        return "regular solve reported blow-up"
    lo, hi = sorted((query["t0"], query["t1"]))
    if record["t_min"] > lo + 1e-12 or record["t_max"] < hi - 1e-12:
        return "trajectory does not cover the window"
    if not record["sup_err"] <= SOLVE_ABS_TOL:
        return f"sup error {record['sup_err']:.3e} against the closed form"
    return None


def distance_rel_err(query: dict, record: dict) -> float | None:
    """Relative error of an answered strip distance against the conformal oracle."""
    if query["kind"] != "distance" or "value" not in record:
        return None
    exact = strip_oracle(complex(*query["z"]), complex(*query["w"]))
    return abs(record["value"] - exact) / exact


class Runner:
    """Makes the package calls of a batch; module attributes are resolved per call."""

    def __init__(self, hc, strip=None):
        self.hc = hc
        self.strip = strip if strip is not None else hc.domains.Strip(hc.weights.strip_weight())

    def run(self, queries: list[dict]) -> list[dict]:
        return [self.one(q) for q in queries]

    def one(self, q: dict) -> dict:
        record = {"kind": q["kind"], "blowup": q.get("blowup", False)}
        try:
            if q["kind"] == "distance":
                self._distance(q, record)
            else:
                self._solve(q, record)
        except Exception as exc:  # a crash is a failed query, reported by the parent
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    def _distance(self, q: dict, record: dict) -> None:
        z, w = complex(*q["z"]), complex(*q["w"])
        t0 = time.perf_counter()
        res = self.hc.domains.distance(self.strip, z, w)
        record["ms"] = (time.perf_counter() - t0) * 1e3
        record["value"] = float(res.value)
        cert = res.certificate or {}
        record["iterations"] = cert.get("iterations")
        record["converged"] = cert.get("converged")

    def _solve(self, q: dict, record: dict) -> None:
        hc = self.hc
        t0, t1 = q["t0"], q["t1"]
        domain = hc.weights.Interval(min(t0, t1) - 1e-9, max(t0, t1) + 1e-9)
        if q["blowup"]:
            domain = hc.weights.Interval(t0 - 1e-9, t0 + 1e-9)
        fam = hc.weights.WeightFamily(
            kind=q["family"], C1=q["C1"], C2=q["C2"], C=q["C"], domain=domain
        )
        hc.weights.family_weight(fam)  # the interval check ``hypcontract ode`` makes
        initial = hc.liouville.family_initial_state(fam, t0)
        record["solved"] = True
        start = time.perf_counter()
        traj = hc.liouville.solve_liouville(initial, t1, tol=q["tol"])
        record["ms"] = (time.perf_counter() - start) * 1e3
        record["blown_up"] = bool(traj.blown_up)
        record["t_min"], record["t_max"] = traj.t_min, traj.t_max
        record["accepted"] = getattr(traj, "accepted", None)
        record["rejected"] = getattr(traj, "rejected", None)
        if not q["blowup"] and not traj.blown_up:
            import numpy as np

            ts = np.linspace(traj.t_min, traj.t_max, ODE_ROWS)
            lam = np.asarray(traj.interpolate(ts), dtype=float)
            exact = np.asarray(hc.liouville.closed_form_lambda(fam, ts), dtype=float)
            record["sup_err"] = float(np.max(np.abs(lam - exact)))


WARMUP = [
    {"kind": "distance", "z": [0.1, 0.2], "w": [0.3, -0.5]},
    {"kind": "ode", "blowup": False, "family": "sinh", "C1": 1.0, "C2": 1.0, "C": 0.0,
     "t0": 0.0, "t1": 1.0, "tol": REGULAR_TOL},
]


def modules():
    """The hypcontract modules the queries use, imported on first need."""
    import types

    from hypcontract import domains, liouville, weights

    return types.SimpleNamespace(domains=domains, liouville=liouville, weights=weights)


def main(argv: list[str]) -> int:
    in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    runner = Runner(modules())
    # The first strip distance pays scipy's lazy set-up once per process.
    runner.run(WARMUP)
    records = runner.run(queries)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
