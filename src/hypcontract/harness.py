"""Deterministic sampled verification of the contraction inequalities.

``OPS`` is the one op table: what each op needs of its catalog function and
the case defaults it carries.  ``validate_config`` and ``run_suite`` read it;
``run_suite`` calls the checker ``verify_<op>(case, spec, workers)``.  The
four disk-pair checkers (``re_contraction``, ``modulus_contraction``,
``schwarz_pick``, ``kv_factor``) are one driver, ``_verify_pairs``, each
supplying only its ``lhs(f(z), f(w))`` against ``factor * sigma(z, w)``.

Pairs come from seeded substreams (one PCG64 stream per fixed-size chunk of
1024 samples, keyed by seed, ball dimension and chunk index); chunks define
the stream.  The unit of evaluation is the block, ``BLOCK_CHUNKS`` consecutive
chunks: ``_map_chunks`` hands each pool task one block, which draws its chunks
one by one and then evaluates the catalog map and the distance kernels once
on all of them, and merges the blocks in order.  Neither chunk nor block
boundaries depend on the worker count, so a suite is bitwise reproducible at
any parallelism level.  Within one ``run_suite`` call the disk-pair stream of
a ``SampleSpec`` is shared: each block's ``z``, ``w`` and ``sigma(z, w)`` are
computed once, and every disk-pair case (and the disk half of the
modulus-monotonicity family) only evaluates its own left side on them.

A block gives the bits its chunks would give one at a time only while every
kernel is elementwise and blind to array size.  numpy breaks the second: a
commutative op whose right operand is a temporary of at least 256 KiB is
computed in place into that temporary with the operands swapped, and the
product of two complex arrays is not bitwise commutative (a real factor is
harmless).  Chunks (at most 48 KiB) never reach the threshold, blocks do; so
a kernel on the block path binds the right-hand temporary of a complex
product to a name first (the sites say so), and the tests compare every
kernel on one block against its chunks.
Reports carry margin statistics (margin = rhs - lhs); the per-sample margins
stay on the reports only when ``run_suite`` is asked to keep them (the CSV
output needs them, nothing else does).

A sampled pair with margin below -(tol_abs + tol_rel*|rhs|) is a violation;
the hypotheses are theorems, so violations indicate implementation bugs.  The
final sample of every stream is intentionally degenerate (w = z) to exercise
the equal-point conventions (margin 0; excluded from ratio suprema).

Checkers that rely on the curvature hypothesis (the distance-level and
gradient-level contraction and the proof-chain replay) first gate on
curv_w <= -1; a weight failing the gate yields status ``hypothesis-not-met``
rather than a violation verdict.
"""

from __future__ import annotations

import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import ball
from .catalog import HoloFunction, catalog, get as catalog_get, validate_entry
from .disk import BOUNDARY_GUARD, mobius, sigma, sigma_real
from .weights import (
    Weight,
    disk_diameter_weight,
    half_plane_weight,
    omega_distance,
    strip_weight,
    verify_curvature_bound,
)

KV_FACTOR = 4.0 / math.pi
DEFAULT_SEED = 101
CHUNK_SIZE = 1024
# Chunks per pool task.  Evaluation cost per numpy call is a few microseconds,
# so per-chunk tasks spend the run trading the GIL; blocks of 16 amortize it.
BLOCK_CHUNKS = 16
CSV_BLOCK_ROWS = 65_536
MAX_WORKERS = 64

SCHEMES = ("uniform_disk", "boundary_biased")

WEIGHT_FACTORIES = {
    "strip": strip_weight,
    "half_plane": half_plane_weight,
    "disk_diameter": disk_diameter_weight,
}


class ConfigError(ValueError):
    """Invalid suite configuration; ``errors`` lists every problem found."""

    def __init__(self, errors: list):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class SampleSpec:
    """How many pairs to draw, from which seed, and with which radial law."""

    count: int
    seed: int = DEFAULT_SEED
    radius_cap: float = 0.99
    scheme: str = "uniform_disk"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.radius_cap <= 1.0 - BOUNDARY_GUARD:
            raise ValueError("radius_cap must lie in (0, 1 - boundary_guard]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")


@dataclass(frozen=True)
class InequalityCase:
    """One inequality instance: a function, a target structure, a factor."""

    id: str
    function: HoloFunction | None = None
    target: object = "sigma"  # Weight | "sigma" | "beta"
    factor: float = 1.0
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Margin statistics of one verified case.

    ``margins`` keeps the raw per-sample values for CSV emission; ``to_dict``
    exposes only the summary (the JSON data payload must not depend on wall
    time or parallelism).
    """

    case_id: str
    status: str  # "pass" | "violated" | "hypothesis-not-met"
    samples_used: int
    min_margin: float | None
    mean_margin: float | None
    violations: tuple
    seed: int
    wall_time: float
    extras: dict = field(default_factory=dict)
    margins: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "status": self.status,
            "samples_used": self.samples_used,
            "min_margin": self.min_margin,
            "mean_margin": self.mean_margin,
            "n_violations": len(self.violations),
            "violations": list(self.violations),
            "seed": self.seed,
            "extras": dict(self.extras),
        }


def _serialize_point(p) -> list:
    arr = np.asarray(p)
    if arr.ndim == 0:
        return [float(np.real(arr)), float(np.imag(arr))]
    return [[float(np.real(c)), float(np.imag(c))] for c in arr]


def _radius(spec: SampleSpec, u: np.ndarray, ball_dim: int = 1) -> np.ndarray:
    if spec.scheme == "uniform_disk":
        return spec.radius_cap * u ** (1.0 / (2.0 * ball_dim))
    return np.minimum(1.0 - 10.0 ** (-3.0 * u), spec.radius_cap)


def disk_pair_chunk(spec: SampleSpec, ci: int, n: int, last: bool):
    """Chunk ``ci`` of the disk-pair stream; the very last pair is degenerate."""
    rng = np.random.default_rng([spec.seed, ci])
    u = rng.random((4, n))
    z = _radius(spec, u[0]) * np.exp(2j * np.pi * u[1])
    w = _radius(spec, u[2]) * np.exp(2j * np.pi * u[3])
    if last:
        w[-1] = z[-1]
    return z, w


def ball_pair_chunk(spec: SampleSpec, dim: int, ci: int, n: int, last: bool):
    """Chunk of pairs in the complex ball of dimension ``dim``."""
    rng = np.random.default_rng([spec.seed, dim, ci])
    g = rng.standard_normal((2, n, dim, 2))
    u = rng.random((2, n))
    vec = g[..., 0] + 1j * g[..., 1]
    norms = np.maximum(np.sqrt(np.sum(np.abs(vec) ** 2, axis=-1)), 1e-300)
    r = _radius(spec, u, ball_dim=dim)
    pts = vec / norms[..., np.newaxis] * r[..., np.newaxis]
    z, w = pts[0], pts[1]
    if last:
        w[-1] = z[-1]
    return z, w


def _map_chunks(spec: SampleSpec, one: Callable, workers: int) -> dict:
    """``one(chunks, a, b)`` for every block: the chunk range ``chunks`` covering rows [a, b).

    A block is ``BLOCK_CHUNKS`` consecutive chunks (fewer at the end of the
    stream); each pool task evaluates one block, and the fields are merged in
    block order.
    """
    n_chunks = (spec.count + CHUNK_SIZE - 1) // CHUNK_SIZE

    def bounded(c0):
        chunks = range(c0, min(c0 + BLOCK_CHUNKS, n_chunks))
        return one(chunks, c0 * CHUNK_SIZE, min(chunks.stop * CHUNK_SIZE, spec.count))

    starts = range(0, n_chunks, BLOCK_CHUNKS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(bounded, starts))
    else:
        results = [bounded(c0) for c0 in starts]
    # Field by field, dropping each field's blocks once merged, to bound the peak.
    return {k: np.concatenate([r.pop(k) for r in results]) for k in list(results[0])}


def _draw_block(spec: SampleSpec, chunks: range, draw: Callable) -> tuple:
    """``z`` and ``w`` of the chunks ``chunks``, each drawn by ``draw(ci, n, last)``."""
    drawn = []
    for ci in chunks:
        n = min(CHUNK_SIZE, spec.count - ci * CHUNK_SIZE)
        drawn.append(draw(ci, n, (ci + 1) * CHUNK_SIZE >= spec.count))
    return tuple(np.concatenate(part) for part in zip(*drawn))


class _DiskStream:
    """The disk-pair stream of one spec, with ``sigma(z, w)``; each block computed once.

    The first ``block(chunks, a, b)`` draws every chunk of the block through
    ``disk_pair_chunk`` into rows [a, b) of the full-length ``z`` and ``w``,
    then fills those rows of ``sigma`` with one call on the whole block; every
    call returns views of those rows.  Within one ``_map_chunks`` call each
    block goes to one worker, so no two threads fill the same rows.
    """

    def __init__(self, spec: SampleSpec):
        self.spec = spec
        self.z = np.empty(spec.count, dtype=complex)
        self.w = np.empty(spec.count, dtype=complex)
        self.sigma = np.empty(spec.count)
        self._drawn = set()

    def block(self, chunks: range, a: int, b: int):
        if chunks not in self._drawn:
            draw = partial(disk_pair_chunk, self.spec)
            self.z[a:b], self.w[a:b] = _draw_block(self.spec, chunks, draw)
            self.sigma[a:b] = sigma(self.z[a:b], self.w[a:b])
            self._drawn.add(chunks)
        return self.z[a:b], self.w[a:b], self.sigma[a:b]


# SampleSpec -> _DiskStream while a run_suite call is in progress, else None.
_SHARED_STREAMS: ContextVar[dict | None] = ContextVar("_SHARED_STREAMS", default=None)


def _disk_stream(spec: SampleSpec) -> _DiskStream:
    """The suite's shared stream for ``spec``; a private one outside ``run_suite``."""
    shared = _SHARED_STREAMS.get()
    if shared is None:
        return _DiskStream(spec)
    if spec not in shared:
        shared[spec] = _DiskStream(spec)
    return shared[spec]


def _rows_of(z, w) -> Callable:
    """The pair lookup ``i -> (z[i], w[i])`` of two full-length arrays."""
    return lambda i: (z[i], w[i])


def _finalize(
    case: InequalityCase,
    spec_seed: int,
    pair_at: Callable,
    lhs: np.ndarray,
    rhs: np.ndarray,
    t0: float,
    extras: dict | None = None,
) -> VerificationReport:
    margins = np.asarray(rhs, dtype=float) - np.asarray(lhs, dtype=float)
    tol = case.tol_abs + case.tol_rel * np.abs(rhs)
    violations = []
    for i in np.nonzero(margins < -tol)[0]:
        zi, wi = pair_at(int(i))
        violations.append(
            {
                "index": int(i),
                "z": _serialize_point(zi),
                "w": _serialize_point(wi),
                "lhs": float(lhs[i]),
                "rhs": float(rhs[i]),
                "margin": float(margins[i]),
            }
        )
    return VerificationReport(
        case_id=case.id,
        status="violated" if violations else "pass",
        samples_used=len(margins),
        min_margin=float(np.min(margins)),
        mean_margin=float(np.mean(margins)),
        violations=tuple(violations),
        seed=spec_seed,
        wall_time=time.perf_counter() - t0,
        extras=extras or {},
        margins=margins,
    )


def _gate(case: InequalityCase, seed: int, t0: float) -> VerificationReport | None:
    """The hypothesis-not-met report if ``case.target`` fails curv_w <= -1, else None."""
    gate = verify_curvature_bound(case.target, tol=1e-8)
    if gate.passed:
        return None
    return VerificationReport(
        case_id=case.id,
        status="hypothesis-not-met",
        samples_used=0,
        min_margin=None,
        mean_margin=None,
        violations=(),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        extras={
            "max_curvature": gate.max_curvature,
            "curvature_argmax": gate.argmax,
            "required": "curv_w <= -1",
        },
    )


def _verify_pairs(
    case: InequalityCase, spec: SampleSpec, workers: int, lhs_of: Callable, gated: bool = False
):
    """lhs_of(f(z), f(w)) <= case.factor * sigma(z, w) over the disk-pair stream.

    Returns the report and the stream fields ``z``, ``w``, ``lhs`` and
    ``sigma``; the fields are None when the curvature gate fails.
    """
    t0 = time.perf_counter()
    failed = _gate(case, spec.seed, t0) if gated else None
    if failed:
        return failed, None
    f = case.function
    stream = _disk_stream(spec)

    def one(chunks, a, b):
        z, w, _ = stream.block(chunks, a, b)
        return {"lhs": np.asarray(lhs_of(f.eval(z), f.eval(w)), dtype=float)}

    lhs = _map_chunks(spec, one, workers)["lhs"]
    rhs = case.factor * stream.sigma
    data = {"z": stream.z, "w": stream.w, "lhs": lhs, "sigma": stream.sigma}
    return _finalize(case, spec.seed, _rows_of(stream.z, stream.w), lhs, rhs, t0), data


def verify_re_contraction(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """d_w(Re f(z), Re f(w)) <= sigma(z, w), gated on curv_w <= -1."""
    return _verify_pairs(case, spec, workers, _re_lhs(case.target), gated=True)[0]


def _re_lhs(weight: Weight) -> Callable:
    """The left side d_w(Re f(z), Re f(w)) of ``re_contraction``."""

    def lhs_of(fz, fw):
        a, b = np.real(fz), np.real(fw)
        if weight.antiderivative is not None:  # closed form: vectorized
            return omega_distance(weight, a, b)
        return [omega_distance(weight, ai, bi) for ai, bi in zip(a, b)]

    return lhs_of


def _gradient_lhs(weight: Weight, f: HoloFunction, z) -> np.ndarray:
    """w(Re f(z)) |f'(z)| (1-|z|^2)/2, the left side of the surface gradient bound."""
    return (
        np.asarray(weight.density(np.real(f.eval(z))), dtype=float)
        * np.abs(f.deriv(z))
        * (1.0 - np.abs(z) ** 2)
        / 2.0
    )


def polar_grid(n_r: int = 101, n_theta: int = 101, radius_cap: float = 0.99) -> np.ndarray:
    """Polar evaluation grid including the origin, radii uniform up to the cap."""
    r = np.linspace(0.0, radius_cap, n_r)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return (r[:, np.newaxis] * np.exp(1j * theta)[np.newaxis, :]).ravel()


# The grid checkers read only the seed and the radius cap of their spec.
_GRID_SPEC = SampleSpec(count=1)


def verify_pointwise_gradient(
    case: InequalityCase, spec: SampleSpec = _GRID_SPEC, workers: int = 1
) -> VerificationReport:
    """Surface gradient bound w(Re f(z)) |f'(z)| (1-|z|^2)/2 <= 1 on the polar grid."""
    t0 = time.perf_counter()
    failed = _gate(case, spec.seed, t0)
    if failed:
        return failed
    z = polar_grid(radius_cap=spec.radius_cap)
    lhs = _gradient_lhs(case.target, case.function, z)
    rhs = np.ones_like(lhs)
    extras = {"max_lhs": float(np.max(lhs)), "argmax": _serialize_point(z[int(np.argmax(lhs))])}
    return _finalize(case, spec.seed, _rows_of(z, z), lhs, rhs, t0, extras)


def verify_modulus_contraction(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """sigma(|f(z)|, |f(w)|) <= sigma(z, w) for disk-codomain entries."""
    return _verify_pairs(case, spec, workers, _modulus_lhs)[0]


def _modulus_lhs(fz, fw):
    """The left side sigma(|f(z)|, |f(w)|) of ``modulus_contraction``."""
    return sigma_real(np.abs(fz), np.abs(fw))


def verify_schwarz_pick(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """sigma(f(z), f(w)) <= sigma(z, w) for disk-codomain entries."""
    return _verify_pairs(case, spec, workers, sigma)[0]


def verify_pavlovic(
    case: InequalityCase, spec: SampleSpec = _GRID_SPEC, workers: int = 1
) -> VerificationReport:
    """Modulus gradient bound |f'(z)| (1-|z|^2) <= 1 - |f(z)|^2 on the polar grid.

    |f'| equals the upper gradient of |f| off the zero set and still dominates
    it at zeros; both branches are recorded separately in the extras.
    """
    t0 = time.perf_counter()
    f = case.function
    z = polar_grid(radius_cap=spec.radius_cap)
    fz = f.eval(z)
    lhs = np.abs(f.deriv(z)) * (1.0 - np.abs(z) ** 2)
    rhs = 1.0 - np.abs(fz) ** 2
    zero = np.abs(fz) <= 1e-12
    margins = rhs - lhs
    extras = {
        "n_zero_branch": int(np.sum(zero)),
        "n_nonzero_branch": int(np.sum(~zero)),
        "min_margin_zero": float(np.min(margins[zero])) if np.any(zero) else None,
        "min_margin_nonzero": float(np.min(margins[~zero])) if np.any(~zero) else None,
    }
    return _finalize(case, spec.seed, _rows_of(z, z), lhs, rhs, t0, extras)


def verify_kv_factor(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """sigma(Re f(z), Re f(w)) <= factor * sigma(z, w) for strip-valued Re f.

    The left side is the distance of the weight 2/(1-t^2) on (-1, 1), i.e.
    |2 atanh U(z) - 2 atanh U(w)| for U = Re f.  The empirical supremum of the
    ratio lhs/sigma is recorded (pairs with sigma = 0 are excluded from it).
    """
    report, data = _verify_pairs(case, spec, workers, _kv_lhs)
    s = data["sigma"]
    ratio = np.where(s > 0.0, data["lhs"] / np.where(s > 0.0, s, 1.0), 0.0)
    i_sup = int(np.argmax(ratio))
    extras = {
        "factor": case.factor,
        "sup_ratio": float(ratio[i_sup]),
        "sup_ratio_pair": [
            _serialize_point(data["z"][i_sup]),
            _serialize_point(data["w"][i_sup]),
        ],
    }
    return replace(report, extras=extras)


def _kv_lhs(fz, fw):
    """The left side |2 atanh Re f(z) - 2 atanh Re f(w)| of ``kv_factor``."""
    return np.abs(2.0 * np.arctanh(np.real(fz)) - 2.0 * np.arctanh(np.real(fw)))


def _abs_report(
    case_id: str, seed: int, pair_at: Callable, d: dict, name: str, t0: float
) -> VerificationReport:
    case = InequalityCase(id=case_id, tol_abs=1e-12, tol_rel=0.0)
    return _finalize(case, seed, pair_at, d[f"{name}_abs"], d[f"{name}_zw"], t0)


def _abs_disk_reports(spec: SampleSpec, workers: int) -> list:
    t0 = time.perf_counter()
    stream = _disk_stream(spec)

    def one(chunks, a, b):
        z, w, _ = stream.block(chunks, a, b)
        az, aw = np.abs(z), np.abs(w)
        return {
            "rho_zw": np.abs((z - w) / (1.0 - np.conj(z) * w)),
            "rho_abs": np.abs(az - aw) / (1.0 - az * aw),
            "sigma_abs": np.abs(2.0 * np.arctanh(az) - 2.0 * np.arctanh(aw)),
        }

    d = _map_chunks(spec, one, workers)
    d["sigma_zw"] = stream.sigma
    pair_at = _rows_of(stream.z, stream.w)
    return [
        _abs_report(f"abs_{name}_disk", spec.seed, pair_at, d, name, t0)
        for name in ("rho", "sigma")
    ]


def _abs_ball_report(spec: SampleSpec, dim: int, workers: int) -> VerificationReport:
    """beta(|z|, |w|) <= beta(z, w) on the ball stream of ``dim``.

    Only the two distances are kept per block; a violation record redraws its
    pair from its chunk, so no full-length ``z`` or ``w`` is ever held.
    """
    t0 = time.perf_counter()
    draw = partial(ball_pair_chunk, spec, dim)

    def one(chunks, a, b):
        z, w = _draw_block(spec, chunks, draw)
        beta_abs = np.asarray(ball.beta(ball.embed_modulus(z), ball.embed_modulus(w)))
        return {"beta_abs": beta_abs, "beta_zw": np.asarray(ball.beta(z, w))}

    def pair_at(i):
        ci = i // CHUNK_SIZE
        z, w = _draw_block(spec, range(ci, ci + 1), draw)
        return z[i % CHUNK_SIZE], w[i % CHUNK_SIZE]

    d = _map_chunks(spec, one, workers)
    return _abs_report(f"abs_beta_ball_n{dim}", spec.seed, pair_at, d, "beta", t0)


def verify_abs_inequalities(
    spec: SampleSpec, dims: tuple = (1, 2, 3), workers: int = 1
) -> list:
    """Modulus-monotonicity margins: disk rho, disk sigma, ball beta per dim."""
    reports = _abs_disk_reports(spec, workers)
    reports.extend(_abs_ball_report(spec, dim, workers) for dim in dims)
    return reports


def verify_proof_chain(
    case: InequalityCase,
    spec: SampleSpec,
    workers: int = 1,
    n_pairs: int = 128,
) -> VerificationReport:
    """Replay the contraction proof along arc-length hyperbolic geodesics.

    With gamma the geodesic from z to w parameterized by hyperbolic arc length
    s in [0, sigma], the image-path length is

        I = int_0^sigma w(Re f(gamma)) |f'(gamma)| (1 - |gamma|^2)/2 ds,

    whose integrand is exactly the gradient-bound left side, hence <= 1.  The
    replayed chain is d_w(Re f(z), Re f(w)) <= I <= sigma(z, w); both link
    margins are checked at tolerance 1e-6.  The replay is serial; ``workers``
    is accepted for the common checker call shape.
    """
    t0 = time.perf_counter()
    weight, f = case.target, case.function
    failed = _gate(case, spec.seed, t0)
    if failed:
        return failed

    count = min(spec.count, n_pairs)
    z, w = disk_pair_chunk(spec, 0, min(spec.count, CHUNK_SIZE), False)
    z, w = z[:count], w[:count]
    x_nodes, wq = leggauss(8)
    tq = 0.5 * (x_nodes + 1.0)
    wt = 0.5 * wq

    first_link = np.empty(count)
    second_link = np.empty(count)
    for i in range(count):
        zi, wi = complex(z[i]), complex(w[i])
        zeta = mobius(zi, wi)
        r = abs(zeta)
        if r == 0.0:
            first_link[i] = 0.0
            second_link[i] = 0.0
            continue
        sig = 2.0 * math.atanh(r)
        n_panels = max(32, int(16.0 * sig))
        edges = np.linspace(0.0, sig, n_panels + 1)
        widths = np.diff(edges)
        s = edges[:-1, np.newaxis] + widths[:, np.newaxis] * tq[np.newaxis, :]
        pts = mobius(zi, np.tanh(0.5 * s) * (zeta / r))
        integral = float(np.sum(widths * (_gradient_lhs(weight, f, pts) @ wt)))
        d_w = omega_distance(weight, float(np.real(f.eval(zi))), float(np.real(f.eval(wi))))
        first_link[i] = integral - d_w
        second_link[i] = sig - integral

    margins = np.minimum(first_link, second_link)
    lhs = -margins
    rhs = np.zeros(count)
    extras = {
        "min_first_link": float(np.min(first_link)),
        "min_second_link": float(np.min(second_link)),
    }
    return _finalize(case, spec.seed, _rows_of(z, w), lhs, rhs, t0, extras)


# op -> (what the op needs of its catalog function, InequalityCase defaults).
# Needs: "weight", a weight whose domain holds the Re-image; "disk", a disk
# codomain; "strip", the Re-image (-1, 1); None, no function or weight at all.
# A ``weight`` is accepted only by "weight" ops, a ``factor`` only by ops whose
# defaults carry one.
OPS = {
    "re_contraction": ("weight", {}),
    "pointwise_gradient": ("weight", {}),
    "modulus_contraction": ("disk", {}),
    "schwarz_pick": ("disk", {}),
    "pavlovic": ("disk", {}),
    "kv_factor": ("strip", {"factor": KV_FACTOR}),
    "abs_inequalities": (None, {}),
    "proof_chain": ("weight", {"tol_abs": 1e-6}),
}


@dataclass(frozen=True)
class CaseSpec:
    """Config-level description of one case; resolved names, not objects."""

    op: str
    function: str | None = None
    weight: str | None = None
    factor: float | None = None

    @property
    def case_id(self) -> str:
        return ":".join(str(part) for part in (self.op, self.function, self.weight) if part)


@dataclass(frozen=True)
class SuiteConfig:
    sample: SampleSpec
    cases: tuple
    ball_dims: tuple = (1, 2, 3)
    workers: int = 1
    schema_version: int = 1


def default_config(
    seed: int = DEFAULT_SEED, count: int = 10_000, workers: int = 1
) -> SuiteConfig:
    """The full default suite over the whole catalog."""
    cases = []
    for fn, wt in (("strip_map", "strip"), ("cayley", "half_plane")):
        cases.append(CaseSpec(op="re_contraction", function=fn, weight=wt))
        cases.append(CaseSpec(op="pointwise_gradient", function=fn, weight=wt))
        cases.append(CaseSpec(op="proof_chain", function=fn, weight=wt))
    for f in catalog():
        if f.codomain in ("disk", "ball_slice"):
            cases.append(CaseSpec(op="modulus_contraction", function=f.name))
            cases.append(CaseSpec(op="schwarz_pick", function=f.name))
            cases.append(CaseSpec(op="pavlovic", function=f.name))
        if f.codomain == "strip":
            cases.append(CaseSpec(op="kv_factor", function=f.name))
    cases.append(CaseSpec(op="abs_inequalities"))
    return SuiteConfig(
        sample=SampleSpec(count=count, seed=seed),
        cases=tuple(cases),
        workers=workers,
    )


def validate_config(config: SuiteConfig) -> list:
    """All config problems at once; empty list means valid."""
    errors = []
    if not isinstance(config.sample, SampleSpec):
        errors.append("sample: not a SampleSpec")
    if config.schema_version != 1:
        errors.append(f"schema_version: unsupported {config.schema_version!r}")
    if type(config.workers) is not int or not 1 <= config.workers <= MAX_WORKERS:
        errors.append(f"workers: {config.workers!r} is not an integer in 1..{MAX_WORKERS}")
    for dim in config.ball_dims:
        if type(dim) is not int or not 1 <= dim <= 8:
            errors.append(f"ball_dims: {dim!r} is not an integer in 1..8")
    if not config.cases:
        errors.append("cases: empty suite")
    validated_functions = set()
    for cs in config.cases:
        label = cs.case_id
        if cs.op not in OPS:
            errors.append(f"{label}: unknown op {cs.op!r}")
            continue
        needs, defaults = OPS[cs.op]
        factor = cs.factor
        if factor is not None and "factor" not in defaults:
            errors.append(f"{label}: {cs.op} takes no factor")
        elif factor is not None and not (
            isinstance(factor, (int, float)) and 0.0 < factor < math.inf
        ):
            errors.append(f"{label}: factor must be a finite positive number, got {factor!r}")
        if needs is None:
            if cs.function or cs.weight:
                errors.append(f"{label}: {cs.op} takes no function or weight")
            continue
        if cs.weight and needs != "weight":
            errors.append(f"{label}: {cs.op} takes no weight")
        if not cs.function:
            errors.append(f"{label}: missing function")
            continue
        try:
            f = catalog_get(cs.function)
        except KeyError:
            errors.append(f"{label}: unknown catalog function {cs.function!r}")
            continue
        if f.name not in validated_functions:
            try:
                validate_entry(f)
                validated_functions.add(f.name)
            except ValueError as exc:
                errors.append(f"{label}: {exc}")
        if needs == "weight":
            if not cs.weight:
                errors.append(f"{label}: missing weight")
                continue
            if not isinstance(cs.weight, str) or cs.weight not in WEIGHT_FACTORIES:
                errors.append(f"{label}: unknown weight {cs.weight!r}")
                continue
            weight = WEIGHT_FACTORIES[cs.weight]()
            lo, hi = f.re_interval
            if not (weight.domain.lo <= lo and hi <= weight.domain.hi):
                errors.append(
                    f"{label}: Re-image ({lo}, {hi}) not contained in weight "
                    f"domain ({weight.domain.lo}, {weight.domain.hi})"
                )
        elif needs == "disk":
            if f.codomain not in ("disk", "ball_slice"):
                errors.append(f"{label}: needs a disk-codomain function, got {f.codomain!r}")
        elif needs == "strip":
            if f.re_interval != (-1.0, 1.0):
                errors.append(f"{label}: Re-image must be (-1, 1)")
    return errors


def _build_case(cs: CaseSpec) -> InequalityCase:
    kwargs = dict(OPS[cs.op][1])
    if cs.factor is not None:
        kwargs["factor"] = cs.factor
    return InequalityCase(
        id=cs.case_id,
        function=catalog_get(cs.function) if cs.function else None,
        target=WEIGHT_FACTORIES[cs.weight]() if cs.weight else "sigma",
        **kwargs,
    )


@dataclass(frozen=True)
class SuiteResult:
    overall_pass: bool
    reports: tuple
    seed: int
    wall_time: float
    schema_version: int = 1

    def data_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "overall_pass": self.overall_pass,
            "cases": [r.to_dict() for r in self.reports],
        }

    def to_dict(self) -> dict:
        return {
            "data": self.data_dict(),
            "meta": {
                "wall_time": self.wall_time,
                "case_wall_times": {r.case_id: r.wall_time for r in self.reports},
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def data_json(self) -> str:
        """The deterministic payload only (no wall times); for golden comparison."""
        return json.dumps(self.data_dict(), indent=2, sort_keys=True)

    def write_margins_csv(self, fh) -> None:
        """Write the per-sample margins CSV to ``fh``, a block of rows at a time."""
        fh.write("case_id,sample_index,margin\n")
        for r in self.reports:
            if r.margins is None:
                continue
            for a in range(0, len(r.margins), CSV_BLOCK_ROWS):
                block = r.margins[a : a + CSV_BLOCK_ROWS].tolist()
                fh.write("".join(f"{r.case_id},{i},{m!r}\n" for i, m in enumerate(block, a)))

    def margins_csv(self) -> str:
        buf = io.StringIO()
        self.write_margins_csv(buf)
        return buf.getvalue()


def run_suite(config: SuiteConfig, keep_margins: bool = True) -> SuiteResult:
    """Run every configured case; deterministic for a fixed config and seed.

    The cases share one disk-pair stream per ``SampleSpec``, released on
    return.  With ``keep_margins`` false each report drops its per-sample
    margins as soon as it is made; only ``margins_csv`` reads them.
    """
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    t0 = time.perf_counter()
    spec = config.sample
    reports = []
    token = _SHARED_STREAMS.set({})
    try:
        for cs in config.cases:
            if OPS[cs.op][0] is None:  # the function-free family: one report per distance
                made = verify_abs_inequalities(spec, dims=config.ball_dims, workers=config.workers)
            else:
                # Resolved at call time, so a wrapper set on the module attribute is used.
                check = globals()[f"verify_{cs.op}"]
                made = [check(_build_case(cs), spec, config.workers)]
            if not keep_margins:
                made = [replace(r, margins=None) for r in made]
            reports.extend(made)
    finally:
        _SHARED_STREAMS.reset(token)
    overall = all(r.status == "pass" for r in reports)
    return SuiteResult(
        overall_pass=overall,
        reports=tuple(reports),
        seed=spec.seed,
        wall_time=time.perf_counter() - t0,
    )
