"""Deterministic sampled verification of the contraction inequalities.

``OPS`` is the one op table: what each op needs of its catalog function, the
case defaults it carries and how often it reads the disk-pair stream.
``validate_config`` and ``run_suite`` read it; ``run_suite`` calls the
checker ``verify_<op>(case, spec, workers)``.  Every sampled pair inequality
goes through one driver, ``_verify_pairs``: the four pair ops
(``re_contraction``, ``modulus_contraction``, ``schwarz_pick``,
``kv_factor``) and the five ``abs_inequalities`` reports, two on the
disk-pair stream and one on the ball-pair stream of each dimension.  A stream
``stream(chunks, a, b) -> (z, w, d)`` gives the pairs of rows [a, b) and
their distance on the manifold; each case supplies only its ``sides(z, w, d)
-> (lhs, rhs)``.

Pairs come from seeded substreams (one PCG64 stream per fixed-size chunk of
1024 samples, keyed by seed, ball dimension and chunk index); chunks define
the stream.  The unit of evaluation is the block, ``BLOCK_CHUNKS`` consecutive
chunks: ``_map_chunks`` hands each pool task one block, which reads its rows
of the stream, evaluates the catalog map and the distance kernels once on all
of them, and writes its rows of full-length arrays in place.  Neither chunk
nor block boundaries depend on the worker count, so a suite is bitwise
reproducible at any parallelism level.  Within one ``run_suite`` call the
disk-pair stream of a ``SampleSpec`` is drawn once, up front: full-length
``z``, ``w`` and ``sigma(z, w)`` are filled in one pass and shared, and the
last read that the suite's ops announce (``OPS``) releases them.  A ball-pair
stream draws the chunks of each read and holds nothing.

A sampled case holds one full-length array, its margins (margin = rhs - lhs):
each block reduces its two sides to their difference in place.  The sides of
the violation candidates are formed again: each chunk that holds one is read
again through the stream, and its candidates go through the same ``sides``,
so the bits agree.  ``kv_factor`` reduces its supremum ratio and that ratio's
pair in the same pass, one slot per block.

A block gives the bits its chunks would give one at a time only while every
kernel is elementwise and blind to array size.  numpy breaks the second: a
commutative op whose right operand is a temporary of at least 256 KiB is
computed in place into that temporary with the operands swapped, and the
product of two complex arrays is not bitwise commutative (a real factor is
harmless).  Chunks (at most 48 KiB) never reach the threshold, blocks do; so
a kernel on the block path binds the right-hand temporary of a complex
product to a name first (the sites say so), and the tests compare every
kernel on one block against its chunks.
Reports carry margin statistics.  Only the margins CSV reads the per-sample
margins: ``run_suite`` can hand each report's margins to a ``MarginsCsv`` as
soon as its checker returns, and the reports keep them only when asked to,
so a run that streams the CSV holds the margins of one checker call at a
time (``verify_abs_inequalities`` returns its five reports together).

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
from .catalog import HoloFunction, catalog, get as catalog_get
from .disk import BOUNDARY_GUARD, mobius, rho, sigma, sigma_real
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
CSV_BLOCK_ROWS = 16_384
MAX_WORKERS = 64
# The layout version of the ``data`` payload, the only one a config may name.
SCHEMA_VERSION = 1

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
        # The longest complex stream numpy can describe; past it np.empty raises ValueError.
        longest = np.iinfo(np.intp).max // np.dtype(complex).itemsize
        if self.count > longest:
            raise ValueError(f"sample count must be <= {longest}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.radius_cap <= 1.0 - BOUNDARY_GUARD:
            raise ValueError("radius_cap must lie in (0, 1 - boundary_guard]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")


@dataclass(frozen=True)
class InequalityCase:
    """One inequality instance: a function, a target weight (None on the disk), a factor."""

    id: str
    function: HoloFunction | None = None
    target: Weight | None = None
    factor: float = 1.0
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9

    def __post_init__(self):
        # _finalize picks violation candidates by tol_abs alone, which needs this.
        if not self.tol_rel >= 0.0:
            raise ValueError(f"tol_rel must be >= 0, got {self.tol_rel!r}")


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
    """Chunk of pairs in the complex ball of dimension ``dim``.

    The Gaussian draws ``g`` are read as complex coordinates in place and
    scaled in real arithmetic: by ``1 / |vec|``, which is what numpy's
    complex-by-real division multiplies by, then by the radius.  That gives
    the bits of ``(g0 + 1j g1) / |vec| * r`` except, possibly, the sign of a
    zero: a Gaussian draw of exactly 0.0, or a radius of exactly 0.0.
    """
    rng = np.random.default_rng([spec.seed, dim, ci])
    g = rng.standard_normal((2, n, dim, 2))
    u = rng.random((2, n))
    vec = g.view(complex)[..., 0]
    norms = np.maximum(ball.norm(vec), 1e-300)
    r = _radius(spec, u, ball_dim=dim)
    g *= (1.0 / norms)[..., np.newaxis, np.newaxis]
    g *= r[..., np.newaxis, np.newaxis]
    z, w = vec[0], vec[1]
    if last:
        w[-1] = z[-1]
    return z, w


def _map_chunks(spec: SampleSpec, one: Callable, workers: int) -> None:
    """``one(chunks, a, b)`` for every block: the chunk range ``chunks`` covering rows [a, b).

    A block is ``BLOCK_CHUNKS`` consecutive chunks (fewer at the end of the
    stream); each pool task evaluates one block and writes its rows in place.
    """
    n_chunks = (spec.count + CHUNK_SIZE - 1) // CHUNK_SIZE

    def bounded(c0):
        chunks = range(c0, min(c0 + BLOCK_CHUNKS, n_chunks))
        one(chunks, c0 * CHUNK_SIZE, min(chunks.stop * CHUNK_SIZE, spec.count))

    starts = range(0, n_chunks, BLOCK_CHUNKS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(bounded, starts))  # list() re-raises a block's exception
    else:
        for c0 in starts:
            bounded(c0)


def _draw_block(spec: SampleSpec, chunks: range, draw: Callable) -> tuple:
    """``z`` and ``w`` of the chunks ``chunks``, each drawn by ``draw(ci, n, last)``."""
    drawn = []
    for ci in chunks:
        n = min(CHUNK_SIZE, spec.count - ci * CHUNK_SIZE)
        drawn.append(draw(ci, n, (ci + 1) * CHUNK_SIZE >= spec.count))
    return tuple(np.concatenate(part) for part in zip(*drawn))


# SampleSpec -> (disk-stream reads still to come, the drawn stream or None)
# while a run_suite call is in progress, else None.
_SHARED_STREAMS: ContextVar[dict | None] = ContextVar("_SHARED_STREAMS", default=None)
# False while a run_suite call that drops the per-sample margins is in progress.
_KEEP_MARGINS: ContextVar[bool] = ContextVar("_KEEP_MARGINS", default=True)


def _disk_stream(spec: SampleSpec, workers: int) -> Callable:
    """The disk-pair stream of ``spec``: rows of full-length ``z``, ``w`` and ``sigma(z, w)``.

    One ``_map_chunks`` pass fills the three arrays in place: each block
    draws its chunks through ``disk_pair_chunk`` into its rows of ``z`` and
    ``w``, then fills those rows of ``sigma`` with one call on the whole
    block.  A read slices them.  Inside ``run_suite`` the stream is drawn
    once per spec and shared until the last read the suite expects, which
    releases it; any other call draws its own.
    """
    shared = _SHARED_STREAMS.get() or {}
    reads, stream = shared.get(spec, (0, None))
    if stream is None:
        z, w = np.empty(spec.count, dtype=complex), np.empty(spec.count, dtype=complex)
        s = np.empty(spec.count)
        draw = partial(disk_pair_chunk, spec)

        def one(chunks, a, b):
            z[a:b], w[a:b] = _draw_block(spec, chunks, draw)
            s[a:b] = sigma(z[a:b], w[a:b])

        _map_chunks(spec, one, workers)

        def stream(chunks, a, b):
            return z[a:b], w[a:b], s[a:b]

    if reads > 1:
        shared[spec] = reads - 1, stream
    else:
        shared.pop(spec, None)
    return stream


def _ball_stream(spec: SampleSpec, dim: int) -> Callable:
    """The ball-pair stream of dimension ``dim``: a read draws its chunks, ``d = beta(z, w)``."""
    draw = partial(ball_pair_chunk, spec, dim)

    def stream(chunks, a, b):
        z, w = _draw_block(spec, chunks, draw)
        return z, w, ball.beta(z, w)

    return stream


def _rows_of(*arrays) -> Callable:
    """The row lookup ``rows -> tuple(x[rows] for x in arrays)``."""
    return lambda rows: tuple(x[rows] for x in arrays)


def _finalize(
    case: InequalityCase,
    spec_seed: int,
    margins: np.ndarray,
    rows_at: Callable,
    t0: float,
    extras: dict | None = None,
) -> VerificationReport:
    """The report of ``margins`` (rhs - lhs per sample).

    ``rows_at(rows) -> (z, w, lhs, rhs)`` gives the pairs and both sides on a
    sorted index array.  With tol_rel >= 0 a violation is also below
    -tol_abs, so both sides and the relative tolerance are formed only on
    those candidates: ``rows_at`` is called once, on them (never on none),
    and must give the bits whose difference made their margins.
    """
    near = np.nonzero(margins < -case.tol_abs)[0]
    violations = []
    if len(near):
        z, w, lhs, rhs = rows_at(near)
        tol = case.tol_abs + case.tol_rel * np.abs(rhs)
        for k in np.nonzero(margins[near] < -tol)[0]:
            violations.append(
                {
                    "index": int(near[k]),
                    "z": _serialize_point(z[k]),
                    "w": _serialize_point(w[k]),
                    "lhs": float(lhs[k]),
                    "rhs": float(rhs[k]),
                    "margin": float(margins[near[k]]),
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
        margins=margins if _KEEP_MARGINS.get() else None,
    )


def _gate(case: InequalityCase, seed: int, t0: float) -> VerificationReport | None:
    """The hypothesis-not-met report if ``case.target`` fails curv_w <= -1, else None."""
    gate = verify_curvature_bound(case.target)
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
    case: InequalityCase,
    spec: SampleSpec,
    workers: int,
    sides: Callable,
    stream: Callable | None = None,
    gated: bool = False,
    on_block: Callable | None = None,
) -> VerificationReport:
    """lhs <= rhs over a pair stream, for ``sides(z, w, d) -> (lhs, rhs)``.

    ``stream(chunks, a, b) -> (z, w, d)`` gives the pairs of rows [a, b),
    which the chunk range ``chunks`` covers, and their distance ``d``.  It
    defaults to the disk-pair stream of ``spec`` (``d = sigma(z, w)``), read
    once the curvature gate has passed.  Each block writes only its rows of
    the margins.  The violation candidates and their pairs take one path on
    every stream, ``rows_at``: each chunk that holds one is read again
    through the stream on its own, and the picked pairs go through the same
    ``sides``, whose kernels are elementwise, so they give the bits of the
    block.  If given, ``on_block(a, z, w, lhs, d)`` sees the pairs, left side
    and distance of each block in that pass, ``a`` the block's first row.
    """
    t0 = time.perf_counter()
    failed = _gate(case, spec.seed, t0) if gated else None
    if failed:
        return failed
    stream = stream or _disk_stream(spec, workers)
    margins = np.empty(spec.count)

    def one(chunks, a, b):
        z, w, d = stream(chunks, a, b)
        lhs, rhs = sides(z, w, d)
        margins[a:b] = rhs - lhs
        if on_block:
            on_block(a, z, w, lhs, d)

    def rows_at(rows):
        picked, chunk_of = [], rows // CHUNK_SIZE
        for ci in sorted(set(chunk_of.tolist())):  # np.unique would import numpy.ma
            a = ci * CHUNK_SIZE
            z, w, d = stream(range(ci, ci + 1), a, min(a + CHUNK_SIZE, spec.count))
            k = rows[chunk_of == ci] - a
            picked.append((z[k], w[k], d[k]))
        z, w, d = (np.concatenate(part) for part in zip(*picked))
        return (z, w, *sides(z, w, d))

    _map_chunks(spec, one, workers)
    return _finalize(case, spec.seed, margins, rows_at, t0)


def _bounded_by_sigma(case: InequalityCase, lhs_of: Callable) -> Callable:
    """The sides ``lhs_of(f(z), f(w))`` and ``case.factor * sigma(z, w)`` of a disk-pair op."""
    f = case.function
    return lambda z, w, s: (lhs_of(f.eval(z), f.eval(w)), case.factor * s)


def verify_re_contraction(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """d_w(Re f(z), Re f(w)) <= sigma(z, w), gated on curv_w <= -1."""
    sides = _bounded_by_sigma(case, _re_lhs(case.target))
    return _verify_pairs(case, spec, workers, sides, gated=True)


def _re_lhs(weight: Weight) -> Callable:
    """The left side d_w(Re f(z), Re f(w)) of ``re_contraction``."""

    def lhs_of(fz, fw):
        return omega_distance(weight, np.real(fz), np.real(fw))

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
    return _finalize(case, spec.seed, rhs - lhs, _rows_of(z, z, lhs, rhs), t0, extras)


def verify_modulus_contraction(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """sigma(|f(z)|, |f(w)|) <= sigma(z, w) for disk-codomain entries."""
    return _verify_pairs(case, spec, workers, _bounded_by_sigma(case, _modulus_lhs))


def _modulus_lhs(fz, fw):
    """The left side sigma(|f(z)|, |f(w)|) of ``modulus_contraction``."""
    return sigma_real(np.abs(fz), np.abs(fw))


def verify_schwarz_pick(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """sigma(f(z), f(w)) <= sigma(z, w) for disk-codomain entries."""
    return _verify_pairs(case, spec, workers, _bounded_by_sigma(case, sigma))


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
    return _finalize(case, spec.seed, margins, _rows_of(z, z, lhs, rhs), t0, extras)


def verify_kv_factor(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """sigma(Re f(z), Re f(w)) <= factor * sigma(z, w) for strip-valued Re f.

    The left side is the distance of the weight 2/(1-t^2) on (-1, 1), i.e.
    |2 atanh U(z) - 2 atanh U(w)| for U = Re f.  The empirical supremum of the
    ratio lhs/sigma is recorded (pairs with sigma = 0 are excluded from it).
    It is reduced in the margins' pass, with its pair: each block keeps its
    largest ratio and that ratio's pair, and ``np.argmax`` over the blocks in
    stream order picks the first largest (or first NaN), as it would over the
    whole ratio.
    """
    sups = {}  # first row of a block -> (its sup ratio, the pair where it occurs)

    def block_sup(a, z, w, lhs, s):
        ratio = np.where(s > 0.0, lhs / np.where(s > 0.0, s, 1.0), 0.0)
        k = int(np.argmax(ratio))
        sups[a] = ratio[k], (z[k], w[k])

    sides = _bounded_by_sigma(case, _re_lhs(disk_diameter_weight()))
    report = _verify_pairs(case, spec, workers, sides, on_block=block_sup)
    ratios, pairs = zip(*(sups[a] for a in sorted(sups)))
    j = int(np.argmax(ratios))
    extras = {
        "factor": case.factor,
        "sup_ratio": float(ratios[j]),
        "sup_ratio_pair": [_serialize_point(x) for x in pairs[j]],
    }
    return replace(report, extras=extras)


def verify_abs_inequalities(
    spec: SampleSpec, dims: tuple = (1, 2, 3), workers: int = 1
) -> list:
    """Modulus-monotonicity margins: disk rho, disk sigma, ball beta per dim.

    On the disk-pair stream, rho(|z|, |w|) <= rho(z, w) and sigma(|z|, |w|) <=
    sigma(z, w); on the ball-pair stream of each dimension in ``dims``,
    beta(|z|, |w|) <= beta(z, w), with |z| the point (|z|,) of the slice B^1.
    """

    def beta_sides(z, w, b):
        return ball.beta(ball.embed_modulus(z), ball.embed_modulus(w)), b

    table = [  # case id suffix, stream (None: the disk-pair stream), sides
        ("rho_disk", None, lambda z, w, s: (rho(np.abs(z), np.abs(w)), rho(z, w))),
        ("sigma_disk", None, lambda z, w, s: (_modulus_lhs(z, w), s)),
    ] + [(f"beta_ball_n{dim}", _ball_stream(spec, dim), beta_sides) for dim in dims]
    reports = []
    for name, stream, sides in table:
        case = InequalityCase(id=f"abs_{name}", tol_abs=1e-12, tol_rel=0.0)
        reports.append(_verify_pairs(case, spec, workers, sides, stream))
    return reports


def verify_proof_chain(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """Replay the contraction proof along arc-length hyperbolic geodesics.

    With gamma the geodesic from z to w parameterized by hyperbolic arc length
    s in [0, sigma], the image-path length is

        I = int_0^sigma w(Re f(gamma)) |f'(gamma)| (1 - |gamma|^2)/2 ds,

    whose integrand is exactly the gradient-bound left side, hence <= 1.  The
    replayed chain is d_w(Re f(z), Re f(w)) <= I <= sigma(z, w); both link
    margins are checked at tolerance 1e-12 on the first 128 pairs of the
    stream.  The replay is serial; ``workers`` is accepted for the common
    checker call shape.
    """
    t0 = time.perf_counter()
    weight, f = case.target, case.function
    failed = _gate(case, spec.seed, t0)
    if failed:
        return failed

    count = min(spec.count, 128)
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
    return _finalize(case, spec.seed, rhs - lhs, _rows_of(z, w, lhs, rhs), t0, extras)


# op -> (what the op needs of its catalog function, InequalityCase defaults,
# reads of the disk-pair stream).  Needs: "weight", a weight whose domain holds
# the Re-image; "disk", a disk codomain; "strip", the Re-image (-1, 1); None,
# no function or weight at all.  A ``weight`` is accepted only by "weight" ops,
# a ``factor`` only by ops whose defaults carry one.  ``run_suite`` releases
# the shared stream at the last read its cases add up to (a case whose
# curvature gate fails reads nothing, and the stream then lives to the end).
OPS = {
    "re_contraction": ("weight", {}, 1),
    "pointwise_gradient": ("weight", {}, 0),
    "modulus_contraction": ("disk", {}, 1),
    "schwarz_pick": ("disk", {}, 1),
    "pavlovic": ("disk", {}, 0),
    "kv_factor": ("strip", {"factor": KV_FACTOR}, 1),
    "abs_inequalities": (None, {}, 2),
    "proof_chain": ("weight", {"tol_abs": 1e-12}, 0),
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
        if f.codomain == "disk":
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
    # type(), not isinstance: bool is an int subclass, and 1.0 == 1.
    if type(config.schema_version) is not int:
        errors.append(f"schema_version: {config.schema_version!r} is not an integer")
    elif config.schema_version != SCHEMA_VERSION:
        errors.append(f"schema_version: unsupported {config.schema_version!r}")
    if type(config.workers) is not int or not 1 <= config.workers <= MAX_WORKERS:
        errors.append(f"workers: {config.workers!r} is not an integer in 1..{MAX_WORKERS}")
    seen_dims = set()
    for dim in config.ball_dims:
        if type(dim) is not int or not 1 <= dim <= 8:
            errors.append(f"ball_dims: {dim!r} is not an integer in 1..8")
        elif dim in seen_dims:
            errors.append(f"ball_dims: {dim} is listed twice")
        else:
            seen_dims.add(dim)
    if not config.cases:
        errors.append("cases: empty suite")
    seen_ids = set()
    for cs in config.cases:
        label = cs.case_id
        if label in seen_ids:
            errors.append(f"{label}: case is listed twice")
            continue
        seen_ids.add(label)
        if cs.op not in OPS:
            errors.append(f"{label}: unknown op {cs.op!r}")
            continue
        needs, defaults, _ = OPS[cs.op]
        factor = cs.factor
        if factor is not None and "factor" not in defaults:
            errors.append(f"{label}: {cs.op} takes no factor")
        elif factor is not None and not (
            type(factor) in (int, float) and 0.0 < factor < math.inf
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
            if f.codomain != "disk":
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
        target=WEIGHT_FACTORIES[cs.weight]() if cs.weight else None,
        **kwargs,
    )


def _index_digits(count: int) -> np.ndarray:
    """Rows ``i,`` for i < ``count``: the digits right-aligned behind NULs, then a comma."""
    width = len(str(max(count - 1, 0)))
    out = np.zeros((count, width + 1), dtype=np.uint8)
    out[:, width] = ord(",")
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for c in range(width):
        # Digit c of i runs through 0-9, each held for 10**c rows, so one
        # cycle repeated gives the column in bytes, with no integer temporaries.
        column = np.resize(np.repeat(digits, 10**c), count)
        if c:
            column[: 10**c] = 0  # i < 10**c has no digit c
        out[:, width - 1 - c] = column
    return out


class MarginsCsv:
    """The per-sample margins CSV, written to the binary file ``fh`` one case at a time.

    The header line is written at once; ``add(case_id, margins)`` writes a
    case's rows ``case_id,i,repr(margins[i])`` ``CSV_BLOCK_ROWS`` at a time
    and keeps nothing of them, so a caller can drop each case's margins as
    soon as they are written.  No value costs a Python call:
    ``reprs.repr_matrix`` gives the bytes of ``float.__repr__`` for a block
    of margins as a NUL-padded matrix.  A block's rows are assembled side by
    side in one ``uint8`` matrix, ``case_id,`` then the right-aligned index
    digits and ``,``, then the margin bytes and ``\\n``, and the block is
    written without its NULs.  The index digits are built for the longest
    case so far, and every case reads a prefix of them.
    """

    def __init__(self, fh):
        self.fh = fh
        self._index = _index_digits(0)
        fh.write(b"case_id,sample_index,margin\n")

    def add(self, case_id: str, margins) -> None:
        """Write the rows of one case's margins."""
        from . import reprs  # only a CSV needs it; ``verify`` without one never loads it

        m = np.asarray(margins, dtype=float)
        if len(m) > len(self._index):
            self._index = _index_digits(len(m))
        head = f"{case_id},".encode()
        cut = len(head) + self._index.shape[1]
        # the block's rows side by side; head and newline columns are set once
        rows = np.empty((min(len(m), CSV_BLOCK_ROWS), cut + reprs.WIDTH + 1), dtype=np.uint8)
        rows[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
        rows[:, -1] = ord("\n")
        for a in range(0, len(m), CSV_BLOCK_ROWS):
            b = min(a + CSV_BLOCK_ROWS, len(m))
            block = rows[: b - a]
            block[:, len(head) : cut] = self._index[a:b]
            block[:, cut:-1] = reprs.repr_matrix(m[a:b])[0]
            self.fh.write(block.tobytes().translate(None, b"\0"))


@dataclass(frozen=True)
class SuiteResult:
    overall_pass: bool
    reports: tuple
    seed: int
    wall_time: float

    def data_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
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
        """Write the margins CSV of the reports that kept their margins to the binary file ``fh``.

        One ``MarginsCsv`` takes the columns in report order, as ``run_suite``
        hands them to a streamed one.
        """
        csv = MarginsCsv(fh)
        for r in self.reports:
            if r.margins is not None:
                csv.add(r.case_id, r.margins)

    def margins_csv(self) -> str:
        buf = io.BytesIO()
        self.write_margins_csv(buf)
        return buf.getvalue().decode("ascii")


def run_suite(
    config: SuiteConfig, keep_margins: bool = True, on_margins: Callable | None = None
) -> SuiteResult:
    """Run every configured case; deterministic for a fixed config and seed.

    The cases share one disk-pair stream per ``SampleSpec``, released after
    the last read the cases' ops announce, or on return.  With
    ``on_margins``, each report's per-sample margins go to
    ``on_margins(case_id, margins)`` in report order as soon as its checker
    returns (a report without margins is skipped), such as
    ``MarginsCsv(fh).add``; an exception it raises ends the run.  With
    ``keep_margins`` false each report then drops its margins, so the run
    holds those of one checker call at a time; only the margins CSV reads
    them.
    """
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    t0 = time.perf_counter()
    spec = config.sample
    reports = []

    def hand_over(made):
        for r in made:
            if on_margins and r.margins is not None:
                on_margins(r.case_id, r.margins)
            reports.append(r if keep_margins else replace(r, margins=None))

    reads = sum(OPS[cs.op][2] for cs in config.cases)
    streams = _SHARED_STREAMS.set({spec: (reads, None)})
    keep = _KEEP_MARGINS.set(keep_margins or on_margins is not None)
    try:
        for cs in config.cases:
            if OPS[cs.op][0] is None:  # the function-free family: one report per distance
                hand_over(verify_abs_inequalities(spec, dims=config.ball_dims, workers=config.workers))
            else:
                # Resolved at call time, so a wrapper set on the module attribute is used.
                check = globals()[f"verify_{cs.op}"]
                hand_over([check(_build_case(cs), spec, config.workers)])
    finally:
        _KEEP_MARGINS.reset(keep)
        _SHARED_STREAMS.reset(streams)
    overall = all(r.status == "pass" for r in reports)
    return SuiteResult(
        overall_pass=overall,
        reports=tuple(reports),
        seed=spec.seed,
        wall_time=time.perf_counter() - t0,
    )
