"""Deterministic sampled verification of the contraction inequalities.

``OPS`` is the one op table: what each op needs of its catalog function, the
case defaults it carries and, for an op on the disk-pair stream, its left
side.  ``validate_config`` and ``run_suite`` read it.  ``run_suite`` plans
one row ``(case, check, pair)`` per report: the checker ``verify_<op>`` of a
case, or, for ``abs_inequalities``, one row of ``_abs_cases`` per distance;
``pair`` holds the sides of a row on the disk-pair stream.  With a margins
consumer it calls each ``check(case, spec, workers)`` in turn; with none,
the disk-pair rows share one pass.  Every report is made by one function,
``_verify_rows``, which runs one or more rows over one pass of a stream
``stream(a, b) -> (z, w, d)`` of the pairs of rows [a, b), on chunk
bounds; each case supplies only its ``sides(z, w, d) -> (lhs, rhs)`` (on
the images f(z), f(w) in place of z, w for a row with a catalog map ``f``,
which the four pair ops have) and, for its extras, an ``on_block`` reducer.
The streams and their ``d``:

- the pair streams, from one constructor, ``_stream(spec, pairs, kernel)``,
  whose ``d = kernel(z, w)`` is the pairs' distance on the manifold (None
  with no kernel): the disk-pair stream of the four pair ops
  (``re_contraction``, ``modulus_contraction``, ``schwarz_pick``,
  ``kv_factor``, whose sides ``_pair_row`` makes) and of two
  ``abs_inequalities`` rows, and the ball-pair stream of each dimension;
- the polar grid of ``pointwise_gradient`` and ``pavlovic``, each point
  paired with itself (``_grid_row``), whose ``d`` is None and f(z);
- ``proof_chain``'s first 128 pairs of chunk 0, whose ``d`` holds the two
  links of each pair's replayed chain.

Pairs come from seeded substreams: one PCG64 stream per fixed-size chunk of
1024 samples, keyed by seed, ball dimension and chunk index.  The chunk keys
define the stream: a read of rows [a, b) draws each of its chunks from its
own key, straight into the read's arrays, and then forms the points of all
its rows at once, with the bits of each chunk formed on its own.  The unit
of evaluation is the block, consecutive chunks that hold the same number of
complex coordinates on every stream: ``BLOCK_CHUNKS`` chunks of a stream of
points with one coordinate (the disk-pair stream, the grid, the proof
chain's pairs), ``max(1, BLOCK_CHUNKS // n)`` chunks of the ball-pair stream
of dimension n.  ``_map_chunks`` runs the blocks on the calling thread and
``workers - 1`` more, but no more threads than blocks, and each block reads
its rows of the stream in one draw, evaluates each catalog map of its rows
once on z and once on w and the distance kernels once, all on all of its
rows, and writes its rows of full-length arrays in place.  Neither chunk nor
block boundaries depend on the worker count, so a suite is bitwise
reproducible at any parallelism level.  No stream holds a distance: each
read forms ``d`` on its own rows.  A stream draws the rows of each read and
holds nothing, except the disk-pair stream within a ``run_suite`` call
whose margins go to a consumer: there the plan rows that read it share one
``_held`` draw, full-length ``z`` and ``w`` (allocated by the first read)
whose chunks the first reading row draws and checks in its own pass, and
they are freed once the last of those rows has made its report.  A case
whose curvature gate fails reads nothing.  A disk-pair read forms
``sigma``, and a ball-pair read ``beta``, without checking the points
again, since they were checked where drawn (``_disk_pairs``,
``_ball_pairs``).

Each block reduces every row's two sides to their difference, the margins
(margin = rhs - lhs), and reduces those to the report's statistics in the
same pass (``blockstats``: the minimum, the mean with the bits of
``np.mean``, and the violation candidates).  A sampled case holds a
full-length array, its margins, only when something reads them: a bare
``verify_*`` call, or a ``run_suite`` with ``keep_margins`` or
``on_margins``.  A ``run_suite`` with neither holds none: its disk-pair
rows share one pass, which draws each block once and takes its rows map by
map, holding the images of one map at a time.  The sides of the
violation candidates are formed again: each chunk that holds one is read
again through the stream, and its candidates go through the same map and
``sides``, so the bits agree.  The extras are reduced in the same pass,
one slot per block: ``_sup`` keeps a block's largest value and its pair
(``kv_factor``'s supremum ratio, ``pointwise_gradient``'s largest left
side), ``_part_mins`` the size and minimum of parts of a block
(``pavlovic``'s branches, ``proof_chain``'s links).

A block gives the bits its chunks would give one at a time only while every
kernel is elementwise and blind to array size.  numpy breaks the second: a
commutative op whose right operand is a temporary of at least 256 KiB is
computed in place into that temporary with the operands swapped, and the
product of two complex arrays is not bitwise commutative (a real factor is
harmless).  Chunks (at most 128 KiB, in dimension 8) never reach the
threshold, blocks of 256 KiB of coordinates (dimensions 1, 2, 4 and 8) do; so
a kernel on the block path binds the right-hand temporary of a complex
product to a name first (the sites say so), and the tests compare the draws
and every kernel on one block against its chunks.
Reports carry margin statistics.  Only the margins CSV reads the per-sample
margins, and ``reprs`` owns its rows: their layout, formatting and writing
(``reprs.MarginsCsv``).  ``run_suite`` hands each report over as soon as its
row has made it, its margins to ``on_margins`` (such as
``reprs.MarginsCsv.add``) if asked to, and drops them there unless asked to
keep them, so a run that streams the CSV holds the margins of one report and
one CSV block at a time.

A sampled pair with margin below -(tol_abs + tol_rel*|rhs|) is a violation;
the hypotheses are theorems, so violations indicate implementation bugs.  The
final sample of every pair stream is intentionally degenerate (w = z) to
exercise the equal-point conventions (margin 0; excluded from ratio suprema);
the proof chain's pairs have none.

Checkers that rely on the curvature hypothesis (the distance-level and
gradient-level contraction and the proof-chain replay) first gate on
curv_w <= -1; a weight failing the gate yields status ``hypothesis-not-met``
rather than a violation verdict.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import ball, blockstats, disk
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
# Chunks per block of a stream of points with one complex coordinate, a thread's
# unit of work.  Evaluation cost per numpy call is a few microseconds, so
# per-chunk work spends the run trading the GIL; blocks of 16 amortize it.  A
# stream of points in C^n takes BLOCK_CHUNKS // n chunks a block (at least one),
# so every block holds about as many coordinates, and as many bytes of
# temporaries.  Read at call time.
BLOCK_CHUNKS = 16
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
        # numpy splits a larger seed into 32-bit words, so [2**32 + 5, 7] keys [5, 1, 7]
        if self.seed >= 2**32:
            raise ValueError("seed must be < 2**32")
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
        # _verify_rows picks violation candidates by tol_abs alone, which needs this.
        if not self.tol_rel >= 0.0:
            raise ValueError(f"tol_rel must be >= 0, got {self.tol_rel!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Margin statistics of one verified case.

    ``margins`` keeps the raw per-sample values for CSV emission, where
    something reads them (None elsewhere); ``to_dict``
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


def _chunk_rows(a: int, b: int) -> Iterator[tuple]:
    """``(ci, lo, hi)``: each chunk ``ci`` of the rows [a, b) and its rows [lo, hi) of them.

    ``a`` is a chunk bound, and ``b`` a chunk bound or the end of the stream,
    so a chunk's rows are all its draws.
    """
    for ci in range(a // CHUNK_SIZE, -(-b // CHUNK_SIZE)):
        yield ci, ci * CHUNK_SIZE - a, min((ci + 1) * CHUNK_SIZE, b) - a


def disk_pair_chunk(spec: SampleSpec, a: int, b: int):
    """The pairs of rows [a, b) of the disk-pair stream, with no degenerate pair.

    Each chunk ``ci`` draws the variates of one ``(4, n)`` draw of its PCG64
    stream, keyed ``[seed, ci]``, straight into the rows of the block's
    arrays, one variate after another; radius and angle are then formed once
    for all rows.  ``_stream`` makes its last pair degenerate.
    """
    u = np.empty((4, b - a))
    for ci, lo, hi in _chunk_rows(a, b):
        rng = np.random.default_rng([spec.seed, ci])
        for x in u:
            rng.random(out=x[lo:hi])
    z = _radius(spec, u[0]) * np.exp(2j * np.pi * u[1])
    w = _radius(spec, u[2]) * np.exp(2j * np.pi * u[3])
    return z, w


def ball_pair_chunk(spec: SampleSpec, dim: int, a: int, b: int):
    """The pairs of rows [a, b) of the ball-pair stream of dimension ``dim``, with no degenerate pair.

    Each chunk ``ci`` draws, from its PCG64 stream keyed ``[seed, dim, ci]``,
    the variates of one ``(2, n, dim, 2)`` Gaussian draw ``g`` and one
    ``(2, n)`` uniform draw, in that order, straight into the rows of the
    block's arrays; norm, radius and scaling then run once for all rows.
    ``g`` is read as complex coordinates in place and scaled in real
    arithmetic: by ``1 / |vec|``, which is what numpy's complex-by-real
    division multiplies by, then by the radius.  That gives the bits of
    ``(g0 + 1j g1) / |vec| * r`` except, possibly, the sign of a zero: a
    Gaussian draw of exactly 0.0, or a radius of exactly 0.0.
    """
    g = np.empty((2, b - a, dim, 2))
    u = np.empty((2, b - a))
    for ci, lo, hi in _chunk_rows(a, b):
        rng = np.random.default_rng([spec.seed, dim, ci])
        for x in g:
            rng.standard_normal(out=x[lo:hi])
        for x in u:
            rng.random(out=x[lo:hi])
    vec = g.view(complex)[..., 0]
    norms = np.maximum(ball.norm(vec), 1e-300)
    r = _radius(spec, u, ball_dim=dim)
    g *= (1.0 / norms)[..., np.newaxis, np.newaxis]
    g *= r[..., np.newaxis, np.newaxis]
    return vec[0], vec[1]


def _map_chunks(spec: SampleSpec, one: Callable, workers: int, block: int | None = None) -> None:
    """``one(a, b)`` for the rows [a, b) of every block, on ``workers`` threads.

    A block is ``block`` consecutive rows, a multiple of the chunk size, by
    default ``BLOCK_CHUNKS`` chunks (fewer at the end of the stream); each
    call evaluates one block and writes its rows in place.  The
    calling thread and ``workers - 1`` started ones, but no more threads
    than blocks, take the blocks in row order.  Once a block has failed no
    thread starts another, and the exception of the lowest failing block is
    raised, as a serial loop would raise it: every block below a started one
    has started.
    """
    block = block or BLOCK_CHUNKS * CHUNK_SIZE
    blocks = range(0, spec.count, block)
    starts = iter(blocks)  # next() on it is atomic under the GIL
    failed = {}  # first row of a failed block -> its exception

    def work():
        for a in starts:
            if failed:
                return
            try:
                one(a, min(a + block, spec.count))
            except BaseException as exc:
                failed[a] = exc

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(blocks)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        raise failed[min(failed)]


def _stream(spec: SampleSpec, pairs: Callable, kernel: Callable | None) -> Callable:
    """The pair stream ``stream(a, b) -> (z, w, d)`` of the rows [a, b), on chunk bounds.

    ``pairs(a, b) -> (z, w)`` gives the rows.  The read that ends the stream
    makes its last pair degenerate, the only place that does.  ``d =
    kernel(z, w)``, the pairs' distance on the manifold, or None with no
    kernel, for sides that take none.  This is the stream of every
    ``_verify_rows`` pass but two kinds: the polar grid's (``_grid_row``)
    and the proof chain's, whose pairs hold no degenerate one to add.
    """

    def stream(a, b):
        z, w = pairs(a, b)
        if b == spec.count:
            w[-1] = z[-1]
        return z, w, kernel(z, w) if kernel else None

    return stream


def _disk_pairs(spec: SampleSpec, a: int, b: int):
    """The disk-pair draws of rows [a, b), checked, so ``_sigma`` checks none.

    ``partial(_disk_pairs, spec)`` is the ``pairs`` of a disk-pair ``_stream``.
    """
    # looked up on the module, as rho looks them up, so a wrapper set there sees them
    z, w = disk_pair_chunk(spec, a, b)
    disk.check_disk_point(z)
    disk.check_disk_point(w)
    return z, w


def _ball_pairs(spec: SampleSpec, dim: int, a: int, b: int):
    """The ball-pair draws of rows [a, b) in dimension ``dim``, checked, so ``ball.beta`` checks none.

    ``partial(_ball_pairs, spec, dim)`` is the ``pairs`` of a ball-pair ``_stream``.
    """
    z, w = ball_pair_chunk(spec, dim, a, b)  # looked up on the modules, as _disk_pairs does
    return ball.check_ball_point(z), ball.check_ball_point(w)


def _held(spec: SampleSpec, pairs: Callable) -> Callable:
    """``pairs`` held in full-length ``z`` and ``w``, each chunk drawn by the first read of it.

    The first read allocates them, so a suite in which nothing reads (no
    row, or only rows whose gate fails) allocates nothing.  A read draws its
    rows through ``pairs`` unless all of its chunks are drawn, and gives
    slices.  The reads of one ``_map_chunks`` pass cover disjoint chunks, so
    the first reading row draws each chunk once, in its own pass.
    """
    lock, held, drawn = threading.Lock(), [], set()  # drawn: the indices of the drawn chunks

    def read(a, b):
        with lock:  # whichever thread reads first allocates
            # Two arrays, not one of twice the size: freeing a larger block
            # raises glibc's mmap and trim thresholds, and a 100k verify then
            # peaked 0.2 MB higher.
            if not held:
                held.extend((np.empty(spec.count, complex), np.empty(spec.count, complex)))
        z, w = held
        chunks = range(a // CHUNK_SIZE, -(-b // CHUNK_SIZE))
        if not drawn.issuperset(chunks):
            z[a:b], w[a:b] = pairs(a, b)
            drawn.update(chunks)  # atomic under the GIL, as list.append is
        return z[a:b], w[a:b]

    return read


def _sigma(z, w):
    """``sigma`` of pairs checked where they were drawn, looked up on the module at call time."""
    return sigma(z, w, checked=True)


def _verify_pairs(case, spec, workers, sides, on_block=None, stream=None, keep=True, f=None, dim=1):
    """lhs <= rhs over a pair stream, for ``sides(z, w, d) -> (lhs, rhs)``: one row of ``_verify_rows``.

    ``stream`` defaults to the disk-pair stream of ``spec`` drawn on every
    read (``d = sigma(z, w)``); a suite row, a grid case and the proof chain
    pass their own, a ball row its stream of points in C^``dim``.  With a
    map ``f``, ``sides`` take the images f(z), f(w) in place of the pairs.
    """
    stream = stream or _stream(spec, partial(_disk_pairs, spec), _sigma)
    return _verify_rows(spec, workers, stream, [(case, f, sides, on_block)], keep, dim)[0]


def _verify_rows(spec: SampleSpec, workers: int, stream: Callable, rows: list, keep: bool, dim=1) -> list:
    """The reports of ``rows``, ``(case, f, sides, on_block)`` each, from one pass over ``stream``.

    This is the one place a report is made.  A row whose case carries a
    target weight first gates on it: if the weight fails curv_w <= -1, its
    report is ``hypothesis-not-met`` and it reads nothing.  ``stream(a, b)
    -> (z, w, d)`` gives the pairs of rows [a, b), on chunk bounds, and what
    the sides take besides them: the pairs' distance on a pair stream
    (``_stream``), f(z) or None on the polar grid (``_grid_row``), the two
    links of each pair on the proof chain's pairs.  Its points have ``dim``
    complex coordinates, and a block is ``max(1, BLOCK_CHUNKS // dim)``
    chunks, so a block of any stream holds about as many coordinates.

    Each block reads the stream once.  It takes the rows map by map, the
    rows whose catalog map ``f`` has one name (or that have none): it
    evaluates the map once on z and once on w, runs those rows' ``sides``
    on the images f(z), f(w) (on z, w where ``f`` is None), and drops the
    images before the next map.  Each row reduces its block's margins (rhs
    - lhs) into its ``blockstats.Stats``, allocated before the pass, which
    with ``keep`` also keeps them whole for the report.  A row without them
    whose mean overflows on finite margins is run again with them, for its
    scaled mean.  If given, ``on_block(a, z, w, lhs, d)`` sees the pairs
    (not their images), left side and ``d`` of each block in that pass,
    ``a`` the block's first row, and its ``extras()``, if it has them, go
    into the report.

    A violation is a margin below -(tol_abs + tol_rel*|rhs|); with tol_rel
    >= 0 it is also below -tol_abs, so both sides and the relative
    tolerance are formed only on the rows below -tol_abs, the candidates,
    and on every stream by one path, ``rows_at``: each chunk that holds one
    is read again through the stream on its own, and its picked pairs (and
    their ``d``, if the stream forms one) go through the same map and
    ``sides``, whose kernels are elementwise, so they give the bits of the
    block.
    """
    t0 = time.perf_counter()
    layout = blockstats.Layout(spec.count, max(1, BLOCK_CHUNKS // dim) * CHUNK_SIZE)
    # live: the rows whose gate passes, with their report's index and their stats; maps: a
    # map's name (None for no map) -> the map, and its live rows' sides, on_block and stats
    reports, live, maps = [None] * len(rows), [], {}
    for i, (case, f, sides, on_block) in enumerate(rows):
        gate = case.target is not None and verify_curvature_bound(case.target)
        if gate and not gate.passed:
            reports[i] = VerificationReport(
                case_id=case.id, status="hypothesis-not-met", samples_used=0, min_margin=None,
                mean_margin=None, violations=(), seed=spec.seed, wall_time=time.perf_counter() - t0,
                extras={"max_curvature": gate.max_curvature, "curvature_argmax": gate.argmax,
                        "required": "curv_w <= -1"},
            )
        else:
            st = blockstats.Stats(layout, case.tol_abs, keep)
            live.append((i, case, f, sides, on_block, st))
            maps.setdefault(f and f.name, (f, []))[1].append((sides, on_block, st))
    if not live:
        return reports
    images = lambda f, z, w: (f.eval(z), f.eval(w)) if f else (z, w)

    def one(a, b):
        z, w, d = stream(a, b)
        block = layout.block(a, b)
        for f, group in maps.values():
            fz, fw = images(f, z, w)
            for sides, on_block, st in group:
                lhs, rhs = sides(fz, fw, d)
                st.add(block, rhs, lhs)
                if on_block:
                    on_block(a, z, w, lhs, d)
            del fz, fw  # freed before the next map's images are formed

    def rows_at(f, sides, rows):
        picked, chunk_of = [], rows // CHUNK_SIZE
        for ci in sorted(set(chunk_of.tolist())):  # np.unique would import numpy.ma
            a = ci * CHUNK_SIZE
            k = rows[chunk_of == ci] - a
            z, w, d = (x if x is None else x[k] for x in stream(a, min(a + CHUNK_SIZE, spec.count)))
            picked.append((z, w, *sides(*images(f, z, w), d)))
        return tuple(np.concatenate(part) for part in zip(*picked))

    _map_chunks(spec, one, workers, layout.block_rows)
    for i, case, f, sides, on_block, st in live:
        if st.margins is None and st.overflows:
            reports[i] = _verify_rows(spec, workers, stream, [(case, f, sides, on_block)], True, dim)[0]
            continue
        near, near_margins = st.candidates()
        violations = []
        if len(near):
            z, w, lhs, rhs = rows_at(f, sides, near)
            tol = case.tol_abs + case.tol_rel * np.abs(rhs)
            for k in np.nonzero(near_margins < -tol)[0]:
                violations.append({
                    "index": int(near[k]), "z": _serialize_point(z[k]), "w": _serialize_point(w[k]),
                    "lhs": float(lhs[k]), "rhs": float(rhs[k]), "margin": float(near_margins[k]),
                })
        reports[i] = VerificationReport(
            case_id=case.id, status="violated" if violations else "pass", samples_used=st.count,
            min_margin=st.min(), mean_margin=st.mean(), violations=tuple(violations), seed=spec.seed,
            wall_time=time.perf_counter() - t0, margins=st.margins,
            extras=on_block.extras() if hasattr(on_block, "extras") else {},
        )
    return reports


def verify_re_contraction(
    case: InequalityCase, spec: SampleSpec, workers: int = 1, stream: Callable | None = None
) -> VerificationReport:
    """d_w(Re f(z), Re f(w)) <= sigma(z, w), gated on curv_w <= -1 (by ``_verify_rows``)."""
    return _verify_pairs(case, spec, workers, *_pair_row("re_contraction", case), stream, f=case.function)


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


def _grid_row(case, spec, workers, sides, on_block, d=None) -> VerificationReport:
    """``case`` on the polar grid up to ``spec``'s radius cap: one row of ``_verify_rows``.

    Each grid point is paired with itself, and the stream gives ``d(z)`` of
    its points, or None with no ``d``.
    """
    z = polar_grid(radius_cap=spec.radius_cap)
    stream = lambda a, b: (z[a:b], z[a:b], d and d(z[a:b]))
    return _verify_pairs(case, replace(spec, count=z.size), workers, sides, on_block, stream)


def verify_pointwise_gradient(
    case: InequalityCase, spec: SampleSpec = _GRID_SPEC, workers: int = 1
) -> VerificationReport:
    """Surface gradient bound w(Re f(z)) |f'(z)| (1-|z|^2)/2 <= 1 on the polar grid.

    Gated on curv_w <= -1 (by ``_verify_rows``).  The largest left side and
    its point are recorded (``_sup``).
    """

    def sides(z, w, _):
        lhs = _gradient_lhs(case.target, case.function, z)
        return lhs, np.ones_like(lhs)

    def extras(sup, z, w):
        return {"max_lhs": sup, "argmax": _serialize_point(z)}

    on_block = _sup(lambda z, w, lhs, d: lhs, extras)
    return _grid_row(case, spec, workers, sides, on_block)


def verify_modulus_contraction(
    case: InequalityCase, spec: SampleSpec, workers: int = 1, stream: Callable | None = None
) -> VerificationReport:
    """sigma(|f(z)|, |f(w)|) <= sigma(z, w) for disk-codomain entries."""
    return _verify_pairs(case, spec, workers, *_pair_row("modulus_contraction", case), stream, f=case.function)


def _modulus_lhs(fz, fw):
    """The left side sigma(|f(z)|, |f(w)|) of ``modulus_contraction``."""
    return sigma_real(np.abs(fz), np.abs(fw))


def verify_schwarz_pick(
    case: InequalityCase, spec: SampleSpec, workers: int = 1, stream: Callable | None = None
) -> VerificationReport:
    """sigma(f(z), f(w)) <= sigma(z, w) for disk-codomain entries."""
    return _verify_pairs(case, spec, workers, *_pair_row("schwarz_pick", case), stream, f=case.function)


def verify_pavlovic(
    case: InequalityCase, spec: SampleSpec = _GRID_SPEC, workers: int = 1
) -> VerificationReport:
    """Modulus gradient bound |f'(z)| (1-|z|^2) <= 1 - |f(z)|^2 on the polar grid.

    |f'| equals the upper gradient of |f| off the zero set and still dominates
    it at zeros; both branches are recorded separately in the extras.
    """
    f = case.function

    def sides(z, w, fz):
        return np.abs(f.deriv(z)) * (1.0 - np.abs(z) ** 2), 1.0 - np.abs(fz) ** 2

    def branches(z, w, lhs, fz):  # the margins where f(z) is zero, and elsewhere
        zero = np.abs(fz) <= 1e-12
        margins = 1.0 - np.abs(fz) ** 2 - lhs
        return margins[zero], margins[~zero]

    def extras(n, low):
        return {"n_zero_branch": n[0], "n_nonzero_branch": n[1],
                "min_margin_zero": low[0], "min_margin_nonzero": low[1]}

    on_block = _part_mins(branches, extras)
    return _grid_row(case, spec, workers, sides, on_block, f.eval)


def verify_kv_factor(
    case: InequalityCase, spec: SampleSpec, workers: int = 1, stream: Callable | None = None
) -> VerificationReport:
    """sigma(Re f(z), Re f(w)) <= factor * sigma(z, w) for strip-valued Re f.

    The left side is the distance of the weight 2/(1-t^2) on (-1, 1), i.e.
    |2 atanh U(z) - 2 atanh U(w)| for U = Re f.  The empirical supremum of the
    ratio lhs/sigma, with pairs at sigma = 0 excluded, is recorded (``_sup``).
    """
    return _verify_pairs(case, spec, workers, *_pair_row("kv_factor", case), stream, f=case.function)


def _per_block(block: Callable, extras: Callable) -> Callable:
    """An ``on_block`` that keeps ``block(z, w, lhs, d)`` of each block, with ``extras()``.

    ``block`` gives a tuple; ``extras()`` is ``extras(*columns)``, where
    column i holds item i of every block's tuple, in row order.
    """
    kept = {}  # first row of a block -> what it keeps

    def on_block(a, z, w, lhs, d):
        kept[a] = block(z, w, lhs, d)

    on_block.extras = lambda: extras(*zip(*(kept[a] for a in sorted(kept))))
    return on_block


def _sup(value: Callable, extras: Callable) -> Callable:
    """An ``on_block`` reducing the sup of ``value(z, w, lhs, d)`` and its pair; ``extras(sup, z, w)``.

    Each block keeps its largest value and that value's pair, and ``np.argmax``
    over the blocks in row order picks the first largest (or first NaN), as it
    would over the whole array.
    """

    def block(z, w, lhs, d):
        v = value(z, w, lhs, d)
        k = int(np.argmax(v))
        return v[k], z[k], w[k]

    def combine(sups, zs, ws):
        j = int(np.argmax(sups))
        return extras(float(sups[j]), zs[j], ws[j])

    return _per_block(block, combine)


def _part_mins(parts: Callable, extras: Callable) -> Callable:
    """An ``on_block`` reducing each array of ``parts(z, w, lhs, d)`` to its size and minimum.

    ``extras(sizes, mins)`` gets them over all blocks, part by part; a part
    empty in every block has the minimum None.
    """

    def block(z, w, lhs, d):
        return tuple((x.size, np.min(x) if x.size else None) for x in parts(z, w, lhs, d))

    def combine(*columns):  # per part, its (size, minimum) in each block
        lows = [[low for _, low in col if low is not None] for col in columns]
        sizes = [sum(n for n, _ in col) for col in columns]
        return extras(sizes, [float(np.min(x)) if x else None for x in lows])

    return _per_block(block, combine)


def _pair_row(op: str, case: InequalityCase) -> tuple:
    """``(sides, on_block)`` of a disk-pair op's case: lhs_of(f(z), f(w)) <= factor * sigma(z, w).

    ``lhs_of`` is the op's in ``OPS``.  ``sides(fz, fw, s)`` take the images
    under the case's map f (a row's ``f`` in ``_verify_rows``), which the
    pass forms once for all its rows on f; the checkers and ``run_suite``'s
    shared pass both take a case's sides from here.
    """
    lhs_of = OPS[op][2](case)
    sides = lambda fz, fw, s: (lhs_of(fz, fw), case.factor * s)
    if op != "kv_factor":
        return sides, None

    def ratio(z, w, lhs, s):
        return np.where(s > 0.0, lhs / np.where(s > 0.0, s, 1.0), 0.0)

    def extras(sup, z, w):
        pair = [_serialize_point(z), _serialize_point(w)]
        return {"factor": case.factor, "sup_ratio": sup, "sup_ratio_pair": pair}

    return sides, _sup(ratio, extras)


def verify_abs_inequalities(
    spec: SampleSpec, dims: tuple = (1, 2, 3), workers: int = 1
) -> Iterator[VerificationReport]:
    """Modulus-monotonicity margins: disk rho, disk sigma, ball beta per dim.

    The reports of ``_abs_cases``, yielded in its order, each made only when
    the previous one has been taken, so a caller that drops each report's
    margins holds those of one report at a time.
    """
    for case, check, _ in _abs_cases(spec, dims, partial(_disk_pairs, spec)):
        yield check(case, spec, workers)


def _abs_cases(spec: SampleSpec, dims: tuple, disk_pairs: Callable, keep: bool = True) -> list:
    """The plan rows ``(case, check, pair)`` of the ``abs_inequalities`` reports.

    On the disk-pair stream, rho(|z|, |w|) <= rho(z, w) and sigma(|z|, |w|) <=
    sigma(z, w); on the ball-pair stream of each dimension in ``dims``,
    beta(|z|, |w|) <= beta(z, w), with |z| the point (|z|,) of the slice B^1.
    The disk rows read ``disk_pairs`` (``_disk_pairs`` or its ``_held``
    draws); a ball row draws its rows on every read.  ``check(case, spec,
    workers)`` makes a row's report, as a ``verify_*`` checker does, with
    its margins only if ``keep``; ``pair``, ``(sides, on_block)`` of a disk
    row and None of a ball row, is what ``run_suite``'s shared pass runs.
    A ball row's blocks are sized by its dimension, and its points are
    checked where drawn (``_ball_pairs``), so neither ``beta`` checks them.
    """

    # beta is looked up on the module at call time, so a wrapper set there sees it
    beta = lambda z, w: ball.beta(z, w, checked=True)

    def beta_sides(z, w, b):  # beta of the points (|z|,) and (|w|,) of B^1
        return ball.beta(*(ball.embed_modulus(x, checked=True) for x in (z, w)), checked=True), b

    def row(name, pairs, kernel, sides, dim=1):
        case = InequalityCase(id=f"abs_{name}", tol_abs=1e-12, tol_rel=0.0)
        check = partial(_verify_pairs, sides=sides, stream=_stream(spec, pairs, kernel), keep=keep, dim=dim)
        return case, check, (sides, None) if pairs is disk_pairs else None

    return [  # rho_disk's sides take no distance, so its reads form none
        row("rho_disk", disk_pairs, None, lambda z, w, _: (rho(np.abs(z), np.abs(w)), rho(z, w))),
        row("sigma_disk", disk_pairs, _sigma, lambda z, w, d: (_modulus_lhs(z, w), d)),
    ] + [row(f"beta_ball_n{dim}", partial(_ball_pairs, spec, dim), beta, beta_sides, dim) for dim in dims]


def verify_proof_chain(
    case: InequalityCase, spec: SampleSpec, workers: int = 1
) -> VerificationReport:
    """Replay the contraction proof along arc-length hyperbolic geodesics.

    With gamma the geodesic from z to w parameterized by hyperbolic arc length
    s in [0, sigma], the image-path length is

        I = int_0^sigma w(Re f(gamma)) |f'(gamma)| (1 - |gamma|^2)/2 ds,

    whose integrand is exactly the gradient-bound left side, hence <= 1.  The
    replayed chain is d_w(Re f(z), Re f(w)) <= I <= sigma(z, w); both link
    margins are checked at tolerance 1e-12 on the first 128 pairs of chunk 0
    of the disk-pair stream, which hold no degenerate pair.  Its stream
    replays each pair on its own, serially, and gives the two links (I -
    d_w, sigma - I) as its ``d``; the margin is the smaller link.
    """
    weight, f = case.target, case.function
    x_nodes, wq = leggauss(8)
    tq = 0.5 * (x_nodes + 1.0)
    wt = 0.5 * wq

    def links(a, b):
        z, w = disk_pair_chunk(spec, 0, min(spec.count, CHUNK_SIZE))  # chunk 0 is drawn whole
        z, w = z[a:b], w[a:b]
        d = np.empty((b - a, 2))
        for i in range(b - a):
            zi, wi = complex(z[i]), complex(w[i])
            zeta = mobius(zi, wi)
            r = abs(zeta)
            if r == 0.0:
                d[i] = 0.0
                continue
            sig = 2.0 * math.atanh(r)
            n_panels = max(32, int(16.0 * sig))
            edges = np.linspace(0.0, sig, n_panels + 1)
            widths = np.diff(edges)
            s = edges[:-1, np.newaxis] + widths[:, np.newaxis] * tq[np.newaxis, :]
            pts = mobius(zi, np.tanh(0.5 * s) * (zeta / r))
            integral = float(np.sum(widths * (_gradient_lhs(weight, f, pts) @ wt)))
            d_w = omega_distance(weight, float(np.real(f.eval(zi))), float(np.real(f.eval(wi))))
            d[i] = integral - d_w, sig - integral
        return z, w, d

    def sides(z, w, d):  # the margin is the smaller link
        return -np.minimum(d[:, 0], d[:, 1]), np.zeros(len(d))

    def extras(n, low):
        return {"min_first_link": low[0], "min_second_link": low[1]}

    on_block = _part_mins(lambda z, w, lhs, d: d.T, extras)
    pairs = replace(spec, count=min(spec.count, 128))
    return _verify_pairs(case, pairs, workers, sides, on_block, links)


# op -> (what the op needs of its catalog function, InequalityCase defaults,
# and, for an op on the disk-pair stream, ``lhs(case) -> lhs_of``, the left
# side lhs_of(f(z), f(w)) of its ``_pair_row``; its checker then takes the
# stream as ``stream``).  Needs: "weight", a weight whose domain holds the
# Re-image; "disk", a disk codomain; "strip", the Re-image (-1, 1); None, no
# function or weight at all.  A ``weight`` is accepted only by "weight" ops,
# a ``factor`` only by ops whose defaults carry one.  The function-free op is
# expanded by ``_abs_cases``, whose two disk rows read the stream.  The
# kernels are looked up on the module at call time, so a wrapper set there
# sees them.
OPS = {
    "re_contraction": ("weight", {}, lambda case: _re_lhs(case.target)),
    "pointwise_gradient": ("weight", {}, None),
    "modulus_contraction": ("disk", {}, lambda case: _modulus_lhs),
    "schwarz_pick": ("disk", {}, lambda case: sigma),
    "pavlovic": ("disk", {}, None),
    "kv_factor": ("strip", {"factor": KV_FACTOR}, lambda case: _re_lhs(disk_diameter_weight())),
    "abs_inequalities": (None, {}, None),
    "proof_chain": ("weight", {"tol_abs": 1e-12}, None),
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
                # from the start of a report's pass to the report: the rows that share one
                # pass (run_suite with no margins consumer) each count that whole pass, so
                # their times overlap and do not add up to the suite's
                "case_wall_times": {r.case_id: r.wall_time for r in self.reports},
            },
        }

    def to_json(self) -> str:
        return _to_json(self.to_dict())

    def data_json(self) -> str:
        """The deterministic payload only (no wall times); for golden comparison."""
        return _to_json(self.data_dict())

    def write_margins_csv(self, fh) -> None:
        """Write the margins CSV of the reports that kept their margins to the binary file ``fh``.

        One ``reprs.MarginsCsv`` takes the columns in report order, as
        ``run_suite`` hands them to a streamed one.
        """
        from . import reprs  # only a CSV needs it; ``verify`` without one never loads it

        csv = reprs.MarginsCsv(fh)
        for r in self.reports:
            if r.margins is not None:
                csv.add(r.case_id, r.margins)

    def margins_csv(self) -> str:
        buf = io.BytesIO()
        self.write_margins_csv(buf)
        return buf.getvalue().decode("ascii")


def _non_finite(value, path: str):
    """``(path, value)`` of the first non-finite float in the JSON value ``value``, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next((found for p, v in items if (found := _non_finite(v, p))), None)  # depth first


def _to_json(payload: dict) -> str:
    """``payload`` as JSON, which has no Infinity or NaN.

    A non-finite value (a ``factor`` so large that the right side
    overflows, say) raises ValueError naming the case and the field.
    """
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        for case in payload.get("data", payload)["cases"]:
            found = _non_finite(case, "")
            if found:
                raise ValueError(f"{case['case_id']}: {found[0]} is not finite: {found[1]}") from None
        raise


def run_suite(
    config: SuiteConfig, keep_margins: bool = True, on_margins: Callable | None = None
) -> SuiteResult:
    """Run every configured case; deterministic for a fixed config and seed.

    The suite is planned first, one row ``(case, check, pair)`` per report:
    one per case, and the ``_abs_cases`` rows for ``abs_inequalities``;
    ``pair`` is ``(sides, on_block)`` of a row that reads the disk-pair
    stream, else None.  How the rows run depends only on whether anything
    reads the margins.

    - With ``on_margins`` or ``keep_margins``, each row runs its ``check``
      in plan order, and each report is handed over as soon as it is made,
      before the next one is made: its per-sample margins go to
      ``on_margins(case_id, margins)`` in report order (a report without
      margins is skipped), such as ``reprs.MarginsCsv(fh).add``; an
      exception it raises ends the run.  The rows that read the disk-pair
      stream share one ``_held`` draw of it, allocated by the first read
      and drawn and checked by the first of them in its own pass: a
      ``verify_*`` row holds it as ``partial(verify_<op>, stream=...)``, an
      abs row in its stream, and nothing else holds it.  Each row is popped
      before it runs, so the draws are freed as soon as the last row that
      reads them has made its report.  With ``keep_margins`` false the
      report then drops its margins, so the run holds those of one report at
      a time.
    - With neither, no full-length array is made: every disk-pair row whose
      curvature gate passes runs in one ``_verify_rows`` pass, which draws,
      checks and forms ``sigma`` on each block once, evaluates each catalog
      map there once on z and once on w for all of its rows, and reduces
      each row's margins block by block; the ball rows reduce theirs block by
      block too.  The reports keep plan order.
    """
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    t0 = time.perf_counter()
    spec = config.sample
    reports = []

    def hand_over(report):
        """The report kept for the result; the only place margins are dropped."""
        if on_margins and report.margins is not None:
            on_margins(report.case_id, report.margins)
        return report if keep_margins else replace(report, margins=None)

    shared = not keep_margins and on_margins is None  # nothing reads the margins
    pairs = partial(_disk_pairs, spec) if shared else _held(spec, partial(_disk_pairs, spec))
    stream = _stream(spec, pairs, _sigma)
    plan = []
    for cs in config.cases:
        needs, _, lhs = OPS[cs.op]
        if needs is None:  # the function-free family: one row per distance
            plan += _abs_cases(spec, config.ball_dims, pairs, keep=not shared)
        else:
            # Looked up on the module, so a wrapper set on the module attribute is used.
            check, case = globals()[f"verify_{cs.op}"], _build_case(cs)
            pair = lhs and _pair_row(cs.op, case)
            plan.append((case, partial(check, stream=stream) if lhs else check, pair))
    # with no consumer, the disk-pair rows make their reports at once, each map
    # evaluated once a block for all its rows: case id -> report
    rows = [(case, case.function, *pair) for case, _, pair in plan if pair and shared]
    made = {r.case_id: r for r in _verify_rows(spec, config.workers, stream, rows, False)}
    del pairs, stream  # the rows alone hold the draws
    while plan:
        case, check, _ = plan.pop(0)
        report = made.pop(case.id, None) or check(case, spec, config.workers)
        del check  # the last row that reads the held draws frees them, before the hand-over
        reports.append(hand_over(report))
        del report  # it may hold margins that hand_over dropped
    overall = all(r.status == "pass" for r in reports)
    return SuiteResult(
        overall_pass=overall, reports=tuple(reports), seed=spec.seed, wall_time=time.perf_counter() - t0
    )
