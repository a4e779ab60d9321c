"""Sampled verification harness: determinism, gating, violations, reports."""

import hashlib
import io
import json
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest

from hypcontract import ball, blockstats, harness, reprs
from hypcontract.catalog import catalog, get
from hypcontract.cli import main
from hypcontract.disk import rho, sigma
from hypcontract.harness import (
    CHUNK_SIZE,
    KV_FACTOR,
    CaseSpec,
    ConfigError,
    InequalityCase,
    SampleSpec,
    SuiteConfig,
    SuiteResult,
    VerificationReport,
    default_config,
    disk_pair_chunk,
    polar_grid,
    run_suite,
    validate_config,
    verify_abs_inequalities,
    verify_kv_factor,
    verify_pavlovic,
    verify_pointwise_gradient,
    verify_proof_chain,
    verify_re_contraction,
    verify_schwarz_pick,
)
from hypcontract.weights import (
    disk_diameter_weight,
    half_plane_weight,
    omega_distance,
    strip_weight,
)


class TestSampleSpec:
    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            SampleSpec(count=0)

    def test_rejects_bad_radius_cap(self):
        with pytest.raises(ValueError):
            SampleSpec(count=10, radius_cap=1.0)
        with pytest.raises(ValueError):
            SampleSpec(count=10, radius_cap=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SampleSpec(count=10, seed=-1)

    def test_rejects_seed_of_2_to_32_and_above(self):
        assert SampleSpec(count=10, seed=2**32 - 1).seed == 2**32 - 1
        for seed in (2**32, 2**32 + 5, 2**64):
            with pytest.raises(ValueError, match=re.escape("seed must be < 2**32")):
                SampleSpec(count=10, seed=seed)

    def test_a_seed_past_32_bits_would_alias_another_stream(self):
        # numpy splits the seed into 32-bit words, so disk chunk 7 at seed
        # 2**32 + 5 would be keyed as ball chunk 7 of dimension 1 at seed 5
        aliased = np.random.default_rng([2**32 + 5, 7]).random(8)
        assert aliased.tobytes() == np.random.default_rng([5, 1, 7]).random(8).tobytes()

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            SampleSpec(count=10, scheme="sobol")


def _reference_disk_chunk(spec, ci, n, last):
    """Chunk ``ci`` of the disk-pair stream, drawn and formed on its own (the reference)."""
    rng = np.random.default_rng([spec.seed, ci])
    u = rng.random((4, n))
    z = harness._radius(spec, u[0]) * np.exp(2j * np.pi * u[1])
    w = harness._radius(spec, u[2]) * np.exp(2j * np.pi * u[3])
    if last:
        w[-1] = z[-1]
    return z, w


def _reference_ball_chunk(spec, dim, ci, n, last):
    """Chunk ``ci`` of the ball-pair stream of ``dim``, drawn and formed on its own (the reference)."""
    rng = np.random.default_rng([spec.seed, dim, ci])
    g = rng.standard_normal((2, n, dim, 2))
    u = rng.random((2, n))
    vec = g.view(complex)[..., 0]
    norms = np.maximum(ball.norm(vec), 1e-300)
    r = harness._radius(spec, u, ball_dim=dim)
    g *= (1.0 / norms)[..., np.newaxis, np.newaxis]
    g *= r[..., np.newaxis, np.newaxis]
    z, w = vec[0], vec[1]
    if last:
        w[-1] = z[-1]
    return z, w


def _reference_rows(chunk, spec, a, b, *dim, degenerate=True):
    """The rows [a, b) from the reference chunks; with ``degenerate``, the stream's last pair is."""
    drawn = []
    for ci in range(a // CHUNK_SIZE, -(-b // CHUNK_SIZE)):
        n = min(CHUNK_SIZE, spec.count - ci * CHUNK_SIZE)
        drawn.append(chunk(spec, *dim, ci, n, degenerate and (ci + 1) * CHUNK_SIZE >= spec.count))
    return tuple(np.concatenate(part) for part in zip(*drawn))


def _disk_stream(spec):
    """The disk-pair stream of a bare ``verify_*`` call, drawn on every read."""
    return harness._stream(spec, partial(harness._disk_pairs, spec), harness._sigma)


def _held_disk_stream(spec):
    """The disk-pair stream of a suite row: its draws held, each chunk drawn by its first read."""
    pairs = harness._held(spec, partial(harness._disk_pairs, spec))
    return harness._stream(spec, pairs, harness._sigma)


def _ball_stream(spec, dim):
    """The ball-pair stream of dimension ``dim``, as an ``abs_beta_ball`` row reads it."""
    return harness._stream(spec, partial(harness.ball_pair_chunk, spec, dim), ball.beta)


class TestSampling:
    def test_chunk_content_depends_only_on_seed_and_index(self):
        spec_a = SampleSpec(count=10_000, seed=5)
        spec_b = SampleSpec(count=2 * CHUNK_SIZE + 99, seed=5)
        za, wa = disk_pair_chunk(spec_a, CHUNK_SIZE, 2 * CHUNK_SIZE)
        zb, wb = disk_pair_chunk(spec_b, CHUNK_SIZE, 2 * CHUNK_SIZE)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(wa, wb)
        # the chunk's rows of a longer read are the same
        z3, w3 = disk_pair_chunk(spec_a, 0, 3 * CHUNK_SIZE)
        np.testing.assert_array_equal(z3[CHUNK_SIZE : 2 * CHUNK_SIZE], za)
        np.testing.assert_array_equal(w3[CHUNK_SIZE : 2 * CHUNK_SIZE], wa)

    def test_final_pair_is_degenerate(self):
        spec = SampleSpec(count=100)
        for stream in (_disk_stream(spec), _held_disk_stream(spec)):
            z, w, _ = stream(0, 100)
            assert z[-1] == w[-1]
            assert np.all(z[:-1] != w[:-1])
        z, w, _ = _ball_stream(spec, 2)(0, 100)
        assert (z[-1] == w[-1]).all()
        assert np.all((z[:-1] != w[:-1]).any(axis=-1))
        # the draws themselves have none: it is the stream's
        z, w = disk_pair_chunk(spec, 0, 100)
        assert np.all(z != w)

    def test_radius_cap_respected(self):
        for scheme in ("uniform_disk", "boundary_biased"):
            z, w = disk_pair_chunk(SampleSpec(count=500, scheme=scheme, radius_cap=0.9), 0, 500)
            assert max(np.max(np.abs(z)), np.max(np.abs(w))) <= 0.9 + 1e-15

    def test_polar_grid_layout(self):
        g = polar_grid(11, 7, 0.95)
        assert g.shape == (77,)
        assert np.min(np.abs(g)) == 0.0
        assert np.max(np.abs(g)) <= 0.95 + 1e-15

    @pytest.mark.parametrize("scheme", ["uniform_disk", "boundary_biased"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_ball_draw_has_the_bits_of_the_complex_expression(self, scheme, dim):
        def complex_draw(spec, dim, ci, n):  # the reference, in complex arithmetic
            rng = np.random.default_rng([spec.seed, dim, ci])
            g = rng.standard_normal((2, n, dim, 2))
            u = rng.random((2, n))
            vec = g[..., 0] + 1j * g[..., 1]
            norms = np.maximum(ball.norm(vec), 1e-300)
            r = harness._radius(spec, u, ball_dim=dim)
            pts = vec / norms[..., np.newaxis] * r[..., np.newaxis]
            return pts[0], pts[1]

        for ci in range(40):
            spec = SampleSpec(count=40 * CHUNK_SIZE - 3, seed=ci % 5, scheme=scheme)
            n = CHUNK_SIZE - 3 if ci == 39 else CHUNK_SIZE
            a = ci * CHUNK_SIZE
            drawn = harness.ball_pair_chunk(spec, dim, a, a + n)
            for new, old in zip(drawn, complex_draw(spec, dim, ci, n)):
                assert new.shape == old.shape == (n, dim)
                assert new.tobytes() == old.tobytes()


class TestBlockDraws:
    """A read draws its chunks in one call, with the bits of the chunks drawn one at a time."""

    # three full blocks and a partial one, whose last chunk is partial
    COUNT = 3 * 16 * CHUNK_SIZE + 2 * CHUNK_SIZE + 77

    def _reads(self, count):
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        bounds = [(a, min(a + block, count)) for a in range(0, count, block)]
        # a chunk alone, the stream's last chunk alone, and the whole stream in one read
        last = (count - 1) // CHUNK_SIZE * CHUNK_SIZE
        return bounds + [(CHUNK_SIZE, 2 * CHUNK_SIZE), (last, count), (0, count)]

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_disk(self, scheme):
        spec = SampleSpec(count=self.COUNT, seed=11, scheme=scheme)
        for a, b in self._reads(spec.count):
            got = disk_pair_chunk(spec, a, b)
            want = _reference_rows(_reference_disk_chunk, spec, a, b, degenerate=False)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        # the stream's last pair, and only that one, is degenerate, drawn on
        # every read or held
        want = _reference_rows(_reference_disk_chunk, spec, 0, spec.count)
        for stream in (_disk_stream(spec), _held_disk_stream(spec)):
            z, w, _ = stream(0, spec.count)
            assert [z.tobytes(), w.tobytes()] == [x.tobytes() for x in want]
            assert z[-1] == w[-1] and np.all(z[:-1] != w[:-1])

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_ball(self, scheme, dim):
        spec = SampleSpec(count=self.COUNT, seed=12, scheme=scheme)
        stream = _ball_stream(spec, dim)
        for a, b in self._reads(spec.count):
            got = harness.ball_pair_chunk(spec, dim, a, b)
            want = _reference_rows(_reference_ball_chunk, spec, a, b, dim, degenerate=False)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            z, w, d = stream(a, b)  # the degenerate pair only where a read ends the stream
            want = _reference_rows(_reference_ball_chunk, spec, a, b, dim)
            assert [z.tobytes(), w.tobytes()] == [x.tobytes() for x in want]
            assert d.tobytes() == ball.beta(*want).tobytes()
            equal = (z == w).all(axis=-1)
            assert equal.tolist() == [b == spec.count and i == b - a - 1 for i in range(b - a)]

    @pytest.mark.parametrize("count", [100, 128, 5 * CHUNK_SIZE])
    def test_proof_chain_keeps_its_pairs(self, monkeypatch, count):
        # its 128 pairs are the first rows of chunk 0, with no degenerate pair
        # even where they end the stream
        spec = SampleSpec(count=count, seed=3)
        case = InequalityCase(
            id="proof_chain:strip_map:strip",
            function=get("strip_map"),
            target=strip_weight(),
            tol_abs=1e-12,
        )
        got = verify_proof_chain(case, spec)
        chunk = partial(_reference_rows, _reference_disk_chunk, degenerate=False)
        monkeypatch.setattr(harness, "disk_pair_chunk", chunk)
        want = verify_proof_chain(case, spec)
        assert got.to_dict() == want.to_dict()
        assert got.margins.tobytes() == want.margins.tobytes()
        assert got.samples_used == min(count, 128)
        z, w = chunk(spec, 0, min(count, CHUNK_SIZE))
        assert np.all(z[:128] != w[:128])


class TestMapChunks:
    """The calling thread and ``workers - 1`` started threads, but no more threads than blocks, run the blocks."""

    BLOCKS = 40

    @pytest.fixture
    def spec(self, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_CHUNKS", 1)  # one chunk a block: 40 blocks
        return SampleSpec(count=self.BLOCKS * CHUNK_SIZE)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_lower_failing_block_raises_and_no_block_starts_after(self, spec, workers):
        # Block 3 fails after block 6 has failed (when another thread can
        # reach block 6 meanwhile); the error raised is block 3's, as a
        # serial loop would raise it.
        lock = threading.Lock()
        started, after = [], []  # blocks started; those started once a failure was raised
        six_failed = threading.Event()

        def one(a, b):
            k = a // CHUNK_SIZE
            with lock:
                started.append(k)
                if six_failed.is_set():
                    after.append(k)
            if k == 3:
                if workers > 1:
                    assert six_failed.wait(timeout=30)
                raise ValueError("block 3")
            if k == 6:
                six_failed.set()
                raise RuntimeError("block 6")

        with pytest.raises(ValueError, match="block 3"):
            harness._map_chunks(spec, one, workers)
        if workers == 1:
            assert started == [0, 1, 2, 3]
        else:
            assert sorted(started)[:7] == list(range(7))
            # only a thread that had passed its check before block 6 raised
            # starts one block more
            assert len(after) <= workers - 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_run_on_the_caller_and_workers_minus_one_threads(self, spec, workers):
        threads = []

        def one(a, b):
            threads.append(threading.get_ident())
            time.sleep(0.002)  # lets every thread take blocks

        harness._map_chunks(spec, one, workers)
        assert len(threads) == self.BLOCKS
        assert len(set(threads)) == workers
        assert threading.get_ident() in threads

    def test_one_worker_starts_no_thread(self, spec, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was created")

        monkeypatch.setattr(threading, "Thread", no_thread)
        rows = []
        harness._map_chunks(spec, lambda a, b: rows.append((a, b)), 1)
        assert rows == [(a, a + CHUNK_SIZE) for a in range(0, spec.count, CHUNK_SIZE)]

    @pytest.mark.parametrize("blocks,workers,threads", [(1, 4, 0), (3, 8, 2), (3, 2, 1)])
    def test_no_thread_starts_that_can_get_no_block(self, monkeypatch, blocks, workers, threads):
        # a pass starts min(workers, blocks) - 1 threads; the blocks keep their rows
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        count, rows = (blocks - 1) * block + 7, []
        harness._map_chunks(SampleSpec(count=count), lambda a, b: rows.append((a, b)), workers)
        assert len(started) == threads
        assert sorted(rows) == [(a, min(a + block, count)) for a in range(0, count, block)]

    def test_more_workers_than_blocks(self):
        # 2,051 samples are one block; the two threads beside the caller find none
        serial = run_suite(default_config(count=2051, workers=1))
        result = run_suite(default_config(count=2051, workers=3))
        assert result.data_json() == serial.data_json()
        assert result.margins_csv() == serial.margins_csv()


class TestCaseIds:
    def test_case_id_join(self):
        assert CaseSpec(op="re_contraction", function="strip_map", weight="strip").case_id == (
            "re_contraction:strip_map:strip"
        )
        assert CaseSpec(op="abs_inequalities").case_id == "abs_inequalities"

    def test_default_config_ids_unique(self):
        cfg = default_config()
        ids = [cs.case_id for cs in cfg.cases]
        assert len(ids) == len(set(ids))


class TestValidation:
    def test_default_config_is_clean(self):
        assert validate_config(default_config()) == []

    def test_all_errors_reported_at_once(self):
        cfg = SuiteConfig(
            sample=SampleSpec(count=10),
            cases=(
                CaseSpec(op="nope"),
                CaseSpec(op="re_contraction", function="strip_map"),
                CaseSpec(op="re_contraction", function="ghost", weight="strip"),
                CaseSpec(op="kv_factor", function="cayley"),
            ),
        )
        errors = validate_config(cfg)
        assert len(errors) == 4
        text = "\n".join(errors)
        assert "unknown op" in text
        assert "missing weight" in text
        assert "unknown catalog function" in text
        assert "Re-image must be (-1, 1)" in text

    def test_codomain_weight_compatibility(self):
        # cayley maps into the right half-plane; the strip weight on (-1, 1)
        # cannot host its Re-image
        cfg = SuiteConfig(
            sample=SampleSpec(count=10),
            cases=(CaseSpec(op="re_contraction", function="cayley", weight="strip"),),
        )
        errors = validate_config(cfg)
        assert len(errors) == 1 and "not contained" in errors[0]

    def test_run_suite_raises_config_error(self):
        cfg = SuiteConfig(sample=SampleSpec(count=10), cases=(CaseSpec(op="nope"),))
        with pytest.raises(ConfigError) as exc:
            run_suite(cfg)
        assert exc.value.errors and "unknown op" in exc.value.errors[0]

    def test_factor_only_on_kv_factor(self):
        cases = (
            CaseSpec(op="re_contraction", function="strip_map", weight="strip", factor=7),
            CaseSpec(op="schwarz_pick", function="blaschke", factor=2.0),
            CaseSpec(op="abs_inequalities", factor=1.0),
            CaseSpec(op="kv_factor", function="strip_map", factor=7),
        )
        errors = validate_config(SuiteConfig(sample=SampleSpec(count=10), cases=cases))
        assert errors == [
            "re_contraction:strip_map:strip: re_contraction takes no factor",
            "schwarz_pick:blaschke: schwarz_pick takes no factor",
            "abs_inequalities: abs_inequalities takes no factor",
        ]

    @pytest.mark.parametrize("workers", [0, 65, 10**6, 2.0, "2", True, None])
    def test_workers_must_be_an_integer_up_to_the_cap(self, workers):
        # validation only: a config this checks is never run
        cfg = SuiteConfig(
            sample=SampleSpec(count=10), cases=(CaseSpec(op="abs_inequalities"),), workers=workers
        )
        errors = validate_config(cfg)
        assert errors == [f"workers: {workers!r} is not an integer in 1..64"]

    def test_workers_cap_is_inclusive(self):
        cfg = SuiteConfig(
            sample=SampleSpec(count=10), cases=(CaseSpec(op="abs_inequalities"),), workers=64
        )
        assert validate_config(cfg) == []

    def test_empty_suite_rejected(self):
        assert validate_config(SuiteConfig(sample=SampleSpec(count=10), cases=())) == [
            "cases: empty suite"
        ]


class TestReContraction:
    def test_passes_for_strip_map(self):
        case = InequalityCase(
            id="re_contraction:strip_map:strip",
            function=get("strip_map"),
            target=strip_weight(),
        )
        rep = verify_re_contraction(case, SampleSpec(count=2048))
        assert rep.status == "pass"
        assert rep.samples_used == 2048
        assert rep.min_margin >= -1e-9
        # stream ends with the degenerate pair, whose margin is exactly zero
        assert rep.margins[-1] == 0.0

    def test_passes_for_cayley_half_plane(self):
        case = InequalityCase(
            id="re_contraction:cayley:half_plane",
            function=get("cayley"),
            target=half_plane_weight(),
        )
        rep = verify_re_contraction(case, SampleSpec(count=2048))
        assert rep.status == "pass"
        assert rep.min_margin >= -1e-9

    def test_spot_pair_consistent_with_modules(self):
        # one concrete pair away from the harness: the weighted distance of
        # the Re-images must sit below the hyperbolic distance
        f = get("strip_map")
        w = strip_weight()
        z, zw = 0.1 + 0.2j, -0.5 + 0.4j
        lhs = omega_distance(w, float(np.real(f.eval(z))), float(np.real(f.eval(zw))))
        assert lhs <= float(sigma(z, zw))

    def test_curvature_gate(self):
        # 2/(1-t^2) has curvature -(1+t^2)/2 > -1: hypothesis fails cleanly
        case = InequalityCase(
            id="re_contraction:strip_map:disk_diameter",
            function=get("strip_map"),
            target=disk_diameter_weight(),
        )
        rep = verify_re_contraction(case, SampleSpec(count=64))
        assert rep.status == "hypothesis-not-met"
        assert rep.samples_used == 0
        assert rep.min_margin is None
        assert rep.extras["required"] == "curv_w <= -1"
        assert rep.extras["max_curvature"] == pytest.approx(-0.5, abs=1e-6)


class TestPointwiseGradient:
    def test_strip_map_touches_but_never_exceeds_one(self):
        case = InequalityCase(
            id="pointwise_gradient:strip_map:strip",
            function=get("strip_map"),
            target=strip_weight(),
        )
        rep = verify_pointwise_gradient(case)
        assert rep.status == "pass"
        assert rep.extras["max_lhs"] <= 1.0 + 1e-9
        # the bound is saturated (equality case), not slack
        assert rep.extras["max_lhs"] > 1.0 - 1e-6

    def test_cayley_half_plane(self):
        case = InequalityCase(
            id="pointwise_gradient:cayley:half_plane",
            function=get("cayley"),
            target=half_plane_weight(),
        )
        rep = verify_pointwise_gradient(case)
        assert rep.status == "pass"
        assert rep.extras["max_lhs"] <= 1.0 + 1e-9


class TestSchwarzPick:
    def test_blaschke_is_an_isometry(self):
        case = InequalityCase(id="schwarz_pick:blaschke", function=get("blaschke"))
        rep = verify_schwarz_pick(case, SampleSpec(count=4096))
        assert rep.status == "pass"
        assert float(np.max(np.abs(rep.margins))) < 1e-10

    def test_constant_map_collapses_lhs(self):
        case = InequalityCase(id="schwarz_pick:constant", function=get("constant"))
        rep = verify_schwarz_pick(case, SampleSpec(count=1024))
        assert rep.status == "pass"
        assert rep.min_margin >= 0.0


class TestPavlovic:
    def test_identity_zero_branch_at_origin(self):
        case = InequalityCase(id="pavlovic:identity", function=get("identity"))
        rep = verify_pavlovic(case)
        assert rep.status == "pass"
        assert rep.extras["n_zero_branch"] >= 1
        # at the origin both sides equal 1, so the zero-branch margin is 0
        assert rep.extras["min_margin_zero"] == pytest.approx(0.0, abs=1e-15)

    def test_blaschke_tight(self):
        # the zero of this factor misses the grid, so only the nonzero branch
        # is exercised; equality still holds there up to rounding
        case = InequalityCase(id="pavlovic:blaschke", function=get("blaschke"))
        rep = verify_pavlovic(case)
        assert rep.status == "pass"
        assert rep.extras["n_nonzero_branch"] == rep.samples_used
        assert rep.min_margin >= -1e-9


THEOREM_2_MAPS = ("identity", "constant", "blaschke", "blaschke_product", "power", "scaled_exp")
RADIUS_CAP = SampleSpec(count=1).radius_cap


def _dilation(f, z):
    """|f'(z)| (1 - |z|^2) / (1 - |f(z)|^2): the ratio of the two sides ``verify_pavlovic`` forms."""
    return np.abs(f.deriv(z)) * (1.0 - np.abs(z) ** 2) / (1.0 - np.abs(f.eval(z)) ** 2)


@cache
def _sup_dilation(name):
    """The sup of ``_dilation`` over the capped disk: a 2001 x 721 polar grid, refined from its argmax.

    The refinement's radius is bounded by the cap, so it stays in the disk
    the pairs are drawn from.
    """
    from scipy import optimize

    f = get(name)
    r = np.linspace(0.0, RADIUS_CAP, 2001)
    theta = np.linspace(0.0, 2.0 * math.pi, 721, endpoint=False)
    best, start = -math.inf, None
    for a in range(0, len(r), 250):  # 250 radii at a time bound the temporaries
        d = _dilation(f, r[a : a + 250, np.newaxis] * np.exp(1j * theta))
        i, j = np.unravel_index(np.argmax(d), d.shape)
        if d[i, j] > best:
            best, start = float(d[i, j]), (r[a + i], theta[j])
    refined = optimize.minimize(
        lambda p: -float(_dilation(f, p[0] * np.exp(1j * p[1]))),
        start,
        method="L-BFGS-B",
        bounds=[(0.0, RADIUS_CAP), (None, None)],
    )
    assert 0.0 <= refined.x[0] <= RADIUS_CAP
    return max(best, -refined.fun)


class TestTheorem2Oracle:
    """The pair ratios sigma(f z, f w)/sigma(z, w) and their modulus form stay below the grid's dilation.

    sigma-geodesics between points of the capped disk stay in it, so the
    Lipschitz constant of f there is the sup of its pointwise dilation.  The
    pairs read f through ``eval`` and ``sigma``, the dilation through
    ``deriv``: a kernel error on either side shows here even for maps whose
    ratios stay far below 1, where ``lhs <= rhs`` hides it.
    """

    @pytest.mark.parametrize("name", THEOREM_2_MAPS)
    @pytest.mark.parametrize("op", ["schwarz_pick", "modulus_contraction"])
    def test_pair_sup_ratio_is_at_most_the_sup_dilation(self, op, name, monkeypatch):
        ratios = []
        original = harness._verify_pairs

        def with_ratios(case, spec, workers, sides, on_block=None, stream=None, **kwargs):
            def ratio(a, z, w, lhs, d):
                apart = d > 0  # the degenerate last pair has no ratio
                ratios.append(np.max(lhs[apart] / d[apart], initial=0.0))

            return original(case, spec, workers, sides, ratio, stream, **kwargs)  # kwargs: the map f

        monkeypatch.setattr(harness, "_verify_pairs", with_ratios)
        case = InequalityCase(id=f"{op}:{name}", function=get(name))
        bound = _sup_dilation(name) * (1 + 1e-12)
        for seed in (0, 63, 101):
            ratios.clear()
            rep = getattr(harness, f"verify_{op}")(case, SampleSpec(count=20_000, seed=seed))
            assert rep.status == "pass" and len(ratios) == 2  # 20,000 samples: two blocks
            assert max(ratios) <= bound, (seed, max(ratios), bound)

    @pytest.mark.parametrize(
        "name, sup",
        [
            ("identity", 1.0),
            ("constant", 0.0),
            ("blaschke", 1.0),
            ("blaschke_product", 0.999928),
            ("power", 0.593567),
            ("scaled_exp", 0.301656),
        ],
    )
    def test_sup_dilation(self, name, sup):
        assert _sup_dilation(name) == pytest.approx(sup, abs=1e-6)


class TestKvFactor:
    def test_four_over_pi_passes(self):
        case = InequalityCase(id="kv_factor:strip_map", function=get("strip_map"), factor=KV_FACTOR)
        rep = verify_kv_factor(case, SampleSpec(count=4096, scheme="boundary_biased"))
        assert rep.status == "pass"
        assert 1.0 < rep.extras["sup_ratio"] <= KV_FACTOR + 1e-9
        assert len(rep.extras["sup_ratio_pair"]) == 2

    def test_factor_one_is_violated(self):
        # shrinking the factor to 1 must produce violations: the sup of the
        # ratio genuinely exceeds 1
        case = InequalityCase(id="kv_factor:strip_map", function=get("strip_map"), factor=1.0)
        rep = verify_kv_factor(case, SampleSpec(count=2048, scheme="boundary_biased"))
        assert rep.status == "violated"
        assert len(rep.violations) > 0
        v = rep.violations[0]
        assert set(v) == {"index", "z", "w", "lhs", "rhs", "margin"}
        tol = case.tol_abs + case.tol_rel * abs(v["rhs"])
        assert v["margin"] < -tol
        assert rep.margins[v["index"]] == v["margin"]


# Three full blocks and a partial one.
BLOCKS_COUNT = 3 * harness.BLOCK_CHUNKS * CHUNK_SIZE + 1500


class TestBlockReduction:
    """Block-reduced results against their full-array references."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("lhs_kind", ["theorem", "nan_in_later_blocks", "all_zero"])
    def test_kv_sup_ratio_is_the_full_array_argmax(self, monkeypatch, workers, lhs_kind):
        spec = SampleSpec(count=BLOCKS_COUNT, seed=3, scheme="boundary_biased")
        f = get("strip_map")
        z, w, s = _disk_stream(spec)(0, spec.count)
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        # NaN only at rows of the second and fourth block: the first NaN wins
        nan_at = f.eval(z[[block + 77, 3 * block + 5]])
        lhs_of = {
            "theorem": harness._re_lhs(disk_diameter_weight()),
            "nan_in_later_blocks": lambda fz, fw: np.where(np.isin(fz, nan_at), np.nan, 0.0),
            "all_zero": lambda fz, fw: np.zeros(len(fz)),  # ties everywhere: the first row wins
        }[lhs_kind]
        monkeypatch.setattr(harness, "_re_lhs", lambda weight: lhs_of)
        case = InequalityCase(id="kv_factor:strip_map", function=f, factor=KV_FACTOR)
        with np.errstate(invalid="ignore"):
            rep = verify_kv_factor(case, spec, workers)
            lhs = lhs_of(f.eval(z), f.eval(w))
            ratio = np.where(s > 0.0, lhs / np.where(s > 0.0, s, 1.0), 0.0)
        i = int(np.argmax(ratio))
        if lhs_kind != "theorem":  # the rule itself, not only agreement with it
            assert i == {"nan_in_later_blocks": block + 77, "all_zero": 0}[lhs_kind]
        assert np.float64(rep.extras["sup_ratio"]).tobytes() == ratio[i].tobytes()
        assert rep.extras["sup_ratio_pair"] == [
            harness._serialize_point(z[i]),
            harness._serialize_point(w[i]),
        ]

    def test_part_minima_are_the_full_array_ones(self):
        # pavlovic's branches and the proof chain's links reduce this way; their
        # passes have one block, so blocks in any order are checked here
        rng = np.random.default_rng(1)
        m = rng.standard_normal(5000)
        zero = rng.random(5000) < 0.01
        zero[:2000] = False  # a part empty in the first blocks
        m[np.nonzero(~zero)[0][3900]] = np.nan  # a NaN in a later block of the other part
        on_block = harness._part_mins(lambda z, w, lhs, d: (lhs[d], lhs[~d], lhs[:0]), lambda n, low: (n, low))
        for a in (3000, 0, 1000, 4000, 2000):
            on_block(a, None, None, m[a : a + 1000], zero[a : a + 1000])
        sizes, lows = on_block.extras()
        assert sizes == [int(zero.sum()), int((~zero).sum()), 0]
        assert lows[0] == float(np.min(m[zero])) and np.isnan(lows[1]) and lows[2] is None

    def test_violation_sides_give_the_block_margin_bits(self):
        spec = SampleSpec(count=BLOCKS_COUNT, seed=11)
        case = InequalityCase(id="schwarz_pick:blaschke_product", function=get("blaschke_product"),
                              factor=0.5)
        rep = verify_schwarz_pick(case, spec, workers=2)
        blocks = {v["index"] // (harness.BLOCK_CHUNKS * CHUNK_SIZE) for v in rep.violations}
        assert blocks == {0, 1, 2, 3}
        for v in rep.violations:
            assert (v["rhs"] - v["lhs"]).hex() == v["margin"].hex()
            assert rep.margins[v["index"]] == v["margin"]


class TestProofChain:
    def test_strip_map_links(self):
        case = InequalityCase(
            id="proof_chain:strip_map:strip",
            function=get("strip_map"),
            target=strip_weight(),
            tol_abs=1e-12,
        )
        rep = verify_proof_chain(case, SampleSpec(count=4096))
        assert rep.status == "pass"
        assert rep.extras["min_first_link"] > -1e-12
        assert rep.extras["min_second_link"] > -1e-12

    def test_cayley_links(self):
        case = InequalityCase(
            id="proof_chain:cayley:half_plane",
            function=get("cayley"),
            target=half_plane_weight(),
            tol_abs=1e-12,
        )
        rep = verify_proof_chain(case, SampleSpec(count=2048))
        assert rep.status == "pass"

    def test_gated_on_curvature(self):
        case = InequalityCase(
            id="proof_chain:strip_map:disk_diameter",
            function=get("strip_map"),
            target=disk_diameter_weight(),
            tol_abs=1e-12,
        )
        rep = verify_proof_chain(case, SampleSpec(count=64))
        assert rep.status == "hypothesis-not-met"


class TestAbsInequalities:
    def test_ids_and_margins(self):
        reports = list(verify_abs_inequalities(SampleSpec(count=2048), dims=(1, 2, 3)))
        assert [r.case_id for r in reports] == [
            "abs_rho_disk",
            "abs_sigma_disk",
            "abs_beta_ball_n1",
            "abs_beta_ball_n2",
            "abs_beta_ball_n3",
        ]
        for r in reports:
            assert r.status == "pass"
            assert r.min_margin >= -1e-12

    def test_dims_subset(self):
        reports = verify_abs_inequalities(SampleSpec(count=256), dims=(2,))
        assert [r.case_id for r in reports] == ["abs_rho_disk", "abs_sigma_disk", "abs_beta_ball_n2"]

    def test_each_report_is_handed_over_before_the_next_is_made(self, monkeypatch):
        events, margins_made = [], []
        original = harness._verify_pairs

        def recording(case, *args, **kwargs):
            # the margins of every earlier report are gone before this one is made
            assert [ref() for ref in margins_made] == [None] * len(margins_made)
            report = original(case, *args, **kwargs)
            events.append(("made", case.id))
            margins_made.append(weakref.ref(report.margins))
            return report

        monkeypatch.setattr(harness, "_verify_pairs", recording)
        config = replace(default_config(count=2048), cases=(CaseSpec(op="abs_inequalities"),))
        result = run_suite(
            config, keep_margins=False, on_margins=lambda case_id, m: events.append(("handed", case_id))
        )
        ids = [r.case_id for r in result.reports]
        assert len(ids) == 5
        assert events == [e for case_id in ids for e in (("made", case_id), ("handed", case_id))]


class TestDeterminism:
    def test_data_json_independent_of_workers(self):
        # odd count exercises a partial final chunk
        r1 = run_suite(default_config(count=4097, workers=1))
        r4 = run_suite(default_config(count=4097, workers=4))
        assert r1.overall_pass and r4.overall_pass
        assert r1.data_json() == r4.data_json()

    def test_chunk_prefix_invariance(self):
        # margins of the first full chunk do not depend on the total count
        case = InequalityCase(id="schwarz_pick:power", function=get("power"))
        small = verify_schwarz_pick(case, SampleSpec(count=CHUNK_SIZE))
        large = verify_schwarz_pick(case, SampleSpec(count=2 * CHUNK_SIZE))
        np.testing.assert_array_equal(small.margins[:-1], large.margins[: CHUNK_SIZE - 1])

    def test_repeat_run_identical(self):
        cfg = default_config(count=1537)
        assert run_suite(cfg).data_json() == run_suite(cfg).data_json()


def _report_of(case, lhs, rhs, keep=True):
    """The report ``_verify_rows`` makes of the sides ``lhs`` and ``rhs`` of each row.

    Its stream's ``d`` is the row numbers, from which the sides read their rows.
    """
    pairs = np.zeros(len(lhs), dtype=complex)
    stream = lambda a, b: (pairs[a:b], pairs[a:b], np.arange(a, b))
    sides = lambda z, w, rows: (lhs[rows], rhs[rows])
    return harness._verify_pairs(case, SampleSpec(count=len(lhs)), 1, sides, stream=stream, keep=keep)


class TestFinalize:
    """The report ``_verify_rows`` makes of a row's margins."""

    def test_mean_of_finite_margins_whose_sum_overflows(self):
        def mean(m):  # rhs - 0.0 is m, bit for bit; without margins kept, the row runs again with them
            kept, dropped = (_report_of(InequalityCase(id="x"), np.zeros(len(m)), m, keep) for keep in (True, False))
            assert kept.mean_margin == dropped.mean_margin
            return kept.mean_margin

        margins = np.array([8e307, 9e307, -1e307, 7e307])
        with np.errstate(over="ignore"):
            assert np.mean(margins) == np.inf
            stats = blockstats.Stats(blockstats.Layout(4, 4), 1e-9)
            stats.add(stats.layout.block(0, 4), margins, 0.0)
            assert stats.overflows
            assert mean(margins) == pytest.approx(5.75e307, rel=1e-15)
            # a finite plain mean keeps its bits; an infinite margin keeps its mean
            small = np.random.default_rng(2).standard_normal(1000)
            assert mean(small) == float(np.mean(small))
            assert mean(np.append(margins, np.inf)) == np.inf

    @pytest.mark.parametrize("tol_rel", [-1e-9, -math.inf, math.nan])
    def test_rejects_a_negative_or_nan_tol_rel(self, tol_rel):
        with pytest.raises(ValueError, match="tol_rel must be >= 0"):
            InequalityCase(id="x", tol_rel=tol_rel)

    def test_violations_are_those_of_the_full_tolerance(self):
        rng = np.random.default_rng(5)
        rhs = rng.uniform(0.0, 2.0, 4096)
        lhs = rhs + rng.normal(scale=3e-9, size=4096)
        rhs[:4] = [np.inf, np.nan, 0.0, 1e12]
        # Below -tol_abs but inside the relative tolerance; a NaN and infinite left sides.
        lhs[3:7] = [1e12 + 500.0, np.nan, np.inf, -np.inf]
        case = InequalityCase(id="x", tol_abs=1e-9, tol_rel=1e-9)
        with np.errstate(invalid="ignore"):
            margins = rhs - lhs
            report = _report_of(case, lhs, rhs)
            want = np.nonzero(margins < -(case.tol_abs + case.tol_rel * np.abs(rhs)))[0]
        assert 100 < len(want) < 4000
        assert 3 not in want
        assert [v["index"] for v in report.violations] == want.tolist()


# sha256 of the default suite's data JSON and margins CSV at 10k samples,
# captured before the checkers were folded into one pair driver; any change
# to sampling, arithmetic order or report layout moves these bytes
GOLDEN_10K = {
    101: (
        "517fe51c92dd463bb7ee9e74f60d0819c8f98ce22027a4d1a47749b31e24b8ba",
        "9f4683aa4a324546cb16de86143737f867b92bc7497e67265545f599d59f4ab2",
    ),
    7: (
        "596c5b5110527899f206c075cf7460d44f72fdff6185554c7e244d418a903c7b",
        "ce25fc83d1d57d94bce0af90beae75a80534f0767dddbc957d97044101ff78f4",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", sorted(GOLDEN_10K))
def test_default_suite_matches_golden_hashes(seed, workers):
    result = run_suite(default_config(seed=seed, count=10_000, workers=workers))
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (result.data_json(), result.margins_csv())
    )
    assert digests == GOLDEN_10K[seed]


def test_cli_csv_file_matches_golden_hash(tmp_path, capsys):
    path = tmp_path / "margins.csv"
    rc = main(["verify", "--count", "10000", "--seed", "101", "--csv-out", str(path)])
    capsys.readouterr()
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_10K[101][1]


# sha256 of the data JSON of the default cases on boundary-biased samples
# capped 2e-9 from the rim.  Neither golden above has a violation; this one
# has the violation records of pointwise_gradient on strip_map (61) and on
# cayley (57), whose grid reaches the cap: the rim defect of ROADMAP item 7.
# Mending item 7 moves these bytes on purpose.
GOLDEN_RIM = "9c796b4c20e4c4dcb5fac82d965b9109243a53eb459618897e26e5018caefe33"


@pytest.mark.parametrize("keep_margins", [True, False])
def test_rim_suite_with_grid_violations_matches_its_golden_hash(keep_margins):
    sample = SampleSpec(count=20_000, scheme="boundary_biased", radius_cap=0.999999998)
    result = run_suite(SuiteConfig(sample=sample, cases=default_config().cases), keep_margins=keep_margins)
    violated = {r.case_id: len(r.violations) for r in result.reports if r.status != "pass"}
    assert violated == {"pointwise_gradient:strip_map:strip": 61, "pointwise_gradient:cayley:half_plane": 57}
    assert hashlib.sha256(result.data_json().encode()).hexdigest() == GOLDEN_RIM


def _report(case_id, margins):
    margins = None if margins is None else np.asarray(margins, dtype=float)
    return VerificationReport(
        case_id=case_id, status="pass", samples_used=0, min_margin=None, mean_margin=None,
        violations=(), seed=0, wall_time=0.0, margins=margins,
    )


def _per_row_csv(result):
    """The CSV as the per-row formula wrote it before the block writer."""
    rows = ["case_id,sample_index,margin\n"]
    for r in result.reports:
        if r.margins is not None:
            rows += [f"{r.case_id},{i},{m!r}\n" for i, m in enumerate(r.margins.tolist())]
    return "".join(rows)


SPECIAL_MARGINS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16,
                   123456789012345680.0, -1.5, 2.0 ** -1074 * 3, 0.1]


@pytest.fixture
def crafted_result():
    rng = np.random.default_rng(4)
    scales = 10.0 ** rng.integers(-20, 20, 25)
    a = np.concatenate([SPECIAL_MARGINS, rng.standard_normal(25) * scales])
    b = rng.standard_normal(23)
    return SuiteResult(
        overall_pass=True,
        seed=0,
        wall_time=0.0,
        reports=(
            _report("a", a),
            _report("b", b),
            _report("gone", None),
            _report("zeros", np.zeros(9)),
            _report("a_again", a.copy()),  # the same bits, not next to "a"
            _report("empty", []),
            _report("negative_zeros", -np.zeros(9)),  # equal in value to "zeros", not in bits
            _report("short", a[:3]),
            _report("gone_too", None),
            _report("b_again", b.copy()),
            _report("a_last", a.copy()),
            _report("zeros_again", np.zeros(9)),
        ),
    )


@pytest.fixture(scope="module")
def suite_3000():
    return run_suite(default_config(count=3000))


class TestMarginsCsv:
    @pytest.mark.parametrize("block_rows", [7, reprs.CSV_BLOCK_ROWS])
    def test_bytes_of_the_per_row_formula(self, crafted_result, monkeypatch, block_rows):
        monkeypatch.setattr(reprs, "CSV_BLOCK_ROWS", block_rows)
        text = crafted_result.margins_csv()
        assert text == _per_row_csv(crafted_result)
        assert "negative_zeros,0,-0.0\n" in text and "zeros,0,0.0\n" in text
        assert "a,5,5e-324\n" in text and "a_last,8,1.2345678901234568e+17\n" in text

    def test_index_digits_grow_with_the_columns(self, crafted_result, monkeypatch):
        monkeypatch.setattr(reprs, "CSV_BLOCK_ROWS", 7)
        reports = sorted(
            crafted_result.reports, key=lambda r: 0 if r.margins is None else len(r.margins)
        )
        shortest_first = replace(crafted_result, reports=tuple(reports))
        assert shortest_first.margins_csv() == _per_row_csv(shortest_first)

    @pytest.mark.parametrize("count", [0, 1, 10, 11, 1001, 100_001])
    def test_index_digits_are_the_row_numbers(self, count):
        # a column's row numbers, written a block at a time, as the writer does
        width = len(str(max(count - 1, 0)))
        rows = np.zeros((count, width + 1), dtype=np.uint8)
        rows[:, -1] = ord(",")
        for a in range(0, count, 1000):
            reprs._row_numbers(rows[a : a + 1000, :-1], a)
        text = rows.tobytes().translate(None, b"\0").decode()
        assert text == "".join(f"{i}," for i in range(count))

    @pytest.mark.parametrize(
        "first, n",
        [
            (0, 1),
            (9, 2),  # 9 and 10
            (reprs.CSV_BLOCK_ROWS - 1, 2),  # the last row of a block and the first of the next
            (6 * reprs.CSV_BLOCK_ROWS, reprs.CSV_BLOCK_ROWS),  # 99,999 and 100,000 inside a block
            (10**8 - 2, 4),  # nine digits: two words
            (10**16 - 2, 4),  # seventeen digits: three words
            # the last rows of the longest stream a SampleSpec accepts
            (np.iinfo(np.intp).max // np.dtype(complex).itemsize - 3, 3),
        ],
    )
    def test_row_numbers_at_a_block_offset(self, first, n):
        width = len(str(first + n - 1))
        rows = np.full((n, width + 2), 0xFF, dtype=np.uint8)
        field = rows[:, 1:-1]  # rows that are not contiguous, as in the writer's buffer
        reprs._row_numbers(field, first)
        want = b"".join(str(i).encode().rjust(width, b"\0") for i in range(first, first + n))
        assert field.tobytes() == want
        assert (rows[:, 0] == 0xFF).all() and (rows[:, -1] == 0xFF).all()

    def test_a_column_costs_one_block(self):
        # What add() holds beside the margins: the row buffer of one block and
        # that block's temporaries.  Measured at 1M rows: peaks of 2.1 MB, and
        # 2.5 MB when the call builds the formatter's tables.  With the index
        # digits that the writer once kept across cases (7 MB here), 11.0 MB.
        margins = np.random.default_rng(1).standard_normal(1_000_000)
        written = []

        class Sink:
            def write(self, data):
                written.append(len(data))

        tracemalloc.start()
        try:
            reprs.MarginsCsv(Sink()).add("a_case", margins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(written) == 1 + -(-len(margins) // reprs.CSV_BLOCK_ROWS)
        assert peak <= 3e6

    def test_file_holds_the_same_text(self, crafted_result, tmp_path, monkeypatch):
        monkeypatch.setattr(reprs, "CSV_BLOCK_ROWS", 7)
        path = tmp_path / "margins.csv"
        with open(path, "wb") as fh:
            crafted_result.write_margins_csv(fh)
        assert path.read_text(encoding="utf-8") == crafted_result.margins_csv()

    def test_no_margins_is_the_header_alone(self):
        empty = SuiteResult(overall_pass=True, reports=(_report("x", None),), seed=0, wall_time=0.0)
        assert empty.margins_csv() == "case_id,sample_index,margin\n"

    def test_default_suite(self, suite_3000, monkeypatch):
        # Two cases repeat another case bit for bit; the writer formats each column.
        cols = {r.case_id: r.margins.tobytes() for r in suite_3000.reports if r.margins is not None}
        assert cols["schwarz_pick:constant"] == cols["modulus_contraction:constant"]
        assert cols["abs_sigma_disk"] == cols["modulus_contraction:identity"]
        assert len(set(cols.values())) == len(cols) - 2
        monkeypatch.setattr(reprs, "CSV_BLOCK_ROWS", 1000)  # blocks shorter than a column
        # Lines, not one 1.5 MB string: a failure then names the first row that differs.
        text = suite_3000.margins_csv()
        assert text.split("\n") == _per_row_csv(suite_3000).split("\n")
        # The same bytes streamed a case at a time while the suite runs.
        buf = io.BytesIO()
        config = default_config(count=3000)
        streamed = run_suite(config, keep_margins=False, on_margins=reprs.MarginsCsv(buf).add)
        assert all(r.margins is None for r in streamed.reports)
        assert buf.getvalue().decode("ascii") == text

    @pytest.mark.parametrize("workers", [1, 3])
    def test_cli_streams_the_bytes_of_the_kept_margins(self, suite_3000, tmp_path, capsys, workers):
        path = tmp_path / "margins.csv"
        rc = main(["verify", "--count", "3000", "--workers", str(workers), "--csv-out", str(path)])
        capsys.readouterr()
        assert rc == 0
        assert path.read_bytes() == suite_3000.margins_csv().encode()


def _chunks_of(reads):
    """The chunk index of every chunk that the reads ``(a, b)`` cover, read by read."""
    return [ci for a, b in reads for ci in range(a // CHUNK_SIZE, -(-b // CHUNK_SIZE))]


def _held_draws(monkeypatch):
    """Weak references to the ``_held`` draws made from now on, one per ``run_suite`` call.

    Only the reads (and the streams and plan rows that keep them) hold the
    draws, so a dead reference means that the draws are freed.
    """
    refs = []
    original = harness._held

    def recording(spec, pairs):
        read = original(spec, pairs)
        refs.append(weakref.ref(read))
        return read

    monkeypatch.setattr(harness, "_held", recording)
    return refs


class TestSharedDiskStream:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_each_chunk_drawn_once_per_suite(self, monkeypatch, workers):
        # ball dimension 4 sums through np.sum; 1 to 3 add columns one by one
        config = default_config(count=4 * CHUNK_SIZE, workers=workers)
        config = replace(config, ball_dims=(1, 2, 3, 4))
        serial = run_suite(replace(config, workers=1))
        drawn = []  # list.append is atomic; a Counter increment is not
        original = harness.disk_pair_chunk

        def counting(spec, a, b):
            drawn.append((a, b))
            return original(spec, a, b)

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        # one chunk per block, so the threads fill the shared stream and the
        # ball rows side by side
        monkeypatch.setattr(harness, "BLOCK_CHUNKS", 1)
        # frequent thread switches, so a chunk filled twice or half filled would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_suite(config)
        finally:
            sys.setswitchinterval(interval)
        n_proof_chain = sum(cs.op == "proof_chain" for cs in config.cases)
        assert n_proof_chain == 2
        # every chunk once for the shared stream, one read a block; chunk 0
        # again per proof-chain replay
        assert Counter(_chunks_of(drawn)) == {0: 1 + n_proof_chain, 1: 1, 2: 1, 3: 1}
        assert Counter(drawn) == {
            (0, CHUNK_SIZE): 1 + n_proof_chain,
            **{(a, a + CHUNK_SIZE): 1 for a in range(CHUNK_SIZE, 4 * CHUNK_SIZE, CHUNK_SIZE)},
        }
        assert result.overall_pass
        assert result.data_json() == serial.data_json()
        assert result.margins_csv() == serial.margins_csv()

    def test_released_after_the_suite_and_never_set_by_a_bare_call(self, monkeypatch):
        held = _held_draws(monkeypatch)
        run_suite(default_config(count=512))
        assert len(held) == 1 and held[0]() is None
        drawn = []
        original = harness.disk_pair_chunk

        def counting(spec, a, b):
            drawn.append((a, b))
            return original(spec, a, b)

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        case = InequalityCase(id="schwarz_pick:power", function=get("power"))
        spec = SampleSpec(count=2 * CHUNK_SIZE)
        first = verify_schwarz_pick(case, spec)
        second = verify_schwarz_pick(case, spec)
        assert len(held) == 1  # a bare call holds no draws
        # no cache outlives a bare call: each draws its one block again
        assert Counter(_chunks_of(drawn)) == {0: 2, 1: 2}
        assert drawn == [(0, spec.count)] * 2
        np.testing.assert_array_equal(first.margins, second.margins)

    def test_released_after_its_last_read(self, monkeypatch):
        # the default suite ends with abs_inequalities: its disk pair reads the
        # stream last, and the ball reports after them find it gone
        held = _held_draws(monkeypatch)
        seen = []
        original = harness.ball_pair_chunk

        def spying(spec, dim, a, b):
            seen.append((dim, [ref() is None for ref in held]))
            return original(spec, dim, a, b)

        monkeypatch.setattr(harness, "ball_pair_chunk", spying)
        handed = {}  # abs disk report -> whether the draws were freed when it was handed over

        def on_margins(case_id, margins):
            if case_id in ("abs_rho_disk", "abs_sigma_disk"):
                handed[case_id] = held[0]() is None

        # one read per ball stream
        result = run_suite(default_config(count=512), on_margins=on_margins)
        assert result.overall_pass
        assert seen == [(1, [True]), (2, [True]), (3, [True])]
        # freed after the last reading row has made its report, before it is handed over
        assert handed == {"abs_rho_disk": False, "abs_sigma_disk": True}

    def test_released_when_a_case_raises(self, monkeypatch):
        def broken(case, spec, workers):
            raise RuntimeError("boom")

        held = _held_draws(monkeypatch)
        monkeypatch.setattr(harness, "verify_pavlovic", broken)
        with pytest.raises(RuntimeError):
            run_suite(default_config(count=256))
        assert len(held) == 1 and held[0]() is None

    def test_a_failed_gate_draws_nothing(self, monkeypatch):
        # The re_contraction case fails its curvature gate (2/(1-t^2) has
        # curvature above -1), so it draws nothing; the stream goes after the
        # last case that reads it, abs_sigma_disk, before the ball reports run.
        config = SuiteConfig(
            sample=SampleSpec(count=512),
            cases=(
                CaseSpec(op="re_contraction", function="strip_map", weight="disk_diameter"),
                CaseSpec(op="modulus_contraction", function="identity"),
                CaseSpec(op="abs_inequalities"),
            ),
        )
        drawn, seen = [], []
        disk_original, ball_original = harness.disk_pair_chunk, harness.ball_pair_chunk

        def counting(spec, a, b):
            drawn.append((a, b))
            return disk_original(spec, a, b)

        def spying(spec, dim, a, b):
            seen.append((dim, [ref() is None for ref in held]))
            return ball_original(spec, dim, a, b)

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        monkeypatch.setattr(harness, "ball_pair_chunk", spying)
        held = _held_draws(monkeypatch)
        alone = run_suite(replace(config, cases=config.cases[:1]))
        assert alone.reports[0].status == "hypothesis-not-met"
        assert drawn == []  # the failed case draws nothing
        assert len(held) == 1 and held[0]() is None
        held.clear()
        result = run_suite(config)
        assert [r.status for r in result.reports[:2]] == ["hypothesis-not-met", "pass"]
        assert drawn == [(0, 512)]
        assert seen == [(1, [True]), (2, [True]), (3, [True])]

    def test_a_failed_gate_allocates_nothing(self):
        # The held draws are allocated by the first read, so a suite whose
        # only reading row fails its gate never asks for its 32 B a sample.
        config = SuiteConfig(
            sample=SampleSpec(count=10**15),
            cases=(CaseSpec(op="re_contraction", function="strip_map", weight="disk_diameter"),),
        )
        result = run_suite(config)
        assert [r.status for r in result.reports] == ["hypothesis-not-met"]

    def test_released_after_the_last_row_that_reads_it(self, monkeypatch):
        # A failed gate first, the abs reports next, a disk case last: the
        # stream is drawn once, by abs_rho_disk, and held through the ball
        # reports until schwarz_pick:power has made its report.
        spec = SampleSpec(count=3 * CHUNK_SIZE + 5)
        config = SuiteConfig(
            sample=spec,
            cases=(
                CaseSpec(op="re_contraction", function="strip_map", weight="disk_diameter"),
                CaseSpec(op="abs_inequalities"),
                CaseSpec(op="schwarz_pick", function="power"),
            ),
            workers=2,
        )
        drawn, on_held, seen = [], [], []
        disk_original, ball_original = harness.disk_pair_chunk, harness.ball_pair_chunk
        stream_original = harness._stream
        held = _held_draws(monkeypatch)

        def counting(spec, a, b):
            drawn.append((a, b))
            return disk_original(spec, a, b)

        def capturing(spec, pairs, kernel):
            # whether this stream reads the suite's held draws
            on_held.append(len(held) == 1 and pairs is held[0]())
            return stream_original(spec, pairs, kernel)

        def spying(spec, dim, a, b):
            seen.append((dim, held[0]() is not None))
            return ball_original(spec, dim, a, b)

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        monkeypatch.setattr(harness, "_stream", capturing)
        monkeypatch.setattr(harness, "ball_pair_chunk", spying)
        result = run_suite(config)
        assert Counter(_chunks_of(drawn)) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert drawn == [(0, spec.count)]  # one block
        # one held draw, read by the streams of schwarz_pick, abs_rho_disk and
        # abs_sigma_disk; the three ball streams draw their own
        assert len(held) == 1 and on_held.count(True) == 3 and len(on_held) == 6
        assert set(seen) == {(1, True), (2, True), (3, True)}
        assert held[0]() is None
        monkeypatch.undo()
        gated = InequalityCase(
            id="re_contraction:strip_map:disk_diameter",
            function=get("strip_map"),
            target=disk_diameter_weight(),
        )
        power = InequalityCase(id="schwarz_pick:power", function=get("power"))
        bare = [
            verify_re_contraction(gated, spec, 2),
            *verify_abs_inequalities(spec, workers=2),
            verify_schwarz_pick(power, spec, 2),
        ]
        assert [r.status for r in result.reports] == ["hypothesis-not-met"] + ["pass"] * 6
        assert [r.to_dict() for r in result.reports] == [r.to_dict() for r in bare]
        for got, want in zip(result.reports, bare):
            if want.margins is None:
                assert got.margins is None
            else:
                np.testing.assert_array_equal(got.margins, want.margins)

    def test_a_read_forms_sigma_on_its_rows(self, monkeypatch):
        # The stream holds z and w; each read forms sigma, which it looks up on
        # the harness module, on its own rows: a whole block in the margins'
        # pass, a single chunk when rows_at reads a candidate's chunk again.
        spec = SampleSpec(count=BLOCKS_COUNT, seed=9)
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        stream = _held_disk_stream(spec)
        z, w, d = stream(0, spec.count)
        assert d.tobytes() == sigma(z, w).tobytes()
        zb, wb, db = stream(block, 2 * block)
        draws = _reference_rows(_reference_disk_chunk, spec, block, 2 * block)
        assert zb.tobytes() == draws[0].tobytes()
        assert wb.tobytes() == draws[1].tobytes()
        assert db.tobytes() == sigma(zb, wb).tobytes() == d[block : 2 * block].tobytes()

        formed = []  # the row count of every sigma call

        def counting_sigma(a, b, checked=False):
            assert checked  # the pairs were checked where drawn
            formed.append(len(a))
            return sigma(a, b)

        monkeypatch.setattr(harness, "sigma", counting_sigma)
        picks = [5, block + 77, spec.count - 2]  # the last chunk is partial
        sided = []

        def sides(a, b, s):
            sided.append((a, b, s))
            return np.where(np.isin(a, z[picks]), s + 1.0, 0.0), s

        case = InequalityCase(id="x", tol_abs=1e-12, tol_rel=0.0)
        report = harness._verify_pairs(case, spec, 1, sides, stream=stream)
        # three full blocks and a partial one, then the chunks of the three picks
        assert formed == [block] * 3 + [spec.count - 3 * block] + [
            CHUNK_SIZE, CHUNK_SIZE, spec.count % CHUNK_SIZE
        ]
        assert [v["index"] for v in report.violations] == picks
        # the candidates, picked from their re-read chunks, one chunk at a time
        zr, wr, dr = (np.concatenate(part) for part in zip(*sided[-3:]))
        assert zr.tobytes() == z[picks].tobytes()
        assert dr.tobytes() == d[picks].tobytes() == sigma(zr, wr).tobytes()
        assert [v["rhs"] for v in report.violations] == d[picks].tolist()

    def test_the_fill_checks_the_draws(self, monkeypatch):
        # The reads form sigma unchecked, so a draw outside the admissible
        # disk is refused where it is drawn: at the first read that covers
        # it when the draws are held, and at every read otherwise.
        original = harness.disk_pair_chunk

        def outside(spec, a, b):
            z, w = original(spec, a, b)
            if a <= CHUNK_SIZE + 3 < b:  # row 3 of chunk 1
                w[CHUNK_SIZE + 3 - a] = 1.0
            return z, w

        monkeypatch.setattr(harness, "disk_pair_chunk", outside)
        spec = SampleSpec(count=3 * CHUNK_SIZE)
        held = _held_disk_stream(spec)
        held(0, CHUNK_SIZE)  # chunk 0 alone is admissible
        for read in (held, _disk_stream(spec)):
            with pytest.raises(ValueError, match="outside the admissible disk"):
                read(0, spec.count)
        case = InequalityCase(id="schwarz_pick:power", function=get("power"))
        with pytest.raises(ValueError, match="outside the admissible disk"):
            verify_schwarz_pick(case, spec, workers=2)
        config = SuiteConfig(sample=spec, cases=(CaseSpec(op="schwarz_pick", function="power"),))
        with pytest.raises(ValueError, match="outside the admissible disk"):
            run_suite(replace(config, workers=2))

    def test_a_read_forms_no_distance_for_sides_that_take_none(self, monkeypatch):
        # abs_rho_disk's sides ignore d: of the two disk reads of
        # abs_inequalities, only abs_sigma_disk's forms sigma.
        spec = SampleSpec(count=BLOCKS_COUNT, seed=4)
        expected = [r.to_dict() for r in verify_abs_inequalities(spec, dims=())]
        formed = []

        def counting_sigma(a, b, checked=False):
            formed.append(len(a))
            return sigma(a, b, checked)

        monkeypatch.setattr(harness, "sigma", counting_sigma)
        reports = list(verify_abs_inequalities(spec, dims=()))
        assert [r.to_dict() for r in reports] == expected
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        assert formed == [block] * 3 + [spec.count - 3 * block]

    def test_violations_of_sides_that_take_no_distance_are_recorded(self, monkeypatch):
        # abs_rho_disk's reads give d = None; its violation records read their
        # chunks again and form the sides there, with no distance to pick.
        spec = SampleSpec(count=BLOCKS_COUNT, seed=4)
        z, w, _ = _disk_stream(spec)(0, spec.count)
        targets = [3, harness.BLOCK_CHUNKS * CHUNK_SIZE + 5, spec.count - 1]
        original = harness.rho

        def forced(a, b, checked=False):
            out = original(a, b, checked)
            if np.iscomplexobj(a):  # rho(z, w), the right side, reads -1 at the targets
                out[np.isin(a, z[targets])] = -1.0
            return out

        monkeypatch.setattr(harness, "rho", forced)
        report = next(verify_abs_inequalities(spec, dims=(), workers=2))
        assert report.case_id == "abs_rho_disk"
        assert report.status == "violated"
        assert [v["index"] for v in report.violations] == targets
        for v in report.violations:
            assert v["z"] == harness._serialize_point(z[v["index"]])
            assert v["w"] == harness._serialize_point(w[v["index"]])
            assert v["rhs"] == -1.0
            assert (v["rhs"] - v["lhs"]).hex() == v["margin"].hex()
            assert report.margins[v["index"]] == v["margin"]

    def test_shared_stream_matches_private_draws(self):
        # a suite case reads the shared stream; a bare call draws its own
        config = default_config(count=2 * CHUNK_SIZE + 3)
        suite = {r.case_id: r for r in run_suite(config).reports}
        case = InequalityCase(id="schwarz_pick:power", function=get("power"))
        bare = verify_schwarz_pick(case, config.sample)
        assert bare.to_dict() == suite["schwarz_pick:power"].to_dict()
        np.testing.assert_array_equal(bare.margins, suite["schwarz_pick:power"].margins)
        abs_bare = {r.case_id: r for r in verify_abs_inequalities(config.sample)}
        for case_id in ("abs_rho_disk", "abs_sigma_disk"):
            np.testing.assert_array_equal(abs_bare[case_id].margins, suite[case_id].margins)


# numpy computes a commutative op in place into a right-hand temporary of at
# least this many bytes, with the operands swapped; complex multiply is not
# bitwise commutative, so a kernel that feeds one a temporary moves bytes on
# blocks although it never did on chunks.
ELISION_BYTES = 256 * 1024


def _one_block(pair_chunk, *dim):
    """The pairs of one full block of the stream's own width, drawn chunk by chunk, and its chunk bounds.

    A block of points in C^n is ``max(1, BLOCK_CHUNKS // n)`` chunks.
    """
    n = max(1, harness.BLOCK_CHUNKS // max(dim, default=1)) * CHUNK_SIZE
    spec = SampleSpec(count=n + 1, seed=63)
    z, w = pair_chunk(spec, *dim, 0, n)
    bounds = [(a, a + CHUNK_SIZE) for a in range(0, n, CHUNK_SIZE)]
    return z, w, bounds


@pytest.fixture(scope="module")
def disk_block():
    z, w, bounds = _one_block(disk_pair_chunk)
    assert z.nbytes >= ELISION_BYTES
    return z, w, bounds


def _assert_block_equals_chunks(fn, bounds, *args):
    block = np.asarray(fn(*args))
    chunks = np.concatenate([np.asarray(fn(*(x[a:b] for x in args))) for a, b in bounds])
    assert block.tobytes() == chunks.tobytes()


class TestBlockElision:
    """One block gives the bits of its chunks evaluated one at a time."""

    @pytest.mark.parametrize("name", [f.name for f in catalog()])
    def test_catalog_eval(self, disk_block, name):
        z, _, bounds = disk_block
        _assert_block_equals_chunks(get(name).eval, bounds, z)

    def test_sigma(self, disk_block):
        z, w, bounds = disk_block
        _assert_block_equals_chunks(sigma, bounds, z, w)

    def test_abs_rho(self, disk_block):
        z, w, bounds = disk_block
        _assert_block_equals_chunks(lambda a, b: rho(np.abs(a), np.abs(b)), bounds, z, w)

    @pytest.mark.parametrize(
        "op, function, lhs_of",
        [
            ("re_contraction", "strip_map", harness._re_lhs(strip_weight())),
            ("re_contraction", "cayley", harness._re_lhs(half_plane_weight())),
            ("kv_factor", "strip_map", harness._re_lhs(disk_diameter_weight())),
        ]
        + [
            (op, f.name, lhs_of)
            for f in catalog()
            if f.codomain == "disk"
            for op, lhs_of in (
                ("modulus_contraction", harness._modulus_lhs),
                ("schwarz_pick", sigma),
            )
        ],
    )
    def test_pair_lhs(self, disk_block, op, function, lhs_of):
        assert op in harness.OPS
        z, w, bounds = disk_block
        f = get(function)
        _assert_block_equals_chunks(lhs_of, bounds, f.eval(z), f.eval(w))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_ball_beta(self, dim):
        # At its own block width, 16, 8, 5, 4, 3, 2, 2 and 2 chunks: the
        # coordinates of dimensions 1, 2, 4 and 8 reach numpy's threshold, the
        # others stay below it.  Dimensions 4 to 8 sum through np.sum.
        z, w, bounds = _one_block(harness.ball_pair_chunk, dim)
        assert (z.nbytes >= ELISION_BYTES) == (dim in (1, 2, 4, 8))
        _assert_block_equals_chunks(ball.beta, bounds, z, w)
        embed = ball.embed_modulus
        _assert_block_equals_chunks(lambda a, b: ball.beta(embed(a), embed(b)), bounds, z, w)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_bytes_do_not_depend_on_the_block_size(self, monkeypatch, workers):
        # the default suite, and the ball rows of every dimension, whose blocks
        # are max(1, BLOCK_CHUNKS // dim) chunks: one chunk each at BLOCK_CHUNKS 1
        config = default_config(seed=63, count=40_000, workers=workers)
        balls = replace(config, cases=(CaseSpec(op="abs_inequalities"),), ball_dims=tuple(range(1, 9)))
        for suite in (config, balls):
            blocks = run_suite(suite)
            with monkeypatch.context() as m:
                m.setattr(harness, "BLOCK_CHUNKS", 1)
                chunks = run_suite(suite)
            assert blocks.overall_pass
            assert blocks.data_json() == chunks.data_json()
            # digests, so that a failure does not diff two 14 MB strings
            csv = [hashlib.sha256(r.margins_csv().encode()).hexdigest() for r in (blocks, chunks)]
            assert csv[0] == csv[1]


class TestBallViolationRecords:
    def test_records_redraw_their_pairs_from_the_chunk(self, monkeypatch):
        dim = 2
        count = harness.BLOCK_CHUNKS * CHUNK_SIZE + 1500  # the last chunk is partial
        spec = SampleSpec(count=count, seed=5)
        # first pair, end of the first block, in the last partial chunk, the degenerate last pair
        targets = [0, harness.BLOCK_CHUNKS * CHUNK_SIZE - 1, count - 3, count - 1]

        def pair(i):
            a = i // CHUNK_SIZE * CHUNK_SIZE
            z, w = _reference_rows(_reference_ball_chunk, spec, a, min(a + CHUNK_SIZE, count), dim)
            return z[i - a], w[i - a]

        target_z = np.array([pair(i)[0] for i in targets])
        original = ball.beta

        def forced(z, w, checked=False):
            # beta(z, w) reads -1 at the target pairs; the embedded points never match
            out = original(z, w, checked)
            hit = np.all(np.asarray(z)[:, None, :] == target_z[None, :, :], axis=-1).any(axis=1)
            out[hit] = -1.0
            return out

        monkeypatch.setattr(ball, "beta", forced)
        # the ball report of dim: the driver on the ball-pair stream of dim
        report = list(verify_abs_inequalities(spec, dims=(dim,), workers=2))[-1]
        assert report.case_id == f"abs_beta_ball_n{dim}"
        assert report.status == "violated"
        assert [v["index"] for v in report.violations] == targets
        for v in report.violations:
            z, w = pair(v["index"])
            assert v["z"] == harness._serialize_point(z)
            assert v["w"] == harness._serialize_point(w)
            assert v["lhs"] > v["rhs"] == -1.0
            assert (v["rhs"] - v["lhs"]).hex() == v["margin"].hex()
        assert report.violations[-1]["z"] == report.violations[-1]["w"]


class TestKeepMargins:
    def test_dropped_margins_leave_the_data_unchanged(self):
        config = default_config(count=1500)
        kept = run_suite(config)
        dropped = run_suite(config, keep_margins=False)
        assert dropped.data_json() == kept.data_json()
        assert all(r.margins is None for r in dropped.reports)
        assert all(r.margins is not None for r in kept.reports if r.samples_used)
        assert dropped.margins_csv() == "case_id,sample_index,margin\n"

    def test_peak_memory_is_the_stream_and_one_case(self):
        # What a suite whose margins go to a consumer holds at once: the
        # shared stream's draws (z and w: 32 B per sample), the running case's
        # margins (8 B per sample) and block slack, the temporaries of the
        # blocks in flight, which does not grow with the count.  Measured at
        # 2**17 samples and 2 workers: peaks of 8.8 to 9.2 MB, in the disk
        # cases, since a ball block holds as many coordinates as a disk block.
        # With ball blocks of 16 chunks in every dimension the peaks were 8.8
        # to 13.1 MB, the highest in the dimension-3 ball report, where two
        # ball blocks held about 5.4 MB of temporaries each; so the slack is
        # 8.5 MiB.
        # Keeping the abs reports' margins until verify_abs_inequalities
        # returned peaked at 15.2 to 16.4 MB, keeping the stream through the
        # ball reports at 17.9 MB, and both together with every case's lhs and
        # rhs beside its margins at 22.6 to 22.9 MB.
        count = 2**17
        slack = 17 * 2**19  # 8.5 MiB
        tracemalloc.start()
        try:
            config = default_config(count=count, workers=2)
            result = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.overall_pass
        assert peak <= (32 + 8) * count + slack

    def test_disk_cases_hold_the_draws_and_one_case(self):
        # The four pair ops alone, with a margins consumer, so the peak is on
        # the shared stream: its draws (32 B per sample), the running case's
        # margins (8 B per sample) and block slack.  Measured at 2**19 samples and 2 workers: peaks of
        # 24.2 to 25.2 MB.  A stream that also held sigma (8 B per sample
        # more) peaked at 28.1 to 29.1 MB, so the slack of 6 MiB puts the
        # bound, 27.3 MB, about halfway between the two.
        count = 2**19
        slack = 6 * 2**20
        config = default_config(count=count, workers=2)
        # the cases with a function whose op reads the stream
        reads = [cs for cs in config.cases if harness.OPS[cs.op][2] and cs.function]
        config = replace(config, cases=tuple(reads))
        assert {cs.op for cs in config.cases} == {
            "re_contraction", "modulus_contraction", "schwarz_pick", "kv_factor"
        }
        tracemalloc.start()
        try:
            result = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.overall_pass
        assert peak <= (32 + 8) * count + slack

    def test_with_no_consumer_a_suite_holds_no_full_length_array(self):
        # Nothing reads the margins, so the disk-pair cases share one pass and
        # every case reduces its margins block by block: no stream draws, no
        # margins.  What is left is the blocks in flight and each case's
        # statistics (its pairwise node sums and block slots, a few kB).  A
        # ball block holds as many coordinates as a disk block, so the peak is
        # in the shared pass, whose blocks each hold one map's images at a
        # time.  Measured at 2**19 samples and 2 workers: peaks of 6.2 to 6.6
        # MiB.  Ball blocks of 16 chunks in every dimension, the highest in
        # the dimension-3 report, peaked at 10.8 to 11.6 MiB, and holding the
        # stream and one case's margins, 40 B a sample, about 29 MB; so the
        # bound, 9 MiB, has no term per sample.
        tracemalloc.start()
        try:
            result = run_suite(default_config(count=2**19, workers=2), keep_margins=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.overall_pass
        assert peak <= 9 * 2**20

    def test_a_bare_call_holds_its_margins_and_blocks(self):
        # A bare verify_* call draws the disk pairs on every read, so it holds
        # its margins (8 B per sample) and the blocks in flight, and no
        # stream.  Measured at 2**19 samples and 2 workers: peaks of 7.6 to
        # 8.7 MB (6.2 to 6.4 MB at 1 worker), 3.3 to 4.3 MiB above the
        # margins.  A call that drew and held the stream first peaked at 23.2
        # to 24.4 MB, so the slack of 8 MiB puts the bound, 12.6 MB, about
        # halfway between the two.
        count = 2**19
        slack = 8 * 2**20
        case = InequalityCase(id="schwarz_pick:blaschke_product", function=get("blaschke_product"))
        tracemalloc.start()
        try:
            report = verify_schwarz_pick(case, SampleSpec(count=count), workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "pass"
        assert peak <= 8 * count + slack

    def test_streamed_csv_holds_one_case(self, tmp_path, capsys):
        # verify --csv-out hands each report's margins to the CSV as the
        # report is made, then drops them.  Measured at 100k samples: peaks of
        # 7.5 MB, and 8.8 MB when the run builds the formatter's tables (the
        # shared stream, 4 MB, the running case's margins and the CSV block
        # in flight).  Holding the five abs reports together and the index
        # digits across cases, 10.3 to 11.6 MB; keeping every case's margins
        # to the end, 25.0 MB.
        path = tmp_path / "margins.csv"
        tracemalloc.start()
        try:
            rc = main(["verify", "--count", "100000", "--csv-out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        assert peak <= 10e6

    def test_csv_blocks_do_not_move_bytes(self, monkeypatch):
        result = run_suite(default_config(count=300))
        whole = result.margins_csv()
        monkeypatch.setattr(reprs, "CSV_BLOCK_ROWS", 7)
        assert result.margins_csv() == whole


def _ci_suites(count, workers):
    """The suites of CI's worker-count step, by name."""
    base = default_config(count=count, workers=workers)
    return {
        "default": base,
        "high_dims": replace(base, cases=(CaseSpec(op="abs_inequalities"),), ball_dims=(4, 5, 6, 7, 8)),
        "violations": replace(
            base,
            cases=(
                CaseSpec(op="kv_factor", function="strip_map", factor=1.0),
                CaseSpec(op="abs_inequalities"),
            ),
        ),
        "boundary_biased": replace(base, sample=replace(base.sample, scheme="boundary_biased")),
        "release_order": replace(
            base,
            cases=(
                CaseSpec(op="re_contraction", function="strip_map", weight="disk_diameter"),
                CaseSpec(op="abs_inequalities"),
                CaseSpec(op="schwarz_pick", function="power"),
            ),
        ),
    }


def _consumed_and_shared(config):
    """``run_suite`` of ``config`` with a margins consumer, and with none."""
    columns = []
    consumed = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: columns.append(m))
    shared = run_suite(config, keep_margins=False)
    assert columns  # the consumer path ran
    return consumed, shared


class TestSharedPass:
    """With no margins consumer the disk-pair rows share one pass, with the data of the other path."""

    @pytest.mark.parametrize("name", list(_ci_suites(1, 1)))
    def test_ci_suites_keep_their_data(self, name):
        consumed, shared = _consumed_and_shared(_ci_suites(3 * CHUNK_SIZE + 5, 3)[name])
        assert shared.data_json() == consumed.data_json()
        assert shared.overall_pass == (name not in ("violations", "release_order"))
        assert all(r.margins is None for r in shared.reports)

    @pytest.mark.parametrize("count", [1, 7, 129])
    def test_short_streams_keep_their_data(self, count):
        consumed, shared = _consumed_and_shared(default_config(count=count, workers=2))
        assert shared.data_json() == consumed.data_json()

    def test_a_failed_gate_keeps_its_report_and_place(self):
        config = SuiteConfig(
            sample=SampleSpec(count=2 * CHUNK_SIZE + 3),
            cases=(
                CaseSpec(op="schwarz_pick", function="power"),
                CaseSpec(op="re_contraction", function="strip_map", weight="disk_diameter"),
                CaseSpec(op="re_contraction", function="strip_map", weight="strip"),
            ),
        )
        consumed, shared = _consumed_and_shared(config)
        assert [r.status for r in shared.reports] == ["pass", "hypothesis-not-met", "pass"]
        assert shared.data_json() == consumed.data_json()

    def test_threads_fill_the_statistics_of_every_row(self, monkeypatch):
        # More workers than cores, one chunk a block and frequent thread
        # switches: a lost block or a slot written twice would move the data.
        config = default_config(count=6 * CHUNK_SIZE + 5, workers=1)
        serial = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: None)
        monkeypatch.setattr(harness, "BLOCK_CHUNKS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = run_suite(replace(config, workers=8), keep_margins=False)
        finally:
            sys.setswitchinterval(interval)
        assert shared.data_json() == serial.data_json()

    def test_each_block_is_drawn_and_its_sigma_formed_once(self, monkeypatch):
        count = 3 * harness.BLOCK_CHUNKS * CHUNK_SIZE + 5
        config = default_config(count=count, workers=2)
        expected = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: None)
        drawn, formed = [], []  # list.append is atomic
        disk_chunk, sigma_of = harness.disk_pair_chunk, harness.sigma

        def counting(spec, a, b):
            drawn.append((a, b))
            return disk_chunk(spec, a, b)

        def counting_sigma(a, b, checked=False):
            if checked:  # the stream's distance, not a case's left side
                formed.append(len(a))
            return sigma_of(a, b, checked)

        def unused(*args, **kwargs):
            raise AssertionError("a shared row runs no checker")

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        monkeypatch.setattr(harness, "sigma", counting_sigma)
        for op in ("re_contraction", "modulus_contraction", "schwarz_pick", "kv_factor"):
            monkeypatch.setattr(harness, f"verify_{op}", unused)
        result = run_suite(config, keep_margins=False)
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        blocks = [(a, min(a + block, count)) for a in range(0, count, block)]
        # each block once, and chunk 0 again for each proof-chain replay
        assert sorted(drawn) == sorted(blocks + [(0, CHUNK_SIZE)] * 2)
        assert sorted(formed) == sorted(b - a for a, b in blocks)
        assert result.data_json() == expected.data_json()

    def test_each_map_is_evaluated_once_a_block(self, monkeypatch):
        # The maps are wrapped where run_suite resolves them, as the benchmark's
        # traced run wraps them, so every case gets its own HoloFunction.  The
        # 15 disk-pair rows with a map use 8 maps: each block evaluates each
        # map once on z and once on w, 16 calls, not 2 for each row (30).
        count = 3 * harness.BLOCK_CHUNKS * CHUNK_SIZE + 5
        config = default_config(count=count, workers=2)
        expected = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: None)
        calls = []  # (name, rows) of every eval call; list.append is atomic
        get_of = harness.catalog_get

        def counting_get(name):
            f = get_of(name)
            return replace(f, eval=lambda z: (calls.append((name, np.size(z))), f.eval(z))[1])

        monkeypatch.setattr(harness, "catalog_get", counting_get)
        result = run_suite(config, keep_margins=False)
        assert result.data_json() == expected.data_json()
        block = harness.BLOCK_CHUNKS * CHUNK_SIZE
        sizes = [min(block, count - a) for a in range(0, count, block)]
        # the grid rows evaluate 10,201 points and the proof chain single points and paths
        assert not {10_201, 1} & set(sizes)
        assert Counter(rows for _, rows in calls if rows in sizes) == {block: 16 * 3, 5: 16}
        per_map = Counter(name for name, rows in calls if rows in sizes)
        assert len(per_map) == 8 and set(per_map.values()) == {2 * len(sizes)}

    @pytest.mark.parametrize("shared", [True, False])
    def test_ball_blocks_are_sized_by_dimension_and_checked_once(self, monkeypatch, shared):
        # a block of points in C^n is max(1, BLOCK_CHUNKS // n) chunks, so it
        # holds as many coordinates in every dimension; each draws and checks
        # its two points once, and beta checks them no more
        count = 20 * CHUNK_SIZE + 7
        config = replace(
            default_config(count=count, workers=2),
            cases=(CaseSpec(op="abs_inequalities"),), ball_dims=(1, 2, 3, 5, 8),
        )
        expected = run_suite(config, keep_margins=False, on_margins=lambda case_id, m: None)
        reads, checks = [], Counter()
        draw, norms_of = harness.ball_pair_chunk, ball._checked_norms

        def counting_draw(spec, dim, a, b):
            reads.append((dim, a, b))
            return draw(spec, dim, a, b)

        def counting_norms(z):
            checks[np.shape(z)[-1], len(z)] += 1
            return norms_of(z)

        monkeypatch.setattr(harness, "ball_pair_chunk", counting_draw)
        monkeypatch.setattr(ball, "_checked_norms", counting_norms)
        result = run_suite(config, keep_margins=not shared)
        assert result.data_json() == expected.data_json()
        want = []
        for dim in config.ball_dims:
            block = max(1, harness.BLOCK_CHUNKS // dim) * CHUNK_SIZE
            want += [(dim, a, min(a + block, count)) for a in range(0, count, block)]
        assert sorted(reads) == sorted(want)
        assert checks == Counter((dim, b - a) for dim, a, b in want for point in "zw")


@pytest.fixture(scope="module")
def result():
    return run_suite(default_config(count=1024))


class TestSuiteResult:
    def test_overall_pass_and_report_count(self, result):
        assert result.overall_pass
        assert len(result.reports) == 30

    def test_report_dict_shape(self, result):
        d = result.reports[0].to_dict()
        assert set(d) == {
            "case_id",
            "status",
            "samples_used",
            "min_margin",
            "mean_margin",
            "n_violations",
            "violations",
            "seed",
            "extras",
        }
        assert "wall_time" not in d

    def test_data_json_has_no_timing(self, result):
        payload = json.loads(result.data_json())
        assert set(payload) == {"schema_version", "seed", "overall_pass", "cases"}
        assert "wall_time" not in json.dumps(payload)

    def test_to_json_separates_meta(self, result):
        full = json.loads(result.to_json())
        assert set(full) == {"data", "meta"}
        assert "wall_time" in full["meta"]
        assert full["data"] == json.loads(result.data_json())

    @pytest.mark.parametrize(
        "extras, violations, field",
        [
            ({"sup_ratio": math.nan}, (), "extras.sup_ratio is not finite: nan"),
            ({"pair": [[0.0, 1.0], [-math.inf, 0.0]]}, (), "extras.pair[1][0] is not finite: -inf"),
            ({}, ({"lhs": 1.0, "rhs": math.inf},), "violations[0].rhs is not finite: inf"),
        ],
    )
    def test_json_names_a_non_finite_field(self, extras, violations, field):
        report = replace(_report("a", None), extras=extras, violations=violations)
        result = SuiteResult(overall_pass=False, reports=(_report("b", None), report), seed=0, wall_time=0.0)
        for to_json in (result.to_json, result.data_json):
            with pytest.raises(ValueError, match=re.escape(f"a: {field}")):
                to_json()

    def test_margins_csv_layout(self, result):
        csv = result.margins_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "case_id,sample_index,margin"
        expected_rows = sum(len(r.margins) for r in result.reports if r.margins is not None)
        assert len(lines) - 1 == expected_rows
        case_id, idx, margin = lines[1].split(",")
        assert idx == "0"
        float(margin)  # repr round-trips
