"""Sampled verification harness: determinism, gating, violations, reports."""

import hashlib
import io
import json
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from hypcontract import ball, harness
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

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            SampleSpec(count=10, scheme="sobol")


class TestSampling:
    def test_chunk_content_depends_only_on_seed_and_index(self):
        spec_a = SampleSpec(count=10_000, seed=5)
        spec_b = SampleSpec(count=99, seed=5)
        za, wa = disk_pair_chunk(spec_a, 0, 64, False)
        zb, wb = disk_pair_chunk(spec_b, 0, 64, False)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(wa, wb)

    def test_final_pair_is_degenerate(self):
        z, w = disk_pair_chunk(SampleSpec(count=100), 0, 100, True)
        assert z[-1] == w[-1]
        assert np.all(z[:-1] != w[:-1])

    def test_radius_cap_respected(self):
        for scheme in ("uniform_disk", "boundary_biased"):
            z, w = disk_pair_chunk(SampleSpec(count=500, scheme=scheme, radius_cap=0.9), 0, 500, False)
            assert max(np.max(np.abs(z)), np.max(np.abs(w))) <= 0.9 + 1e-15

    def test_polar_grid_layout(self):
        g = polar_grid(11, 7, 0.95)
        assert g.shape == (77,)
        assert np.min(np.abs(g)) == 0.0
        assert np.max(np.abs(g)) <= 0.95 + 1e-15

    @pytest.mark.parametrize("scheme", ["uniform_disk", "boundary_biased"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_ball_draw_has_the_bits_of_the_complex_expression(self, scheme, dim):
        def complex_draw(spec, dim, ci, n, last):  # the reference, in complex arithmetic
            rng = np.random.default_rng([spec.seed, dim, ci])
            g = rng.standard_normal((2, n, dim, 2))
            u = rng.random((2, n))
            vec = g[..., 0] + 1j * g[..., 1]
            norms = np.maximum(ball.norm(vec), 1e-300)
            r = harness._radius(spec, u, ball_dim=dim)
            pts = vec / norms[..., np.newaxis] * r[..., np.newaxis]
            z, w = pts[0], pts[1]
            if last:
                w[-1] = z[-1]
            return z, w

        for ci in range(40):
            spec = SampleSpec(count=40 * CHUNK_SIZE - 3, seed=ci % 5, scheme=scheme)
            n = CHUNK_SIZE - 3 if ci == 39 else CHUNK_SIZE
            args = (spec, dim, ci, n, ci == 39)
            for new, old in zip(harness.ball_pair_chunk(*args), complex_draw(*args)):
                assert new.shape == old.shape == (n, dim)
                assert new.tobytes() == old.tobytes()


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
        n_chunks = -(-spec.count // CHUNK_SIZE)
        z, w, s = harness._disk_stream(spec, 1)(range(n_chunks), 0, spec.count)
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
        reports = verify_abs_inequalities(SampleSpec(count=2048), dims=(1, 2, 3))
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


class TestFinalize:
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
            pairs = np.zeros(4096, dtype=complex)
            rows_at = harness._rows_of(pairs, pairs, lhs, rhs)
            report = harness._finalize(case, 0, margins, rows_at, 0.0)
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
    @pytest.mark.parametrize("block_rows", [7, harness.CSV_BLOCK_ROWS])
    def test_bytes_of_the_per_row_formula(self, crafted_result, monkeypatch, block_rows):
        monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", block_rows)
        text = crafted_result.margins_csv()
        assert text == _per_row_csv(crafted_result)
        assert "negative_zeros,0,-0.0\n" in text and "zeros,0,0.0\n" in text
        assert "a,5,5e-324\n" in text and "a_last,8,1.2345678901234568e+17\n" in text

    def test_index_digits_grow_with_the_columns(self, crafted_result, monkeypatch):
        monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 7)
        reports = sorted(
            crafted_result.reports, key=lambda r: 0 if r.margins is None else len(r.margins)
        )
        shortest_first = replace(crafted_result, reports=tuple(reports))
        assert shortest_first.margins_csv() == _per_row_csv(shortest_first)

    @pytest.mark.parametrize("count", [0, 1, 10, 11, 1001, 100_001])
    def test_index_digits_are_the_row_numbers(self, count):
        rows = harness._index_digits(count)
        text = rows.tobytes().translate(None, b"\0").decode()
        assert text == "".join(f"{i}," for i in range(count))
        assert rows.shape == (count, len(str(max(count - 1, 0))) + 1)

    def test_file_holds_the_same_text(self, crafted_result, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 7)
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
        monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 1000)  # blocks shorter than a column
        # Lines, not one 1.5 MB string: a failure then names the first row that differs.
        text = suite_3000.margins_csv()
        assert text.split("\n") == _per_row_csv(suite_3000).split("\n")
        # The same bytes streamed a case at a time while the suite runs.
        buf = io.BytesIO()
        config = default_config(count=3000)
        streamed = run_suite(config, keep_margins=False, on_margins=harness.MarginsCsv(buf).add)
        assert all(r.margins is None for r in streamed.reports)
        assert buf.getvalue().decode("ascii") == text

    @pytest.mark.parametrize("workers", [1, 3])
    def test_cli_streams_the_bytes_of_the_kept_margins(self, suite_3000, tmp_path, capsys, workers):
        path = tmp_path / "margins.csv"
        rc = main(["verify", "--count", "3000", "--workers", str(workers), "--csv-out", str(path)])
        capsys.readouterr()
        assert rc == 0
        assert path.read_bytes() == suite_3000.margins_csv().encode()


class TestSharedDiskStream:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_each_chunk_drawn_once_per_suite(self, monkeypatch, workers):
        # ball dimension 4 sums through np.sum; 1 to 3 add columns one by one
        config = default_config(count=4 * CHUNK_SIZE, workers=workers)
        config = replace(config, ball_dims=(1, 2, 3, 4))
        serial = run_suite(replace(config, workers=1))
        drawn = []  # list.append is atomic; a Counter increment is not
        original = harness.disk_pair_chunk

        def counting(spec, ci, n, last):
            drawn.append(ci)
            return original(spec, ci, n, last)

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        # one chunk per block, so the workers fill the shared stream and the
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
        # every chunk once for the shared stream; chunk 0 again per proof-chain replay
        assert Counter(drawn) == {0: 1 + n_proof_chain, 1: 1, 2: 1, 3: 1}
        assert result.overall_pass
        assert result.data_json() == serial.data_json()
        assert result.margins_csv() == serial.margins_csv()

    def test_released_after_the_suite_and_never_set_by_a_bare_call(self, monkeypatch):
        run_suite(default_config(count=512))
        assert harness._SHARED_STREAMS.get() is None
        drawn = []
        original = harness.disk_pair_chunk

        def counting(spec, ci, n, last):
            drawn.append(ci)
            return original(spec, ci, n, last)

        monkeypatch.setattr(harness, "disk_pair_chunk", counting)
        case = InequalityCase(id="schwarz_pick:power", function=get("power"))
        spec = SampleSpec(count=2 * CHUNK_SIZE)
        first = verify_schwarz_pick(case, spec)
        second = verify_schwarz_pick(case, spec)
        assert harness._SHARED_STREAMS.get() is None
        assert Counter(drawn) == {0: 2, 1: 2}  # no cache outlives a bare call
        np.testing.assert_array_equal(first.margins, second.margins)

    def test_released_after_its_last_read(self, monkeypatch):
        # the default suite ends with abs_inequalities: its disk pair reads the
        # stream last, and the ball reports after them find it gone
        seen = []
        original = harness.ball_pair_chunk

        def spying(spec, dim, ci, n, last):
            seen.append((dim, dict(harness._SHARED_STREAMS.get())))
            return original(spec, dim, ci, n, last)

        monkeypatch.setattr(harness, "ball_pair_chunk", spying)
        result = run_suite(default_config(count=512))  # one chunk per ball stream
        assert result.overall_pass
        assert seen == [(1, {}), (2, {}), (3, {})]

    def test_released_when_a_case_raises(self, monkeypatch):
        def broken(case, spec, workers):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "verify_pavlovic", broken)
        with pytest.raises(RuntimeError):
            run_suite(default_config(count=256))
        assert harness._SHARED_STREAMS.get() is None

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
    """The pairs of one full block, drawn chunk by chunk, and its chunk bounds."""
    n = harness.BLOCK_CHUNKS * CHUNK_SIZE
    spec = SampleSpec(count=n + 1, seed=63)
    z, w = harness._draw_block(spec, range(harness.BLOCK_CHUNKS), partial(pair_chunk, spec, *dim))
    assert z.nbytes >= ELISION_BYTES
    bounds = [(a, a + CHUNK_SIZE) for a in range(0, n, CHUNK_SIZE)]
    return z, w, bounds


def _assert_block_equals_chunks(fn, bounds, *args):
    block = np.asarray(fn(*args))
    chunks = np.concatenate([np.asarray(fn(*(x[a:b] for x in args))) for a, b in bounds])
    assert block.tobytes() == chunks.tobytes()


@pytest.fixture(scope="module")
def disk_block():
    return _one_block(disk_pair_chunk)


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ball_beta(self, dim):
        z, w, bounds = _one_block(harness.ball_pair_chunk, dim)
        _assert_block_equals_chunks(ball.beta, bounds, z, w)
        embed = ball.embed_modulus
        _assert_block_equals_chunks(lambda a, b: ball.beta(embed(a), embed(b)), bounds, z, w)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_bytes_do_not_depend_on_the_block_size(self, monkeypatch, workers):
        config = default_config(seed=63, count=40_000, workers=workers)
        blocks = run_suite(config)
        monkeypatch.setattr(harness, "BLOCK_CHUNKS", 1)
        chunks = run_suite(config)
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
            ci = i // CHUNK_SIZE
            n = min(CHUNK_SIZE, count - ci * CHUNK_SIZE)
            z, w = harness.ball_pair_chunk(spec, dim, ci, n, (ci + 1) * CHUNK_SIZE >= count)
            return z[i % CHUNK_SIZE], w[i % CHUNK_SIZE]

        target_z = np.array([pair(i)[0] for i in targets])
        original = ball.beta

        def forced(z, w):
            # beta(z, w) reads -1 at the target pairs; the embedded points never match
            out = original(z, w)
            hit = np.all(np.asarray(z)[:, None, :] == target_z[None, :, :], axis=-1).any(axis=1)
            out[hit] = -1.0
            return out

        monkeypatch.setattr(ball, "beta", forced)
        # the ball report of dim: the driver on the ball-pair stream of dim
        report = verify_abs_inequalities(spec, dims=(dim,), workers=2)[-1]
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
        # What a suite holds at once: the shared stream (z, w and sigma: 40 B
        # per sample) and 2 x 8 B per sample for the running case, plus block
        # slack, the temporaries of the blocks in flight, which does not grow
        # with the count.  Measured at 2**17 samples and 2 workers: peaks of
        # 11.1 to 12.7 MB, in the dimension-3 ball report, where the stream is
        # gone and two ball blocks hold about 5.4 MB of temporaries each; so
        # the slack is 7 MiB.  Keeping the abs reports' margins until
        # verify_abs_inequalities returns peaks at 15.2 to 16.4 MB, keeping the
        # stream through the ball reports at 17.9 MB, and both together with
        # every case's lhs and rhs beside its margins at 22.6 to 22.9 MB.
        count = 2**17
        slack = 7 * 2**20
        tracemalloc.start()
        try:
            result = run_suite(default_config(count=count, workers=2), keep_margins=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.overall_pass
        assert peak <= (40 + 2 * 8) * count + slack

    def test_streamed_csv_holds_one_case(self, tmp_path, capsys):
        # verify --csv-out hands each case's margins to the CSV as its report
        # is made, then drops them.  Measured at 100k samples: peaks of 10.3
        # MB (the shared stream, 4 MB, the running case's margins and the CSV
        # block in flight); keeping every case's margins to the end, 25.0 MB.
        path = tmp_path / "margins.csv"
        tracemalloc.start()
        try:
            rc = main(["verify", "--count", "100000", "--csv-out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        assert peak <= 15e6

    def test_csv_blocks_do_not_move_bytes(self, monkeypatch):
        result = run_suite(default_config(count=300))
        whole = result.margins_csv()
        monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 7)
        assert result.margins_csv() == whole


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

    def test_margins_csv_layout(self, result):
        csv = result.margins_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "case_id,sample_index,margin"
        expected_rows = sum(len(r.margins) for r in result.reports if r.margins is not None)
        assert len(lines) - 1 == expected_rows
        case_id, idx, margin = lines[1].split(",")
        assert idx == "0"
        float(margin)  # repr round-trips
