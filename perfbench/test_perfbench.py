"""Tests of the benchmark itself: a tiny smoke run per workload and the correctness gate.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import queries
import run

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    table = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in units.items():
        assert table[name] == unit
    assert "failed_frac" in table
    if trace == 0 and workload == "queries":
        for name in ("distance_p50_ms", "distance_p90_ms", "ode_p50_ms", "ode_p90_ms"):
            assert table[name] == "ms"
        assert {"distance_max_rel_err", "ode_max_abs_err"} <= set(table)
    if workload != "queries":
        assert result["correct"] and result["failed"] == 0, proc.stderr
    if trace == 0 and workload != "queries":
        assert table["samples_per_s"] == "1/s"


def test_refuses_to_run_without_a_source_tree(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    argv = [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", "queries",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def verify_outputs(tmp_path_factory):
    """A small CSV-writing verify run and the hashes of its untouched outputs."""
    out = tmp_path_factory.mktemp("verify")
    cfg = {"count": 2048, "workers": 1, "csv": True}
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-m", "hypcontract.cli", *run.verify_argv(cfg, 5, out)],
                   env=env, check=True, capture_output=True, timeout=120)
    report, csv = out / "report.json", out / "margins.csv"
    expected = {
        "data_sha256": run.data_digest(json.loads(report.read_text())["data"]),
        "csv_sha256": run.csv_digest(csv)[0],
    }
    return report, csv, expected


def test_gate_accepts_untouched_outputs(verify_outputs):
    report, csv, expected = verify_outputs
    problems, samples = run.check_verify(report, csv, expected)
    assert problems == []
    assert samples > 2048


def test_gate_counts_a_tampered_data_block_as_failed(verify_outputs, tmp_path):
    report, csv, expected = verify_outputs
    payload = json.loads(report.read_text())
    payload["data"]["cases"][0]["min_margin"] += 1e-12
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(payload))
    problems, _ = run.check_verify(bad, csv, expected)
    assert any("data block" in p for p in problems)
    tally = run.Tally()
    tally.record("tampered", problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_gate_catches_a_missing_csv_row(verify_outputs, tmp_path):
    report, csv, expected = verify_outputs
    rows = csv.read_text().splitlines(keepends=True)
    short = tmp_path / "margins.csv"
    short.write_text("".join(rows[:10] + rows[11:]))
    problems, _ = run.check_verify(report, short, expected)
    assert any("rows for" in p for p in problems)
    assert any("CSV differs" in p for p in problems)


def test_gate_catches_a_failed_case(verify_outputs, tmp_path):
    report, csv, expected = verify_outputs
    payload = json.loads(report.read_text())
    payload["data"]["cases"][1]["status"] = "violated"
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(payload))
    problems, _ = run.check_verify(bad, csv, expected)
    assert any(": violated" in p for p in problems)


def test_queries_gate_catches_wrong_answers():
    batch = queries.make_batch(seed=9, batch=0, n_distance=1, n_solve=8)
    dist = next(q for q in batch if q["kind"] == "distance")
    exact = queries.strip_oracle(complex(*dist["z"]), complex(*dist["w"]))
    assert queries.check(dist, {"kind": "distance", "value": exact}) is None
    assert "relative" in queries.check(dist, {"kind": "distance", "value": exact * 1.01})

    blowup = next(q for q in batch if q["kind"] == "ode" and q["blowup"])
    ok = {"blown_up": True, "t_max": blowup["t_sing"], "t_min": blowup["t0"]}
    assert queries.check(blowup, ok) is None
    assert queries.check(blowup, {**ok, "blown_up": False}) == "blow-up not reported"
    assert "singularity" in queries.check(blowup, {**ok, "t_max": blowup["t_sing"] - 0.1})

    regular = next(q for q in batch if q["kind"] == "ode" and not q["blowup"])
    lo, hi = sorted((regular["t0"], regular["t1"]))
    good = {"blown_up": False, "t_min": lo, "t_max": hi, "sup_err": 1e-9}
    assert queries.check(regular, good) is None
    assert "sup error" in queries.check(regular, {**good, "sup_err": 2e-6})
    assert "raised" in queries.check(regular, {"error": "RuntimeError: boom"})


def test_a_missing_query_answer_fails_every_query_of_the_batch():
    batch = queries.make_batch(seed=9, batch=0, n_distance=2, n_solve=2)
    tally = run.Tally()
    run.check_queries("queries", batch, None, tally)
    assert (tally.attempted, tally.failed) == (4, 4)


def test_batches_repeat_for_a_seed_and_mix_one_blowup_in_eight():
    a = queries.make_batch(seed=4, batch=2, n_distance=16, n_solve=16)
    assert a == queries.make_batch(seed=4, batch=2, n_distance=16, n_solve=16)
    assert a != queries.make_batch(seed=5, batch=2, n_distance=16, n_solve=16)
    solves = [q for q in a if q["kind"] == "ode"]
    assert sum(q["blowup"] for q in solves) == 2
    for q in (q for q in a if q["kind"] == "distance"):
        for re, im in (q["z"], q["w"]):
            assert abs(re) <= queries.STRIP_RE_CAP and abs(im) <= queries.STRIP_IM_SPAN


def test_p90_lands_in_the_blowup_solves():
    records = [{"kind": "ode", "ms": float(i)} for i in range(14)]
    records += [{"kind": "ode", "ms": 1000.0 + i} for i in range(2)]
    assert layers.query_latency_metrics(records)["ode_p90_ms"] >= 1000.0


def test_import_times_follow_the_importtime_tree():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy.integrate._quadpack",
        "import time:       200 |        300 |       scipy.integrate._quadrature",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:        10 |        360 |     hypcontract.weights",
        "import time:        40 |        400 |   hypcontract",
        "import time:        20 |        420 | hypcontract.cli",
    ])
    t = run.import_times(report)
    assert t["import.scipy_integrate_s"] == pytest.approx(300e-6)
    assert t["import.numpy_s"] == pytest.approx(50e-6)
    assert t["import.total_s"] == pytest.approx(420e-6)
    assert t["import.scipy_optimize_s"] == 0.0
