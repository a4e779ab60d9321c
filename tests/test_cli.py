"""Command-line interface, exercised in process through main(argv)."""

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tomllib
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypcontract
from hypcontract import cli, harness, reprs
from hypcontract.cli import main, parse_point
from hypcontract.weights import QuadratureError

LOG_3 = 1.0986122886681096914


def _rows(out: str):
    return [line for line in out.strip().split("\n") if line]


class TestParsePoint:
    def test_constants(self):
        assert parse_point("e") == complex(math.e)
        assert parse_point("pi") == complex(math.pi)

    def test_imaginary_notations(self):
        assert parse_point("0.5i") == 0.5j
        assert parse_point("1+2i") == 1.0 + 2.0j
        assert parse_point("1+2j") == 1.0 + 2.0j
        assert parse_point("-0.25") == -0.25

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_point("nope")


class TestVerify:
    def test_default_suite_small_count(self, capsys):
        rc = main(["verify", "--count", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out
        lines = _rows(out)
        assert len(lines) == 31  # 30 case lines + the overall line
        assert any(line.startswith("PASS") and "re_contraction:strip_map:strip" in line for line in lines)

    def test_hypothesis_not_met_fails_run(self, tmp_path, capsys):
        cfg = {
            "sample": {"count": 64},
            "cases": [
                {"op": "re_contraction", "function": "strip_map", "weight": "disk_diameter"}
            ],
        }
        path = tmp_path / "hypo.json"
        path.write_text(json.dumps(cfg))
        csv = tmp_path / "margins.csv"
        csv.write_text("old")
        rc = main(["verify", "--config", str(path), "--csv-out", str(csv)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "HYPO" in out
        assert "margins=n/a" in out
        assert "overall: FAIL" in out
        assert csv.read_text() == "case_id,sample_index,margin\n"  # no case has margins

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["verify", "--config", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert rc == 2
        payload = json.loads(err)
        assert any("cannot read config" in e for e in payload["errors"])

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert any("not valid JSON" in e for e in json.loads(err)["errors"])

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"cases": [{"op": "abs_inequalities", "note": "\xe9"}]}')
        rc = main(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err)["errors"] == [
            "config is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 47: "
            "invalid continuation byte"
        ]
        assert captured.out == ""

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"cases": ' + "[" * 100_000 + "]" * 100_000 + "}")
        rc = main(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        [error] = json.loads(captured.err)["errors"]
        assert error.startswith("config is not valid JSON: maximum recursion depth exceeded")
        assert captured.out == ""

    def test_grid_cases_at_a_count_no_stream_could_hold(self, tmp_path, capsys):
        # No row reads the disk-pair stream, so its 32 B a sample are never
        # allocated, and the grid cases run as at any count.
        path = tmp_path / "grid.json"
        cases = [
            {"op": "pointwise_gradient", "function": "strip_map", "weight": "strip"},
            {"op": "pavlovic", "function": "blaschke_product"},
        ]
        path.write_text(json.dumps({"cases": cases}))
        rc = main(["verify", "--config", str(path), "--count", str(10**15)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("PASS ") == 2
        assert captured.err == ""

    def test_all_config_errors_listed(self, tmp_path, capsys):
        cfg = {
            "sample": {"count": 16},
            "cases": [{"op": "nope"}, {"op": "re_contraction"}, {"bad": 1}],
        }
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        errors = json.loads(err)["errors"]
        assert len(errors) == 3
        text = "\n".join(errors)
        assert "unknown op" in text
        assert "missing function" in text
        assert "'op' field" in text

    def test_an_abs_report_id_is_no_op(self, tmp_path, capsys):
        # run_suite expands abs_inequalities into its reports; their ids name no op
        path = tmp_path / "abs.json"
        path.write_text(json.dumps({"cases": [{"op": "abs_rho_disk"}]}))
        rc = main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert json.loads(err)["errors"] == ["abs_rho_disk: unknown op 'abs_rho_disk'"]

    def test_json_and_csv_outputs(self, tmp_path, capsys):
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "margins.csv"
        rc = main(
            ["verify", "--count", "256", "--json-out", str(jpath), "--csv-out", str(cpath)]
        )
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(jpath.read_text())
        assert set(payload) == {"data", "meta"}
        assert payload["data"]["overall_pass"] is True
        lines = cpath.read_text().strip().split("\n")
        assert lines[0] == "case_id,sample_index,margin"
        # every margin cell must be a plain parseable float
        for line in lines[1:50]:
            float(line.rsplit(",", 1)[1])

    @pytest.mark.parametrize("flag", ["--json-out", "--csv-out"])
    def test_unwritable_output_fails_before_the_suite(self, tmp_path, capsys, monkeypatch, flag):
        def never(*args, **kwargs):
            raise AssertionError("run_suite ran although an output cannot be written")

        monkeypatch.setattr(cli, "run_suite", never)
        path = tmp_path / "missing" / "out"
        rc = main(["verify", "--count", "64", flag, str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert out == ""

    def test_non_integer_seed_variable_is_a_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPCONTRACT_SEED", "abc")
        rc = main(["verify", "--count", "64"])
        err = capsys.readouterr().err
        assert rc == 2
        assert any("HYPCONTRACT_SEED" in e for e in json.loads(err)["errors"])

    def test_config_seed_wins_over_a_bad_seed_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPCONTRACT_SEED", "abc")
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"sample": {"seed": 5}, "cases": [{"op": "abs_inequalities"}]}))
        jpath = tmp_path / "out.json"
        rc = main(["verify", "--config", str(cfg), "--count", "64", "--json-out", str(jpath)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(jpath.read_text())["data"]["seed"] == 5

    def test_bad_seed_variable_is_reported_with_the_other_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPCONTRACT_SEED", "abc")
        rc = main(["verify", "--count", "0", "--workers", "0"])
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert rc == 2
        assert errors == [
            "HYPCONTRACT_SEED: not an integer: 'abc'",
            "sample: sample count must be >= 1",
            f"workers: 0 is not an integer in 1..{harness.MAX_WORKERS}",
        ]

    @pytest.mark.parametrize(
        "field,fragment",
        [
            ({"cases": [{"op": "kv_factor", "function": "strip_map", "factor": "x"}]}, "factor"),
            ({"cases": [{"op": "kv_factor", "function": "strip_map", "factor": -1.0}]}, "factor"),
            ({"ball_dims": "ab"}, "ball_dims"),
            ({"ball_dims": ["a", 2]}, "ball_dims"),
            ({"ball_dims": [True]}, "ball_dims"),
            ({"workers": "x"}, "workers"),
            ({"workers": 65}, "workers"),
            ({"schema_version": "x"}, "schema_version"),
            ({"sample": {"count": 16, "seed": -1}}, "seed"),
            ({"sample": {"count": float("inf")}}, "sample"),
            (
                {"cases": [{"op": "re_contraction", "function": "strip_map", "weight": ["s"]}]},
                "unknown weight",
            ),
            ({"cases": [{"op": "schwarz_pick", "function": 5}]}, "unknown catalog function"),
            (
                {"cases": [{"op": "re_contraction", "function": "strip_map", "weight": "strip",
                            "factor": 7}]},
                "takes no factor",
            ),
            (
                {"cases": [{"op": "kv_factor", "function": "strip_map", "weight": "nope"}]},
                "takes no weight",
            ),
            ({"ball_dims": [2, 2]}, "ball_dims: 2 is listed twice"),
            (
                {"cases": [{"op": "abs_inequalities"}, {"op": "abs_inequalities"}]},
                "abs_inequalities: case is listed twice",
            ),
            (
                {"cases": [{"op": "kv_factor", "function": "strip_map"},
                           {"op": "kv_factor", "function": "strip_map", "factor": 2.0}]},
                "kv_factor:strip_map: case is listed twice",
            ),
            ({"sample": {"count": 5.7}}, "sample: count: 5.7 is not an integer"),
            ({"sample": {"count": True}}, "sample: count: True is not an integer"),
            ({"sample": {"count": "64"}}, "sample: count: '64' is not an integer"),
            ({"sample": {"count": 16, "radius_cap": "0.5"}},
             "sample: radius_cap: '0.5' is not a number"),
            ({"sample": {"count": 16, "seed": 3.9}}, "sample: seed: 3.9 is not an integer"),
            # JSON true is a Python bool, an int subclass: not a factor of 1 or version 1
            (
                {"cases": [{"op": "kv_factor", "function": "strip_map", "factor": True}]},
                "kv_factor:strip_map: factor must be a finite positive number, got True",
            ),
            ({"schema_version": True}, "schema_version: True is not an integer"),
            ({"schema_version": 1.0}, "schema_version: 1.0 is not an integer"),
        ],
    )
    def test_bad_field_is_a_config_error(self, tmp_path, capsys, field, fragment):
        cfg = {"sample": {"count": 16}, "cases": [{"op": "abs_inequalities"}]}
        cfg.update(field)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert any(fragment in e for e in json.loads(err)["errors"])

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "-1"], ["--count", "0"], ["--workers", "0"], ["--count", str(2**60)]],
    )
    def test_bad_flag_value_is_a_config_error(self, capsys, flags):
        rc = main(["verify", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert json.loads(err)["errors"]

    @pytest.mark.parametrize("route", ["flag", "config", "variable"])
    def test_seed_of_2_to_32_is_a_config_error(self, tmp_path, capsys, monkeypatch, route):
        # numpy would key 2**32 + 5 by the words [5, 1]: the streams of another seed
        seed = str(2**32 + 5)
        monkeypatch.delenv("HYPCONTRACT_SEED", raising=False)
        argv = ["verify", "--count", "16"]
        if route == "flag":
            argv += ["--seed", seed]
        elif route == "config":
            path = tmp_path / "seed.json"
            path.write_text(f'{{"sample": {{"seed": {seed}}}, "cases": [{{"op": "abs_inequalities"}}]}}')
            argv += ["--config", str(path)]
        else:
            monkeypatch.setenv("HYPCONTRACT_SEED", seed)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert json.loads(err)["errors"] == ["sample: seed must be < 2**32"]

    def test_largest_seed_runs(self, tmp_path, capsys):
        jpath = tmp_path / "out.json"
        rc = main(["verify", "--count", "16", "--seed", str(2**32 - 1), "--json-out", str(jpath)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(jpath.read_text())["data"]["seed"] == 2**32 - 1

    def test_every_bad_flag_is_reported(self, capsys):
        # the built-in suite takes the config-file route, which lists every error
        rc = main(["verify", "--count", "0", "--workers", "0"])
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert rc == 2
        assert errors == [
            "sample: sample count must be >= 1",
            f"workers: 0 is not an integer in 1..{harness.MAX_WORKERS}",
        ]

    @pytest.mark.parametrize("csv", [False, True], ids=["shared-pass", "csv-out"])
    def test_glibc_keeps_the_block_heap_only_without_a_csv(self, tmp_path, capsys, monkeypatch, csv):
        # Without --csv-out no full-length array is freed, which is what
        # raises glibc's mmap and trim thresholds by itself; so verify sets
        # them, and a --csv-out run keeps glibc's defaults.
        import ctypes

        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((self.argtypes, param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        argv = ["verify", "--count", "64"] + (["--csv-out", str(tmp_path / "m.csv")] if csv else [])
        assert main(argv) == 0
        capsys.readouterr()
        int_pair = (ctypes.c_int, ctypes.c_int)
        assert calls == ([] if csv else [(int_pair, -3, 4 << 20), (int_pair, -1, 16 << 20)])

    def test_no_mallopt_leaves_the_heap_alone(self, capsys, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
        assert main(["verify", "--count", "64"]) == 0
        capsys.readouterr()

    def test_count_too_large_for_memory_exits_2(self, capsys):
        # numpy refuses the 14 PiB stream at once, so nothing is allocated
        rc = main(["verify", "--count", "1000000000000000"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: not enough memory for the suite: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("existing", ["--json-out", "--csv-out"])
    def test_failed_run_leaves_the_outputs_as_they_were(self, tmp_path, capsys, existing):
        # One output exists and holds an earlier report; the other is new.
        paths = {"--json-out": tmp_path / "report.json", "--csv-out": tmp_path / "margins.csv"}
        paths[existing].write_text("old")
        argv = ["verify", "--count", "1000000000000000"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: not enough memory for the suite: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [paths[existing].name]
        assert paths[existing].read_text() == "old"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("flag", ["--json-out", "--csv-out"])
    def test_full_device_exits_2(self, tmp_path, capsys, flag):
        other = {"--json-out": "--csv-out", "--csv-out": "--json-out"}[flag]
        rc = main(["verify", "--count", "64", flag, "/dev/full", other, str(tmp_path / "new.out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: cannot write /dev/full: No space left on device\n"
        assert list(tmp_path.iterdir()) == []  # the file this run created is removed

    def test_failed_write_removes_the_outputs_it_created(self, tmp_path, capsys, monkeypatch):
        written = []

        def full(self, case_id, margins):  # the disk fills up at the third column
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            written.append(case_id)

        monkeypatch.setattr(reprs.MarginsCsv, "add", full)
        old, new = tmp_path / "old.json", tmp_path / "new.csv"
        old.write_text("old")
        rc = main(["verify", "--count", "64", "--json-out", str(old), "--csv-out", str(new)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""  # the CSV is written during the run, so no verdict is printed
        assert err == f"error: cannot write {new}: No space left on device\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
        assert old.read_text() == "old"  # the JSON is written after the run

    @pytest.mark.parametrize("outputs", [False, True], ids=["no-outputs", "outputs"])
    def test_non_finite_statistic_exits_2(self, tmp_path, capsys, outputs):
        # factor * sigma overflows, so the mean margin is inf, which JSON cannot hold
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"cases": [{"op": "kv_factor", "function": "strip_map", "factor": 1e308}]}))
        old = tmp_path / "old.json"
        old.write_text("old")
        argv = ["verify", "--config", str(cfg), "--count", "2000"]
        if outputs:
            argv += ["--json-out", str(old), "--csv-out", str(tmp_path / "new.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings do not reach the user
            rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: kv_factor:strip_map: mean_margin is not finite: inf\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json", "old.json"]
        assert old.read_text() == "old"

    def test_overflowing_sum_of_finite_margins_has_a_finite_mean(self, tmp_path, capsys):
        # margins up to 8.7e306, every one finite: their plain sum overflows,
        # their mean (3.0e306) does not
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps({"cases": [{"op": "kv_factor", "function": "strip_map", "factor": 1e306}]}))
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--config", str(cfg), "--count", "2000", "--json-out", str(out)])
        capsys.readouterr()
        assert rc in (0, 1)
        (case,) = json.loads(out.read_text())["data"]["cases"]
        assert math.isfinite(case["mean_margin"])
        assert 1e306 < case["mean_margin"] < 1e307

    @pytest.mark.parametrize("csv_path", ["same.out", "./same.out"], ids=["literal", "dot-alias"])
    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_one_path_for_both_outputs_exits_2(self, tmp_path, capsys, monkeypatch, csv_path,
                                               exists):
        monkeypatch.chdir(tmp_path)
        if exists:
            (tmp_path / "same.out").write_text("old")
        rc = main(["verify", "--count", "64", "--json-out", "same.out", "--csv-out", csv_path])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: --json-out and --csv-out name the same file\n"
        assert [p.name for p in tmp_path.iterdir()] == (["same.out"] if exists else [])
        if exists:
            assert (tmp_path / "same.out").read_text() == "old"

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPCONTRACT_SEED", "777")
        jpath = tmp_path / "env.json"
        assert main(["verify", "--count", "64", "--json-out", str(jpath)]) == 0
        assert json.loads(jpath.read_text())["data"]["seed"] == 777
        jpath2 = tmp_path / "flag.json"
        assert main(["verify", "--count", "64", "--seed", "5", "--json-out", str(jpath2)]) == 0
        assert json.loads(jpath2.read_text())["data"]["seed"] == 5
        capsys.readouterr()


# Malformed values for the config fuzz.  Numbers stay small so that no drawn
# config asks for more than a few samples or worker threads.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(max_value=4.0),
    st.just(math.nan),
    st.text(alphabet="xyz-_. ", max_size=4),
    st.sampled_from(["abs_inequalities", "pavlovic", "strip", "cayley", "strip_map"]),
    st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=2),
)
_TOP_FIELDS = ("workers", "schema_version", "ball_dims", "sample", "cases")
_SAMPLE_FIELDS = ("count", "seed", "radius_cap", "scheme")
_CASE_FIELDS = ("op", "function", "weight", "factor")


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 64),
    overrides=st.dictionaries(
        st.sampled_from(_TOP_FIELDS + _SAMPLE_FIELDS + _CASE_FIELDS), _JUNK, min_size=1, max_size=3
    ),
)
@example(count=1, overrides={"cases": [0], "op": None})
@example(count=1, overrides={"weight": [0]})
@example(count=1, overrides={"weight": math.nan})
def test_fuzzed_config_never_tracebacks(count, overrides):
    cfg = {
        "sample": {"count": count, "seed": 3},
        "cases": [
            {"op": "kv_factor", "function": "strip_map"},
            {"op": "re_contraction", "function": "strip_map", "weight": "strip"},
            {"op": "abs_inequalities"},
        ],
        "ball_dims": [1],
    }
    for key, value in overrides.items():
        if key in _TOP_FIELDS:
            cfg[key] = value
        elif key in _SAMPLE_FIELDS and isinstance(cfg["sample"], dict):
            cfg["sample"][key] = value
        elif (
            key in _CASE_FIELDS
            and isinstance(cfg["cases"], list)
            and cfg["cases"]
            and isinstance(cfg["cases"][0], dict)
        ):
            cfg["cases"][0][key] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--config", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _run_quietly(argv):
    """Exit code, stdout and stderr of ``main(argv)``; argparse usage errors count as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _strict_json(text: str):
    """``json.loads`` that refuses the non-JSON constants NaN, Infinity and -Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# Argument texts for the subcommand fuzz: small numbers plus the special
# values that float() and complex() accept.
_NUMBER_TEXT = st.one_of(
    st.integers(-3, 4).map(str),
    st.floats(-4.0, 4.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "x", "", "pi", "e"]),
)
_POINT_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.builds(lambda x, y: f"{x!r}{y:+}i", st.floats(-2.0, 2.0), st.floats(-3.0, 3.0)),
)


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from(["disk", "halfplane", "strip", "torus"]),
    z=_POINT_TEXT,
    w=_POINT_TEXT,
)
@example(domain="strip", z="0", w="1.7e308i")
@example(domain="strip", z="1e308", w="0")
@example(domain="halfplane", z="1e308", w="1e308+1e308i")
@example(domain="halfplane", z="1+1e308i", w="1-1e308i")
@example(domain="halfplane", z="5e-324", w="1e308")
@example(domain="halfplane", z="1.7e308+1.7e308i", w="1e-300-1.7e308i")
@example(domain="disk", z="1e308i", w="0")
def test_fuzzed_distance_never_tracebacks(domain, z, w):
    rc, out, err = _run_quietly(["distance", domain, z, w])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 0:
        assert math.isfinite(_strict_json(out)["value"])
    else:
        assert out == ""


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["sin", "sinh", "linear", "cosh"]),
    values=st.dictionaries(
        st.sampled_from(["--k", "--C1", "--C2", "--C"]), _NUMBER_TEXT, max_size=4
    ),
    t0=_NUMBER_TEXT,
    t1=_NUMBER_TEXT,
    rows=st.integers(-3, 12),
)
@example(family="sinh", values={"--C1": "1e300"}, t0="0.1", t1="1", rows=11)
@example(family="sinh", values={}, t0="0", t1="nan", rows=11)
@example(family="sinh", values={"--k": "nan"}, t0="0.1", t1="1", rows=11)
def test_fuzzed_ode_never_tracebacks(family, values, t0, t1, rows):
    argv = ["ode", "--family", family, "--t0", t0, "--t1", t1, "--rows", str(rows)]
    for flag, value in values.items():
        argv += [flag, value]
    rc, _, err = _run_quietly(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(
    source=st.one_of(
        st.tuples(st.just("--weight"), st.sampled_from(["strip", "half_plane", "disk_diameter", "x"])),
        st.tuples(st.just("--domain"), st.sampled_from(["disk", "halfplane", "strip", "torus"])),
    ),
    points=st.integers(-3, 40),
)
def test_fuzzed_curvature_never_tracebacks(source, points):
    rc, _, err = _run_quietly(["curvature", *source, "--points", str(points)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


_REPORT_KEYS = ("data", "cases", "overall_pass", "status", "min_margin", "case_id", "samples_used")
_JSON_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 4),
        st.floats(-4.0, 4.0),
        st.text(alphabet="xyz ", max_size=3),
        st.sampled_from(["pass", "violated", "hypothesis-not-met"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(_REPORT_KEYS), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None)
@given(payload=_JSON_JUNK)
@example(payload={"cases": [{"status": "pass"}]})
def test_fuzzed_report_never_tracebacks(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(payload))
        rc, _, err = _run_quietly(["report", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


class TestReport:
    def test_round_trip(self, tmp_path, capsys):
        jpath = tmp_path / "suite.json"
        assert main(["verify", "--count", "128", "--json-out", str(jpath)]) == 0
        capsys.readouterr()
        rc = main(["report", str(jpath)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out

    def test_failing_payload(self, tmp_path, capsys):
        path = tmp_path / "fail.json"
        path.write_text(json.dumps({"overall_pass": False, "cases": []}))
        rc = main(["report", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "overall: FAIL" in out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "gone.json")])
        capsys.readouterr()
        assert rc == 2

    def test_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"overall_pass": true, "cases": [], "note": "\xe9"}')
        rc = main(["report", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"error: {path} is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 45: "
            "invalid continuation byte\n"
        )
        assert captured.out == ""

    def test_nested_too_deeply_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"overall_pass": true, "cases": ' + "[" * 100_000 + "]" * 100_000 + "}")
        rc = main(["report", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: maximum recursion depth exceeded")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], {"data": 3}, {"cases": "x"}, {"cases": [1]}, {"cases": [{"status": "pass"}]}],
    )
    def test_malformed_payload_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        rc = main(["report", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: malformed report")
        assert captured.out == ""


class TestDistance:
    def test_disk_closed_form(self, capsys):
        rc = main(["distance", "disk", "0", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["method"] == "closed_form"
        assert out["value"] == pytest.approx(LOG_3, rel=1e-13)

    def test_half_plane_with_constant(self, capsys):
        rc = main(["distance", "halfplane", "1", "e"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["value"] == pytest.approx(1.0, rel=1e-13)

    def test_half_plane_far_apart_is_finite(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["distance", "halfplane", "3", "1e300"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["value"] == pytest.approx(math.log(1e300 / 3.0), rel=1e-13)

    @pytest.mark.parametrize(
        "z, w, exact",
        [
            # 2 asinh(1/2): the old denominator 2 sqrt(Re z) sqrt(Re w) overflowed to inf
            ("1e308", "1e308+1e308i", 0.962423650119207),
            # 2 asinh(1e308): the old difference z - w overflowed to inf
            ("1+1e308i", "1-1e308i", 1419.77871164545),
            # 2 log(2q) as a sum of logs: q itself (about 2e315) overflowed to inf
            ("5e-324", "1e308", 1453.636280563547),
            # |z/2 - w/2| overflowed in complex abs, which raised OverflowError
            ("1.7e308+1.7e308i", "1e-300-1.7e308i", 1402.111802703876),
        ],
    )
    def test_half_plane_near_the_largest_double(self, capsys, z, w, exact):
        rc = main(["distance", "halfplane", z, w])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["value"] == pytest.approx(exact, rel=1e-14)

    def test_non_finite_distance_exits_2(self, capsys):
        # JSON has no Infinity, so an overflowing distance is an error, not a value
        rc = main(["distance", "strip", "0", "1.7e308i"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_strip_variational_fields(self, capsys):
        rc = main(["distance", "strip", "0", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["method"] == "variational"
        assert out["converged"] is True
        assert isinstance(out["iterations"], int)
        assert out["value"] == pytest.approx(0.881373587019543, rel=1e-6)

    def test_strip_matches_conformal_oracle(self, capsys):
        rc = main(["distance", "strip", "--", "0.2+0.4i", "-0.3+1i"])
        out = json.loads(capsys.readouterr().out)
        a, b = (cmath.tanh(-0.25j * math.pi * p) for p in (0.2 + 0.4j, -0.3 + 1.0j))
        exact = 2.0 * math.atanh(abs((a - b) / (1.0 - a.conjugate() * b)))
        assert rc == 0
        assert out["converged"] is True
        assert out["value"] == pytest.approx(exact, rel=1e-12)

    def test_near_boundary_point_has_no_traceback(self, capsys):
        rc = main(["distance", "strip", "0.999999999999", "0"])
        captured = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 0:
            assert json.loads(captured.out)["value"] > 0.0
        else:
            assert captured.err.startswith("error:")

    def test_solver_failure_exits_2(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise QuadratureError("quadrature did not converge", 1.0)

        monkeypatch.setattr(cli, "distance", failing)
        rc = main(["distance", "strip", "0", "0.5"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: quadrature did not converge")

    def test_bad_point(self, capsys):
        rc = main(["distance", "disk", "zzz", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_point_outside_domain(self, capsys):
        rc = main(["distance", "disk", "0", "2"])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_domain(self, capsys):
        rc = main(["distance", "torus", "0", "0.5"])
        assert rc == 2
        capsys.readouterr()


class TestCurvature:
    def test_strip_weight_table(self, capsys):
        rc = main(["curvature", "--weight", "strip"])
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        assert lines[0] == "t,curvature"
        assert len(lines) == 22
        for line in lines[1:]:
            _, k = line.split(",")
            assert float(k) == pytest.approx(-1.0, abs=1e-8)

    def test_diameter_weight_center_value(self, capsys):
        rc = main(["curvature", "--weight", "disk_diameter", "--points", "21"])
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        t_mid, k_mid = (float(x) for x in lines[11].split(","))
        assert t_mid == pytest.approx(0.0, abs=1e-6)
        assert k_mid == pytest.approx(-0.5, abs=1e-6)

    def test_domain_route(self, capsys):
        rc = main(["curvature", "--domain", "disk", "--points", "11"])
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        assert len(lines) == 12
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(-1.0, abs=1e-10)

    def test_strip_domain_route(self, capsys):
        rc = main(["curvature", "--domain", "strip", "--points", "11"])
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        assert len(lines) == 12
        for line in lines[1:]:
            t, k = (float(x) for x in line.split(","))
            assert -1.0 < t < 1.0
            assert k == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("route", [["--weight", "strip"], ["--domain", "disk"]])
    def test_points_too_many_to_allocate_exits_2(self, capsys, route):
        # 8 PB of grid: the allocation is refused outright, so no memory is touched.
        rc = main(["curvature", *route, "--points", str(10**15)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: not enough memory for --points {10**15}: ")
        assert captured.out == ""

    def test_unknown_weight(self, capsys):
        rc = main(["curvature", "--weight", "nope"])
        assert rc == 2
        capsys.readouterr()

    def test_weight_and_domain_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", "--weight", "strip", "--domain", "disk"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestOde:
    def test_sinh_family_errors_under_tolerance(self, capsys):
        rc = main(
            ["ode", "--family", "sinh", "--C1", "1", "--C2", "1", "--t0", "0", "--t1", "1"]
        )
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        assert lines[0] == "t,lambda_num,lambda_exact,error"
        assert len(lines) == 102
        errs = [abs(float(line.split(",")[3])) for line in lines[1:]]
        assert max(errs) < 1e-12

    def test_row_count_option(self, capsys):
        rc = main(
            ["ode", "--family", "linear", "--C", "1", "--t0", "0", "--t1", "1", "--rows", "11"]
        )
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        assert len(lines) == 12

    def test_span_where_a_1e_9_pad_rounds_away(self, capsys):
        # 1/(t + 1) has no singularity on [0, 1e8], but 1e8 + 1e-9 == 1e8
        rc = main(["ode", "--family", "linear", "--C", "1", "--t0", "0", "--t1", "1e8"])
        lines = _rows(capsys.readouterr().out)
        assert rc == 0
        assert len(lines) == 102
        assert float(lines[-1].split(",")[0]) == 1e8

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t1", "1", "--rows", "-3"],
            ["--t1", "1", "--rows", "0"],
            # 8 PB of table: the allocation is refused outright, so no memory is touched
            ["--t1", "1", "--rows", str(10**15)],
            ["--t1", "1", "--C1", "1e300"],
            ["--t1", "nan"],
            ["--t1", "1", "--C2", "inf"],
            # a constant the family does not read (the base flags give C2 = 1)
            ["--t1", "1", "--C", "7"],
            ["--t1", "1", "--family", "sin", "--C", "7"],
            ["--t1", "1", "--family", "linear", "--C1", "5", "--C", "1"],
            ["--t1", "1", "--family", "linear", "--C", "1"],
            # far out on sinh exp(lambda) underflows; further out 2 cosh, then
            # sinh overflow, though sinh has no singularity there
            ["--t0", "700", "--t1", "701"],
            ["--t0", "709", "--t1", "709.5"],
            ["--t0", "800", "--t1", "801"],
            # 2 C1^2 of the closed form underflows to 0
            ["--C1", "1e-300", "--t0", "0", "--t1", "1"],
            ["--family", "sin", "--C1", "1e-170", "--t0", "0", "--t1", "1"],
        ],
    )
    def test_bad_input_exits_2(self, capsys, recwarn, flags):
        rc = main(["ode", "--family", "sinh", "--C2", "1", "--t0", "0.1", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert "Warning" not in captured.err and not recwarn.list
        messages = {
            "700": "exp(lambda) underflows at the initial state",
            "709": "sinh(C1 t + C2) is too large at t: the closed form overflows",
            "800": "sinh(C1 t + C2) is too large at t: the closed form overflows",
            "1e300": "C1 = 1e+300 is out of range: 2 C1^2 is inf, not a positive finite float",
            "1e-300": "C1 = 1e-300 is out of range: 2 C1^2 is 0, not a positive finite float",
            "1e-170": "C1 = 1e-170 is out of range: 2 C1^2 is 0, not a positive finite float",
        }
        given = dict(zip(flags[::2], flags[1::2]))
        key = given.get("--C1", given.get("--t0"))
        if key in messages:
            assert captured.err == f"error: {messages[key]}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--family", "sin", "--C", "7"], "--C is not a constant of the sin family"),
            (["--family", "sinh", "--C", "0"], "--C is not a constant of the sinh family"),
            (["--family", "linear", "--C1", "5", "--C", "1"],
             "--C1 is not a constant of the linear family"),
            (["--family", "linear", "--C2", "3"], "--C2 is not a constant of the linear family"),
        ],
    )
    def test_constant_of_another_family_exits_2(self, capsys, flags, message):
        rc = main(["ode", *flags, "--t0", "0", "--t1", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_tol_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ode", "--family", "sinh", "--t0", "0.5", "--t1", "1", "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["2", "nan"])
    def test_k_option_is_gone(self, capsys, value):
        # lambda'' = exp(lambda) has no k, so the flag changed no output
        with pytest.raises(SystemExit) as exc:
            main(["ode", "--family", "sinh", "--C2", "1", "--t0", "0.1", "--t1", "1", "--k", value])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_singular_interval_rejected(self, capsys):
        rc = main(["ode", "--family", "sin", "--C1", "1", "--C2", "0", "--t0", "0", "--t1", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "vanishes" in err


_SCIPY_BLOCKED = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy or a subpackage now raises ImportError
from dataclasses import replace
import numpy as np
from hypcontract import cli, domains, liouville, weights
fam = weights.WeightFamily("sin", C1=np.pi / 2, C2=-np.pi / 2)
traj = liouville.solve_liouville(liouville.family_initial_state(fam, -0.9), 0.9)
w = liouville.lambda_to_weight(traj)
print(weights.omega_distance(w, -0.5, 0.6) > 0.0)
print(weights.omega_distance(w, np.array([-0.5, 0.1]), np.array([0.6, 0.1])).shape)
print(domains.path_length(domains.PoincareDisk(), domains.PathPolyline.straight(0.0, 0.5)) > 0.0)
for wt in (weights.strip_weight(), replace(weights.strip_weight(), antiderivative=None)):
    print(domains.distance(domains.Strip(wt), 0.2 + 0.4j, -0.3 + 1.0j).certificate["converged"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["ode", "--family", "sinh", "--C2", "1", "--t0", "0", "--t1", "1"]),
             cli.main(["verify", "--count", "2048"])]
print(codes)
"""


def _fresh_interpreter_lines(code: str) -> list:
    """The stdout lines of ``code`` run in a new interpreter that imports this package."""
    src = str(Path(hypcontract.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def test_no_command_or_quadrature_imports_scipy():
    out = _fresh_interpreter_lines(_SCIPY_BLOCKED)
    assert out == ["True", "(2,)", "True", "True", "True", "[0, 0]"]


_LOADED_SUBMODULES = """
import sys
import hypcontract
print(sorted(m for m in sys.modules if m.startswith("hypcontract")))
from hypcontract import domains, liouville, weights
print(sorted(m for m in sys.modules if m.startswith("hypcontract")))
"""


def test_package_root_loads_no_submodule():
    # A strip distance or a Liouville solve pays for no harness, catalog or ball import.
    assert _fresh_interpreter_lines(_LOADED_SUBMODULES) == [
        "['hypcontract']",
        "['hypcontract', 'hypcontract.disk', 'hypcontract.domains', 'hypcontract.liouville', "
        "'hypcontract.weights']",
    ]


_LOADED_FOR_CSV = """
import contextlib, io, sys, tempfile
import hypcontract.cli
loaded = ["hypcontract.reprs" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
    hypcontract.cli.main(["verify", "--count", "64"])
    loaded.append("hypcontract.reprs" in sys.modules)
    hypcontract.cli.main(["verify", "--count", "64", "--csv-out", tmp + "/margins.csv"])
    loaded.append("hypcontract.reprs" in sys.modules)
print(loaded)
"""


def test_only_the_margins_csv_loads_the_block_formatter():
    # import time (setup_s) and a verify without --csv-out pay nothing for it
    assert _fresh_interpreter_lines(_LOADED_FOR_CSV) == ["[False, False, True]"]


def test_catalog_listing(capsys):
    rc = main(["catalog"])
    lines = _rows(capsys.readouterr().out)
    assert rc == 0
    assert len(lines) == 8
    assert lines[0].startswith("identity")
    assert any("codomain=right_half_plane" in line for line in lines)
    assert any("strip_map" in line for line in lines)


def test_missing_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert hypcontract.__version__ == tomllib.load(fh)["project"]["version"]
