"""Command-line front end: suite runs, distance and curvature queries, ODE CSV.

Exit codes: 0 all requested checks pass, 1 a verification failed (violation or
hypothesis-not-met), 2 usage or configuration error.  All numeric output uses
15 significant digits; JSON reports separate a deterministic ``data`` payload
from a ``meta`` block holding wall times.  The environment variable
HYPCONTRACT_SEED overrides the built-in default seed (explicit --seed or a
seed in the config file still wins, and the variable is then not read).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import harness
from .catalog import catalog
from .domains import HalfPlane, PoincareDisk, Strip, distance, gauss_curvature
from .harness import (
    DEFAULT_SEED,
    WEIGHT_FACTORIES,
    CaseSpec,
    ConfigError,
    SampleSpec,
    SuiteConfig,
    default_config,
    run_suite,
)
from .liouville import closed_form_lambda, family_initial_state, solve_liouville
from .weights import (
    GridSpec,
    Interval,
    WeightFamily,
    curvature_k,
    family_weight,
    strip_weight,
)

_CONSTANTS = {"e": math.e, "pi": math.pi}


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


def parse_point(text: str) -> complex:
    """Parse a complex point; accepts i or j notation and the constants e, pi."""
    t = text.strip().lower()
    if t in _CONSTANTS:
        return complex(_CONSTANTS[t])
    try:
        return complex(t.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}")


def _env_seed(errors: list) -> int:
    raw = os.environ.get("HYPCONTRACT_SEED", str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError:
        errors.append(f"HYPCONTRACT_SEED: not an integer: {raw!r}")
        return DEFAULT_SEED


def _config_from_dict(raw: dict, args) -> SuiteConfig:
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    sample_raw = raw.get("sample", {})
    if not isinstance(sample_raw, dict):
        errors.append("sample: must be an object")
        sample_raw = {}
    count = args.count if args.count is not None else sample_raw.get("count", 10_000)
    if args.seed is not None:
        seed = args.seed
    else:  # the environment is read only when the config sets no seed either
        seed = sample_raw["seed"] if "seed" in sample_raw else _env_seed(errors)
    radius_cap = sample_raw.get("radius_cap", 0.99)
    # JSON numbers only: bool is an int subclass, and int() or float() would
    # truncate 5.7 or parse "64".
    type_errors = [
        f"sample: {name}: {value!r} is not an integer"
        for name, value in (("count", count), ("seed", seed))
        if type(value) is not int
    ]
    if type(radius_cap) not in (int, float):
        type_errors.append(f"sample: radius_cap: {radius_cap!r} is not a number")
    errors.extend(type_errors)
    sample = SampleSpec(count=1, seed=DEFAULT_SEED)  # stands in for a bad sample block
    if not type_errors:
        try:
            sample = SampleSpec(
                count=count,
                seed=seed,
                radius_cap=float(radius_cap),
                scheme=sample_raw.get("scheme", "uniform_disk"),
            )
        except (ValueError, OverflowError) as exc:
            errors.append(f"sample: {exc}")
    cases_raw = raw.get("cases", [])
    cases = []
    if not isinstance(cases_raw, list):
        errors.append("cases: must be a list")
        cases_raw = []
    for i, c in enumerate(cases_raw):
        if not isinstance(c, dict) or "op" not in c:
            errors.append(f"cases[{i}]: must be an object with an 'op' field")
            continue
        cases.append(
            CaseSpec(
                op=str(c["op"]),
                function=c.get("function"),
                weight=c.get("weight"),
                factor=c.get("factor"),
            )
        )
    ball_dims = raw.get("ball_dims", [1, 2, 3])
    if not isinstance(ball_dims, list):
        errors.append("ball_dims: must be a list of integers")
        ball_dims = []
    config = SuiteConfig(
        sample=sample,
        cases=tuple(cases),
        ball_dims=tuple(ball_dims),
        workers=args.workers if args.workers is not None else raw.get("workers", 1),
        schema_version=raw.get("schema_version", 1),
    )
    errors.extend(harness.validate_config(config))
    if errors:
        raise ConfigError(errors)
    return config


def _load_config(args) -> SuiteConfig:
    """The validated suite config of ``verify``; ConfigError lists what is wrong.

    Without ``--config`` the built-in full suite takes the same route as a
    config file that lists its cases.
    """
    if args.config is None:
        return _config_from_dict({"cases": [vars(cs) for cs in default_config().cases]}, args)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config is not UTF-8: {exc}"])
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return _config_from_dict(raw, args)


def _report_line(r: dict) -> str:
    status = r["status"]
    tag = {"pass": "PASS", "violated": "FAIL", "hypothesis-not-met": "HYPO"}[status]
    mm = r["min_margin"]
    detail = f"min_margin={_fmt(mm)}" if mm is not None else "margins=n/a"
    return f"{tag:<5} {r['case_id']:<40} {detail}  samples={r['samples_used']}"


def _same_file(a: str, b: str) -> bool:
    """Whether two output paths name one file: ``./a`` and ``a``, or two links to it."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_block_heap() -> None:
    """Let glibc's heap keep the block temporaries that a ``verify`` without ``--csv-out`` frees.

    Such a run frees no full-length array, only block temporaries (1.6 MB
    at most), and glibc maps and unmaps them, or trims them off its heap, on
    every block: its mmap and trim thresholds start at 128 KiB and rise only
    when a larger mapped chunk is freed, as in a run that holds full-length
    margins.  Above 4 MiB an array still gets its own mapping, and up to 16
    MiB of freed heap is kept for the next block.  Elsewhere than glibc
    nothing is set.
    """
    import ctypes  # only this run needs it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def cmd_verify(args) -> int:
    try:
        config = _load_config(args)
    except ConfigError as exc:
        json.dump({"errors": exc.errors}, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2
    if args.json_out and args.csv_out and _same_file(args.json_out, args.csv_out):
        sys.stderr.write("error: --json-out and --csv-out name the same file\n")
        return 2
    created = []  # outputs this run made; a run that fails removes them again

    def fail(message: str) -> int:
        for path in created:
            os.remove(path)
        sys.stderr.write(f"error: {message}\n")
        return 2

    # Check the outputs before the suite runs, so a bad path costs no run.
    # Append mode creates a missing file and leaves an existing one as it is.
    for path in (args.json_out, args.csv_out):
        if path:
            existed = os.path.lexists(path)
            try:
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                return fail(f"cannot write {path}: {exc.strerror or exc}")
            if not existed:
                created.append(path)
    # The CSV is written during the run, a case at a time.  It is opened, and
    # an existing file truncated, only when its first column arrives.
    csv = None
    if args.csv_out:
        from . import reprs  # only a CSV needs it; ``verify`` without one never loads it
    else:
        _keep_block_heap()

    def add_margins(case_id, margins):
        nonlocal csv
        if csv is None:
            csv = reprs.MarginsCsv(files.enter_context(open(args.csv_out, "wb")))
        csv.add(case_id, margins)

    try:
        # closing flushes; a full disk may show only then
        with warnings.catch_warnings(), contextlib.ExitStack() as files:
            # numpy's, on every thread: an overflow is reported below, by the statistic it makes infinite
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            result = run_suite(
                config, keep_margins=False, on_margins=add_margins if args.csv_out else None
            )
            if args.csv_out and csv is None:  # no report has margins: the header alone
                reprs.MarginsCsv(files.enter_context(open(args.csv_out, "wb")))
    except MemoryError as exc:  # a --count whose streams cannot be allocated
        return fail(f"not enough memory for the suite: {exc}")
    except OSError as exc:  # the suite itself does no I/O
        return fail(f"cannot write {args.csv_out}: {exc.strerror or exc}")
    try:  # a non-finite statistic is no verdict, with or without --json-out
        report_json = result.to_json()
    except ValueError as exc:
        return fail(str(exc))
    for r in result.reports:
        print(_report_line(r.to_dict()))
    print(f"overall: {'PASS' if result.overall_pass else 'FAIL'}")
    if args.json_out:  # a write can still fail (a full disk); that is an error, not a verdict
        try:
            with open(args.json_out, "wb") as fh:
                fh.write(report_json.encode())
        except OSError as exc:
            return fail(f"cannot write {args.json_out}: {exc.strerror or exc}")
    return 0 if result.overall_pass else 1


def _parse_domain(spec: str):
    name = spec.strip().lower()
    if name == "disk":
        return PoincareDisk()
    if name in ("halfplane", "half_plane"):
        return HalfPlane()
    if name == "strip":
        return Strip(weight=strip_weight())
    raise ValueError(f"unknown domain {spec!r} (expected disk, halfplane or strip)")


def cmd_distance(args) -> int:
    try:
        dom = _parse_domain(args.domain)
        z = parse_point(args.z)
        w = parse_point(args.w)
        res = distance(dom, z, w)
        if not math.isfinite(res.value):  # JSON has no Infinity
            raise ValueError(f"the distance is not finite: {res.value}")
    except (ValueError, RuntimeError) as exc:  # RuntimeError: the strip solver failed
        sys.stderr.write(f"error: {exc}\n")
        return 2
    out = {"value": float(_fmt(res.value)), "method": res.method}
    if res.certificate is not None:
        out["iterations"] = res.certificate["iterations"]
        out["converged"] = res.certificate["converged"]
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_curvature(args) -> int:
    try:
        if args.weight is not None:
            if args.weight not in WEIGHT_FACTORIES:
                raise ValueError(f"unknown weight {args.weight!r}")
            w = WEIGHT_FACTORIES[args.weight]()
            ts = GridSpec(n=args.points).points(w.domain)
            ks = np.asarray(curvature_k(w, ts), dtype=float)
        else:
            dom = _parse_domain(args.domain)
            if dom.kind == "poincare_disk":
                interval = Interval(-1.0, 1.0)
            elif dom.kind == "strip":
                interval = dom.weight.domain
            else:
                interval = Interval(0.0, math.inf)
            ts = GridSpec(n=args.points).points(interval)
            zs = ts.astype(complex)
            ks = np.asarray(gauss_curvature(dom, zs), dtype=float)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # a --points whose table cannot be allocated
        sys.stderr.write(f"error: not enough memory for --points {args.points}: {exc}\n")
        return 2
    print("t,curvature")
    for t, k in zip(ts, ks):
        print(f"{_fmt(t)},{_fmt(k)}")
    return 0


# The constants each ode family reads: u = C1 t + C2, or u = t + C for linear.
_ODE_CONSTANTS = {"sin": ("C1", "C2"), "sinh": ("C1", "C2"), "linear": ("C",)}


def cmd_ode(args) -> int:
    try:
        if args.rows < 1:
            raise ValueError("--rows must be at least 1")
        given = {c: getattr(args, c) for c in ("C1", "C2", "C") if getattr(args, c) is not None}
        for name in given:  # the others keep WeightFamily's defaults
            if name not in _ODE_CONSTANTS[args.family]:
                raise ValueError(f"--{name} is not a constant of the {args.family} family")
        lo, hi = sorted((args.t0, args.t1))
        # Pad each end by at least one ulp: above about 1e7 a 1e-9 pad rounds away.
        ulp_lo, ulp_hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        domain = Interval(min(lo - 1e-9, ulp_lo), max(hi + 1e-9, ulp_hi))
        fam = WeightFamily(kind=args.family, domain=domain, **given)
        family_weight(fam)  # validates the interval is singularity-free
        initial = family_initial_state(fam, args.t0)
        traj = solve_liouville(initial, args.t1)
        ts = np.linspace(traj.t_min, traj.t_max, args.rows)
        lam_num = np.asarray(traj.interpolate(ts), dtype=float)
        lam_exact = np.asarray(closed_form_lambda(fam, ts), dtype=float)
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # a --rows whose table cannot be allocated
        sys.stderr.write(f"error: not enough memory for --rows {args.rows}: {exc}\n")
        return 2
    if traj.blown_up:
        sys.stderr.write("warning: trajectory hit the blow-up cap; rows cover the partial span\n")
    print("t,lambda_num,lambda_exact,error")
    for t, a, b in zip(ts, lam_num, lam_exact):
        print(f"{_fmt(t)},{_fmt(a)},{_fmt(b)},{_fmt(a - b)}")
    return 0


def cmd_catalog(args) -> int:
    for f in catalog():
        params = ", ".join(f"{k}={v}" for k, v in f.params.items()) or "-"
        print(f"{f.name:<18} codomain={f.codomain:<18} params: {params}")
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"error: {args.path} is not UTF-8: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        data = payload.get("data", payload) if isinstance(payload, dict) else None
        if not isinstance(data, dict):
            raise ValueError("the report and its 'data' must be JSON objects")
        cases = data.get("cases", [])
        if not (isinstance(cases, list) and all(isinstance(r, dict) for r in cases)):
            raise ValueError("'cases' must be a list of JSON objects")
        lines = [_report_line(r) for r in cases]
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: malformed report: {exc}\n")
        return 2
    for line in lines:
        print(line)
    ok = bool(data.get("overall_pass"))
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcontract",
        description="Sampled verification of hyperbolic contraction inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--config", help="JSON suite config (default: built-in full suite)")
    p.add_argument("--seed", type=int, help="sampling seed override")
    p.add_argument("--count", type=int, help="samples per case override")
    p.add_argument("--workers", type=int, help="threads evaluating blocks, this one included")
    p.add_argument("--json-out", help="write the full JSON report here")
    p.add_argument("--csv-out", help="write per-sample margins CSV here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="distance between two points of a domain")
    p.add_argument("domain", help="disk | halfplane | strip")
    p.add_argument("z")
    p.add_argument("w")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("curvature", help="curvature table of a weight or domain")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight", help="strip | half_plane | disk_diameter")
    group.add_argument("--domain", help="disk | halfplane | strip")
    p.add_argument("--points", type=int, default=21)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("ode", help="solve lambda'' = exp(lambda) against a closed form")
    p.add_argument("--family", choices=("sin", "sinh", "linear"), required=True)
    p.add_argument("--C1", type=float, help="sin and sinh: u = C1 t + C2 (default 1)")
    p.add_argument("--C2", type=float, help="sin and sinh (default 0)")
    p.add_argument("--C", type=float, help="linear: u = t + C (default 0)")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--rows", type=int, default=101)
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("catalog", help="list the holomorphic test maps")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("report", help="pretty-print a saved JSON report")
    p.add_argument("path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
