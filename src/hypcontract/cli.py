"""Command-line front end: suite runs, distance and curvature queries, ODE CSV.

Exit codes: 0 all requested checks pass, 1 a verification failed (violation or
hypothesis-not-met), 2 usage or configuration error.  All numeric output uses
15 significant digits; JSON reports separate a deterministic ``data`` payload
from a ``meta`` block holding wall times.  The environment variable
HYPCONTRACT_SEED overrides the built-in default seed (explicit --seed or a
seed in the config file still wins).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

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


def _env_seed() -> int:
    raw = os.environ.get("HYPCONTRACT_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError([f"HYPCONTRACT_SEED: not an integer: {raw!r}"]) from None


def _config_from_dict(raw: dict, args) -> SuiteConfig:
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    sample_raw = raw.get("sample", {})
    if not isinstance(sample_raw, dict):
        errors.append("sample: must be an object")
        sample_raw = {}
    seed = args.seed if args.seed is not None else sample_raw.get("seed", _env_seed())
    try:
        sample = SampleSpec(
            count=int(args.count if args.count is not None else sample_raw.get("count", 10_000)),
            seed=int(seed),
            radius_cap=float(sample_raw.get("radius_cap", 0.99)),
            scheme=sample_raw.get("scheme", "uniform_disk"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"sample: {exc}")
        sample = SampleSpec(count=1, seed=DEFAULT_SEED)
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
    """The validated suite config of ``verify``; ConfigError lists what is wrong."""
    if args.config is None:
        seed = args.seed if args.seed is not None else _env_seed()
        try:
            config = default_config(
                seed=seed,
                count=args.count if args.count is not None else 10_000,
                workers=args.workers if args.workers is not None else 1,
            )
        except ValueError as exc:
            raise ConfigError([f"sample: {exc}"]) from None
        # Through the module attribute, so the traced benchmark run counts this
        # call as validation, as it does run_suite's own.
        errors = harness.validate_config(config)
        if errors:
            raise ConfigError(errors)
        return config
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return _config_from_dict(raw, args)


def _report_line(r: dict) -> str:
    status = r["status"]
    tag = {"pass": "PASS", "violated": "FAIL", "hypothesis-not-met": "HYPO"}[status]
    mm = r["min_margin"]
    detail = f"min_margin={_fmt(mm)}" if mm is not None else "margins=n/a"
    return f"{tag:<5} {r['case_id']:<40} {detail}  samples={r['samples_used']}"


def cmd_verify(args) -> int:
    try:
        config = _load_config(args)
    except ConfigError as exc:
        json.dump({"errors": exc.errors}, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2
    with contextlib.ExitStack() as stack:
        # Open the outputs before the suite runs, so a bad path costs no run.
        out = {}
        for kind, path in (("json", args.json_out), ("csv", args.csv_out)):
            if path:
                try:
                    out[kind] = stack.enter_context(open(path, "w", encoding="utf-8"))
                except OSError as exc:
                    sys.stderr.write(f"error: cannot write {path}: {exc.strerror or exc}\n")
                    return 2
        result = run_suite(config, keep_margins="csv" in out)
        for r in result.reports:
            print(_report_line(r.to_dict()))
        print(f"overall: {'PASS' if result.overall_pass else 'FAIL'}")
        if "json" in out:
            out["json"].write(result.to_json())
        if "csv" in out:
            result.write_margins_csv(out["csv"])
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
    print("t,curvature")
    for t, k in zip(ts, ks):
        print(f"{_fmt(t)},{_fmt(k)}")
    return 0


def cmd_ode(args) -> int:
    try:
        if args.rows < 1:
            raise ValueError("--rows must be at least 1")
        domain = Interval(min(args.t0, args.t1) - 1e-9, max(args.t0, args.t1) + 1e-9)
        fam = WeightFamily(
            kind=args.family, k=args.k, C1=args.C1, C2=args.C2, C=args.C, domain=domain
        )
        family_weight(fam)  # validates the interval is singularity-free
        initial = family_initial_state(fam, args.t0)
        traj = solve_liouville(initial, args.t1)
        ts = np.linspace(traj.t_min, traj.t_max, args.rows)
        lam_num = np.asarray(traj.interpolate(ts), dtype=float)
        lam_exact = np.asarray(closed_form_lambda(fam, ts), dtype=float)
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
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
    except (OSError, json.JSONDecodeError) as exc:
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
    p.add_argument("--workers", type=int, help="parallel chunk workers")
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
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--C1", type=float, default=1.0)
    p.add_argument("--C2", type=float, default=0.0)
    p.add_argument("--C", type=float, default=0.0)
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
