"""hypcontract benchmark: three closed-loop workloads, checked outputs, a traced run.

Run from the root of a source checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload verify_bulk --seed 1 --seconds 20 --trace 0

Workloads (one client, each request waits for the previous one):

    verify_bulk  ``hypcontract verify --count 1000000 --workers 2`` per request
    verify_csv   ``hypcontract verify --count 100000 --workers 1`` plus the
                 margins CSV, per request
    queries      a child process answering a batch of strip distances and
                 Liouville solves, per request

With ``--trace 0`` every request is a fresh child process, timed from spawn to
exit, with its own peak RSS from ``os.wait4``.  With ``--trace 1`` the same
requests run in this process, alternating untraced and traced passes, and the
per-layer numbers come from spans around calls into each module (see
``layers.py``).  Every request's output is checked; a request that crashes,
exits non-zero or fails a check is a failed operation.

The human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every workload to a few seconds for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import queries  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
PY = sys.executable

WORKLOADS = ("verify_bulk", "verify_csv", "queries")
VERIFY = {
    "verify_bulk": {"count": 1_000_000, "workers": 2, "csv": False},
    "verify_csv": {"count": 100_000, "workers": 1, "csv": True},
}
VERIFY_SMOKE = {
    "verify_bulk": {"count": 4096, "workers": 2, "csv": False},
    "verify_csv": {"count": 2048, "workers": 1, "csv": True},
}
QUERY_BATCH = (16, 16)  # distances, solves (two of them blow-up solves)
QUERY_BATCH_SMOKE = (2, 8)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, import failure, ...)."""


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------- processes


@contextlib.contextmanager
def _watchdog(pid: int, timeout: float):
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        timer.join()


def spawn(argv: list[str], stdout: Path | None = None, stderr: Path | None = None):
    """Run ``argv`` to completion; returns (start monotonic, wall s, peak RSS MB, exit code).

    The peak RSS is the child's own, from ``os.wait4``; the child is killed if
    it outlives ``CHILD_TIMEOUT_S`` and is always reaped before returning.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout or os.devnull), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr or os.devnull), flags, 0o644),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        with _watchdog(pid, CHILD_TIMEOUT_S):
            _, status, usage = os.wait4(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        raise
    wall = time.monotonic() - start
    return start, wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def _tail(path: Path, n: int = 6) -> str:
    with contextlib.suppress(OSError):
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-n:])
    return ""


def measure_setup(tmp: Path, repeats: int) -> list[float]:
    """Seconds from launching a fresh interpreter to ``import hypcontract.cli`` returning.

    One untimed import first writes the bytecode caches, which users have too.
    """
    out, err = tmp / "setup.out", tmp / "setup.err"
    code = (
        "import time, hypcontract.cli as c; t = time.monotonic(); "
        "print(repr(t)); print(c.__file__)"
    )
    values = []
    for i in range(repeats + 1):
        start, _, _, rc = spawn([PY, "-c", code], out, err)
        if rc != 0:
            raise BenchError(f"import hypcontract.cli failed: {_tail(err)}")
        stamp, where = out.read_text().split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"hypcontract imported from {where}, not from {SRC}")
        if i:
            values.append(float(stamp) - start)
    return values


IMPORT_LAYERS = {
    "import.total_s": "hypcontract",
    "import.numpy_s": "numpy",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_integrate_s": "scipy.integrate",
}


def import_times(report: str) -> dict:
    """Seconds spent importing each package of ``IMPORT_LAYERS``, from ``-X importtime``.

    The report lists a module after the modules it imported, one indent level
    deeper.  A package's time is the cumulative time of its modules that no
    other module of the same package imported, wherever the import came from
    (scipy loads its subpackages lazily, so ``scipy.integrate`` itself may have
    no line of its own).
    """
    pending = []  # (depth, name, cumulative us, children)
    for line in report.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(cum), children))

    def inside(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    def walk(nodes, package: str) -> int:
        return sum(
            cum if inside(name, package) else walk(kids, package)
            for _, name, cum, kids in nodes
        )

    return {key: walk(pending, pkg) / 1e6 for key, pkg in IMPORT_LAYERS.items()}


def measure_importtime(tmp: Path, repeats: int) -> dict:
    """Import-layer seconds from ``python -X importtime`` (medians over runs)."""
    runs = []
    err = tmp / "importtime.err"
    for _ in range(repeats):
        _, _, _, rc = spawn([PY, "-X", "importtime", "-c", "import hypcontract.cli"], None, err)
        if rc != 0:
            raise BenchError(f"import hypcontract.cli failed: {_tail(err)}")
        runs.append(import_times(err.read_text()))
    return {key: median([r[key] for r in runs]) for key in IMPORT_LAYERS}


# ------------------------------------------------------------------ checks


def data_digest(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, indent=2, sort_keys=True).encode()).hexdigest()


def csv_digest(path: Path) -> tuple[str, int]:
    """sha256 of the margins CSV and its number of lines."""
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 23):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def check_verify(report: Path, csv: Path | None, expected: dict) -> tuple[list[str], int]:
    """Problems with one verify request's outputs, and its verified samples.

    Every case must pass, the ``data`` block must hash to the expected value,
    and the CSV must hash to its expected value with one row per sample.
    """
    try:
        data = json.loads(report.read_text())["data"]
        cases = data["cases"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"no readable report: {exc}"], 0
    problems = [f"{c['case_id']}: {c['status']}" for c in cases if c.get("status") != "pass"]
    if not data.get("overall_pass"):
        problems.append("overall_pass is false")
    samples = sum(int(c["samples_used"]) for c in cases)
    if data_digest(data) != expected["data_sha256"]:
        problems.append("data block differs from the expected hash")
    if csv is not None:
        try:
            digest, lines = csv_digest(csv)
        except OSError as exc:
            return problems + [f"no readable CSV: {exc}"], samples
        if lines != samples + 1:
            problems.append(f"CSV has {lines - 1} rows for {samples} samples")
        if digest != expected["csv_sha256"]:
            problems.append("CSV differs from the expected hash")
    return problems, samples


class Tally:
    """Attempted and failed operations; every failure is also reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


# ------------------------------------------------------------ verify requests


def verify_argv(cfg: dict, seed: int, out: Path, workers: int | None = None) -> list[str]:
    argv = ["verify", "--count", str(cfg["count"]), "--seed", str(seed)]
    argv += ["--workers", str(workers or cfg["workers"]), "--json-out", str(out / "report.json")]
    if cfg["csv"]:
        argv += ["--csv-out", str(out / "margins.csv")]
    return argv


def expected_outputs(name: str, cfg: dict, seed: int, tmp: Path) -> dict:
    """Golden hashes for this workload and seed, else a single-worker reference run.

    The reference run is made once and left untimed.  A reference whose cases
    fail still fixes the hashes; the requests then fail the pass check.
    """
    golden = json.loads((HERE / "golden.json").read_text()).get(name)
    if golden is not None and golden["count"] == cfg["count"] and str(seed) in golden["seeds"]:
        return golden["seeds"][str(seed)]
    err = tmp / "reference.err"
    _, _, _, rc = spawn([PY, "-m", "hypcontract.cli", *verify_argv(cfg, seed, tmp, 1)], None, err)
    try:
        data = json.loads((tmp / "report.json").read_text())["data"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"reference run exited {rc} without a report ({exc}): {_tail(err)}")
    entry = {"data_sha256": data_digest(data)}
    if cfg["csv"]:
        entry["csv_sha256"] = csv_digest(tmp / "margins.csv")[0]
    _clear(tmp)
    return entry


def _clear(tmp: Path) -> None:
    for leaf in ("report.json", "margins.csv"):
        with contextlib.suppress(FileNotFoundError):
            (tmp / leaf).unlink()


def run_verify(name: str, args, tmp: Path) -> dict:
    cfg = (VERIFY_SMOKE if args.smoke else VERIFY)[name]
    setup = measure_setup(tmp, 1 if args.smoke else SETUP_REPEATS)
    expected = expected_outputs(name, cfg, args.seed, tmp)
    tally, walls, rss, rates = Tally(), [], [], []
    err = tmp / "verify.err"
    argv = [PY, "-m", "hypcontract.cli", *verify_argv(cfg, args.seed, tmp)]
    t0 = time.monotonic()
    while tally.attempted == 0 or time.monotonic() - t0 < args.seconds:
        _, wall, peak, rc = spawn(argv, None, err)
        problems, samples = check_verify(
            tmp / "report.json", tmp / "margins.csv" if cfg["csv"] else None, expected
        )
        if rc != 0:
            problems.insert(0, f"exit code {rc}: {_tail(err)}")
        tally.record(f"{name} request {tally.attempted}", problems)
        if rc in (0, 1):  # a wrong answer still took its time; a crash did not
            walls.append(wall)
            rss.append(peak)
            rates.append(samples / wall)
        _clear(tmp)
    return {
        "tally": tally,
        "metrics": {"setup_s": median(setup), "wall_s": median(walls), "peak_rss_mb": median(rss)},
        "extra": {"samples_per_s": (median(rates), "1/s")},
        "walls": walls,
    }


# ------------------------------------------------------------ query requests


def _query_batch(args, batch: int) -> list[dict]:
    n_distance, n_solve = QUERY_BATCH_SMOKE if args.smoke else QUERY_BATCH
    return queries.make_batch(args.seed, batch, n_distance, n_solve)


def check_queries(name: str, batch: list[dict], records, tally: Tally) -> list[dict]:
    """Check each query of a batch; a missing answer fails every query."""
    if records is None or len(records) != len(batch):
        for i, _ in enumerate(batch):
            tally.record(f"{name} query {i}", ["no answer from the query process"])
        return []
    for i, (q, r) in enumerate(zip(batch, records)):
        problem = queries.check(q, r)
        tally.record(f"{name} query {i} ({q['kind']})", [problem] if problem else [])
    return records


def accuracy(batch: list[dict], records: list[dict]) -> dict:
    """Largest strip-distance relative error and regular-solve sup error."""
    rel = [queries.distance_rel_err(q, r) for q, r in zip(batch, records)]
    sup = [r["sup_err"] for r in records if "sup_err" in r]
    return {
        "distance_max_rel_err": max((e for e in rel if e is not None), default=0.0),
        "ode_max_abs_err": max(sup, default=0.0),
    }


def run_queries(args, tmp: Path) -> dict:
    setup = measure_setup(tmp, 1 if args.smoke else SETUP_REPEATS)
    tally, walls, rss, rates, answered = Tally(), [], [], [], []
    inputs, outputs, err = tmp / "queries.in.json", tmp / "queries.out.json", tmp / "queries.err"
    t0, batch_no = time.monotonic(), 0
    while batch_no == 0 or time.monotonic() - t0 < args.seconds:
        batch = _query_batch(args, batch_no)
        inputs.write_text(json.dumps(batch))
        with contextlib.suppress(FileNotFoundError):
            outputs.unlink()
        _, wall, peak, rc = spawn([PY, str(HERE / "queries.py"), str(inputs), str(outputs)], None, err)
        records = None
        if rc == 0:
            with contextlib.suppress(OSError, ValueError):
                records = json.loads(outputs.read_text())
        else:
            print(f"query process exited {rc}: {_tail(err)}", file=sys.stderr)
        checked = check_queries("queries", batch, records, tally)
        if checked:
            walls.append(wall)
            rss.append(peak)
            rates.append(len(batch) / wall)
        answered.append((batch, checked))
        batch_no += 1
    pairs = [(q, r) for b, rs in answered for q, r in zip(b, rs)]
    recs = [r for _, r in pairs]
    extra = {"queries_per_s": (median(rates), "1/s")}
    for key, value in accuracy([q for q, _ in pairs], recs).items():
        extra[key] = (value, "1")
    for key, value in layers.query_latency_metrics(recs).items():
        extra[key] = (value, "ms")
    return {
        "tally": tally,
        "metrics": {"setup_s": median(setup), "wall_s": median(walls), "peak_rss_mb": median(rss)},
        "extra": extra,
        "walls": walls,
    }


# --------------------------------------------------------------- traced run


def import_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import hypcontract
    from hypcontract import ball, cli, disk, domains, harness, liouville, weights

    if not Path(hypcontract.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hypcontract imported from {hypcontract.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        ball=ball, cli=cli, disk=disk, domains=domains, harness=harness,
        liouville=liouville, weights=weights,
    )


def traced_verify(name: str, args, tmp: Path, hc) -> tuple[dict, Tally, float]:
    """Alternate untraced and traced ``cli.main`` requests; per-layer numbers of the last traced one."""
    cfg = (VERIFY_SMOKE if args.smoke else VERIFY)[name]
    expected = expected_outputs(name, cfg, args.seed, tmp)
    argv = verify_argv(cfg, args.seed, tmp)

    def cli_main(argv) -> list[str]:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                rc = hc.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, reported below
                return [f"raised {type(exc).__name__}: {exc}"]
        return [] if rc == 0 else [f"exit code {rc}"]

    cli_main(verify_argv(VERIFY_SMOKE[name], args.seed, tmp))  # first-call set-up, untimed
    _clear(tmp)
    tally, walls = Tally(), {False: [], True: []}
    spans = []
    t0 = time.monotonic()
    while not walls[True] or time.monotonic() - t0 < args.seconds:
        for traced in (False, True):
            tracer = Tracer()
            if traced:
                layers.install_verify(tracer, hc)
            try:
                start = time.perf_counter()
                crashed = cli_main(argv)
                walls[traced].append(time.perf_counter() - start)
            finally:
                tracer.close()
            problems, _ = check_verify(
                tmp / "report.json", tmp / "margins.csv" if cfg["csv"] else None, expected
            )
            problems = crashed + problems
            tally.record(f"{name} {'traced' if traced else 'untraced'} request", problems)
            _clear(tmp)
            if traced:
                spans = tracer.spans
    metrics = layers.verify_layer_metrics(spans, cfg["workers"])
    return metrics, tally, _overhead(walls)


def traced_queries(args, hc) -> tuple[dict, Tally, float, dict]:
    """Alternate untraced and traced passes over the query batches, in this process.

    Latency and accuracy come from the untraced passes, layer numbers from
    the last traced one.
    """
    tally, walls = Tally(), {False: [], True: []}
    untraced, spans, traced_records = [], [], []
    queries.Runner(hc).run(queries.WARMUP)
    t0, batch_no = time.monotonic(), 0
    while batch_no == 0 or time.monotonic() - t0 < args.seconds:
        batch = _query_batch(args, batch_no)
        for traced in (False, True):
            tracer = Tracer()
            strip = None
            if traced:
                strip = layers.traced_strip(tracer, hc)
                tracer.spans.clear()  # drop the strip's own positivity check
                layers.install_queries(tracer, hc)
            try:
                start = time.perf_counter()
                records = queries.Runner(hc, strip).run(batch)
                walls[traced].append(time.perf_counter() - start)
            finally:
                tracer.close()
            check_queries(f"queries {'traced' if traced else 'untraced'}", batch, records, tally)
            if traced:
                spans, traced_records = tracer.spans, records
            else:
                untraced += zip(batch, records)
        batch_no += 1
    metrics, absent = layers.query_layer_metrics(spans, traced_records)
    records = [r for _, r in untraced]
    figures = accuracy([q for q, _ in untraced], records)
    figures.update(layers.query_latency_metrics(records))
    metrics.update({layers.QUERY_LAYER_NAMES[k]: v for k, v in figures.items()})
    return metrics, tally, _overhead(walls), absent


def _overhead(walls: dict) -> float:
    base = sum(walls[False])
    return (sum(walls[True]) - base) / base if base > 0 else 0.0


def run_traced(name: str, args, tmp: Path, per_layer: list[str]) -> dict:
    hc = import_package()
    metrics = dict.fromkeys(per_layer, 0)  # a layer the workload never calls reads 0
    metrics.update(measure_importtime(tmp, 1 if args.smoke else IMPORTTIME_REPEATS))
    absent = {}
    if name == "queries":
        layer, tally, overhead, absent = traced_queries(args, hc)
    else:
        layer, tally, overhead = traced_verify(name, args, tmp, hc)
    metrics.update(layer)
    metrics["trace.overhead_frac"] = overhead
    for key in absent:
        metrics.pop(key, None)
    return {"tally": tally, "metrics": metrics, "absent": absent}


# -------------------------------------------------------------------- main


def machine() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for mod in ("numpy", "scipy"):
        with contextlib.suppress(ImportError):
            versions[mod] = __import__(mod).__version__
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(), **versions}


def parse_args(argv):
    p = argparse.ArgumentParser(description="hypcontract benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypcontract" / "__init__.py").is_file():
        print(f"error: no hypcontract source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            result = run_traced(args.workload, args, tmp, list(units))
        elif args.workload == "queries":
            result = run_queries(args, tmp)
        else:
            result = run_verify(args.workload, args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tally = result["tally"]
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"{'failed_frac':<32} {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted} operations)")
    if "walls" in result:
        print(f"{'request_walls':<32} {' '.join(f'{w:.4f}' for w in result['walls'])} s")
    for key, (value, unit) in result.get("extra", {}).items():
        print(f"{key:<32} {value:.6g} {unit}")
    for key, value in result["metrics"].items():
        print(f"{key:<32} {value:.6g} {units[key]}")
    for key, why in result.get("absent", {}).items():
        print(f"{key:<32} absent: {why}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items() if k in units}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
