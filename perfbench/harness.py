"""Closed-loop benchmark of the pathent CLI, one client in one process.

Each op is one in-process pathent.cli.main([...]) call; the next op
starts when the previous one returns.  BLAS and OpenMP threads are
pinned to one before numpy is first imported: with OpenBLAS's default
threads the op times on a 2-CPU machine spread several-fold.
"""

from __future__ import annotations

import os
import sys

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if "numpy" in sys.modules:
    raise RuntimeError("harness must be imported before numpy so that the BLAS thread pins apply")
os.environ.update(THREAD_PINS)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import references  # noqa: E402
import spans  # noqa: E402
from workloads import OPS_PER_CYCLE, OpSequence, read_output  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_cli(root: Path = ROOT):
    """Import pathent.cli from the checkout's own sources, never from an installed copy."""
    package = root / "src" / "pathent"
    if not (package / "cli.py").is_file():
        raise SetupError(f"no pathent sources at {package}")
    if not (root / "fixtures").is_dir():
        raise SetupError(f"no fixtures directory at {root / 'fixtures'}")
    sys.path.insert(0, str(root / "src"))
    import pathent.cli

    if Path(pathent.cli.__file__).resolve().parent != package.resolve():
        raise SetupError(f"pathent was imported from {pathent.cli.__file__}, not from {package}")
    return pathent.cli


def import_seconds(root: Path = ROOT) -> float:
    """Wall time of a fresh interpreter running `import pathent.cli`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pathent.cli"], env=env, cwd=root, check=True, capture_output=True)
    return time.perf_counter() - start


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "platform": platform.platform(),
    }


def call(cli, argv) -> tuple[object, str, float]:
    """One op: (exit code or exception text, captured stdout, wall seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is counted as failed, the loop goes on
            code = f"raised {type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), time.perf_counter() - start


class Bench:
    """Inputs, references and the op loop of one workload in one checkout."""

    def __init__(self, workload: str, seed: int, workdir: Path, cli):
        self.workload = workload
        self.cli = cli
        self.seq = OpSequence(workload, seed, workdir, ROOT / "fixtures")
        self.refs = references.load(workload)
        stale = [k for k, d in self.seq.digests.items() if self.refs.get(k, {}).get("input_sha256") != d]
        if stale:
            raise SetupError(f"{len(stale)} generated inputs differ from the recorded references (e.g. {stale[0]})")
        self.tracer = spans.Tracer()
        self._reported = 0

    def report(self, misses: list[str]) -> None:
        """Print the misses of the first few failed ops to stderr."""
        if misses and self._reported < 5:
            self._reported += 1
            print("check failed: " + "; ".join(misses[:3]), file=sys.stderr)

    def run_op(self, j: int, traced: bool = False):
        """Run op j; returns (seconds, misses, (exit code, output))."""
        op = self.seq.op(j)
        op.out.unlink(missing_ok=True)
        if traced:
            self.tracer.install(j)
        try:
            code, stdout, seconds = call(self.cli, op.argv)
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            output = read_output(self.workload, op.out, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            output = f"unreadable output: {exc}"
        return seconds, check.check_op(self.refs[op.key], op.key, code, output), (code, output)


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced closed loop for `seconds`, ending on a whole cycle of the input mix.

    The set-up imports are spread evenly over the loop, so that their
    median does not hinge on one moment of a machine whose speed drifts
    over seconds.  They run between ops and extend the loop by their own
    duration.
    """
    bench.run_op(0)  # warm-up: lazy imports and first-call set-up, not timed
    import_seconds()  # fills the bytecode cache, not timed
    times, setup, failed = [], [], 0
    start = time.perf_counter()
    deadline = start + seconds
    j = 0
    while True:
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= start + len(setup) * seconds / SETUP_REPEATS:
            setup.append(import_seconds())
            deadline += setup[-1]
        elapsed, misses, _ = bench.run_op(j)
        times.append(elapsed)
        failed += bool(misses)
        bench.report(misses)
        j += 1
        if j % OPS_PER_CYCLE == 0 and len(setup) == SETUP_REPEATS and time.perf_counter() >= deadline:
            break
    ms = [1e3 * t for t in times]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # a 50-second sweep run has fewer than ten ops beyond its 90th percentile,
    # too few for a bounded tail metric, so p90 is recorded here only
    detail = {"op_ms": {**_quartiles(ms), "p90": statistics.quantiles(ms, n=10)[8]}, "setup_s": _quartiles(setup)}
    return {"attempted": len(times), "failed": failed, "metrics": metrics, "detail": detail}


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Each input once untraced and once traced, in alternating order.

    The pair gives the tracing overhead and checks that tracing leaves
    the outputs unchanged; the traced spans give the per-layer metrics.
    """
    bench.run_op(0)
    plain, traced, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        order = (False, True) if j % 2 == 0 else (True, False)
        results = {flag: bench.run_op(j, traced=flag) for flag in order}
        if results[False][2] != results[True][2]:
            results[True][1].append(f"op {j}: traced output differs from untraced output")
        for flag, (elapsed, misses, _) in results.items():
            (traced if flag else plain).append(elapsed)
            failed += bool(misses)
            bench.report(misses)
        j += 1
        if j % OPS_PER_CYCLE == 0 and time.perf_counter() >= deadline:
            break
    metrics = {name: (value, _layer_unit(name)) for name, value in spans.layer_metrics(bench.tracer.spans, j).items()}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    attempted = 2 * j
    metrics["check.fail_ratio"] = (failed / attempted, "ratio")
    bench.tracer.write(spans_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"untraced_op_ms": _quartiles([1e3 * t for t in plain]), "traced_op_ms": _quartiles([1e3 * t for t in traced])},
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count/op"
    if name.endswith("_ms"):
        return "ms/op"
    return "ratio"


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        cli = load_cli()
        WORK.mkdir(exist_ok=True)
        workdir = WORK / f"{workload}-{os.getpid()}"
        workdir.mkdir()
        try:
            bench = Bench(workload, seed, workdir, cli)
            if trace:
                result = measure_traced(bench, seconds, WORK / f"spans-{workload}-seed{seed}.jsonl")
            else:
                result = measure(bench, seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "client": "closed loop, 1 client, 1 process",
        "inputs": bench.seq.parameter_ranges(),
        "environment": environment(),
        **result["detail"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0
