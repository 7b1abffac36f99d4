"""qffn benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train_qffn_L4 --seed 1 --seconds 30 --trace 0

Run from the root of a qffn checkout; the program is imported from its
``src/`` directory and driven only through ``qffn.cli.main``, in process.
Load is a closed loop with one client: one job at a time, the next started
when the previous one has returned, until ``--seconds`` have passed. Every job
runs the same config, so its artifacts must be byte-identical across jobs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs (ABBA order) and reports the per-layer metrics of the
traced ones, plus the tracing overhead. Set-up time is measured in fresh
interpreters, ``SETUP_PROBES`` times per run.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every metric is also printed on
its own line with its unit, after a ``machine`` line. The same record, with
each job's times, goes to ``.perfbench_runs/`` in the checkout, and traced
runs write their spans there as JSON lines.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pinned before numpy loads, which happens in import_qffn: one BLAS thread,
# so one job is one client. Set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Spans whose per-call latency is reported, not only their self time.
LATENCY_SPANS = ("encoder.model_backward", "encoder.model_forward", "training.adam_step")
COUNTERS = ("circuits.rows_simulated", "circuits.rows_recomputed")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_qffn():
    """``qffn.cli`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "qffn" / "__init__.py").is_file():
        raise BenchmarkError(f"no qffn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qffn.cli

    if Path(qffn.cli.__file__).resolve().parent != SRC / "qffn":
        raise BenchmarkError(f"imported qffn from {qffn.cli.__file__}, not from {SRC}")
    return qffn.cli


def prepare(workload, seed: int) -> tuple[Path, Path, Path]:
    """A fresh work directory holding the job's config; returns (dir, config, out)."""
    (RUNS / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS / "tmp"))
    out_dir = workdir / "out"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(workload.config(seed, out_dir), indent=2), encoding="utf-8")
    return workdir, config_path, out_dir


def setup_probe(workload, seed: int) -> None:
    """Child side of a set-up measurement: import, write the config, report the clock."""
    import_qffn()
    workdir, _, _ = prepare(workload, seed)
    print(time.monotonic(), flush=True)
    shutil.rmtree(workdir)


def measure_setup(workload_name: str, seed: int) -> float:
    """Seconds from spawning an interpreter to its first job being ready to start."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
               "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S)
    try:
        return float(done.stdout.split()[-1]) - start
    except (IndexError, ValueError):
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}") from None


def run_job(cli, workload, config_path: Path, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """One ``qffn`` call and its output check; failures are recorded, not raised."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [workload.command, "--config", str(config_path)]
    job = {"traced": tracer is not None, "ok": False}
    tracing = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with tracing, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            job["run_s"] = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        job["digests"] = workload.check(out_dir)
        if tracer is not None:
            job["summary"] = tracer.summary()
            job["calls"] = {name: s["calls"] for name, s in job["summary"].items()}
            job["counters"] = {c: tracer.counters[c] for c in COUNTERS}
            for name, want in workload.expected_calls().items():
                if job["calls"][name] != want:
                    raise CheckFailed(f"{name} made {job['calls'][name]} calls, expected {want}")
        job["ok"] = True
    except Exception as exc:  # every failure of the program counts against it
        job["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return job


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked from the library."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(str(lib_path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "qffn").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
        "workload_seed": seed,
    }


def end_to_end_metrics(workload, jobs: list[dict], setup_s: list[float]) -> dict:
    run_s = statistics.median(job["run_s"] for job in jobs)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (run_s, "s"),
        "examples_per_s": (workload.examples / run_s, "1/s"),
        "jacobians_per_s": (workload.jacobians / run_s, "1/s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    summaries = [job["summary"] for job in traced]
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (summaries[0][name]["calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[name]["self_s"] for s in summaries), "s")
        if name in LATENCY_SPANS:
            durations = [d * 1e3 for s in summaries for d in s[name]["durations"]]
            if len(durations) > 1:
                deciles = statistics.quantiles(durations, n=10, method="inclusive")
            else:
                deciles = (durations or [0.0]) * 9
            metrics[f"{name}.p50_ms"] = (deciles[4], "ms")
            metrics[f"{name}.p90_ms"] = (deciles[8], "ms")
    for counter in COUNTERS:
        metrics[counter] = (traced[0]["counters"][counter], "rows")
    overhead = (statistics.median(j["run_s"] for j in traced)
                - statistics.median(j["run_s"] for j in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict], list[float]]:
    """Run jobs until ``seconds`` have passed; returns (metrics, jobs, set-up samples)."""
    setup_s = [measure_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    cli = import_qffn()
    workdir, config_path, out_dir = prepare(workload, seed)
    RUNS.mkdir(parents=True, exist_ok=True)
    run_name = f"{workload.name}-seed{seed}"
    jobs: list[dict] = []
    tracers: list[Tracer] = []
    try:
        deadline = time.monotonic() + seconds
        while not jobs or time.monotonic() < deadline or (trace and len(jobs) < 2):
            # ABBA: untraced, traced, traced, untraced, ...
            traced = trace and len(jobs) % 4 in (1, 2)
            tracer = Tracer(f"{run_name}-job{len(jobs)}") if traced else None
            jobs.append(run_job(cli, workload, config_path, out_dir, tracer))
            if tracer is not None:
                tracers.append(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [job for job in jobs if job["ok"]]
    _check_repeats(ok)
    ok = [job for job in ok if job["ok"]]
    if trace:
        with open(RUNS / f"{run_name}.trace.jsonl", "w", encoding="utf-8") as stream:
            for tracer in tracers:
                tracer.write_jsonl(stream)
        traced = [job for job in ok if job["traced"]]
        untraced = [job for job in ok if not job["traced"]]
        if not traced or not untraced:
            raise BenchmarkError("no successful traced and untraced job pair")
        metrics = per_layer_metrics(traced, untraced)
    else:
        if not ok:
            raise BenchmarkError("every job failed")
        metrics = end_to_end_metrics(workload, ok, setup_s)
    return metrics, jobs, setup_s


def _check_repeats(ok: list[dict]) -> None:
    """Later jobs must reproduce the first one's artifacts and call counts."""
    if not ok:
        return
    first_traced = next((job for job in ok if job["traced"]), None)
    for job in ok[1:]:
        if job["digests"] != ok[0]["digests"]:
            job["ok"], job["error"] = False, "artifacts differ from the first job's"
        elif job["traced"] and (job["calls"], job["counters"]) != (
            first_traced["calls"], first_traced["counters"]
        ):
            job["ok"], job["error"] = False, "call counts differ from the first traced job's"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            setup_probe(workload, args.seed)
            return 0
        metrics, jobs, setup_s = measure(workload, args.seed, args.seconds, bool(args.trace))
        machine = machine_record(args.seed)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = sum(not job["ok"] for job in jobs)
    for job in jobs:
        if not job["ok"]:
            print(f"failed job: {job['error']}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "machine": machine,
        "result": result,
        "setup_s_samples": setup_s,
        "jobs": [{k: v for k, v in job.items() if k != "summary"} for job in jobs],
    }
    suffix = "traced" if args.trace else "e2e"
    (RUNS / f"{workload.name}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"error_rate = {failed / len(jobs)!r} ({failed} failed of {len(jobs)} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
