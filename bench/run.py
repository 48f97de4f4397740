"""End-to-end and per-layer benchmark of the idrabi CLI.

    python3 bench/run.py --workload sweep-crossings --seed 1 --seconds 20 --trace 0

One client in a closed loop: each job is one in-process call of
`idrabi.cli.main(argv)` on a generated argv, and the next starts when it
returns.  The package is imported from src/ next to this directory.  Job
outputs are checked against an independent dense oracle after the timed
loop.  `--trace 0` reports the end-to-end metrics, `--trace 1` runs each job
untraced and traced in turn and reports the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: one job at a time, on a fixed count.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it
MEMORY_BLOCKS = 4


def import_package():
    """Import idrabi from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import idrabi.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import idrabi from {SRC}: {exc}")
    if Path(idrabi.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: idrabi was imported from {idrabi.__file__}, not from {SRC}")
    return idrabi.cli


def run_cli(cli, argv) -> int | None:
    """One job; its exit code, or None if it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
    print(err.getvalue(), file=sys.stderr)
    return None


def timed(cli, job) -> tuple:
    start = time.perf_counter()
    code = run_cli(cli, job.argv)
    return code, time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy
    import idrabi

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        commit = done.stdout.strip() if done.returncode == 0 else None
    backend = getattr(idrabi, "active_backend", None)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "solver": backend() if callable(backend) else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def measure_setup(workload: str, workdir: Path) -> float:
    """Median wall time of fresh interpreters that import and warm up."""
    workdir.mkdir()
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(workdir)],
                              capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
    shutil.rmtree(workdir)
    return statistics.median(times)


def peak_alloc_mb(cli, workload: str, seed: int, workdir: Path) -> float:
    """Largest tracemalloc peak over the largest job of each memory class.

    The candidates are the first MEMORY_BLOCKS blocks of the job stream, so
    each class's largest job sits near the top of its size band.

    Under tracemalloc the interpreted solver runs about 25x slower, so each
    job first runs untraced while its solver answers are recorded, then again
    under tracemalloc with those answers replayed.  The solver's internal
    workspace is therefore not counted; everything the job allocates around
    it, results included, is.
    """
    from spans import Replay
    from workloads import first_blocks

    largest = {}
    for job in first_blocks(workload, seed, MEMORY_BLOCKS):
        if job.memory_class not in largest or job.footprint > largest[job.memory_class].footprint:
            largest[job.memory_class] = job
    workdir.mkdir()
    os.chdir(workdir)
    peak = 0
    for job in largest.values():
        replay = Replay()
        with replay.recording():
            first = run_cli(cli, job.argv)
        gc.collect()
        with replay.replaying():
            tracemalloc.start()
            second = run_cli(cli, job.argv)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        if first != job.expect or second != job.expect:
            raise SystemExit(f"bench: memory pass job {' '.join(job.argv)} exited {first}, {second}")
    os.chdir(WORK)
    shutil.rmtree(workdir)
    return peak / 1e6


def check(job, code, workdir: Path) -> list:
    """Problems with one finished job; removes its outputs afterwards."""
    from checks import check_job

    problems = check_job(job, code, workdir)
    shutil.rmtree(workdir / Path(job.out).parent, ignore_errors=True)
    return problems


def failures_of(records, workdir: Path) -> list:
    """(job number, argv, problems) for every failed job."""
    failures = []
    for number, (job, code) in enumerate(records):
        problems = check(job, code, workdir)
        if problems:
            failures.append((number, " ".join(job.argv), problems))
    return failures


def tail(latencies) -> tuple:
    """(value, percentile): the latency with TAIL_BEYOND jobs above it.

    Short runs fall back to the median, never below it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_untraced(cli, stream, seconds: float):
    records, latencies = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        job = next(stream)
        code, latency = timed(cli, job)
        records.append((job, code))
        latencies.append(latency)
    return records, latencies, time.perf_counter() - start


def run_traced(cli, stream, seconds: float, workdir: Path):
    """Each job untraced and traced, alternating which goes first.

    Both runs write the same files, so each is checked before the other starts.
    """
    from spans import Tracer

    tracer = Tracer()
    failures, pairs, traced_jobs = [], [], []
    start = time.perf_counter()
    number = 0
    while time.perf_counter() - start < seconds:
        job = next(stream)
        latency = {}
        for traced in (number % 2 == 1, number % 2 == 0):
            if traced:
                with tracer.installed():
                    code, latency[traced] = tracer.job(number, lambda: run_cli(cli, job.argv))
            else:
                code, latency[traced] = timed(cli, job)
            problems = check(job, code, workdir)
            if problems:
                failures.append((number, " ".join(job.argv), problems))
        pairs.append((latency[False], latency[True]))
        traced_jobs.append(job)
        number += 1
    return failures, pairs, traced_jobs, tracer


def layer_report(pairs, traced_jobs, tracer) -> dict:
    from spans import check_consistency, layer_metrics, self_times

    selfs = self_times(tracer.spans)
    check_consistency(tracer.spans, selfs)
    reported = sum(job.reported_levels for job in traced_jobs)
    metrics = layer_metrics(tracer.spans, selfs, len(traced_jobs), reported, tracer.errors)
    overhead = statistics.median(traced / plain for plain, traced in pairs) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["trace.jobs"] = (len(traced_jobs), "count")
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS, jobs, warmup_jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args.seed)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (measure_setup(args.workload, workdir / "setup"), "s")
    os.chdir(workdir)
    for job in warmup_jobs(args.workload):
        if run_cli(cli, job.argv) != job.expect:
            raise SystemExit(f"bench: warm-up job {' '.join(job.argv)} failed")
    shutil.rmtree(workdir / "warm")

    stream = jobs(args.workload, args.seed)
    if args.trace:
        failures, pairs, traced_jobs, tracer = run_traced(cli, stream, args.seconds, workdir)
        attempted = 2 * len(pairs)
        metrics.update(layer_report(pairs, traced_jobs, tracer))
        (WORK / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(tracer.to_records()))
        note = f"{len(pairs)} jobs, each run untraced and traced"
    else:
        records, latencies, wall = run_untraced(cli, stream, args.seconds)
        value, percentile = tail(latencies)
        metrics["job_p50_s"] = (statistics.median(latencies), "s")
        metrics["job_tail_s"] = (value, "s")
        metrics["jobs_per_s"] = (len(latencies) / wall, "1/s")
        note = f"{len(latencies)} jobs; job_tail_s is p{percentile:.1f}"
        attempted = len(records)
        failures = failures_of(records, workdir)
        metrics["peak_alloc_mb"] = (peak_alloc_mb(cli, args.workload, args.seed, workdir / "alloc"), "MB")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.chdir(WORK)
    shutil.rmtree(workdir, ignore_errors=True)
    summary = {"workload": args.workload, "trace": args.trace, "env": env, "note": note,
               "failed_frac": len(failures) / attempted, "failures": failures[:20], **result}
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(summary, indent=1))

    for number, argv_text, problems in failures[:5]:
        print(f"FAILED job {number}: {argv_text}: {'; '.join(problems)}", file=sys.stderr)
    print("env", json.dumps(env))
    print(f"{args.workload}: {note}; failed_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
