"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import idrabi.cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from run import run_cli, tail  # noqa: E402
from workloads import WORKLOADS, Job, block_size, jobs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines[:-1])


def test_run_refuses_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladders", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_gives_the_same_argv(workload):
    def argvs(seed):
        return [job.argv for job in itertools.islice(jobs(workload, seed), 50)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_block_holds_the_same_strata(workload):
    block = block_size(workload)
    stream = list(itertools.islice(jobs(workload, 4), 3 * block))
    classes = [sorted(j.memory_class for j in stream[i:i + block]) for i in range(0, len(stream), block)]
    assert classes[0] == classes[1] == classes[2]


def test_tail_leaves_ten_jobs_above_it():
    latencies = list(range(1, 41))
    assert tail(latencies) == (30, 75.0)
    assert tail(latencies[:15]) == (8, 50.0)  # too few jobs: the median


def _run(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return run_cli(idrabi.cli, job.argv)


def _first(workload, kind, **params):
    for job in itertools.islice(jobs(workload, 1), 200):
        if job.kind == kind and all(job.params.get(k) == v for k, v in params.items()):
            return job
    raise AssertionError(f"no {kind} job with {params}")


def _shift_csv_value(path, row, column, delta):
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def _shift_json_value(path, key, index, delta):
    data = json.loads(path.read_text())
    data[key][index] += delta
    path.write_text(json.dumps(data))


PERTURBATIONS = [
    # (workload, kind, params, file suffix, how to shift one eigenvalue by 1e-6)
    ("ladders", "spectrum", {"format": "csv"}, ".csv", lambda p: _shift_csv_value(p, 5, 2, 1e-6)),
    ("ladders", "spectrum", {"format": "json"}, ".json", None),
    ("ladders", "susy", {}, ".json", lambda p: _shift_json_value(p, "omega_plus", 3, 1e-6)),
    ("ladders", "converge", {}, ".csv", lambda p: _shift_csv_value(p, 2, 2, 1e-6)),
    ("sweep-crossings", "sweep", {}, "_branches.csv", lambda p: _shift_csv_value(p, 9, 3, 1e-6)),
    ("dynamics", "evolve", {"dump_amplitudes": False}, "_trace.csv", None),
]


@pytest.mark.parametrize("workload,kind,params,suffix,perturb", PERTURBATIONS)
def test_checker_passes_real_outputs_and_flags_a_shifted_value(tmp_path, monkeypatch, workload, kind, params, suffix, perturb):
    job = _first(workload, kind, **params)
    code = _run(job, tmp_path, monkeypatch)
    assert checks.check_job(job, code, tmp_path) == []
    path = tmp_path / (job.out + suffix)
    if kind == "evolve":  # the row the checker propagates densely
        _shift_csv_value(path, 2 + checks.sampled_row(job.params), 1, 1e-6)
    elif perturb is None:
        data = json.loads(path.read_text())
        data["results"][1]["eigenvalues"][4] += 1e-6
        path.write_text(json.dumps(data))
    else:
        perturb(path)
    assert checks.check_job(job, code, tmp_path) != []


def test_checker_flags_a_wrong_exit_code_and_a_refusal_that_wrote_files(tmp_path, monkeypatch):
    job = Job("refused", ("susy", "--omega0", "0.5", "--g", "0.3", "--out", "r/out"), 2, {"out": "r/out"})
    assert checks.check_job(job, _run(job, tmp_path, monkeypatch), tmp_path) == []
    assert checks.check_job(job, 0, tmp_path) != []
    (tmp_path / "r").mkdir()
    (tmp_path / "r" / "out.json").write_text("{}")
    assert checks.check_job(job, 2, tmp_path) != []


def test_trace_fails_loudly_when_a_layer_name_is_gone(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [("idrabi.cli.no_such_layer", "x", None)])
    with pytest.raises(spans.TraceTargetMissing):
        with spans.Tracer().installed():
            pass


def test_trace_self_times_sum_to_job_time(tmp_path, monkeypatch):
    job = Job("sweep", ("sweep", "--g", "0.3", "--points", "3", "--size", "10", "--levels", "2", "--out", "s/out"), 0, {})
    tracer = spans.Tracer()
    monkeypatch.chdir(tmp_path)
    with tracer.installed():
        code, wall = tracer.job(0, lambda: run_cli(idrabi.cli, job.argv))
    assert code == 0
    names = {s.name for s in tracer.spans}
    assert {"cli", "sweep.spectrum", "sweep.crossings", "backend.values", "model.build", "serialize.write"} <= names
    selfs = spans.self_times(tracer.spans)
    spans.check_consistency(tracer.spans, selfs)
    assert sum(selfs) == pytest.approx(wall, rel=1e-9)
    assert idrabi.cli.sweep_spectrum.__module__ == "idrabi.sweep"  # wrappers removed again


def test_trace_rejects_spans_that_do_not_nest():
    root = spans.Span("cli", 0, None, 0.0, 1.0)
    child = spans.Span("backend.values", 0, 0, 0.5, 1.5)
    with pytest.raises(spans.TraceInconsistent):
        spans.check_consistency([root, child], spans.self_times([root, child]))
