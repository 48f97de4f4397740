"""Tests for the output writers and the command-line interface.

CLI runs go through main(argv) in-process (fast, same interpreter), with one
subprocess check that the module entry point works; that check runs the same
idrabi package the suite imported.  Every file lands in tmp_path via
monkeypatch.chdir, so runs are hermetic and byte-comparable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idrabi
from idrabi.backend import MAX_SITES
from idrabi.cli import main
from idrabi.eigen import eigen_tridiagonal
from idrabi.errors import EigensolverError
from idrabi.model import ModelParams, Parity, build_hamiltonian
from idrabi.serialize import atomic_write_text, csv_text, format_float, json_dumps

# ---------------------------------------------------------------- serialize


def test_format_float_is_lossless():
    rng = np.random.default_rng(99)
    samples = [0.1, 1 / 3, -2.5e-300, 7.1e300, 5e-324, 0.0, -0.0, 1234567890.123456]
    samples += list(rng.uniform(-1e6, 1e6, 50))
    samples += list(rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50))
    for x in samples:
        assert float(format_float(x)) == float(x)


def test_csv_text_layout():
    rows = [(1.5, "positive", 0, True), (None, "negative", 2, False)]
    text = csv_text(("a", "b", "c", "d"), rows, config={"g": 0.25})
    lines = text.split("\n")
    assert lines[0] == '# config: {"g": 0.25}'
    assert lines[1] == "a,b,c,d"
    assert lines[2] == "1.5,positive,0,true"
    assert lines[3] == ",negative,2,false"
    assert text.endswith("\n") and "\r" not in text
    # without a config the comment line disappears
    assert csv_text(("a",), [(2,)]).split("\n")[0] == "a"


def test_json_dumps_handles_numpy():
    text = json_dumps(
        {"i": np.int64(3), "x": np.float64(0.1), "v": np.arange(3.0)}, indent=None
    )
    loaded = json.loads(text)
    assert loaded == {"i": 3, "x": 0.1, "v": [0.0, 1.0, 2.0]}
    assert loaded["x"] == 0.1  # repr round-trip, not 17g truncation
    with pytest.raises(TypeError):
        json_dumps({"bad": object()})


def test_atomic_write(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    out = atomic_write_text(target, "hello\n")
    assert out == target
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in (tmp_path / "deep").iterdir() if p != target]
    assert leftovers == []


# ---------------------------------------------------------------- helpers


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def config_line(path):
    first = Path(path).read_text().splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: ") :])


def data_lines(path):
    return Path(path).read_text().splitlines()[1:]


# ---------------------------------------------------------------- spectrum


def test_spectrum_csv_matches_library(workdir):
    argv = [
        "spectrum", "--omega0", "0.75", "--g", "0.4",
        "--size", "40", "--levels", "3", "--out", "spec",
    ]
    assert main(argv) == 0
    cfg = config_line("spec.csv")
    assert cfg["command"] == "spectrum"
    assert cfg["g"] == 0.4 and cfg["size"] == 40

    lines = data_lines("spec.csv")
    assert lines[0] == "parity,index,eigenvalue"
    assert len(lines) == 1 + 6
    params = ModelParams(omega=1.0, omega0=0.75, g=0.4, k=0.5)
    expected = eigen_tridiagonal(build_hamiltonian(params, Parity.POSITIVE, 40))
    assert lines[1] == f"positive,0,{format_float(expected.eigenvalues[0])}"
    assert lines[3].startswith("positive,2,")
    assert lines[4].startswith("negative,0,")


def test_spectrum_json_format(workdir):
    assert main(["spectrum", "--size", "12", "--levels", "2",
                 "--format", "json", "--out", "spec"]) == 0
    payload = json.loads(Path("spec.json").read_text())
    assert payload["config"]["format"] == "json"
    assert [r["parity"] for r in payload["results"]] == ["positive", "negative"]
    assert len(payload["results"][0]["eigenvalues"]) == 2
    assert payload["results"][0]["hamiltonian"]["size"] == 12


def test_spectrum_rejects_bad_flags(workdir, capsys):
    assert main(["spectrum", "--format", "yaml"]) == 2
    assert main(["spectrum", "--size", "5", "--levels", "10"]) == 2
    assert main(["spectrum", "--g", "-0.2"]) == 2
    assert main(["spectrum", "--omega", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_oversized_chain_refused_without_output(workdir, capsys):
    too_big = str(MAX_SITES + 1)
    assert main(["spectrum", "--size", too_big]) == 2
    assert main(["evolve", "--size", too_big]) == 2
    assert "dense solver limit" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


# ---------------------------------------------------------------- config file


def test_config_layering(workdir):
    Path("run.json").write_text(json.dumps({"g": 0.3, "size": 24, "levels": 3}))
    assert main(["spectrum", "--config", "run.json", "--g", "0.35", "--out", "s"]) == 0
    cfg = config_line("s.csv")
    assert cfg["g"] == 0.35  # explicit flag beats the file
    assert cfg["size"] == 24  # file beats the default
    assert cfg["levels"] == 3
    assert cfg["omega"] == 1.0  # untouched default


def test_config_rejections(workdir, capsys):
    Path("bad1.json").write_text(json.dumps({"sizee": 10}))
    assert main(["spectrum", "--config", "bad1.json"]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    Path("bad2.json").write_text(json.dumps({"size": 10.5}))
    assert main(["spectrum", "--config", "bad2.json"]) == 2

    Path("bad3.json").write_text(json.dumps({"g": True}))
    assert main(["spectrum", "--config", "bad3.json"]) == 2

    Path("bad4.json").write_text(json.dumps([1, 2]))
    assert main(["spectrum", "--config", "bad4.json"]) == 2

    assert main(["spectrum", "--config", "missing.json"]) == 2


# ---------------------------------------------------------------- sweep


def test_sweep_outputs(workdir):
    argv = [
        "sweep", "--sweep", "omega0", "--min", "0.5", "--max", "2.5",
        "--points", "5", "--size", "24", "--levels", "2", "--g", "0",
        "--svg", "--out", "sw",
    ]
    assert main(argv) == 0
    lines = data_lines("sw_branches.csv")
    assert lines[0] == "parameter,parity,level,energy,converged"
    assert len(lines) == 1 + 5 * 2 * 2
    assert lines[1] == "0.5,positive,0,0.25,true"

    crossings = json.loads(Path("sw_crossings.json").read_text())
    assert crossings["config"]["points"] == 5
    assert crossings["between_parity"][0]["kind"] == "grid_degeneracy"
    assert any(not w["avoided"] for w in crossings["within_parity"])

    svg = Path("sw.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_sweep_rejects_bad_axis(workdir):
    assert main(["sweep", "--sweep", "k", "--points", "3", "--size", "8"]) == 2


# ---------------------------------------------------------------- evolve


def test_evolve_trace_and_restart_round_trip(workdir):
    base = [
        "evolve", "--omega0", "0.75", "--g", "0.4", "--size", "60",
        "--tmax", "8", "--samples", "33", "--threshold", "0.9",
    ]
    assert main(base + ["--dump-amplitudes", "--out", "a"]) == 0
    for name in ("a_trace.csv", "a_revivals.json", "a_amplitudes.json"):
        assert Path(name).exists()
    revs = json.loads(Path("a_revivals.json").read_text())
    assert revs["norm_drift"] <= 1e-10
    assert revs["threshold"] == 0.9

    # restarting from the dumped history reproduces the run bit for bit
    assert main(base + ["--initial", "a_amplitudes.json", "--out", "b"]) == 0
    assert data_lines("a_trace.csv") == data_lines("b_trace.csv")


def test_evolve_accepts_bare_pair_list(workdir):
    pairs = [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 38
    Path("init.json").write_text(json.dumps(pairs))
    assert main(["evolve", "--g", "0.2", "--size", "40", "--tmax", "2",
                 "--samples", "9", "--initial", "init.json", "--out", "c"]) == 0
    cfg = config_line("c_trace.csv")
    assert cfg["initial"] == "init.json"


def test_evolve_initial_mismatches(workdir, capsys):
    Path("wrongsize.json").write_text(json.dumps([[1.0, 0.0]] * 7))
    assert main(["evolve", "--size", "40", "--tmax", "2", "--samples", "9",
                 "--initial", "wrongsize.json"]) == 2

    Path("wrongparity.json").write_text(
        json.dumps({"parity": "negative", "amplitudes": [[1.0, 0.0]] * 1})
    )
    assert main(["evolve", "--parity", "+", "--size", "1", "--tmax", "2",
                 "--samples", "9", "--initial", "wrongparity.json"]) == 2
    assert main(["evolve", "--parity", "x"]) == 2
    assert main(["evolve", "--size", "20", "--tmax", "1", "--samples", "4",
                 "--threshold", "0"]) == 2
    capsys.readouterr()


def test_evolve_svg(workdir):
    assert main(["evolve", "--g", "0.3", "--size", "50", "--tmax", "6",
                 "--samples", "17", "--svg", "--out", "e"]) == 0
    assert Path("e.svg").exists()


# ---------------------------------------------------------------- susy


def test_susy_pass_and_fail(workdir, capsys):
    ok = ["susy", "--omega0", "0", "--g", "0.4", "--size", "300", "--levels", "6"]
    assert main(ok + ["--out", "good"]) == 0
    report = json.loads(Path("good.json").read_text())
    assert report["passed"] is True
    lines = data_lines("good.csv")
    assert lines[0] == "level,omega_minus,omega_plus_shifted,residual"
    assert lines[1].split(",")[2] == ""  # level 0 has no partner image

    # an impossible tolerance must fail loudly but still write the reports
    assert main(ok + ["--tol", "1e-30", "--out", "bad"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert json.loads(Path("bad.json").read_text())["passed"] is False
    assert Path("bad.csv").exists()


def test_susy_requires_degenerate_qubit(workdir):
    assert main(["susy", "--omega0", "0.5", "--g", "0.4"]) == 2


# ---------------------------------------------------------------- converge


def test_converge_output(workdir):
    assert main(["converge", "--omega0", "0.75", "--g", "0.4",
                 "--sizes", "40,80", "--levels", "2", "--out", "cv"]) == 0
    lines = data_lines("cv.csv")
    assert lines[0] == "size,level,energy,verdict"
    assert len(lines) == 1 + 2 * 2
    verdicts = {line.split(",")[3] for line in lines[1:]}
    assert verdicts <= {"converged", "diverging"}
    assert lines[1].startswith("40,0,")


def test_converge_intlist_validation(workdir):
    assert main(["converge", "--sizes", "a,b"]) == 2
    assert main(["converge", "--sizes", "80,40"]) == 2
    Path("sz.json").write_text(json.dumps({"sizes": [40, True]}))
    assert main(["converge", "--config", "sz.json"]) == 2
    Path("sz2.json").write_text(json.dumps({"sizes": []}))
    assert main(["converge", "--config", "sz2.json"]) == 2


# ---------------------------------------------------------------- exit codes


def test_eigensolver_failure_maps_to_exit_3(workdir, monkeypatch, capsys):
    import idrabi.cli as cli

    def boom(cfg):
        raise EigensolverError("Eigenvalues did not converge")

    monkeypatch.setitem(cli._HANDLERS, "spectrum", boom)
    assert main(["spectrum"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------- determinism


def test_repeated_runs_are_byte_identical(tmp_path, monkeypatch):
    argv = ["spectrum", "--omega0", "0.75", "--g", "0.4",
            "--size", "80", "--levels", "5", "--out", "spec"]
    blobs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(argv) == 0
        blobs.append((d / "spec.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


def test_module_entry_point(tmp_path):
    package_root = str(Path(idrabi.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    proc = subprocess.run(
        [sys.executable, "-m", "idrabi", "spectrum", "--size", "12",
         "--levels", "2", "--out", "mod"],
        cwd=tmp_path,
        # the child runs in tmp_path, where a relative PYTHONPATH=src cannot
        # reach the package, so put its absolute parent directory first
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mod.csv").exists()
    assert "wrote" in proc.stdout
