"""Per-job correctness checks, run outside the timed region.

Every check compares a job's files with an independent reference: the parity
chain is rebuilt here from its formula and diagonalized densely with
`numpy.linalg`, never through `idrabi.backend`.  Tolerances, not byte
equality, so a different eigensolver passes as long as it is accurate.
`check_job` returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from idrabi.limits import deep_strong_energies
from idrabi.model import ModelParams
from idrabi.susy import closed_form_susy_energies

REL_TOL = 1e-9  # eigenvalue agreement, times the chain's infinity norm
NORM_DRIFT_MAX = 1e-8
LEAKAGE_MAX = 1e-6
TRACE_TOL = 1e-8
SPOT_TOL = 1e-6  # the sweep's own truncation spot-check tolerance, times omega
SUSY_TOL = 1e-6  # the CLI's default isospectrality tolerance


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- independent reference ---------------------------------------------------


def chain(p: dict, sign: int, n: int):
    """Diagonal and off-diagonal of one truncated parity chain."""
    omega, omega0, g, k = p.get("omega", 1.0), p.get("omega0", 0.0), p.get("g", 0.0), p.get("k", 0.5)
    j = np.arange(n, dtype=np.float64)
    d = omega * j + sign * 0.5 * omega0 * (1.0 - 2.0 * (j % 2))
    e = g * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0 * k))
    return d, e


def dense(d, e):
    h = np.diag(d)
    if e.size:
        h += np.diag(e, 1) + np.diag(e, -1)
    return h


def norm_inf(d, e) -> float:
    rows = np.abs(d).copy()
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    return float(rows.max())


def levels(p: dict, sign: int, n: int, count: int):
    """Lowest `count` eigenvalues of the chain and the agreement tolerance."""
    d, e = chain(p, sign, n)
    return np.linalg.eigvalsh(dense(d, e))[:count], REL_TOL * norm_inf(d, e)


# -- file readers ------------------------------------------------------------


def read_csv(path: Path):
    """(config echo, header, rows) of a CLI CSV file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    _require(lines[0].startswith("# config: "), f"{path.name}: no config echo")
    config = json.loads(lines[0][len("# config: "):])
    rows = list(csv.reader(lines[1:]))
    rows = [r for r in rows if r]
    return config, rows[0], rows[1:]


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_svg(path: Path) -> None:
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    _require(root.tag.endswith("svg"), f"{path.name}: root element is {root.tag}")


def _config_matches(config: dict, job) -> None:
    for name, value in job.params.items():
        if name == "out":
            continue
        got = config.get(name)
        _require(got == value, f"config echo {name}={got!r}, expected {value!r}")


def _close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    _require(err <= tol, f"{what}: off by {err:.3e} (tolerance {tol:.3e})")


def _sign(label: str) -> int:
    return 1 if label in ("+", "positive") else -1


# -- per-command checks ------------------------------------------------------


def _check_spectrum(job, base: Path) -> None:
    p = job.params
    count = p["levels"]
    if p["format"] == "csv":
        config, header, rows = read_csv(base.with_suffix(".csv"))
        _require(header == ["parity", "index", "eigenvalue"], f"spectrum header {header}")
        values = {"positive": [], "negative": []}
        for parity, index, value in rows:
            _require(int(index) == len(values[parity]), "spectrum rows out of order")
            values[parity].append(float(value))
    else:
        payload = read_json(base.with_suffix(".json"))
        config = payload["config"]
        values = {r["parity"]: r["eigenvalues"] for r in payload["results"]}
    _config_matches(config, job)
    for parity, sign in (("positive", 1), ("negative", -1)):
        want, tol = levels(p, sign, p["size"], count)
        _close(values[parity], want, tol, f"{parity} eigenvalues")
        if p["omega0"] == 0.0 and p["g"] < 0.5:
            # the closed form holds for the infinite chain: allow the truncation error
            longer, _ = levels(p, sign, 2 * p["size"], count)
            drift = float(np.max(np.abs(longer - want)))
            closed = deep_strong_energies(ModelParams(1.0, 0.0, p["g"], p["k"]), count)
            _close(values[parity], closed, max(1e-8, 10 * drift) + tol, f"{parity} vs closed form")


def _sign_changes(f):
    return [m for m in range(len(f) - 1) if f[m] * f[m + 1] < 0.0]


def _check_sweep(job, base: Path) -> None:
    p = job.params
    n, count = p["size"], p["levels"]
    config, header, rows = read_csv(Path(f"{base}_branches.csv"))
    _config_matches(config, job)
    _require(header == ["parameter", "parity", "level", "energy", "converged"], f"branches header {header}")
    grid = np.linspace(p["min"], p["max"], p["points"])
    _require(len(rows) == grid.size * 2 * count, f"{len(rows)} branch rows")
    branches = {"positive": np.empty((grid.size, count)), "negative": np.empty((grid.size, count))}
    flags = np.empty(grid.size, dtype=bool)
    for r, (x, parity, level, energy, converged) in enumerate(rows):
        i = r // (2 * count)
        _require(abs(float(x) - grid[i]) <= 1e-12 * max(1.0, abs(grid[i])), f"grid value {x} at row {r}")
        branches[parity][i, int(level)] = float(energy)
        flags[i] = converged == "true"

    def point(x):
        return {**p, p["sweep"]: float(x)}

    for i, x in enumerate(grid):
        drift = 0.0
        for parity, sign in (("positive", 1), ("negative", -1)):
            want, tol = levels(point(x), sign, n, count)
            _close(branches[parity][i], want, tol, f"{parity} branch at {p['sweep']}={x:.6g}")
            longer, _ = levels(point(x), sign, 2 * n, count)
            drift = max(drift, float(np.max(np.abs(longer - want))))
        valid = point(x).get("g", 0.0) < 0.5
        spot = SPOT_TOL * p.get("omega", 1.0)
        if not valid:
            _require(not flags[i], f"point {i} beyond g = omega/2 reported converged")
        elif not 0.5 * spot <= drift <= 2.0 * spot:  # skip calls too close to the threshold
            _require(flags[i] == (drift <= spot), f"point {i} converged={flags[i]}, drift {drift:.2e}")

    report = read_json(Path(f"{base}_crossings.json"))
    _config_matches(report["config"], job)
    gaps = [(g["parity"], g["level"]) for g in report["within_parity"]]
    _require(gaps == [(par, lv) for par in ("positive", "negative") for lv in range(count - 1)], "within-parity pairs")
    for g in report["within_parity"]:
        b = branches[g["parity"]]
        _close(g["min_gap"], np.min(b[:, g["level"] + 1] - b[:, g["level"]]), 1e-12, "within-parity gap")

    expected = []
    for i in range(count):
        for j in range(count):
            if abs(i - j) <= 1:
                f = branches["positive"][:, i] - branches["negative"][:, j]
                expected += [(i, j, m) for m in _sign_changes(f)]
    found = [c for c in report["between_parity"] if c["kind"] == "sign_change"]
    _require(len(found) == len(expected), f"{len(found)} crossings reported, branches change sign {len(expected)} times")
    for c, (i, j, m) in zip(found, expected):
        lo, hi = c["parameter_low"], c["parameter_high"]
        _require((c["level_positive"], c["level_negative"]) == (i, j), "crossing levels out of order")
        _require(grid[m] <= lo <= hi <= grid[m + 1], f"bracket [{lo}, {hi}] outside grid cell {m}")
        ends = []
        for x in (lo, hi):
            pos, tol = levels(point(x), 1, n, count)
            neg, _ = levels(point(x), -1, n, count)
            ends.append(pos[i] - neg[j])
        _require(ends[0] * ends[1] <= 0.0 or min(map(abs, ends)) <= tol, f"no sign change in [{lo}, {hi}]")
    if p["svg"]:
        read_svg(Path(f"{base}.svg"))


def _dense_trace_row(p: dict, t: float):
    """Site-0 intensity, mean site and inversion at time t, launch on site 0."""
    sign = _sign(p["parity"])
    d, e = chain(p, sign, p["size"])
    w, v = np.linalg.eigh(dense(d, e))
    amp = v @ (np.exp(-1j * w * t) * v[0])
    weights = np.abs(amp) ** 2
    sites = np.arange(p["size"])
    inversion = sign * float(np.sum((1.0 - 2.0 * (sites % 2)) * weights))
    return amp, (float(weights[0]), float(np.sum(sites * weights)), inversion)


def _peaks(y, t, threshold):
    out = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] >= threshold:
            left, mid, right = y[i - 1], y[i], y[i + 1]
            shift = 0.5 * (left - right) / (left - 2.0 * mid + right)
            out.append((t[i] + shift * (t[i + 1] - t[i]), mid - 0.25 * (left - right) * shift))
    return out


def sampled_row(p: dict) -> int:
    """The trace row checked against dense propagation: fixed per job, never row 0."""
    return 1 + int(p["tmax"] * 1e6) % (p["samples"] - 1)


def _check_evolve(job, base: Path) -> None:
    p = job.params
    config, header, rows = read_csv(Path(f"{base}_trace.csv"))
    _config_matches(config, job)
    _require(header == ["t", "site0_intensity", "mean_n", "sigma_z"], f"trace header {header}")
    table = np.array(rows, dtype=np.float64)
    _require(table.shape == (p["samples"], 4), f"trace shape {table.shape}")
    times = np.linspace(0.0, p["tmax"], p["samples"])
    _close(table[:, 0], times, 1e-12 * p["tmax"], "trace times")

    revivals = read_json(Path(f"{base}_revivals.json"))
    _config_matches(revivals["config"], job)
    _require(revivals["norm_drift"] <= NORM_DRIFT_MAX, f"norm_drift {revivals['norm_drift']:.3e}")
    _require(revivals["leakage"] <= LEAKAGE_MAX, f"leakage {revivals['leakage']:.3e}")
    peaks = _peaks(table[:, 1], table[:, 0], p["threshold"])
    _require(len(peaks) == len(revivals["peak_times"]), f"{len(revivals['peak_times'])} revivals, trace has {len(peaks)}")
    if peaks:
        _close(revivals["peak_times"], [q[0] for q in peaks], 1e-9 * p["tmax"], "revival times")
        _close(revivals["peak_values"], [q[1] for q in peaks], 1e-9, "revival heights")

    row = sampled_row(p)
    amp, (site0, mean_n, inversion) = _dense_trace_row(p, times[row])
    _close(table[row, [1, 3]], [site0, inversion], TRACE_TOL, f"trace row {row}")
    _close(table[row, 2], mean_n, TRACE_TOL * p["size"], f"mean site at row {row}")
    if p["dump_amplitudes"]:
        dump = read_json(Path(f"{base}_amplitudes.json"))
        _config_matches(dump["config"], job)
        history = dump["amplitudes"]
        _require(len(dump["times"]) == p["samples"] and len(history) == p["samples"], "dump length")
        sample = np.array(history[row], dtype=np.float64)
        _close(sample, np.stack([amp.real, amp.imag], axis=1), TRACE_TOL, f"dumped amplitudes at row {row}")
    if p["svg"]:
        read_svg(Path(f"{base}.svg"))


def _check_susy(job, base: Path) -> None:
    p = job.params
    count = p["levels"]
    report = read_json(base.with_suffix(".json"))
    _config_matches(report["config"], job)
    _require(report["passed"] is True, "isospectrality not passed")
    config, header, rows = read_csv(base.with_suffix(".csv"))
    _config_matches(config, job)
    _require(len(rows) == count, f"{len(rows)} susy rows")
    _close([float(r[1]) for r in rows], report["omega_minus"], 0.0, "susy CSV vs JSON")
    omega, g, k, n = 1.0, p["g"], p["k"], p["size"]
    gap = math.sqrt(omega**2 - 4.0 * g**2)
    j = np.arange(n, dtype=np.float64)
    partners = {
        "omega_minus": (omega * (j + k) - k * gap, g * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0 * k))),
        "omega_plus": (omega * (j + k + 0.5) + (0.5 - k) * gap, g * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0 * k + 1.0))),
    }
    for name, (d, e) in partners.items():
        _close(report[name], np.linalg.eigvalsh(dense(d, e))[:count], REL_TOL * norm_inf(d, e), name)
    closed_minus, closed_plus = closed_form_susy_energies(ModelParams(1.0, 0.0, p["g"], p["k"]), count)
    _close(report["omega_minus"], closed_minus, SUSY_TOL, "omega_minus vs closed form")
    _close(report["omega_plus"], closed_plus, SUSY_TOL, "omega_plus vs closed form")


def _check_converge(job, base: Path) -> None:
    p = job.params
    sizes, count = p["sizes"], p["levels"]
    config, header, rows = read_csv(base.with_suffix(".csv"))
    _config_matches(config, job)
    _require(header == ["size", "level", "energy", "verdict"], f"converge header {header}")
    _require(len(rows) == len(sizes) * count, f"{len(rows)} converge rows")
    sign = _sign(p["parity"])
    table = []
    for s, size in enumerate(sizes):
        want, tol = levels(p, sign, size, count)
        got = [float(r[2]) for r in rows[s * count:(s + 1) * count]]
        _require([int(r[0]) for r in rows[s * count:(s + 1) * count]] == [size] * count, "converge sizes")
        _close(got, want, tol, f"energies at size {size}")
        table.append(want)
    tol = 1e-8 * p.get("omega", 1.0)
    for level in range(count):
        verdict = rows[-count + level][3]
        delta = abs(table[-1][level] - table[-2][level])
        if p["g"] >= 0.5:
            _require(verdict == "diverging", f"level {level} beyond g = omega/2 called {verdict}")
        elif not 0.5 * tol <= delta <= 2.0 * tol:
            _require(verdict == ("converged" if delta <= tol else "diverging"), f"level {level} called {verdict}")


_CHECKS = {
    "spectrum": _check_spectrum,
    "sweep": _check_sweep,
    "evolve": _check_evolve,
    "susy": _check_susy,
    "converge": _check_converge,
}


def check_job(job, exit_code: int, workdir: Path) -> list:
    """Problems found in one finished job; [] when it is correct."""
    if exit_code != job.expect:
        return [f"exit code {exit_code}, expected {job.expect}"]
    base = workdir / job.out
    try:
        if job.kind == "refused":
            written = list(base.parent.glob("*")) if base.parent.exists() else []
            _require(not written, f"refused job wrote {[f.name for f in written]}")
        else:
            _CHECKS[job.kind](job, base)
    except CheckFailed as exc:
        return [str(exc)]
    except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []
