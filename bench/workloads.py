"""Seeded job generators for the three benchmark workloads.

A workload is an endless stream of CLI jobs built from the seed alone.  The
stream comes in blocks; every block holds the same strata (subcommand, size
band, output options) in a seeded order with seeded parameters inside each
stratum.  Fixed strata keep the job mix, and with it the median and the
memory peak, the same from seed to seed, while the parameters still differ.
The package only ever sees `Job.argv`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep-crossings", "dynamics", "ladders")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the checker needs to judge it."""

    kind: str  # subcommand, or "refused" for a job that must exit 2
    argv: tuple
    expect: int  # exit code
    params: dict = field(compare=False)  # values the argv was built from
    reported_levels: int = 0  # eigenvalues the job reports or uses

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]

    @property
    def memory_class(self) -> tuple:
        """Jobs of one class differ in memory only through their size."""
        extras = tuple(flag for flag in ("--svg", "--dump-amplitudes", "json") if flag in self.argv)
        return (self.kind, extras)

    @property
    def footprint(self) -> int:
        p = self.params
        return p.get("size", max(p.get("sizes", [0]))) * p.get("samples", 1)


def _argv(command: str, params: dict) -> tuple:
    argv = [command]
    for name, value in params.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is False:
            continue
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, repr(value) if isinstance(value, float) else str(value)]
    return tuple(argv)


def _job(kind: str, command: str, params: dict, out: str, expect: int = 0, reported: int = 0) -> Job:
    params = {**params, "out": out}
    return Job(kind, _argv(command, params), expect, params, reported)


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One uniform draw from each of `count` equal slices of [lo, hi], ascending."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


# Sweep strata: (axis, k, range of the fixed parameter).  Each range is one
# where the lowest three levels of the two parities cross a fixed number of
# times (1, 1, 2 along omega0; 3, 1, 1 along g), because crossing refinement
# dominates a job's cost: fixed counts keep the block's cost spread, and with
# it the median, the same for every seed.
_SWEEP_STRATA = [
    ("omega0", 1.0, (0.20, 0.25)),
    ("omega0", 1.5, (0.25, 0.35)),
    ("omega0", 0.5, (0.10, 0.20)),
    ("g", 0.5, (0.3, 0.8)),
    ("g", 1.0, (1.5, 2.0)),
    ("g", 1.5, (1.4, 2.0)),
]


def _sweep_block(rng: random.Random) -> list:
    # The omega0 axis stays inside g < omega/2; the g axis runs from about 0.2
    # to 0.7, across omega/2, so some of its points come back converged=False.
    specs = []
    for axis, k, (lo, hi) in _SWEEP_STRATA:
        if axis == "omega0":
            p = {"g": rng.uniform(lo, hi), "k": k, "sweep": "omega0", "min": 0.0, "max": 3.0}
        else:
            p = {"omega0": rng.uniform(lo, hi), "k": k, "sweep": "g", "min": rng.uniform(0.18, 0.22), "max": rng.uniform(0.68, 0.72)}
        p.update(points=11, size=40, levels=3, svg=k == 1.0)
        specs.append(p)
    rng.shuffle(specs)
    return [("sweep", "sweep", p, 0, 11 * 2 * 3) for p in specs]


def _dynamics_block(rng: random.Random) -> list:
    # Three plain runs, one per band of N in [40, 60], and one full-size run
    # that also dumps its amplitude history and draws an SVG.  tmax <= 40 pi keeps the
    # last-site intensity below 1e-6 for every g <= 0.4 at N >= 40.
    plain = [(round(n), s) for n, s in zip(_stratified(rng, 40, 60, 3), (2048, 1024, 2048))]
    specs = []
    for n, samples, dump in [(n, s, False) for n, s in plain] + [(60, 2048, True)]:
        specs.append(
            {
                "omega0": rng.uniform(0.0, 1.5),
                "g": rng.uniform(0.1, 0.4),
                "k": rng.choice((0.5, 1.0, 1.5)),
                "parity": rng.choice("+-"),
                "size": n,
                "tmax": rng.uniform(10.0, 40.0) * math.pi,
                "samples": samples,
                "threshold": rng.uniform(0.3, 0.8),
                "dump_amplitudes": dump,
                "svg": dump,
            }
        )
    rng.shuffle(specs)
    return [("evolve", "evolve", p, 0, p["size"]) for p in specs]


def _ladders_block(rng: random.Random) -> list:
    # 20 jobs: 7 spectra, 6 susy pairs, 6 convergence ladders and 1 refusal.
    specs = []
    # Each (format, omega0 = 0) pairing keeps its size band, so the same
    # json spectrum sets the memory peak in every block.
    for i, n in enumerate(_stratified(rng, 200, 400, 7)):
        omega0 = 0.0 if i % 3 == 0 else rng.uniform(0.25, 2.0)
        p = {
            "omega0": omega0,
            "g": rng.uniform(0.05, 0.45),
            "k": rng.choice((0.5, 1.0, 1.5)),
            "size": round(n),
            "levels": 10,
            "format": "json" if i % 2 else "csv",
        }
        specs.append(("spectrum", "spectrum", p, 0, 20))
    for n in _stratified(rng, 200, 400, 6):
        p = {"omega0": 0.0, "g": rng.uniform(0.05, 0.4), "k": rng.choice((0.5, 1.0, 1.5)), "size": round(n), "levels": 10}
        specs.append(("susy", "susy", p, 0, 20))
    for i, base in enumerate(_stratified(rng, 50, 100, 6)):
        a = round(base)
        levels = rng.randint(1, 3)
        p = {
            "omega0": rng.uniform(0.0, 1.5),
            "g": rng.uniform(0.5, 0.8) if i % 2 else rng.uniform(0.05, 0.4),
            "k": rng.choice((0.5, 1.0, 1.5)),
            "parity": rng.choice("+-"),
            "sizes": [a, 2 * a, 4 * a],
            "levels": levels,
        }
        specs.append(("converge", "converge", p, 0, 3 * levels))
    refusals = [
        ("susy", {"omega0": rng.uniform(0.1, 1.0), "g": 0.3, "size": 300}),
        ("spectrum", {"g": 0.3, "size": 50, "levels": 60}),
        ("converge", {"g": 0.3, "sizes": [200, 100]}),
    ]
    command, p = rng.choice(refusals)
    specs.append(("refused", command, p, 2, 0))
    rng.shuffle(specs)
    return specs


_BLOCKS = {
    "sweep-crossings": _sweep_block,
    "dynamics": _dynamics_block,
    "ladders": _ladders_block,
}


def jobs(workload: str, seed: int):
    """Endless, seed-determined stream of jobs for `workload`."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    number = itertools.count()
    while True:
        for kind, command, params, expect, reported in _BLOCKS[workload](rng):
            yield _job(kind, command, params, f"job{next(number):05d}/out", expect, reported)


def block_size(workload: str) -> int:
    return len(_BLOCKS[workload](random.Random(0)))


def first_blocks(workload: str, seed: int, count: int) -> list:
    """The jobs of the first `count` blocks; each block holds every stratum once."""
    return list(itertools.islice(jobs(workload, seed), count * block_size(workload)))


def warmup_jobs(workload: str) -> list:
    """One tiny job of each kind the workload runs, for imports and lazy set-up."""
    tiny = {
        "sweep": _job("sweep", "sweep", {"g": 0.2, "points": 3, "size": 8, "levels": 2, "svg": True}, "warm/sweep"),
        "evolve": _job(
            "evolve",
            "evolve",
            {"g": 0.2, "size": 8, "tmax": 1.0, "samples": 16, "dump_amplitudes": True, "svg": True},
            "warm/evolve",
        ),
        "spectrum": _job("spectrum", "spectrum", {"g": 0.2, "size": 12, "levels": 2, "format": "json"}, "warm/spectrum"),
        "susy": _job("susy", "susy", {"g": 0.2, "size": 12, "levels": 2}, "warm/susy"),
        "converge": _job("converge", "converge", {"g": 0.2, "sizes": [4, 8]}, "warm/converge"),
    }
    kinds = {
        "sweep-crossings": ("sweep",),
        "dynamics": ("evolve",),
        "ladders": ("spectrum", "susy", "converge"),
    }[workload]
    return [tiny[k] for k in kinds]
