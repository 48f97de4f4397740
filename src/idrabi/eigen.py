"""Spectra of truncated parity chains and truncation-convergence reports.

Diagonalization is exact for the truncated matrix; whether the truncation
itself is trustworthy is a separate question answered by tracking the lowest
levels while the chain is enlarged.  Inside the window g < omega/2 those
levels settle geometrically; outside it the ground energy keeps falling with
size, which is how the unbounded regime shows up at finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import eigh_tridiagonal
from .model import ModelParams, Parity, TridiagonalHamiltonian, build_hamiltonian
from .serialize import json_dumps


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Ascending eigenvalues (and optional orthonormal eigenvectors) of one chain."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    source: TridiagonalHamiltonian

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        if self.eigenvectors is not None:
            self.eigenvectors.flags.writeable = False

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def lowest(self, count: int) -> np.ndarray:
        count = int(count)
        if not 1 <= count <= self.size:
            raise ValueError(f"need 1 <= count <= {self.size}, got {count}")
        return self.eigenvalues[:count]

    def to_rows(self, count: int | None = None):
        """CSV rows (index, eigenvalue), lowest `count` levels (default: all)."""
        values = self.eigenvalues if count is None else self.lowest(count)
        return [(i, float(v)) for i, v in enumerate(values)]

    def to_dict(self, count: int | None = None) -> dict:
        values = self.eigenvalues if count is None else self.lowest(count)
        return {
            "parity": self.source.parity.value,
            "size": self.source.size,
            "eigenvalues": [float(v) for v in values],
        }

    def to_json(self, **kwargs) -> str:
        return json_dumps(self.to_dict(), **kwargs)


def eigen_tridiagonal(h: TridiagonalHamiltonian, want_vectors: bool = False) -> SpectrumResult:
    """Diagonalize a chain Hamiltonian.

    Eigenvalues come back ascending; eigenvectors, when requested, are
    orthonormal columns with the largest-magnitude entry of each made
    positive.  Equal inputs give bit-equal outputs on a fixed LAPACK build.
    Raises ValueError for chains longer than backend.MAX_SITES and
    EigensolverError if LAPACK fails to converge.
    """
    w, v = eigh_tridiagonal(h.diagonal, h.offdiagonal, want_vectors=want_vectors)
    return SpectrumResult(w, v, h)


@dataclass(frozen=True)
class LevelVerdict:
    """Convergence call for one tracked level at the largest size."""

    level: int
    converged: bool
    energy: float
    last_delta: float

    @property
    def label(self) -> str:
        return "converged" if self.converged else "diverging"


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Lowest-level energies across a ladder of truncation sizes."""

    params: ModelParams
    parity: Parity
    sizes: tuple
    levels: int
    energies: np.ndarray  # shape (len(sizes), levels)
    tol: float
    verdicts: tuple

    def __post_init__(self):
        self.energies.flags.writeable = False

    @property
    def all_converged(self) -> bool:
        return all(v.converged for v in self.verdicts)

    def to_rows(self):
        """CSV rows (size, level, energy, verdict)."""
        rows = []
        for i, size in enumerate(self.sizes):
            for j in range(self.levels):
                rows.append((size, j, float(self.energies[i, j]), self.verdicts[j].label))
        return rows

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "parity": self.parity.value,
            "sizes": list(self.sizes),
            "levels": self.levels,
            "tol": self.tol,
            "energies": self.energies.tolist(),
            "verdicts": [
                {
                    "level": v.level,
                    "converged": v.converged,
                    "energy": v.energy,
                    "last_delta": v.last_delta,
                }
                for v in self.verdicts
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json_dumps(self.to_dict(), **kwargs)


def ground_energy_vs_size(
    params: ModelParams,
    parity: Parity,
    sizes,
    levels: int = 1,
    tol: float | None = None,
) -> ConvergenceReport:
    """Track the lowest `levels` eigenvalues over strictly increasing sizes.

    A level is 'converged' when its change across the final size step is at
    most `tol` (default 1e-8 * omega), 'diverging' otherwise.  The full
    energy table is kept so callers can inspect the whole trend, not just
    the last step.
    """
    sizes = tuple(int(s) for s in sizes)
    levels = int(levels)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if len(sizes) < 2:
        raise ValueError("need at least two sizes to compare")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    if sizes[0] < levels:
        raise ValueError(f"smallest size {sizes[0]} cannot hold {levels} levels")
    if tol is None:
        tol = 1e-8 * params.omega
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")

    energies = np.empty((len(sizes), levels))
    for i, size in enumerate(sizes):
        spectrum = eigen_tridiagonal(build_hamiltonian(params, parity, size))
        energies[i] = spectrum.lowest(levels)

    deltas = np.abs(energies[-1] - energies[-2])
    verdicts = tuple(
        LevelVerdict(j, bool(deltas[j] <= tol), float(energies[-1, j]), float(deltas[j]))
        for j in range(levels)
    )
    return ConvergenceReport(params, parity, sizes, levels, energies, tol, verdicts)
