"""Parity-reduced lattice form of the intensity-dependent Rabi model.

The model couples a bosonic mode of frequency omega to a qubit of splitting
omega0 through an intensity-dependent vertex,

    H = omega*n + (omega0/2)*sigma_z
        + g*(sqrt(n + 2k)*a + a_dag*sqrt(n + 2k))*sigma_x,      k > 0,

where k is the Bargmann index of the underlying su(1,1) realization
(k = 1/2 gives the two-photon-symmetric ladder).  H commutes with the parity
Pi = (-1)^n sigma_z, so each parity sector reduces to a semi-infinite
tridiagonal chain:

    onsite    d_j   = omega*j + s*omega0*(-1)^j / 2       s = +1, -1 per sector
    coupling  e_j   = g*sqrt((j+1)*(j+2k))

This module holds the parameter container and the sector Hamiltonians; the
diagonalization (one LAPACK call per chain) lives in `backend` / `eigen`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .serialize import json_dumps


class Parity(enum.Enum):
    """Eigenvalue sector of Pi = (-1)^n sigma_z."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @property
    def sign(self) -> int:
        return 1 if self is Parity.POSITIVE else -1

    @classmethod
    def from_label(cls, label: str) -> "Parity":
        """Accept '+', '-', 'positive', 'negative' (and short forms)."""
        key = str(label).strip().lower()
        if key in {"+", "positive", "pos", "p"}:
            return cls.POSITIVE
        if key in {"-", "negative", "neg", "n"}:
            return cls.NEGATIVE
        raise ValueError(f"unknown parity label {label!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; validated on construction.

    omega > 0 and k > 0 are hard requirements, g >= 0 and omega0 >= 0 by
    convention (signs can be absorbed into basis phases).
    """

    omega: float
    omega0: float
    g: float
    k: float

    def __post_init__(self):
        for name in ("omega", "omega0", "g", "k"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.k <= 0.0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.g < 0.0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.omega0 < 0.0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")

    @property
    def is_valid_regime(self) -> bool:
        """True in the hyperbolic window g < omega/2 where the spectrum is bounded below."""
        return self.g < 0.5 * self.omega

    def replace(self, **changes) -> "ModelParams":
        values = {"omega": self.omega, "omega0": self.omega0, "g": self.g, "k": self.k}
        values.update(changes)
        return ModelParams(**values)

    def to_dict(self) -> dict:
        return {"omega": self.omega, "omega0": self.omega0, "g": self.g, "k": self.k}


def onsite_energy(params: ModelParams, parity: Parity, j):
    """Diagonal entry d_j = omega*j + sign(parity)*omega0*(-1)^j / 2.

    `j` may be an integer or an integer array; the return broadcasts.
    """
    j = np.asarray(j)
    if np.any(j < 0):
        raise ValueError("site index must be >= 0")
    alternating = 1.0 - 2.0 * (j % 2)
    return params.omega * j + parity.sign * 0.5 * params.omega0 * alternating


def coupling(params: ModelParams, j):
    """Hopping e_j = g*sqrt((j+1)*(j+2k)) between sites j and j+1."""
    j = np.asarray(j)
    if np.any(j < 0):
        raise ValueError("site index must be >= 0")
    return params.g * np.sqrt((j + 1.0) * (j + 2.0 * params.k))


@dataclass(frozen=True, eq=False)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal operator with its originating parameters.

    `diagonal` has length N, `offdiagonal` length N-1.  Arrays are copied and
    frozen so instances can be shared safely.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    params: ModelParams
    parity: Parity

    def __post_init__(self):
        diag = np.array(self.diagonal, dtype=np.float64)
        off = np.array(self.offdiagonal, dtype=np.float64)
        if diag.ndim != 1 or off.ndim != 1:
            raise ValueError("diagonal and offdiagonal must be 1-D")
        if diag.size < 1:
            raise ValueError("need at least one site")
        if off.size != diag.size - 1:
            raise ValueError(
                f"offdiagonal length {off.size} does not match size {diag.size}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix entries must be finite")
        diag.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "offdiagonal", off)

    @property
    def size(self) -> int:
        return self.diagonal.size

    @property
    def norm_inf(self) -> float:
        """Max row sum |e_{j-1}| + |d_j| + |e_j|; scale for tolerance choices."""
        rows = np.abs(self.diagonal).astype(np.float64)
        if self.size > 1:
            rows[:-1] += np.abs(self.offdiagonal)
            rows[1:] += np.abs(self.offdiagonal)
        return float(rows.max())

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (small sizes / debugging)."""
        h = np.diag(self.diagonal)
        if self.size > 1:
            h += np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)
        return h

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Apply H to a vector (real or complex) without materializing it."""
        vec = np.asarray(vec)
        if vec.shape != (self.size,):
            raise ValueError(f"vector shape {vec.shape} does not match size {self.size}")
        out = self.diagonal * vec
        if self.size > 1:
            out[:-1] += self.offdiagonal * vec[1:]
            out[1:] += self.offdiagonal * vec[:-1]
        return out

    def to_dict(self) -> dict:
        return {
            "omega": self.params.omega,
            "omega0": self.params.omega0,
            "g": self.params.g,
            "k": self.params.k,
            "parity": self.parity.value,
            "size": self.size,
            "diagonal": self.diagonal.tolist(),
            "offdiagonal": self.offdiagonal.tolist(),
        }

    def to_json(self, **kwargs) -> str:
        return json_dumps(self.to_dict(), **kwargs)


def build_hamiltonian(params: ModelParams, parity: Parity, size: int) -> TridiagonalHamiltonian:
    """Truncate the parity chain to its first `size` sites.

    Truncation keeps the lowest part of the spectrum faithful as long as the
    retained block dominates; convergence checks live in `eigen`.
    """
    size = int(size)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    sites = np.arange(size)
    diag = onsite_energy(params, parity, sites)
    off = coupling(params, sites[:-1]) if size > 1 else np.empty(0)
    return TridiagonalHamiltonian(diag, off, params, parity)
