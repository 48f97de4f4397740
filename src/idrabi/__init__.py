"""Spectra, supersymmetric partners, and lattice dynamics of the
intensity-dependent Rabi model, reduced to parity chains."""

from .backend import active_backend, eigh_tridiagonal
from .eigen import (
    ConvergenceReport,
    LevelVerdict,
    SpectrumResult,
    eigen_tridiagonal,
    ground_energy_vs_size,
)
from .errors import DivergentRegimeError, EigensolverError, NonDegenerateQubitError
from .evolution import (
    EvolutionTrace,
    LatticeState,
    RevivalReport,
    detect_revivals,
    evolve,
    observables,
    site_state,
)
from .limits import SqueezeParams, deep_strong_energies, squeeze_params, weak_limit_energies
from .model import (
    ModelParams,
    Parity,
    TridiagonalHamiltonian,
    build_hamiltonian,
    coupling,
    onsite_energy,
)
from .susy import (
    IsospectralityReport,
    SusyPair,
    alpha_parameter,
    build_susy_pair,
    closed_form_susy_energies,
    verify_isospectrality,
)
from .sweep import (
    BranchCrossing,
    CrossingReport,
    SweepResult,
    WithinParityGap,
    analyze_crossings,
    sweep_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "Parity",
    "TridiagonalHamiltonian",
    "build_hamiltonian",
    "onsite_energy",
    "coupling",
    "eigen_tridiagonal",
    "ground_energy_vs_size",
    "SpectrumResult",
    "ConvergenceReport",
    "LevelVerdict",
    "eigh_tridiagonal",
    "active_backend",
    "squeeze_params",
    "weak_limit_energies",
    "deep_strong_energies",
    "SqueezeParams",
    "alpha_parameter",
    "build_susy_pair",
    "closed_form_susy_energies",
    "verify_isospectrality",
    "SusyPair",
    "IsospectralityReport",
    "LatticeState",
    "site_state",
    "evolve",
    "observables",
    "detect_revivals",
    "EvolutionTrace",
    "RevivalReport",
    "sweep_spectrum",
    "analyze_crossings",
    "SweepResult",
    "CrossingReport",
    "WithinParityGap",
    "BranchCrossing",
    "DivergentRegimeError",
    "NonDegenerateQubitError",
    "EigensolverError",
    "__version__",
]
