"""Symmetric tridiagonal eigensolver: one LAPACK call on the dense chain.

The chain is written into the lower triangle of an N x N array and handed to
numpy's LAPACK driver (?syevd through `np.linalg.eigvalsh` / `eigh`), which
adds no dependency and no import time (README, "Eigensolver").  The dense
array takes 8*N^2 bytes, so chains longer than MAX_SITES are refused before
anything is allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError

MAX_SITES = 4096  # 128 MiB dense; a vector solve peaks near five times that


def active_backend() -> str:
    """Name of the eigensolver every solve goes through."""
    return "numpy-lapack-syevd"


def eigh_tridiagonal(diagonal, offdiagonal, want_vectors: bool = False):
    """Eigenvalues (ascending) and optional eigenvectors of a real symmetric
    tridiagonal matrix.

    Parameters
    ----------
    diagonal, offdiagonal : arrays of shape (n,) and (n-1,), n <= MAX_SITES
    want_vectors : also return the orthonormal eigenbasis as columns

    Returns
    -------
    (w, v) with w shape (n,), v shape (n, n) or None.  Ties keep LAPACK's
    order; each eigenvector's largest-magnitude entry is made positive, so
    results are reproducible bit for bit on a given LAPACK build.
    """
    d = np.asarray(diagonal, dtype=np.float64)
    off = np.asarray(offdiagonal, dtype=np.float64)
    if d.ndim != 1 or off.ndim != 1:
        raise ValueError("diagonal and offdiagonal must be 1-D")
    n = d.size
    if n < 1:
        raise ValueError("matrix must have at least one row")
    if off.size != n - 1:
        raise ValueError(f"offdiagonal length {off.size}, expected {n - 1}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(off))):
        raise ValueError("matrix entries must be finite")
    if n > MAX_SITES:
        raise ValueError(f"chain of {n} sites exceeds the dense solver limit of {MAX_SITES}")

    h = np.zeros((n, n))
    sites = np.arange(n)
    h[sites, sites] = d
    h[sites[1:], sites[:-1]] = off
    try:
        if not want_vectors:
            return np.linalg.eigvalsh(h, UPLO="L"), None
        w, v = np.linalg.eigh(h, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(str(exc)) from exc
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, sites] < 0.0
    v[:, flip] *= -1.0
    return w, v
