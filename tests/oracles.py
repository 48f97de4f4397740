"""Independent reference implementations used only by the tests.

Nothing here calls the package's solver.  The package solves through
numpy's dense LAPACK driver (?syevd), so the dense routes below
(numpy.linalg) share its algorithm and guard only the chain assembly and
sign rules; the algorithm-independent references are scipy's MRRR
tridiagonal solver and, for tiny matrices, characteristic-polynomial roots.  Dense
spectral propagation serves the dynamics tests.
"""

import numpy as np
from numpy.polynomial import polynomial as P


def dense_matrix(diag, off):
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    h = np.diag(diag)
    if off.size:
        h += np.diag(off, 1) + np.diag(off, -1)
    return h


def dense_eigvalsh(diag, off):
    """Eigenvalues via numpy's dense LAPACK driver, on the full matrix."""
    return np.linalg.eigvalsh(dense_matrix(diag, off))


def mrrr_eigvalsh(diag, off):
    """Eigenvalues via scipy's tridiagonal MRRR solver (LAPACK ?stemr), a
    different algorithm from the package's ?syevd."""
    from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal

    return scipy_eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stemr")


def dense_eigh(diag, off):
    return np.linalg.eigh(dense_matrix(diag, off))


def charpoly_eigvals(diag, off):
    """Roots of the characteristic polynomial from the leading-minor
    recurrence p_n(x) = (d_{n-1} - x) p_{n-1}(x) - e_{n-2}^2 p_{n-2}(x).

    Root-finding conditioning limits this to small, well-scaled matrices;
    use alongside the dense route, not instead of it.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    p_prev = np.array([1.0])  # p_0
    p_cur = np.array([diag[0], -1.0])  # p_1 in ascending powers
    for n in range(1, diag.size):
        term = P.polymul([diag[n], -1.0], p_cur)
        term = P.polysub(term, (off[n - 1] ** 2) * p_prev)
        p_prev, p_cur = p_cur, term
    roots = np.roots(p_cur[::-1])
    return np.sort(roots.real)


def interlaces(w_sub, w_full, slack=0.0):
    """Cauchy interlacing: w_full[i] <= w_sub[i] <= w_full[i+1] (with slack)."""
    w_sub = np.asarray(w_sub)
    w_full = np.asarray(w_full)
    assert w_sub.size + 1 == w_full.size
    return bool(
        np.all(w_full[:-1] <= w_sub + slack) and np.all(w_sub <= w_full[1:] + slack)
    )


def dense_propagate(diag, off, initial, times):
    """E(t) = V exp(-i w t) V^T E(0) through numpy.linalg.eigh."""
    w, v = dense_eigh(diag, off)
    weights = v.T @ np.asarray(initial, dtype=np.complex128)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=np.float64), w))
    return (phases * weights) @ v.T


def random_tridiagonal(rng, size, scale=1.0):
    diag = rng.uniform(-scale, scale, size)
    off = rng.uniform(-scale, scale, max(size - 1, 0))
    return diag, off
