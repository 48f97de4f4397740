"""The LAPACK-backed tridiagonal solver against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idrabi import EigensolverError, eigh_tridiagonal
from idrabi.backend import MAX_SITES
from idrabi.model import ModelParams, Parity, build_hamiltonian

import oracles

_entries = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def _scale(d, e):
    return 1.0 + np.max(np.abs(d)) + (2.0 * np.max(np.abs(e)) if len(e) else 0.0)


def test_one_and_two_site_closed_forms():
    w, v = eigh_tridiagonal([3.5], [], want_vectors=True)
    assert w[0] == 3.5 and v[0, 0] == 1.0

    # worked 2x2: eigenvalues (d0+d1)/2 -+ sqrt((d0-d1)^2/4 + e^2)
    w, _ = eigh_tridiagonal([0.0, 1.0], [0.4])
    root = np.sqrt(1.0 + 4.0 * 0.16)
    assert np.allclose(w, [(1.0 - root) / 2.0, (1.0 + root) / 2.0], rtol=0.0, atol=1e-14)


def test_decoupled_chain_is_sorted_diagonal():
    d = np.array([4.0, -1.0, 2.5, 2.5, 0.0])
    w, v = eigh_tridiagonal(d, np.zeros(4), want_vectors=True)
    assert np.array_equal(w, np.sort(d))
    # eigenvectors are site vectors, stably ordered for the tied pair
    assert np.array_equal(np.abs(v), np.eye(5)[:, np.argsort(d, kind="stable")])


def test_against_dense_oracle_small_sizes():
    rng = np.random.default_rng(101)
    for size in range(1, 13):
        for _ in range(8):
            d, e = oracles.random_tridiagonal(rng, size)
            w, v = eigh_tridiagonal(d, e, want_vectors=True)
            wd = oracles.dense_eigvalsh(d, e)
            assert np.all(np.diff(w) >= 0.0)
            assert np.max(np.abs(w - wd)) <= 1e-12 * _scale(d, e)
            dense = oracles.dense_matrix(d, e)
            for i in range(size):
                resid = np.linalg.norm(dense @ v[:, i] - w[i] * v[:, i])
                assert resid <= 1e-10 * (_scale(d, e) + abs(w[i]))


def test_against_charpoly_oracle_tiny_sizes():
    rng = np.random.default_rng(55)
    for size in range(2, 7):
        d, e = oracles.random_tridiagonal(rng, size)
        w, _ = eigh_tridiagonal(d, e)
        wc = oracles.charpoly_eigvals(d, e)
        assert np.max(np.abs(w - wc)) <= 1e-8 * _scale(d, e)


def test_orthonormality_and_residual_medium():
    # a random chain plus the FIG2 chain at N = 400 in both parities, each
    # also checked against a different algorithm (MRRR) than the solver's
    rng = np.random.default_rng(77)
    fig2 = ModelParams(omega=1.0, omega0=0.75, g=0.4, k=0.5)
    chains = [oracles.random_tridiagonal(rng, 180, scale=2.0)]
    for parity in (Parity.POSITIVE, Parity.NEGATIVE):
        h = build_hamiltonian(fig2, parity, 400)
        chains.append((h.diagonal, h.offdiagonal))
    for d, e in chains:
        size = d.size
        w, v = eigh_tridiagonal(d, e, want_vectors=True)
        gram = v.T @ v - np.eye(size)
        assert np.max(np.abs(gram)) <= 1e-10
        dense = oracles.dense_matrix(d, e)
        resid = np.max(np.abs(dense @ v - v * w))
        assert resid <= 1e-10 * (_scale(d, e) + np.max(np.abs(w)))
        w_mrrr = oracles.mrrr_eigvalsh(d, e)
        assert np.max(np.abs(w - w_mrrr)) <= 1e-12 * _scale(d, e)


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(13)
    d, e = oracles.random_tridiagonal(rng, 40)
    _, v = eigh_tridiagonal(d, e, want_vectors=True)
    lead = np.argmax(np.abs(v), axis=0)
    assert np.all(v[lead, np.arange(40)] > 0.0)


def test_repeated_calls_bit_identical():
    rng = np.random.default_rng(99)
    d, e = oracles.random_tridiagonal(rng, 120)
    w1, v1 = eigh_tridiagonal(d, e, want_vectors=True)
    w2, v2 = eigh_tridiagonal(d, e, want_vectors=True)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_input_validation():
    with pytest.raises(ValueError):
        eigh_tridiagonal([], [])
    with pytest.raises(ValueError):
        eigh_tridiagonal([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        eigh_tridiagonal([1.0, np.nan], [0.1])
    with pytest.raises(ValueError):
        eigh_tridiagonal(np.ones((2, 2)), [0.1])
    # refused before the 8 * N^2-byte dense array is requested
    with pytest.raises(ValueError, match="dense solver limit"):
        eigh_tridiagonal(np.zeros(MAX_SITES + 1), np.zeros(MAX_SITES))


def test_lapack_failure_surfaces_as_error(monkeypatch):
    # LAPACK essentially never fails on a finite symmetric tridiagonal
    # matrix, so fake its report to pin the error contract
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    for want_vectors in (False, True):
        with pytest.raises(EigensolverError, match="did not converge") as info:
            eigh_tridiagonal(np.ones(9), np.ones(8), want_vectors=want_vectors)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_entries, min_size=2, max_size=10), st.floats(-20.0, 20.0))
def test_diagonal_shift_property(values, shift):
    d = np.asarray(values[: len(values)])
    e = np.asarray(values[1:])[: len(d) - 1]
    w, _ = eigh_tridiagonal(d, e)
    w_shifted, _ = eigh_tridiagonal(d + shift, e)
    assert np.max(np.abs(w_shifted - (w + shift))) <= 1e-12 * (_scale(d, e) + abs(shift))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_entries, min_size=3, max_size=12))
def test_leading_submatrix_interlacing_property(values):
    d = np.asarray(values)
    e = np.asarray(values[::-1])[: len(d) - 1]
    w_full, _ = eigh_tridiagonal(d, e)
    w_sub, _ = eigh_tridiagonal(d[:-1], e[:-1])
    assert oracles.interlaces(w_sub, w_full, slack=1e-11 * _scale(d, e))
