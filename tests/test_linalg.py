import numpy as np
import pytest

import oracles
from qsim import linalg
from qsim.errors import ValidationError
from qsim.linalg import (
    expm_hermitian,
    is_hermitian,
    is_unitary,
    kron_all,
    require_hermitian,
    require_unitary,
)

# The package's LAPACK route and the Jacobi oracle answer the same checks.
EIGENSOLVERS = pytest.mark.parametrize(
    "eigh", [linalg.eigh, oracles.jacobi_eigh], ids=["lapack", "jacobi"]
)


def _random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


@EIGENSOLVERS
def test_eigh_matches_numpy_eigenvalues(eigh):
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8, 13):
        h = _random_hermitian(n, rng)
        vals, vecs = eigh(h)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(h), atol=1e-10)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-12)
        np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-10)


@EIGENSOLVERS
def test_eigh_known_spectra(eigh):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    vals, _ = eigh(sx)
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)
    sy = np.array([[0, -1j], [1j, 0]])
    vals, _ = eigh(sy)
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


@EIGENSOLVERS
def test_eigh_handles_diagonal_and_degenerate(eigh):
    vals, vecs = eigh(np.diag([2.0, 2.0, 5.0]).astype(complex))
    np.testing.assert_allclose(vals, [2.0, 2.0, 5.0])
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-14)


@EIGENSOLVERS
def test_eigh_rejects_non_hermitian(eigh):
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_hermitian_is_unitary_for_imaginary_factor():
    rng = np.random.default_rng(3)
    h = _random_hermitian(4, rng)
    u = expm_hermitian(h, -1j * 0.37)
    assert is_unitary(u, 1e-11)
    # against the scaling-and-squaring identity exp(A) = exp(A/2)^2
    half = expm_hermitian(h, -1j * 0.185)
    np.testing.assert_allclose(half @ half, u, atol=1e-11)


def test_structural_checks():
    assert is_hermitian(np.array([[1.0, 2j], [-2j, 0.5]]))
    assert not is_hermitian(np.array([[1.0, 2j], [2j, 0.5]]))
    h = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
    assert not is_unitary(h)
    with pytest.raises(ValidationError):
        require_unitary(h)
    with pytest.raises(ValidationError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kron_all_ordering():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    np.testing.assert_allclose(kron_all([a, eye]), np.kron(a, eye))
