"""Dense complex linear algebra: the Hermitian eigensolver, the checks
that validate every matrix entering the package, and `kron`, the
package's one Kronecker product (of vectors or of matrices).

Most matrices the checks and `kron` see are 2x2 to 8x8 gates and local
terms, where numpy's generic wrappers (`np.max`, `np.all`, `np.kron`) cost
more than the arithmetic. So they call the ufuncs and ndarray methods
directly, on the same operands in the same order, and every result is the
wrapper's bit for bit.

`eigh` is the one eigensolver (LAPACK through `np.linalg.eigh`, behind the
Hermitian check); every caller reaches it as `linalg.eigh`, so patching
that name swaps the solver for every decomposition made afterwards. What
was decomposed before stays: `hamsim.qmc_problem` builds its observable
once per process (Z (x) I, diagonal, which LAPACK and a Jacobi sweep split
alike). Pauli Trotter terms take no eigensolve at all (`hamsim`).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10


def as_complex_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    # a complex entry is finite when its real and imaginary parts both are
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains non-finite entries")
    return m


def is_unitary(mat: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(mat, dtype=complex)
    eye = np.eye(m.shape[0])
    return bool(np.abs(m.conj().T @ m - eye).max() < tol)


def require_unitary(mat, tol: float = UNITARY_TOL) -> np.ndarray:
    m = as_complex_matrix(mat)
    dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if dev >= tol:
        raise ValidationError(f"matrix is not unitary: max |U†U - I| = {dev:.3e}")
    return m


def is_hermitian(mat: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(mat, dtype=complex)
    return bool(np.abs(m - m.conj().T).max() < tol)


def require_hermitian(mat, tol: float = HERMITIAN_TOL) -> np.ndarray:
    m = as_complex_matrix(mat)
    dev = float(np.abs(m - m.conj().T).max())
    if dev >= tol:
        raise ValidationError(f"matrix is not Hermitian: max |A - A†| = {dev:.3e}")
    return m


def kron(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """`np.kron` folded left to right over vectors or over 2-D arrays, the
    left factor most significant: the same products, one broadcast
    multiply a factor."""
    out = first
    for c in rest:
        if out.ndim == 1:
            out = (out.reshape(-1, 1) * c).reshape(-1)
        else:
            (r, k), (p, q) = out.shape, c.shape
            out = (out.reshape(r, 1, k, 1) * c.reshape(1, p, 1, q)).reshape(r * p, k * q)
    return out


def eigh(mat):
    """(eigenvalues ascending, eigenvectors as columns) of a Hermitian matrix."""
    return np.linalg.eigh(require_hermitian(mat))


# benchmarks/layertrace.py and benchmarks/micro.py bind the solver by this
# old name; the tracer rebinds every global that is this function, `eigh` too.
jacobi_eigh = eigh


def expm_hermitian(mat, factor: complex) -> np.ndarray:
    """exp(factor * mat) for Hermitian mat, via eigendecomposition."""
    vals, vecs = eigh(mat)
    return (vecs * np.exp(factor * vals)) @ vecs.conj().T
