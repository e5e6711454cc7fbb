import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from qsim import linalg
from qsim.errors import ValidationError
from qsim.linalg import (
    expm_hermitian,
    is_hermitian,
    is_unitary,
    kron,
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


def test_kron_ordering():
    # the left factor is the most significant: |0> (x) |1> = |01>, and X (x) I flips qubit 0
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    x, eye = np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2, dtype=complex)
    assert np.flatnonzero(kron(zero, one)).tolist() == [1]
    assert np.flatnonzero(kron(one, zero, one)).tolist() == [5]
    np.testing.assert_array_equal(kron(x, eye) @ kron(zero, one), kron(one, one))


# Entries with both signs of zero, so that a product's sign of zero is compared too.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e6, 1e6))


def _real_or_complex(draw, shape):
    real = draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
    if draw(st.booleans()):
        return real
    out = np.empty(shape, dtype=complex)  # set part by part, keeping -0.0
    out.real = real
    out.imag = draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
    return out


@st.composite
def _matrices(draw, max_side=8, square=False):
    """A real or a complex matrix of up to max_side rows and columns."""
    rows = draw(st.integers(1, max_side))
    return _real_or_complex(draw, (rows, rows if square else draw(st.integers(1, max_side))))


@st.composite
def _vectors(draw, max_len=8):
    """A real or a complex vector of up to max_len entries."""
    return _real_or_complex(draw, (draw(st.integers(1, max_len)),))


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(a=_matrices(), c=_matrices())
@example(a=np.array([[-0.0, 0.0], [1.0, -1.0]]),
         c=np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1j]]))
@example(a=np.array([[complex(-0.0, 0.0)]]), c=np.array([[-0.0, 0.0, 2.0]]))
def test_kron_is_np_kron_bit_for_bit(a, c):
    _assert_same_bytes(kron(a, c), np.kron(a, c))


@settings(max_examples=100)
@given(a=_vectors(), c=_vectors())
@example(a=np.array([-0.0, 0.0, -1.0]),
         c=np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1j]))
@example(a=np.array([complex(-0.0, 0.0), 1.0]), c=np.array([-0.0, 2.0]))
def test_kron_of_vectors_is_np_kron_bit_for_bit(a, c):
    _assert_same_bytes(kron(a, c), np.kron(a, c))


@settings(max_examples=100)
@given(factors=st.one_of(st.tuples(_vectors(4), _vectors(4), _vectors(4)),
                         st.tuples(_matrices(4), _matrices(4), _matrices(4))))
def test_three_factor_kron_is_the_np_kron_chain_bit_for_bit(factors):
    a, b, c = factors
    _assert_same_bytes(kron(a, b, c), np.kron(np.kron(a, b), c))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_as_complex_matrix_rejects_what_the_two_part_test_rejects(part, bad):
    for n in (1, 2, 3):
        for at in itertools.product(range(n), repeat=2):
            m = np.full((n, n), 0.5 - 0.25j)
            getattr(m, part)[at] = bad
            for check in (linalg.as_complex_matrix, oracles.as_complex_matrix_two_part):
                with pytest.raises(ValidationError) as err:
                    check(m)
                assert str(err.value) == "matrix contains non-finite entries"


@settings(max_examples=100)
@given(m=_matrices(max_side=4, square=True))
def test_as_complex_matrix_accepts_what_the_two_part_test_accepts(m):
    got, want = linalg.as_complex_matrix(m), oracles.as_complex_matrix_two_part(m)
    assert got.tobytes() == want.tobytes()


def _decisions(require, is_ok, deviation, text, m):
    """At tol = the deviation the check rejects with the old text; one ulp
    above, it accepts."""
    dev = deviation(m)
    with pytest.raises(ValidationError) as err:
        require(m, dev)
    assert str(err.value) == f"{text} = {dev:.3e}"
    assert not is_ok(m, dev)
    above = math.nextafter(dev, math.inf)
    assert require(m, above).tobytes() == np.asarray(m, dtype=complex).tobytes()
    assert is_ok(m, above)


@settings(max_examples=150)
@given(m=_matrices(max_side=4, square=True))
@example(m=np.array([[0.0, 1.0], [0.0, 0.0]]))
@example(m=np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
def test_hermitian_and_unitary_checks_keep_their_decisions_and_texts(m):
    _decisions(require_hermitian, is_hermitian, oracles.hermitian_deviation,
               "matrix is not Hermitian: max |A - A†|", m)
    _decisions(require_unitary, is_unitary, oracles.unitary_deviation,
               "matrix is not unitary: max |U†U - I|", m)
