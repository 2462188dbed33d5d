"""Operator-algebra layer: truncation-aware ladder operators, exact-unitary
squeeze/displacement exponentials, partial traces, and a test-local
density-matrix guard.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import eigh
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze.errors import DimensionError, NumericalError
from magsqueeze.qops import (
    annihilation,
    density_from_vector,
    herm_eig,
    kron,
    number_op,
)
from test_model import squeeze_operator  # test-local oracle

N = 24


# test-local oracles: the package itself needs none of these


def creation(fock_dim):
    return annihilation(fock_dim).conj().T


def fock_state(n, fock_dim):
    """Fock state |n> as a vector of length fock_dim."""
    if not 0 <= n < fock_dim:
        raise DimensionError(f"Fock index {n} outside truncation {fock_dim}")
    v = np.zeros(fock_dim, dtype=complex)
    v[n] = 1.0
    return v


def parity_operator(fock_dim):
    """Photon-number parity (-1)^n on the magnon space."""
    n = int(fock_dim)
    return np.diag((-1.0) ** np.arange(n)).astype(complex)


def expectation(rho, op):
    """<op> = Tr(rho op); returns a real number for Hermitian op
    (imaginary part must be numerical noise), complex otherwise."""
    val = np.einsum("ij,ji->", np.asarray(rho), np.asarray(op))
    if np.max(np.abs(op - np.asarray(op).conj().T)) < 1e-10 * max(np.max(np.abs(op)), 1.0):
        return float(val.real)
    return complex(val)


def displacement_operator(alpha, fock_dim):
    """Displacement exp(alpha m^dag - alpha* m) on the truncated space.

    Computed through the exact exponential of the (anti-Hermitian)
    generator, so the result is exactly unitary at any truncation.  Emits
    a warning when |alpha|^2 > fock_dim / 4, where the truncated operator
    no longer represents the ideal displacement faithfully.
    """
    n = int(fock_dim)
    if abs(alpha) ** 2 > n / 4.0:
        warnings.warn(
            f"displacement |alpha|^2 = {abs(alpha)**2:.2f} exceeds fock_dim/4 = {n/4:.1f}; "
            "truncation artifacts likely",
            stacklevel=2,
        )
    m = annihilation(n)
    gen = alpha * m.conj().T - np.conj(alpha) * m   # anti-Hermitian
    herm = 1.0j * gen
    evals, vecs = eigh(herm)
    return (vecs * np.exp(-1.0j * evals)) @ vecs.conj().T


def matrix_sqrt_psd(op, neg_tol=1e-6):
    """Principal square root of a positive semi-definite Hermitian matrix.

    Small negative eigenvalues (>= -neg_tol * scale) are clamped to zero;
    anything more negative raises NumericalError.
    """
    evals, vecs = herm_eig(op, atol=1e-8)
    scale = max(evals.max(), 1.0) if evals.size else 1.0
    if evals.min() < -neg_tol * scale:
        raise NumericalError(
            f"matrix_sqrt_psd: eigenvalue {evals.min():.3e} too negative"
        )
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def partial_trace_qubit(rho_joint, fock_dim=None):
    """Trace out the qubit from a joint magnon (x) qubit density matrix."""
    rho_joint = np.asarray(rho_joint)
    d = rho_joint.shape[0]
    if d % 2:
        raise DimensionError(f"joint dimension {d} is not even")
    n = d // 2
    if fock_dim is not None and fock_dim != n:
        raise DimensionError(f"fock_dim {fock_dim} inconsistent with joint dim {d}")
    return np.einsum("iaja->ij", rho_joint.reshape(n, 2, n, 2))


def partial_trace_magnon(rho_joint):
    """Trace out the magnon mode, leaving the 2x2 qubit state."""
    rho_joint = np.asarray(rho_joint)
    d = rho_joint.shape[0]
    if d % 2:
        raise DimensionError(f"joint dimension {d} is not even")
    n = d // 2
    return np.einsum("iaib->ab", rho_joint.reshape(n, 2, n, 2))


def validate_density(rho, atol=1e-8):
    """Square, unit trace, Hermitian and positive up to atol (eigenvalues
    down to -1e-6), or raise."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > atol:
        raise NumericalError(f"trace(rho) = {tr}, deviates by {abs(tr - 1.0):.3e}")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise NumericalError("density matrix is not Hermitian")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if evals.min() < -1e-6:
        raise NumericalError(f"density matrix has eigenvalue {evals.min():.3e}")


def test_annihilation_matrix_elements():
    m = annihilation(N)
    for k in range(1, N):
        psi = m @ fock_state(k, N)
        expected = np.sqrt(k) * fock_state(k - 1, N)
        np.testing.assert_allclose(psi, expected, atol=1e-15)
    assert np.allclose(m @ fock_state(0, N), 0.0)


def test_commutator_is_identity_below_truncation():
    m = annihilation(N)
    comm = m @ creation(N) - creation(N) @ m
    # the last diagonal entry is -(N-1), the unavoidable truncation defect
    np.testing.assert_allclose(comm[: N - 1, : N - 1], np.eye(N - 1), atol=1e-13)
    assert comm[N - 1, N - 1] == pytest.approx(-(N - 1))


def test_number_op_equals_mdag_m():
    m = annihilation(N)
    np.testing.assert_allclose(number_op(N), m.conj().T @ m, atol=1e-13)


def test_parity_diagonal():
    p = parity_operator(N)
    np.testing.assert_allclose(np.diagonal(p), (-1.0) ** np.arange(N))


def test_fock_dim_guards():
    assert annihilation(12).shape == (12, 12)
    with pytest.raises(DimensionError):
        annihilation(1)
    with pytest.raises(DimensionError):
        fock_state(9, 9)


def test_squeeze_operator_unitary_and_identity():
    u = squeeze_operator(0.6 + 0.2j, 40)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(40), atol=1e-12)
    np.testing.assert_allclose(squeeze_operator(0.0, 8), np.eye(8), atol=1e-13)


def test_squeeze_operator_vacuum_amplitudes():
    # S(xi)|0> against the closed-form even-Fock expansion
    xi = 0.8 * np.exp(0.3j)
    r, phase = abs(xi), np.angle(xi)
    dim = 60
    psi = squeeze_operator(xi, dim) @ fock_state(0, dim)
    tanh, cosh = np.tanh(r), np.cosh(r)
    from math import factorial, sqrt

    for m_idx in range(0, 12):
        expected = (
            (-np.exp(1.0j * phase) * tanh) ** m_idx
            * sqrt(float(factorial(2 * m_idx)))
            / (2**m_idx * factorial(m_idx) * sqrt(cosh))
        )
        assert psi[2 * m_idx + 1] == pytest.approx(0.0, abs=1e-13)
        assert psi[2 * m_idx] == pytest.approx(expected, abs=1e-10)


def test_squeeze_inverse():
    xi = 0.5 - 0.4j
    u = squeeze_operator(xi, 30) @ squeeze_operator(-xi, 30)
    # product of the truncated exponentials is unitary but only approximates
    # the identity away from the top of the space
    np.testing.assert_allclose(u[:20, :20], np.eye(30)[:20, :20], atol=1e-6)


def test_displacement_coherent_amplitudes():
    alpha = 1.1 - 0.7j
    dim = 60
    psi = displacement_operator(alpha, dim) @ fock_state(0, dim)
    from math import factorial

    for k in range(12):
        expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**k / np.sqrt(factorial(k))
        assert psi[k] == pytest.approx(expected, abs=1e-10)


def test_displacement_warns_when_truncation_tight():
    with pytest.warns(UserWarning, match="truncation"):
        displacement_operator(4.0, 20)


@given(
    re=st.floats(-1.2, 1.2),
    im=st.floats(-1.2, 1.2),
)
@settings(max_examples=15)
def test_displacement_adjoint_is_inverse(re, im):
    alpha = re + 1j * im
    d = displacement_operator(alpha, 40)
    np.testing.assert_allclose(d.conj().T, displacement_operator(-alpha, 40), atol=1e-10)
    np.testing.assert_allclose(d @ d.conj().T, np.eye(40), atol=1e-11)


def test_herm_eig_orders_and_guards():
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    evals, vecs = herm_eig(h)
    assert list(evals) == sorted(evals)
    np.testing.assert_allclose(vecs @ np.diag(evals) @ vecs.conj().T, h, atol=1e-13)
    with pytest.raises(NumericalError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_sqrt_psd_roundtrip(rng):
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    psd = a @ a.conj().T
    s = matrix_sqrt_psd(psd)
    np.testing.assert_allclose(s @ s, psd, atol=1e-9 * np.max(np.abs(psd)))
    with pytest.raises(NumericalError):
        matrix_sqrt_psd(np.diag([1.0, -0.5]))


def test_expectation_real_for_hermitian():
    rho = density_from_vector(fock_state(3, 10))
    val = expectation(rho, number_op(10))
    assert isinstance(val, float)
    assert val == pytest.approx(3.0)
    # non-Hermitian operator keeps its complex expectation
    m = annihilation(10)
    psi = (fock_state(2, 10) + fock_state(3, 10)) / np.sqrt(2)
    got = expectation(density_from_vector(psi), m)
    assert isinstance(got, complex)
    assert got == pytest.approx(np.sqrt(3.0) / 2)


def test_partial_traces_on_product_state(rng):
    n = 6
    psi_m = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi_m /= np.linalg.norm(psi_m)
    psi_q = np.array([0.6, 0.8j])
    rho_m = density_from_vector(psi_m)
    rho_q = density_from_vector(psi_q)
    joint = kron(rho_m, rho_q)
    np.testing.assert_allclose(partial_trace_qubit(joint), rho_m, atol=1e-13)
    np.testing.assert_allclose(partial_trace_magnon(joint), rho_q, atol=1e-13)
    with pytest.raises(DimensionError):
        partial_trace_qubit(np.eye(7))
    with pytest.raises(DimensionError):
        partial_trace_qubit(joint, fock_dim=5)


def test_partial_trace_preserves_trace_for_entangled(rng):
    d = 10
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho = density_from_vector(psi)
    assert np.trace(partial_trace_qubit(rho)) == pytest.approx(1.0)
    assert np.trace(partial_trace_magnon(rho)) == pytest.approx(1.0)


@given(st.integers(2, 16))
@settings(max_examples=10)
def test_density_from_vector_is_state(dim):
    rng = np.random.default_rng(dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho = density_from_vector(psi)
    validate_density(rho, atol=1e-10)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12
    assert sorted(evals)[-1] == pytest.approx(1.0)


def test_state_density_validate_guards():
    with pytest.raises(NumericalError):
        validate_density(np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NumericalError):
        validate_density(bad)
    with pytest.raises(DimensionError):
        validate_density(np.zeros((2, 3), dtype=complex))
    herm_bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NumericalError):
        validate_density(herm_bad)
