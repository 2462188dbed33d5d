"""Small operator toolbox for the magnon (+ qubit) Hilbert space.

Conventions fixed here and relied on everywhere else:

* The magnon mode is truncated to ``fock_dim`` Fock states |0..fock_dim-1>.
* The qubit lives in the *dressed* energy basis with ordering (|g>, |e>),
  i.e. basis index 0 is the ground state.  With that ordering
  ``sigma_z = diag(-1, +1)`` and ``sigma_plus = |e><g|``.
* Composite operators are magnon (x) qubit, so a joint basis index is
  ``n * 2 + q`` with n the Fock index and q in {0: g, 1: e}.
* A state is a density matrix and its time.  The frame it is written in
  is fixed by the model that evolves it (model.py), not stored with it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError


@dataclass
class StateDensity:
    """A density matrix at a time (ns)."""

    matrix: np.ndarray
    time: float = 0.0

    @property
    def dim(self):
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# qubit (dressed basis, ordering |g>, |e|)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = SIGMA_PLUS.conj().T                                 # |g><e|
IDENTITY_2 = np.eye(2, dtype=complex)

KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)
KET_PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS_X = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# magnon mode

def annihilation(fock_dim):
    """Magnon annihilation operator on the truncated Fock space.

    fock_dim is the number of kept levels.  The returned matrix acts on the magnon factor only; embed with kron() as needed.
    """
    n = int(fock_dim)
    if n < 2:
        raise DimensionError(f"fock_dim must be >= 2, got {n}")
    m = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n)
    m[idx - 1, idx] = np.sqrt(idx)
    return m


def number_op(fock_dim):
    n = int(fock_dim)
    return np.diag(np.arange(n, dtype=float)).astype(complex)


# ---------------------------------------------------------------------------
# composites and linear-algebra helpers

def kron(a, b):
    """Tensor product, first factor = magnon, second = qubit (by convention)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def herm_eig(op, atol=1e-10):
    """Eigendecomposition of a Hermitian operator; checks hermiticity first.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    from scipy.linalg import eigh

    op = np.asarray(op)
    dev = np.max(np.abs(op - op.conj().T))
    scale = max(np.max(np.abs(op)), 1.0)
    if dev > atol * scale:
        raise NumericalError(f"operator not Hermitian (max deviation {dev:.3e})")
    return eigh(op)


def density_from_vector(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())
