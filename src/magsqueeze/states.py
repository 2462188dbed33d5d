"""Analytic magnon states: squeezed vacua, their even/odd superpositions,
and the joint magnon-qubit start of the protocols.

All states are built by direct Fock-coefficient recurrence (numerically
stable at any truncation); the tests cross-check it against a truncated
matrix-exponential squeezer of their own (tests/test_model.py).

Conventions: xi = r e^{i varphi}; S(xi) = exp[(xi* m^2 - xi m^dag^2)/2];

    S(xi)|0> = cosh(r)^{-1/2} sum_m (-e^{i varphi} tanh r)^m
               sqrt((2m)!)/(2^m m!) |2m>

so the amplitude recurrence is
    c_{2m+2}/c_{2m} = -e^{i varphi} tanh(r) sqrt((2m+1)/(2m+2)).
"""

import cmath
import math

import numpy as np

from .errors import DimensionError, TruncationError
from .qops import KET_G, KET_E, StateDensity, density_from_vector

TAIL_TOL = 1e-10


def squeezed_vacuum_fock(xi, fock_dim):
    """Squeezed vacuum S(xi)|0> as Fock amplitudes (normalized, even support).

    Raises TruncationError when the amplitude mass beyond the truncation
    exceeds 1e-10 (roughly requires fock_dim > 10 e^{2r}).
    """
    r = abs(xi)
    phase = cmath.phase(xi) if r > 0 else 0.0
    c = np.zeros(fock_dim, dtype=complex)
    c[0] = 1.0 / math.sqrt(math.cosh(r))
    ratio_base = -cmath.exp(1.0j * phase) * math.tanh(r)
    for m in range(0, (fock_dim - 1) // 2):
        c[2 * m + 2] = c[2 * m] * ratio_base * math.sqrt(
            (2 * m + 1) / (2 * m + 2)
        )
    tail = 1.0 - float(np.vdot(c, c).real)
    if tail > TAIL_TOL:
        raise TruncationError(
            f"squeezed vacuum r={r:.3f} leaves {tail:.2e} probability beyond "
            f"fock_dim={fock_dim} (need roughly > {10 * math.exp(2 * r):.0f})"
        )
    return c / np.linalg.norm(c)


def superposition_pm(xi, sign, fock_dim):
    """Normalized even/odd superposition [S(xi) +- S(-xi)]|0> / sqrt(N_pm).

    sign=+1 keeps Fock indices 0 mod 4, sign=-1 keeps 2 mod 4.  The odd
    combination vanishes identically at r=0 and raises there.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    r = abs(xi)
    if sign == -1 and r == 0.0:
        raise ValueError("odd superposition is degenerate (zero) at r = 0")
    plus = squeezed_vacuum_fock(xi, fock_dim)
    minus = squeezed_vacuum_fock(-xi, fock_dim)
    raw = plus + minus if sign == +1 else plus - minus
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise ValueError("superposition norm underflow")
    return raw / norm


_QUBIT_KETS = {
    "plus_x": (KET_G + KET_E) / math.sqrt(2.0),
    "minus_x": (KET_G - KET_E) / math.sqrt(2.0),
    # (|+x> + |-x>)/sqrt(2) = |g> with the |+-> = (|g> +- |e>)/sqrt(2) convention
    "plus_plus_minus": KET_G,
}


def joint_initial_state(qubit="plus_x", fock_dim=80):
    """Initial joint density matrix |0><0| (x) |qubit><qubit|, magnon vacuum.

    Tagged with frame "lab" at t=0, where all frames coincide.  The qubit
    convention |+-> = (|g> +- |e>)/sqrt(2) is recorded in the metadata.
    """
    if qubit not in _QUBIT_KETS:
        raise DimensionError(f"unsupported qubit option {qubit!r}")
    psi_m = np.zeros(fock_dim, dtype=complex)
    psi_m[0] = 1.0
    psi = np.kron(psi_m, _QUBIT_KETS[qubit])
    state = StateDensity(density_from_vector(psi), frame="lab", time=0.0)
    state.meta["qubit_convention"] = "|+-> = (|g> +- |e>)/sqrt(2)"
    state.meta["qubit_init"] = qubit
    return state

