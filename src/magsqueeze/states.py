"""Analytic magnon states: squeezed vacua, their even/odd superpositions,
and the joint magnon-qubit start of the protocols, a density matrix at
t = 0, where every frame of model.py coincides.

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
from .qops import KET_G, KET_MINUS_X, KET_PLUS_X, StateDensity, density_from_vector

TAIL_TOL = 1e-10

# Population a mixed Gaussian state may leave beyond fock_dim, inside the
# measured gap between accepted and corrupted truncations (README,
# "Truncation guidance"); TAIL_TOL would refuse the default custom run.
MIXED_TAIL_TOL = 1e-5


def gaussian_fock_populations(n_mean, s_abs, fock_dim):
    """Fock populations p_0 .. p_{fock_dim-1} of the zero-mean one-mode
    Gaussian state with <m^dag m> = n_mean and |<m^2>| = s_abs, untruncated.

    Its generating function Tr rho z^{m^dag m} = Q(z)^{-1/2}, Q = ((n + 1) -
    n z)^2 - |s|^2 (1 - z)^2 = a + b z + c z^2, gives p_0 = a^{-1/2} and
    a (k + 1) p_{k+1} = -b (k + 1/2) p_k - c k p_{k-1}, stable forward: the
    wanted solution is the dominant one.  c = (n - s)(n + s), b = -2 (c + n)
    and a = n + 1 - b/2 keep n^2 from cancelling against |s|^2.  n_mean and
    s_abs broadcast; the populations run along a new last axis.
    """
    n, s = np.asarray(n_mean, dtype=float), np.asarray(s_abs, dtype=float)
    c = (n - s) * (n + s)
    b = -2.0 * (c + n)
    a = (n + 1.0) - 0.5 * b
    p = np.empty(a.shape + (fock_dim,))
    prev, p[..., 0] = 0.0, 1.0 / np.sqrt(a)
    for k in range(fock_dim - 1):
        p[..., k + 1] = -(b * (k + 0.5) * p[..., k] + c * k * prev) / (a * (k + 1))
        prev = p[..., k]
    return p


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


def squeezed_vacuum_dyad(zeta, ket_sign, bra_sign):
    """|chi_k><chi_j| as a zero-mean Gaussian operator (trace, a, b, n), in
    the form of observables.gaussian_wigner, for chi_k = S(ket_sign zeta)|0>
    and chi_j = S(bra_sign zeta)|0>; zeta may be an array.  Untruncated.

    S(zeta)|0> = cosh(r)^{-1/2} exp(-tau m^dag^2 / 2)|0> with
    tau = e^{i arg zeta} tanh r, so m|chi_k> = -tau_k m^dag|chi_k>, and with
    D = 1 - tau_j^* tau_k:

        Tr = <chi_j|chi_k> = ((1 - |tau_j|^2)(1 - |tau_k|^2))^{1/4} / sqrt(D),
        a = -tau_k / D,  b = -tau_j^* / D,  n = tau_j^* tau_k / D.

    1 - |tau|^2 is taken as sech^2 r, and so is D for equal signs: 1 - tanh^2 r
    would cancel to 0 near r = 20.  For opposite signs D = 1 + tanh^2 r.
    """
    zeta = np.asarray(zeta, dtype=complex)
    r = np.abs(zeta)
    tau = np.exp(1.0j * np.angle(zeta)) * np.tanh(r)
    sech = 1.0 / np.cosh(r)
    d = sech ** 2 if ket_sign == bra_sign else 1.0 + np.tanh(r) ** 2
    tau_k, tau_j_conj = ket_sign * tau, bra_sign * tau.conj()
    return sech / np.sqrt(d), -tau_k / d, -tau_j_conj / d, tau_j_conj * tau_k / d


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
    "plus_x": KET_PLUS_X,
    "minus_x": KET_MINUS_X,
    # (|+x> + |-x>)/sqrt(2) = |g> with the |+-> = (|g> +- |e>)/sqrt(2) convention
    "plus_plus_minus": KET_G,
}


def joint_initial_state(qubit="plus_x", fock_dim=80):
    """Initial joint density matrix |0><0| (x) |qubit><qubit|, magnon vacuum,
    at t = 0, with the qubit convention |+-> = (|g> +- |e>)/sqrt(2).
    """
    if qubit not in _QUBIT_KETS:
        raise DimensionError(f"unsupported qubit option {qubit!r}")
    psi_m = np.zeros(fock_dim, dtype=complex)
    psi_m[0] = 1.0
    psi = np.kron(psi_m, _QUBIT_KETS[qubit])
    return StateDensity(density_from_vector(psi))

