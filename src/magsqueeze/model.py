"""Hamiltonians, derived parameters, frames, and the conditional-squeezing
propagator for the driven flux-qubit / YIG-sphere hybrid.

Physics conventions (also see qops):

* The flux qubit is described either in the persistent-current basis
  (sigma ops) or in its energy eigenbasis (dressed basis, sigma-bar ops).
  The dressed states used throughout are

      |e> =  cos(theta/2)|R> + sin(theta/2)|L>
      |g> =  sin(theta/2)|R> - cos(theta/2)|L>

  with |R>, |L> the persistent-current states.  Under this rotation

      sigma_z -> cos(theta) sb_z + sin(theta) sb_x
      sigma_x -> sin(theta) sb_z - cos(theta) sb_x

  so the bare longitudinal coupling g(m+m^dag)sigma_z splits into
  g_z = g cos(theta) (longitudinal) and g_x = g sin(theta) (transverse)
  parts in the dressed frame.  Note the relative sign between the two
  images: with this (real) convention the drive operator
  (sigma_x - sigma_z)/sqrt(2) maps to -sb_x at theta = pi/4, and the
  drive phase phi = 0 reproduces the -Omega cos(omega_p t) sb_x form that
  all dressed-frame Hamiltonians below are built on.

* Frames: "lab" (time-dependent drive present), "rotating_half_pump"
  (both subsystems rotated at omega_p/2: rho~ = V rho V^dag with
  V = exp[+i(m^dag m + sb_z) omega_p t / 2]), and "drive_interaction"
  (additionally rotated by exp[+i(Omega/2) sb_x t]).  All frames coincide
  at t = 0.

* Internal units: angular frequencies in rad/ns, times in ns.  The
  user-facing parameter container holds linear frequencies (GHz/MHz/kHz)
  and temperatures in mK; derive() converts once.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import FrameError, NumericalError
from .qops import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    StateDensity,
    annihilation,
    kron,
    number_op,
    squeeze_operator,
)

FRAMES = ("lab", "rotating_half_pump", "drive_interaction")


@dataclass(frozen=True)
class PhysicalParams:
    """User-facing system parameters in linear-frequency units.

    omega_m     Kittel-mode frequency, GHz
    nu          qubit splitting, GHz
    omega_p     drive frequency, GHz (close to nu; omega_p/2 close to omega_m)
    Omega       drive amplitude, GHz
    phi         drive phase, rad.  phi = 0 makes the dressed-frame drive
                equal to -Omega cos(omega_p t) sb_x, the sign convention
                used by build_H_tot and everything downstream.
    g           bare longitudinal coupling, GHz
    theta       flux angle; pi/4 balances g_x = g_z
    kappa       magnon energy relaxation rate, MHz
    gamma       qubit energy relaxation rate, kHz
    gamma_phi   qubit pure dephasing rate, kHz
    temperature bath temperature, mK
    """

    omega_m: float = 1.513
    nu: float = 3.0
    omega_p: float = 3.002
    Omega: float = 0.5
    phi: float = 0.0
    g: float = 0.15
    theta: float = math.pi / 4
    kappa: float = 0.5
    gamma: float = 3.0
    gamma_phi: float = 3.0
    temperature: float = 10.0

    def validate(self):
        if self.omega_p <= 0:
            raise ValueError("omega_p must be positive")
        if not 0.0 < self.theta < math.pi / 2:
            raise ValueError("theta must lie in (0, pi/2)")
        for name in ("kappa", "gamma", "gamma_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        return self


@dataclass(frozen=True)
class DerivedParams:
    """Angular-frequency (rad/ns) parameters derived from PhysicalParams."""

    omega_m: float
    nu: float
    omega_p: float
    Omega: float
    g: float
    g_x: float
    g_z: float
    Delta_m: float        # omega_m - omega_p/2
    Delta_nu: float       # nu - omega_p
    g_cs: float           # -2 g_x g_z / omega_p
    Delta_eff: float      # renormalized magnon detuning
    kappa: float
    gamma: float
    gamma_phi: float
    n_bar_m: float
    n_bar_q: float


def derive(params, delta_eff_override=None):
    """Convert to internal angular units and evaluate derived quantities.

    Delta_eff defaults to the static second-order shift
    Delta_m - 8 g_x^2 / (3 omega_p); pass delta_eff_override (rad/ns) to
    use a calibrated or scanned value instead.
    """
    params.validate()
    w = constants.ghz_to_rad_ns
    omega_m = w(params.omega_m)
    nu = w(params.nu)
    omega_p = w(params.omega_p)
    Omega = w(params.Omega)
    g = w(params.g)
    g_x = g * math.sin(params.theta)
    g_z = g * math.cos(params.theta)
    Delta_m = omega_m - omega_p / 2.0
    Delta_nu = nu - omega_p
    g_cs = -2.0 * g_x * g_z / omega_p
    if delta_eff_override is None:
        Delta_eff = Delta_m - 8.0 * g_x**2 / (3.0 * omega_p)
    else:
        Delta_eff = float(delta_eff_override)
    if params.temperature <= 0:
        warnings.warn("temperature <= 0; thermal occupations set to 0", stacklevel=2)
    n_bar_m = constants.thermal_occupation(params.omega_m, params.temperature)
    n_bar_q = constants.thermal_occupation(params.nu, params.temperature)
    return DerivedParams(
        omega_m=omega_m,
        nu=nu,
        omega_p=omega_p,
        Omega=Omega,
        g=g,
        g_x=g_x,
        g_z=g_z,
        Delta_m=Delta_m,
        Delta_nu=Delta_nu,
        g_cs=g_cs,
        Delta_eff=Delta_eff,
        kappa=w(params.kappa * 1e-3),
        gamma=w(params.gamma * 1e-6),
        gamma_phi=w(params.gamma_phi * 1e-6),
        n_bar_m=n_bar_m,
        n_bar_q=n_bar_q,
    )


def dressed_rotation(theta):
    """2x2 unitary whose columns are |g>, |e> in the persistent-current basis.

    Component order matches the shared Pauli convention (index 0 = the
    sigma_z = -1 current state).  A persistent-current-basis operator A
    maps to the dressed representation as R^dag A R; under this rotation
    sigma_z -> cos(theta) sb_z + sin(theta) sb_x and
    sigma_x -> sin(theta) sb_z - cos(theta) sb_x.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[-c, s], [s, c]], dtype=complex)


# ---------------------------------------------------------------------------
# Hamiltonians.  All return dense complex matrices on magnon (x) qubit;
# `fock_dim` is the magnon truncation (number of kept Fock levels).


def build_H_lab(params, t, fock_dim):
    """Lab-frame Hamiltonian in the persistent-current qubit basis:

        omega_m m^dag m + (nu/2)(cos(theta) sigma_z + sin(theta) sigma_x)
        + g (m + m^dag) sigma_z
        + Omega cos(omega_p t + phi) (sigma_x - sigma_z)/sqrt(2)
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    x_m = m + m.conj().T
    eye_m = np.eye(n, dtype=complex)
    h_q = 0.5 * d.nu * (
        math.cos(params.theta) * SIGMA_Z + math.sin(params.theta) * SIGMA_X
    )
    drive = (
        d.Omega
        * math.cos(d.omega_p * t + params.phi)
        * (SIGMA_X - SIGMA_Z)
        / math.sqrt(2.0)
    )
    return (
        kron(d.omega_m * number_op(n), IDENTITY_2)
        + kron(eye_m, h_q + drive)
        + d.g * kron(x_m, SIGMA_Z)
    )


def build_H_tot(params, t, fock_dim):
    """Lab-frame Hamiltonian in the dressed qubit basis:

        omega_m m^dag m + (nu/2) sb_z + g_x (m+m^dag) sb_x
        + g_z (m+m^dag) sb_z - Omega cos(omega_p t) sb_x

    Equals build_H_lab conjugated by the dressed rotation when phi = 0.
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    x_m = m + m.conj().T
    eye_m = np.eye(n, dtype=complex)
    return (
        kron(d.omega_m * number_op(n), IDENTITY_2)
        + kron(eye_m, 0.5 * d.nu * SIGMA_Z)
        + d.g_x * kron(x_m, SIGMA_X)
        + d.g_z * kron(x_m, SIGMA_Z)
        - d.Omega * math.cos(d.omega_p * t) * kron(eye_m, SIGMA_X)
    )


def build_H_rot(params, t, fock_dim, keep_counter_rotating=False):
    """Hamiltonian in the rotating_half_pump frame (dressed basis):

        Delta_m m^dag m + (Delta_nu/2) sb_z - (Omega/2) sb_x
        + g_x [ m sb_+ e^{+i omega_p t/2} + m^dag sb_+ e^{+3i omega_p t/2} + h.c. ]
        + g_z [ m e^{-i omega_p t/2} + m^dag e^{+i omega_p t/2} ] sb_z

    By default the counter-rotating drive terms -(Omega/2)(sb_+ e^{2i omega_p t}
    + h.c.) are dropped (rotating-wave approximation on the drive only);
    keep_counter_rotating=True retains them, making the result the exact
    frame transform of build_H_tot.
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    md = m.conj().T
    eye_m = np.eye(n, dtype=complex)
    wp = d.omega_p
    h = (
        kron(d.Delta_m * number_op(n), IDENTITY_2)
        + kron(eye_m, 0.5 * d.Delta_nu * SIGMA_Z - 0.5 * d.Omega * SIGMA_X)
    )
    t1 = d.g_x * np.exp(0.5j * wp * t) * kron(m, SIGMA_PLUS)
    t2 = d.g_x * np.exp(1.5j * wp * t) * kron(md, SIGMA_PLUS)
    t3 = d.g_z * np.exp(0.5j * wp * t) * kron(md, SIGMA_Z)
    h = h + t1 + t1.conj().T + t2 + t2.conj().T + t3 + t3.conj().T
    if keep_counter_rotating:
        cr = -0.5 * d.Omega * np.exp(2.0j * wp * t) * kron(eye_m, SIGMA_PLUS)
        h = h + cr + cr.conj().T
    return h


@dataclass
class JamesDecomposition:
    """Time-averaged second-order Hamiltonian split into its static part and
    oscillatory cross terms {frequency rad/ns: matrix} (same-frequency
    contributions merged)."""

    static: np.ndarray
    oscillatory: dict


def james_effective(terms):
    """Second-order effective Hamiltonian for H(t) = sum_m h_m^dag e^{i d_m t} + h.c.

    Returns all pair contributions [h_m^dag, h_n] / dbar_mn at frequency
    d_m - d_n, with dbar_mn = (d_m + d_n)/2; pairs with equal detunings
    (including m = n) are summed into the static part.

    terms: list of (h_dagger_matrix, detuning rad/ns); all detunings and
    averaged detunings must be nonzero.
    """
    hs = [(np.asarray(hd, dtype=complex), float(delta)) for hd, delta in terms]
    for _, delta in hs:
        if delta == 0.0:
            raise NumericalError("james_effective: zero detuning is singular")
    dim = hs[0][0].shape[0]
    static = np.zeros((dim, dim), dtype=complex)
    oscillatory = {}
    for hm_d, dm in hs:
        for hn_d, dn in hs:
            dbar = 0.5 * (dm + dn)
            if dbar == 0.0:
                raise NumericalError(
                    "james_effective: opposite detunings give a singular average"
                )
            comm = (hm_d @ hn_d.conj().T - hn_d.conj().T @ hm_d) / dbar
            freq = dm - dn
            if freq == 0.0:
                static += comm
            elif freq in oscillatory:
                oscillatory[freq] = oscillatory[freq] + comm
            else:
                oscillatory[freq] = comm
    return JamesDecomposition(static=static, oscillatory=oscillatory)


def sideband_interaction_terms(params, fock_dim):
    """The three sideband terms of the rotating-frame coupling, as
    (h^dag, detuning) pairs ready for james_effective:

        h1^dag = g_x m sb_+        at omega_p/2
        h2^dag = g_x m^dag sb_+    at 3 omega_p/2
        h3^dag = g_z m^dag sb_z    at omega_p/2
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    md = m.conj().T
    return [
        (d.g_x * kron(m, SIGMA_PLUS), d.omega_p / 2.0),
        (d.g_x * kron(md, SIGMA_PLUS), 1.5 * d.omega_p),
        (d.g_z * kron(md, SIGMA_Z), d.omega_p / 2.0),
    ]


def build_H_eff(params, fock_dim):
    """Static effective Hamiltonian after time-averaging the sidebands:

        Delta_m n + (Delta_nu/2) sb_z - (Omega/2) sb_x
        + (8 g_x^2 / 3 omega_p)(n + 1/2) sb_z
        + (2 g_x^2/(3 omega_p) - 2 g_z^2/omega_p) I
        - (4 g_x g_z / omega_p)(m^2 sb_+ + m^dag^2 sb_-)

    The qubit-conditioned Stark shift regroups to
    (8 g_x^2/3 omega_p)(2n+1)|e><e| plus a detuning shift of -8g_x^2/(3omega_p)
    on n; written here in the sb_z form that matches the static part of
    james_effective on sideband_interaction_terms entrywise (identity offsets
    included).
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    m2 = m @ m
    eye_m = np.eye(n, dtype=complex)
    num = number_op(n)
    stark = (8.0 * d.g_x**2 / (3.0 * d.omega_p)) * kron(
        num + 0.5 * eye_m, SIGMA_Z
    )
    const = (2.0 * d.g_x**2 / (3.0 * d.omega_p) - 2.0 * d.g_z**2 / d.omega_p) * kron(
        eye_m, IDENTITY_2
    )
    two_magnon = -(4.0 * d.g_x * d.g_z / d.omega_p) * (
        kron(m2, SIGMA_PLUS) + kron(m2.conj().T, SIGMA_MINUS)
    )
    return (
        kron(d.Delta_m * num, IDENTITY_2)
        + kron(eye_m, 0.5 * d.Delta_nu * SIGMA_Z - 0.5 * d.Omega * SIGMA_X)
        + stark
        + const
        + two_magnon
    )


def build_H_cs(params, t, fock_dim, delta_eff=None):
    """Conditional two-photon (squeezing) Hamiltonian in the drive frame:

        -(g_cs/2) [ m^2 e^{-2i Delta_eff t} + m^dag^2 e^{+2i Delta_eff t} ] sb_x

    with g_cs = -2 g_x g_z / omega_p (negative at the default working point,
    so the prefactor -(g_cs/2) is positive).  The normalization is fixed so
    that the exact time-ordered propagator of this Hamiltonian is the
    conditional squeezer with parameter squeezing_parameter(t): on the
    sb_x = +-1 sectors it generates S(+-xi(t)).  Commutes with sb_x at all t.
    """
    d = derive(params)
    delta = d.Delta_eff if delta_eff is None else float(delta_eff)
    n = int(fock_dim)
    m = annihilation(n)
    m2 = m @ m
    mag = -(d.g_cs / 2.0) * (
        np.exp(-2.0j * delta * t) * m2 + np.exp(2.0j * delta * t) * m2.conj().T
    )
    return kron(mag, SIGMA_X)


def squeezing_parameter(params, t, delta_eff=None):
    """Accumulated squeezing parameter of the conditional propagator:

        xi(t) = -g_cs (e^{2i Delta_eff t} - 1) / (2 Delta_eff)

    with the limit form xi = -i g_cs t used below |Delta_eff| = 1e-9 rad/ns
    to avoid catastrophic cancellation.
    """
    d = derive(params)
    delta = d.Delta_eff if delta_eff is None else float(delta_eff)
    if abs(delta) < 1e-9:
        return -1.0j * d.g_cs * t
    return -d.g_cs * (np.exp(2.0j * delta * t) - 1.0) / (2.0 * delta)


def analytic_propagator(params, t, fock_dim, delta_eff=None):
    """Closed-form conditional propagator

        U(t) = S(xi(t)) (x) P_+  +  S(-xi(t)) (x) P_-

    with P_+- the projectors on the sb_x = +-1 qubit states.  Exact for
    Delta_eff = 0; for nonzero detuning it is the leading Magnus
    approximation to the time-ordered propagator of build_H_cs.  Warns when
    sinh^2|xi| approaches the truncation capacity fock_dim/6.
    """
    n = int(fock_dim)
    xi = squeezing_parameter(params, t, delta_eff=delta_eff)
    if math.sinh(abs(xi)) ** 2 > n / 6.0:
        warnings.warn(
            f"analytic_propagator: sinh^2|xi| = {math.sinh(abs(xi))**2:.1f} exceeds "
            f"fock_dim/6 = {n/6:.1f}; truncation artifacts likely",
            stacklevel=2,
        )
    proj_plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    proj_minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return kron(squeeze_operator(xi, n), proj_plus) + kron(
        squeeze_operator(-xi, n), proj_minus
    )


# ---------------------------------------------------------------------------
# frames


def _rotating_half_pump_unitary(params, t, n):
    """V = exp[+i (m^dag m + sb_z) omega_p t / 2]; diagonal in the joint basis."""
    d = derive(params)
    n_vals = np.repeat(np.arange(n, dtype=float), 2)
    z_vals = np.tile(np.array([-1.0, 1.0]), n)
    return np.exp(0.5j * d.omega_p * t * (n_vals + z_vals))


def _drive_interaction_unitary(params, t, n):
    """V = exp[+i (Omega/2) sb_x t] on the joint space."""
    d = derive(params)
    a = 0.5 * d.Omega * t
    v2 = math.cos(a) * IDENTITY_2 + 1.0j * math.sin(a) * SIGMA_X
    return kron(np.eye(n, dtype=complex), v2)


_FRAME_ORDER = {"lab": 0, "rotating_half_pump": 1, "drive_interaction": 2}


def frame_transform(state, to_frame, params):
    """Re-express a joint StateDensity in another frame at its current time.

    Supported: lab <-> rotating_half_pump <-> drive_interaction (adjacent
    legs compose for lab <-> drive_interaction).  Trace and spectrum are
    preserved exactly; only the representation changes.
    """
    if to_frame not in _FRAME_ORDER:
        raise FrameError(f"unknown frame {to_frame!r}")
    if state.frame not in _FRAME_ORDER:
        raise FrameError(f"state carries unknown frame {state.frame!r}")
    if to_frame == state.frame:
        return StateDensity(state.matrix.copy(), frame=to_frame, time=state.time)
    n = state.dim // 2
    t = state.time
    rho = state.matrix
    src, dst = _FRAME_ORDER[state.frame], _FRAME_ORDER[to_frame]
    step = 1 if dst > src else -1
    level = src
    while level != dst:
        if step == 1 and level == 0:        # lab -> rotating_half_pump
            phases = _rotating_half_pump_unitary(params, t, n)
            rho = (phases[:, None] * rho) * phases.conj()[None, :]
        elif step == -1 and level == 1:     # rotating_half_pump -> lab
            phases = _rotating_half_pump_unitary(params, t, n)
            rho = (phases.conj()[:, None] * rho) * phases[None, :]
        elif step == 1 and level == 1:      # rotating -> drive_interaction
            v = _drive_interaction_unitary(params, t, n)
            rho = v @ rho @ v.conj().T
        else:                               # drive_interaction -> rotating
            v = _drive_interaction_unitary(params, t, n)
            rho = v.conj().T @ rho @ v
        level += step
    return StateDensity(rho, frame=to_frame, time=t)
