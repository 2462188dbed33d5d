"""Hamiltonians, derived parameters, frames, and the conditional-squeezing
parameter for the driven flux-qubit / YIG-sphere hybrid.

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
  (sigma_x - sigma_z)/sqrt(2) maps to -sb_x at theta = pi/4, so the drive
  Omega cos(omega_p t) (sigma_x - sigma_z)/sqrt(2) becomes the
  -Omega cos(omega_p t) sb_x form that all dressed-frame Hamiltonians
  below are built on.

* Frames: "lab" (time-dependent drive present), "rotating_half_pump"
  (both subsystems rotated at omega_p/2: rho~ = V rho V^dag with
  V = exp[+i(m^dag m + sb_z) omega_p t / 2]), and "drive_interaction"
  (additionally rotated by exp[+i(Omega/2) sb_x t]).  All frames coincide
  at t = 0.  A frame belongs to the model, not to the state: the full model
  runs in rotating_half_pump and the effective model in drive_interaction,
  frame_transform converts between those two when told which one a state
  is in, and the lab frame serves the tests' oracles.

* Internal units: angular frequencies in rad/ns, times in ns.  The
  user-facing parameter container holds linear frequencies (GHz/MHz/kHz)
  and temperatures in mK; derive() converts once.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import FrameError
from .qops import (
    IDENTITY_2,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    StateDensity,
    annihilation,
    kron,
    number_op,
)


@dataclass(frozen=True)
class PhysicalParams:
    """User-facing system parameters in linear-frequency units.

    omega_m     Kittel-mode frequency, GHz
    nu          qubit splitting, GHz
    omega_p     drive frequency, GHz (close to nu; omega_p/2 close to omega_m)
    Omega       drive amplitude, GHz; the dressed-frame drive is
                -Omega cos(omega_p t) sb_x, the sign convention that
                build_H_rot and everything downstream assume
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


# ---------------------------------------------------------------------------
# Hamiltonians on magnon (x) qubit.  The time-dependent ones are returned as
# a SplitHamiltonian, the form the master equation is assembled from;
# `fock_dim` is the magnon truncation (number of kept Fock levels).


@dataclass
class SplitHamiltonian:
    """H(t) = static + sum_k [e^{i w_k t} H_k + e^{-i w_k t} H_k^dag].

    static is a Hermitian matrix or None; terms holds (H_k, w_k) pairs, w_k
    in rad/ns, so H(t) is Hermitian at every t.  evolve_master turns the
    static part and each term's -i H_k and -i H_k^dag into the columns of
    one coefficient array on a fixed sparsity pattern, combined with
    e^{+i w_k t} and e^{-i w_k t} at each call, and refuses a static part
    that is not Hermitian.
    """

    static: np.ndarray = None
    terms: tuple = ()


def build_H_rot(params, fock_dim):
    """Hamiltonian in the rotating_half_pump frame (dressed basis), the exact
    frame transform of the dressed lab-frame Hamiltonian

        omega_m m^dag m + (nu/2) sb_z + (m+m^dag)(g_x sb_x + g_z sb_z)
        - Omega cos(omega_p t) sb_x,

    the image of the persistent-current-basis one at theta = pi/4
    (at other theta the lab drive's image is not -sb_x; this form keeps it):

        Delta_m m^dag m + (Delta_nu/2) sb_z - (Omega/2) sb_x
        + sum_k [h_k^dag e^{i d_k t} + h.c.]   (sideband_interaction_terms)
        - (Omega/2) [sb_+ e^{2i omega_p t} + h.c.]   (counter-rotating drive)

    The two sidebands at omega_p/2 are one term.
    """
    d = derive(params)
    n = int(fock_dim)
    eye_m = np.eye(n, dtype=complex)
    static = (
        kron(d.Delta_m * number_op(n), IDENTITY_2)
        + kron(eye_m, 0.5 * d.Delta_nu * SIGMA_Z - 0.5 * d.Omega * SIGMA_X)
    )
    terms = {}
    for hd, w in sideband_interaction_terms(params, n):
        terms[w] = terms.get(w, 0.0) + hd
    terms[2.0 * d.omega_p] = -0.5 * d.Omega * kron(eye_m, SIGMA_PLUS)
    return SplitHamiltonian(static, tuple((hk, w) for w, hk in terms.items()))


def sideband_interaction_terms(params, fock_dim):
    """The three sideband terms of the rotating-frame coupling,
    sum_k [h_k^dag e^{i d_k t} + h.c.], as (h_k^dag, d_k) pairs:

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


def build_H_cs(params, fock_dim, delta_eff=None):
    """Conditional two-photon (squeezing) Hamiltonian in the drive frame:

        -(g_cs/2) [ m^2 e^{-2i Delta_eff t} + m^dag^2 e^{+2i Delta_eff t} ] sb_x

    with g_cs = -2 g_x g_z / omega_p (negative at the default working point,
    so the prefactor -(g_cs/2) is positive).  The normalization is fixed so
    that at Delta_eff = 0 the exact propagator of this Hamiltonian is the
    conditional squeezer with parameter squeezing_parameter(t): on the
    sb_x = +-1 sectors it generates S(+-xi(t)); at other detunings xi(t) is
    its leading Magnus term.  Commutes with sb_x at all t.
    One term, -(g_cs/2) m^2 (x) sb_x at w = -2 Delta_eff, and no static part.
    """
    d = derive(params)
    delta = d.Delta_eff if delta_eff is None else float(delta_eff)
    m = annihilation(int(fock_dim))
    term = kron(-(d.g_cs / 2.0) * (m @ m), SIGMA_X)
    return SplitHamiltonian(terms=((term, -2.0 * delta),))


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


# ---------------------------------------------------------------------------
# frames


def _drive_interaction_unitary(params, t, n):
    """V = exp[+i (Omega/2) sb_x t] on the joint space."""
    d = derive(params)
    a = 0.5 * d.Omega * t
    v2 = math.cos(a) * IDENTITY_2 + 1.0j * math.sin(a) * SIGMA_X
    return kron(np.eye(n, dtype=complex), v2)


def frame_transform(state, from_frame, to_frame, params):
    """Re-express a joint StateDensity, written in from_frame, in to_frame
    at its time; a state does not record its frame, so the caller names it.

    Converts between rotating_half_pump and drive_interaction only: rho ->
    V rho V^dag with V = exp[+i (Omega/2) sb_x t], or back.  Any other frame
    raises FrameError.  Trace and spectrum are preserved exactly; only the
    representation changes.
    """
    for frame in (from_frame, to_frame):
        if frame not in ("rotating_half_pump", "drive_interaction"):
            raise FrameError(f"frame_transform converts between rotating_half_pump and "
                             f"drive_interaction only, not {frame!r}")
    t = state.time
    if to_frame == from_frame:
        return StateDensity(state.matrix.copy(), time=t)
    v = _drive_interaction_unitary(params, t, state.dim // 2)
    if to_frame == "drive_interaction":
        rho = v @ state.matrix @ v.conj().T
    else:
        rho = v.conj().T @ state.matrix @ v
    return StateDensity(rho, time=t)
