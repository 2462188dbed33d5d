"""Hamiltonian builders, frames and the second-order effective model.

The chain under test:  lab-frame flux-qubit + Kittel mode, the dressed-basis
rewrite, the half-pump rotating frame, the time-averaged static model, and the
conditional two-photon Hamiltonian with its closed-form propagator.  Every
step is checked against an independently assembled matrix identity rather
than against the builder's own internals.

Truncation note: products like m m^dag equal n+1 only below the top Fock
level, so entrywise comparisons with closed forms that use (2n+1) are done on
the interior block that excludes the top two magnon levels.
"""

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from magsqueeze.constants import TWO_PI
from magsqueeze.errors import FrameError, NumericalError
from magsqueeze.model import (
    PhysicalParams,
    SplitHamiltonian,
    build_H_cs,
    build_H_rot,
    derive,
    frame_transform,
    sideband_interaction_terms,
    squeezing_parameter,
)
from magsqueeze.qops import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    StateDensity,
    annihilation,
    density_from_vector,
    kron,
    number_op,
)


def interior(h, fock_dim):
    """Joint-space block excluding the top two magnon levels."""
    k = 2 * (fock_dim - 2)
    return h[:k, :k]


def hamiltonian_at(h, t):
    """Test-local oracle: the dense matrix of a SplitHamiltonian at time t,
    static + sum_k [e^{i w_k t} H_k + h.c.]."""
    out = 0.0 if h.static is None else np.array(h.static, dtype=complex)
    for hk, w in h.terms:
        x = np.exp(1.0j * w * t) * hk
        out = out + x + x.conj().T
    return out


# ---------------------------------------------------------------------------
# derived parameters


def test_derive_unit_conversion_and_anchors(params):
    d = derive(params)
    assert d.omega_m == pytest.approx(TWO_PI * 1.513)
    assert d.omega_p == pytest.approx(TWO_PI * 3.002)
    assert d.g_x == pytest.approx(d.g_z)  # theta = pi/4 balances the two
    assert d.Delta_m == pytest.approx(TWO_PI * 0.012, rel=1e-12)
    assert d.Delta_nu == pytest.approx(TWO_PI * (-0.002), rel=1e-12)
    # conditional-squeezing rate at the working point
    assert d.g_cs == pytest.approx(-2.0 * d.g_x * d.g_z / d.omega_p)
    assert d.g_cs == pytest.approx(-0.0470915, rel=1e-4)
    assert d.g_cs / TWO_PI * 1e3 == pytest.approx(-7.4952, rel=1e-3)  # MHz
    # second-order-shifted detuning
    assert d.Delta_eff == pytest.approx(d.Delta_m - 8 * d.g_x**2 / (3 * d.omega_p))
    assert d.Delta_eff == pytest.approx(0.012608, rel=1e-3)
    # thermal occupations at 10 mK
    assert d.n_bar_m == pytest.approx(7.0272e-4, rel=1e-3)
    assert d.n_bar_q == pytest.approx(5.5866e-7, rel=1e-3)
    # rates arrive in rad/ns
    assert d.kappa == pytest.approx(TWO_PI * 0.5e-3)
    assert d.gamma == pytest.approx(TWO_PI * 3.0e-6)


def test_derive_override(params):
    d = derive(params, delta_eff_override=0.0)
    assert d.Delta_eff == 0.0
    d2 = derive(params, delta_eff_override=0.05)
    assert d2.Delta_eff == 0.05


def test_every_parameter_reaches_derive(params):
    # a field that derive() ignores would be an input no computation reads
    base = derive(params)
    for f in fields(PhysicalParams):
        moved = replace(params, **{f.name: 1.1 * getattr(params, f.name)})
        assert derive(moved) != base, f.name


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(theta=0.0).validate()
    with pytest.raises(ValueError):
        PhysicalParams(kappa=-1.0).validate()
    with pytest.raises(ValueError):
        PhysicalParams(omega_p=-3.0).validate()


# ---------------------------------------------------------------------------
# dressed basis


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


def build_H_lab(params, fock_dim):
    """Lab-frame Hamiltonian in the persistent-current qubit basis, the
    oracle that build_H_tot is checked against:

        omega_m m^dag m + (nu/2)(cos(theta) sigma_z + sin(theta) sigma_x)
        + g (m + m^dag) sigma_z
        + Omega cos(omega_p t) (sigma_x - sigma_z)/sqrt(2)
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    x_m = m + m.conj().T
    eye_m = np.eye(n, dtype=complex)
    h_q = 0.5 * d.nu * (
        math.cos(params.theta) * SIGMA_Z + math.sin(params.theta) * SIGMA_X
    )
    drive = 0.5 * d.Omega / math.sqrt(2.0) * kron(eye_m, SIGMA_X - SIGMA_Z)
    static = (
        kron(d.omega_m * number_op(n), IDENTITY_2)
        + kron(eye_m, h_q)
        + d.g * kron(x_m, SIGMA_Z)
    )
    return SplitHamiltonian(static, ((drive, d.omega_p),))


def build_H_tot(params, fock_dim):
    """Lab-frame Hamiltonian in the dressed qubit basis, the form that
    build_H_rot is the exact rotating-frame transform of:

        omega_m m^dag m + (nu/2) sb_z + g_x (m+m^dag) sb_x
        + g_z (m+m^dag) sb_z - Omega cos(omega_p t) sb_x

    This is the dressed-basis image of build_H_lab at theta = pi/4.  At
    other theta the dressed image of the lab drive quadrature is
    [(sin theta - cos theta) sb_z - (cos theta + sin theta) sb_x] / sqrt(2),
    not -sb_x; this form keeps -sb_x.
    """
    d = derive(params)
    n = int(fock_dim)
    m = annihilation(n)
    x_m = m + m.conj().T
    eye_m = np.eye(n, dtype=complex)
    static = (
        kron(d.omega_m * number_op(n), IDENTITY_2)
        + kron(eye_m, 0.5 * d.nu * SIGMA_Z)
        + d.g_x * kron(x_m, SIGMA_X)
        + d.g_z * kron(x_m, SIGMA_Z)
    )
    drive = -0.5 * d.Omega * kron(eye_m, SIGMA_X)
    return SplitHamiltonian(static, ((drive, d.omega_p),))


@given(theta=st.floats(0.05, math.pi / 2 - 0.05))
@settings(max_examples=30)
def test_dressed_rotation_images(theta):
    r = dressed_rotation(theta)
    np.testing.assert_allclose(r @ r.conj().T, IDENTITY_2, atol=1e-14)
    c, s = math.cos(theta), math.sin(theta)
    np.testing.assert_allclose(
        r.conj().T @ SIGMA_Z @ r, c * SIGMA_Z + s * SIGMA_X, atol=1e-13
    )
    np.testing.assert_allclose(
        r.conj().T @ SIGMA_X @ r, s * SIGMA_Z - c * SIGMA_X, atol=1e-13
    )


def test_dressed_drive_wedge_at_balance_point():
    # at theta = pi/4 the lab drive quadrature (sigma_x - sigma_z)/sqrt(2)
    # maps onto the pure transverse dressed drive -sb_x
    r = dressed_rotation(math.pi / 4)
    wedge = (SIGMA_X - SIGMA_Z) / math.sqrt(2.0)
    np.testing.assert_allclose(r.conj().T @ wedge @ r, -SIGMA_X, atol=1e-14)


def check_lab_and_dressed_agree(params, t):
    # build_H_tot drives -sb_x, the dressed image of the lab drive quadrature
    # at theta = pi/4 only (see the wedge test above); every other term maps
    # exactly at any theta, so the two differ by the drive's misalignment
    theta = params.theta
    d = derive(params)
    n = 12
    r = dressed_rotation(theta)
    r_j = kron(np.eye(n), r)
    h_lab = hamiltonian_at(build_H_lab(params, n), t)
    h_tot = hamiltonian_at(build_H_tot(params, n), t)
    wedge = r.conj().T @ (SIGMA_X - SIGMA_Z) @ r / math.sqrt(2.0) + SIGMA_X
    misaligned = d.Omega * math.cos(d.omega_p * t) * kron(np.eye(n), wedge)
    np.testing.assert_allclose(r_j.conj().T @ h_lab @ r_j, h_tot + misaligned, atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.123, 1.7])
def test_lab_and_dressed_hamiltonians_agree(params, t):
    check_lab_and_dressed_agree(params, t)


@given(t=st.floats(0.0, 50.0), theta=st.floats(0.05, math.pi / 2 - 0.05))
def test_lab_and_dressed_hamiltonians_agree_any_time_and_angle(t, theta):
    check_lab_and_dressed_agree(PhysicalParams(theta=theta), t)


# ---------------------------------------------------------------------------
# rotating frame


def half_pump_exponents(n):
    """Diagonal of m^dag m + sb_z on the joint basis: V = diag e^{i k omega_p t/2}."""
    return np.repeat(np.arange(n, dtype=float), 2) + np.tile(np.array([-1.0, 1.0]), n)


def check_rotating_frame_transform(params, t):
    # V H V^dag - (omega_p/2)(n + sb_z) must reproduce the rotating-frame
    # Hamiltonian, counter-rotating drive included
    n = 10
    d = derive(params)
    h_tot = hamiltonian_at(build_H_tot(params, n), t)
    # (V H V^dag)_ij takes the phase of k_i - k_j, which keeps the phase
    # arguments small at t = 50 ns
    k = half_pump_exponents(n)
    generator = 0.5 * d.omega_p * (
        kron(number_op(n), IDENTITY_2) + kron(np.eye(n), SIGMA_Z)
    )
    lhs = np.exp(0.5j * d.omega_p * t * np.subtract.outer(k, k)) * h_tot - generator
    rhs = hamiltonian_at(build_H_rot(params, n), t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.077, 0.31])
def test_rotating_frame_is_exact_transform(params, t):
    check_rotating_frame_transform(params, t)


@given(t=st.floats(0.0, 50.0), theta=st.floats(0.05, math.pi / 2 - 0.05))
def test_rotating_frame_is_exact_transform_any_time_and_angle(t, theta):
    check_rotating_frame_transform(PhysicalParams(theta=theta), t)


# ---------------------------------------------------------------------------
# time-averaged second-order model


@dataclass
class JamesDecomposition:
    """Time-averaged second-order Hamiltonian split into its static part and
    oscillatory cross terms {frequency rad/ns: matrix} (same-frequency
    contributions merged)."""

    static: np.ndarray
    oscillatory: dict


def james_effective(terms):
    """Second-order effective Hamiltonian for H(t) = sum_m h_m^dag e^{i d_m t} + h.c.,
    applied to sideband_interaction_terms here and by acceptance check 11.

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


def build_H_eff(params, fock_dim):
    """Static effective Hamiltonian after time-averaging the sidebands, the
    oracle that james_effective's static part is checked against:

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



def closed_form_static(d, n):
    """Static part of the averaged sideband couplings, assembled by hand."""
    m = annihilation(n)
    m2 = m @ m
    num = number_op(n)
    eye = np.eye(n)
    w = d.omega_p
    return (
        (8.0 * d.g_x**2 / (3.0 * w)) * kron(num + 0.5 * eye, SIGMA_Z)
        + (2.0 * d.g_x**2 / (3.0 * w) - 2.0 * d.g_z**2 / w) * kron(eye, IDENTITY_2)
        - (4.0 * d.g_x * d.g_z / w) * (kron(m2, SIGMA_PLUS) + kron(m2.conj().T, SIGMA_MINUS))
    )


def closed_form_oscillatory_minus(d, n):
    """Coefficient of e^{-i omega_p t} in the averaged cross terms."""
    m = annihilation(n)
    num = number_op(n)
    w = d.omega_p
    return (d.g_x**2 / w) * kron(m @ m, SIGMA_Z) - (d.g_x * d.g_z / w) * kron(
        2.0 * num + np.eye(n), SIGMA_MINUS
    )


def test_james_static_matches_closed_form(params):
    n = 20
    d = derive(params)
    dec = james_effective(sideband_interaction_terms(params, n))
    np.testing.assert_allclose(
        interior(dec.static, n), interior(closed_form_static(d, n), n), atol=1e-13
    )


def test_james_oscillatory_structure(params):
    n = 20
    d = derive(params)
    dec = james_effective(sideband_interaction_terms(params, n))
    assert set(dec.oscillatory) == {d.omega_p, -d.omega_p}
    minus = dec.oscillatory[-d.omega_p]
    plus = dec.oscillatory[d.omega_p]
    # the pair sums to a Hermitian contribution
    np.testing.assert_allclose(plus, minus.conj().T, atol=1e-14)
    np.testing.assert_allclose(
        interior(minus, n), interior(closed_form_oscillatory_minus(d, n), n), atol=1e-13
    )


def test_james_rejects_singular_detunings():
    h = np.eye(4, dtype=complex)
    with pytest.raises(NumericalError):
        james_effective([(h, 0.0)])
    with pytest.raises(NumericalError):
        james_effective([(h, 1.0), (h, -1.0)])


def test_h_eff_is_free_part_plus_james_static(params):
    n = 20
    d = derive(params)
    free = kron(d.Delta_m * number_op(n), IDENTITY_2) + kron(
        np.eye(n), 0.5 * d.Delta_nu * SIGMA_Z - 0.5 * d.Omega * SIGMA_X
    )
    dec = james_effective(sideband_interaction_terms(params, n))
    lhs = build_H_eff(params, n)
    np.testing.assert_allclose(
        interior(lhs, n), interior(free + dec.static, n), atol=1e-13
    )


# ---------------------------------------------------------------------------
# conditional squeezing Hamiltonian and its closed-form propagator
#
# test-local oracles: the package takes the dissipation-free sector from its
# Gaussian covariance and needs neither dense exponential


def squeeze_operator(xi, fock_dim):
    """Single-mode squeezer S(xi) = exp[(xi* m^2 - xi m^dag^2)/2], truncated.

    Built through the exact exponential of the anti-Hermitian generator, so
    the matrix is exactly unitary at every truncation; faithfulness to the
    ideal squeezer is limited to the low-Fock block (the top rows feel the
    truncation first).
    """
    n = int(fock_dim)
    m = annihilation(n)
    m2 = m @ m
    gen = 0.5 * (np.conj(xi) * m2 - xi * m2.conj().T)   # anti-Hermitian
    evals, vecs = eigh(1.0j * gen)
    return (vecs * np.exp(-1.0j * evals)) @ vecs.conj().T


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


def test_h_cs_structure(params):
    n = 16
    d = derive(params)
    sx = kron(np.eye(n), SIGMA_X)
    h_cs = build_H_cs(params, n)
    for t in (0.0, 3.7, 29.0):
        h = hamiltonian_at(h_cs, t)
        np.testing.assert_allclose(h @ sx - sx @ h, 0.0, atol=1e-14)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    # pinned normalization: the |2><0| magnon matrix element at t=0
    h0 = hamiltonian_at(build_H_cs(params, n, delta_eff=0.0), 0.0)
    # project on the sb_x = +1 qubit state
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    block = np.einsum("a,iajb,b->ij", plus.conj(), h0.reshape(n, 2, n, 2), plus)
    assert block[2, 0] == pytest.approx(-(d.g_cs / 2.0) * math.sqrt(2.0))


def test_squeezing_parameter_limits(params):
    d = derive(params)
    # detuning-free limit: xi = -i g_cs t, purely imaginary, linear in t
    xi = squeezing_parameter(params, 29.0, delta_eff=0.0)
    assert xi == pytest.approx(1.365682349411952j, abs=1e-12)
    assert abs(xi) == pytest.approx(abs(d.g_cs) * 29.0)
    # closed form vs direct quadrature: xi(t) = -i g_cs int_0^t e^{2i Delta s} ds
    # (the -i matches the Delta -> 0 limit above)
    delta = 0.02
    t = 17.0
    s_grid = np.linspace(0.0, t, 20001)
    quad = -1.0j * d.g_cs * np.trapezoid(np.exp(2.0j * delta * s_grid), s_grid)
    assert squeezing_parameter(params, t, delta_eff=delta) == pytest.approx(
        quad, abs=1e-8
    )


@given(delta=st.floats(-0.2, 0.2), t=st.floats(0.0, 40.0))
@settings(max_examples=40)
def test_squeezing_parameter_chord_bound(params, delta, t):
    # |integral of a unit phasor| can never beat the arc length
    d = derive(params)
    xi = squeezing_parameter(params, t, delta_eff=delta)
    assert abs(xi) <= abs(d.g_cs) * t + 1e-12


def test_analytic_propagator_structure(params):
    n = 40
    t = 12.0
    u = analytic_propagator(params, t, n, delta_eff=0.0)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2 * n), atol=1e-11)
    xi = squeezing_parameter(params, t, delta_eff=0.0)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    expected = kron(squeeze_operator(xi, n), np.outer(plus, plus)) + kron(
        squeeze_operator(-xi, n), np.outer(minus, minus)
    )
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_analytic_propagator_matches_step_integration(params):
    # Schrodinger integration of the time-dependent generator as the oracle
    n = 40
    t_end = 10.0
    psi0 = np.zeros(2 * n, dtype=complex)
    psi0[0] = 1.0 / math.sqrt(2.0)  # |0, g>
    psi0[1] = 1.0 / math.sqrt(2.0)  # |0, e>  -> together the sb_x = +1 state
    h = build_H_cs(params, n, delta_eff=0.0)

    def rhs(t, y):
        return -1.0j * (hamiltonian_at(h, t) @ y)

    sol = solve_ivp(
        rhs, (0.0, t_end), psi0, method="DOP853", rtol=1e-11, atol=1e-13
    )
    psi_num = sol.y[:, -1]
    psi_exact = analytic_propagator(params, t_end, n, delta_eff=0.0) @ psi0
    fid = abs(np.vdot(psi_exact, psi_num)) ** 2
    assert fid > 1.0 - 1e-9


def test_analytic_propagator_warns_at_tight_truncation(params):
    with pytest.warns(UserWarning, match="truncation"):
        analytic_propagator(params, 40.0, 30, delta_eff=0.0)


# ---------------------------------------------------------------------------
# frames for states


def lab_leg(state, from_frame, params):
    """The lab <-> rotating_half_pump leg of the frame chain: rho -> V rho
    V^dag with V = exp[+i (m^dag m + sb_z) omega_p t / 2], diagonal in the
    joint basis, from lab, or back from rotating_half_pump.  The package's
    frame_transform takes the state on to drive_interaction."""
    d = derive(params)
    phases = np.exp(0.5j * d.omega_p * state.time * half_pump_exponents(state.dim // 2))
    if from_frame == "rotating_half_pump":
        phases = phases.conj()
    elif from_frame != "lab":
        raise FrameError(f"the lab leg starts from lab or rotating_half_pump, not {from_frame!r}")
    rho = (phases[:, None] * state.matrix) * phases.conj()[None, :]
    return StateDensity(rho, time=state.time)


def test_frame_transform_round_trip(params, rng):
    n = 6
    psi = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    psi /= np.linalg.norm(psi)
    rho = StateDensity(density_from_vector(psi), time=0.83)
    spectrum = np.linalg.eigvalsh(rho.matrix)
    out = frame_transform(lab_leg(rho, "lab", params), "rotating_half_pump",
                          "drive_interaction", params)
    assert out.time == rho.time
    np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix), spectrum, atol=1e-12)
    back = lab_leg(frame_transform(out, "drive_interaction", "rotating_half_pump", params),
                   "rotating_half_pump", params)
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)


def test_frame_transform_phases(params):
    # coherence |1,g><0,g| picks up exp(+i omega_p t / 2) going into the
    # half-pump rotating frame (Delta n = 1, Delta z = 0)
    d = derive(params)
    n = 4
    t = 0.37
    rho = np.zeros((2 * n, 2 * n), dtype=complex)
    rho[0, 0] = 0.5
    rho[2, 2] = 0.5
    rho[2, 0] = 0.25  # index 2 = |1, g>, index 0 = |0, g>
    rho[0, 2] = 0.25
    out = lab_leg(StateDensity(rho, time=t), "lab", params)
    assert out.matrix[2, 0] == pytest.approx(0.25 * np.exp(0.5j * d.omega_p * t))
    assert out.matrix[0, 0] == pytest.approx(0.5)


def test_frame_transform_drive_leg_direction(params):
    # into drive_interaction, rho -> V rho V^dag with V = e^{+i a sb_x},
    # a = Omega t / 2: V|g> = cos a |g> + i sin a |e>, so |0,g><0,g| gains
    # the coherence |0,e><0,g| = i sin a cos a
    d = derive(params)
    t = 0.37
    a = 0.5 * d.Omega * t
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # index 0 = |0, g>, index 1 = |0, e>
    out = frame_transform(StateDensity(rho, time=t), "rotating_half_pump",
                          "drive_interaction", params)
    assert out.matrix[1, 0] == pytest.approx(1.0j * math.sin(a) * math.cos(a), abs=1e-15)
    assert out.matrix[1, 1] == pytest.approx(math.sin(a) ** 2, abs=1e-15)
    back = frame_transform(out, "drive_interaction", "rotating_half_pump", params)
    np.testing.assert_allclose(back.matrix, rho, atol=1e-15)


def test_frame_transform_identity_at_t0(params, rng):
    n = 5
    psi = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    psi /= np.linalg.norm(psi)
    rho = StateDensity(density_from_vector(psi), time=0.0)
    rot = lab_leg(rho, "lab", params)
    for out in (rot, frame_transform(rot, "rotating_half_pump", "rotating_half_pump", params),
                frame_transform(rot, "rotating_half_pump", "drive_interaction", params)):
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-13)


def test_frame_transform_rejects_unknown(params):
    rho = StateDensity(np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(FrameError):
        frame_transform(rho, "rotating_half_pump", "galilean", params)
    with pytest.raises(FrameError):
        frame_transform(rho, "weird", "drive_interaction", params)
    # the lab frame is the tests' oracle (lab_leg above), not a package frame
    lab = StateDensity(np.eye(4, dtype=complex) / 4.0, time=0.5)
    with pytest.raises(FrameError, match="'lab'"):
        frame_transform(lab, "lab", "drive_interaction", params)
    with pytest.raises(FrameError, match="'lab'"):
        frame_transform(rho, "rotating_half_pump", "lab", params)
