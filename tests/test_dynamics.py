"""Master-equation integrator, dissipator builders, postselection, and the
conditional-squeezing / superposition protocol runners.

Cross-validation strategy: every dynamical path is checked against an
independent route -- closed-form sector propagation, the analytic
propagator, the Gaussian covariance integrator, a differently-framed full
model, or the dense master-equation RHS and the stacked full-vector
Liouvillian kept here as oracles for the sparse upper-vector RHS -- rather
than against stored trajectories.
"""

import math
import os
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm

from magsqueeze.errors import DimensionError, NumericalError, StiffnessError, TruncationError
from magsqueeze.model import (
    PhysicalParams,
    SplitHamiltonian,
    build_H_cs,
    build_H_rot,
    derive,
    frame_transform,
)
from magsqueeze.dynamics import (
    FOCK_GROWTH,
    FOCK_START,
    GROWTH_TOL,
    LindbladSpec,
    RTOL_FLOOR,
    SolverConfig,
    _dop853,
    _effective_model,
    _error_norm,
    _expm_stack,
    _initial_step,
    _lindblad_rhs,
    _moment_generator,
    _operators,
    _plus_x_metrics,
    _squeeze_parameters,
    _triangle,
    _upper_tolerances,
    build_dissipators_full,
    conditional_squeezing_run,
    conditional_superposition_run,
    default_sample_times,
    evolve_master,
    ideal_superposition_targets,
    magnon_thermal_dissipators,
    postselect_qubit,
    sector_covariance_squeezing,
    sector_fock_tail,
    superposition_blocks,
)
from magsqueeze.qops import (
    IDENTITY_2,
    KET_MINUS_X,
    KET_PLUS_X,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    annihilation,
    herm_eig,
    number_op,
)
from magsqueeze.observables import (
    _wigner_covariance,
    min_quadrature_variance,
    require_outcome,
    squeezing_db,
    superposition_grids,
    wigner,
)
from magsqueeze.states import (
    MIXED_TAIL_TOL,
    StateDensity,
    gaussian_fock_populations,
    joint_initial_state,
    squeezed_vacuum_dyad,
    squeezed_vacuum_fock,
    superposition_pm,
)
from magsqueeze.config import Config, RunOptions
from magsqueeze.scenarios import (ScenarioConfig, _effective_leg, _sector_tail,
                                  run as run_scenario, superposition_fidelity_series)
from test_model import analytic_propagator, build_H_tot, lab_leg  # test-local oracles
from test_observables import uhlmann_fidelity  # test-local oracle

DB_PER_NEPER = 10.0 / math.log(10.0) * 2.0  # 8.6859 dB per unit squeezing parameter
TWO_PI = 2.0 * math.pi
DELTA_OP = TWO_PI * 8.75e-3  # operating detuning used by the dissipative runs

NODISS = PhysicalParams(kappa=0.0, gamma=0.0, gamma_phi=0.0)


def sector_rho0(fock_dim):
    rho = np.zeros((fock_dim, fock_dim), dtype=complex)
    rho[0, 0] = 1.0
    return StateDensity(rho, frame="drive_interaction")


def solver_for(times, **kw):
    return SolverConfig(sample_times=np.asarray(times, dtype=float), **kw)


def sector_split(params, fock_dim, delta_eff, sector=+1):
    """The sb_x = sector block of build_H_cs: sector times the magnon
    coefficient of its sb_x term, read off the <g|sb_x|e> = 1 entry."""
    (term, w), = build_H_cs(params, fock_dim, delta_eff).terms
    block = term.reshape(fock_dim, 2, fock_dim, 2)[:, 0, :, 1]
    return SplitHamiltonian(terms=((sector * block, w),))


def effective_model(params, qubit_init, fock_dim, delta_eff):
    """The effective model from |0> (x) |qubit_init>, as (h, dissipators,
    rho0).  A pinned start (plus_x, minus_x) runs on the N x N magnon state
    of its sector from |0><0|: its <s|rho|s> block is closed under the
    generator.  Any other start runs on the joint space (_effective_model)."""
    sector = {"plus_x": +1, "minus_x": -1}.get(qubit_init)
    if sector is None:
        return _effective_model(params, qubit_init, fock_dim, delta_eff)
    return (sector_split(params, fock_dim, delta_eff, sector),
            magnon_thermal_dissipators(params, fock_dim), sector_rho0(fock_dim))


def sector_master_equation(params, sector, fock_dim, times, delta_eff, store_states=False,
                           **tol):
    """Test-local oracle: the pinned sector run as one master equation on
    N x N magnon matrices from |0><0|, with min_quadrature_variance's
    metrics at each sample.  tol: SolverConfig tolerances."""
    init = "plus_x" if sector > 0 else "minus_x"

    def metrics(t, rho):
        qv = min_quadrature_variance(rho)
        return {"zeta_sq": qv.value, "squeezing_db": squeezing_db(qv.value),
                "theta_star": qv.angle, "n_magnon": qv.n_mean}

    return evolve_master(*effective_model(params, init, fock_dim, delta_eff),
                         solver=solver_for(times, **tol), sample_hook=metrics,
                         store_states=store_states)


def dense_lindblad_rhs(h_of_t, channels):
    """Dense reference for the master-equation RHS: per call,
    drho/dt = A rho + rho A^dag + sum_k 2 w_k o_k rho o_k^dag
    with A = -i h(t) - sum_k w_k o_k^dag o_k, all as dense products."""
    jumps = [(o, 2.0 * w) for o, w in channels]
    sink = sum(w * (o.conj().T @ o) for o, w in channels)

    def rhs(t, y):
        h = h_of_t(t)
        x = y.reshape(h.shape)
        a = -1.0j * h - sink
        dx = a @ x + x @ a.conj().T
        for o, tw in jumps:
            dx += tw * (o @ x) @ o.conj().T
        return dx.ravel()

    return rhs


def _superop(left, right, n):
    """X -> left X + X right on the row-major vec of an n x n block."""
    eye = sp.identity(n, dtype=complex, format="csr")
    return sp.kron(left, eye, format="csr") + sp.kron(eye, right.T, format="csr")


def stacked_lindblad_rhs(h, channels):
    """The stacked full-vector Liouvillian, as an oracle for _lindblad_rhs:
    (f(t, y), dim) on the row-major vec y of all dim x dim entries of a
    Hermitian rho.  The static part and the channels make L0, each
    oscillating term H_k adds the operators of rho -> -i[H_k, rho] and of
    the same with H_k^dag; a call is one product of [L0, L_1, L_1', ...],
    kept on the upper rows, with [y, e^{i w_1 t} y, e^{-i w_1 t} y, ...],
    and each entry below the diagonal is the conjugate of its mirror."""
    dim, h0, oscillating, channels = _operators(h, channels)
    sink = sp.csr_matrix((dim, dim), dtype=complex)
    jumps = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for o, w in channels:
        sink = sink + w * (o.conj().T @ o)
        jumps = jumps + 2.0 * w * sp.kron(o, o.conj(), format="csr")
    ops = [_superop(-1.0j * h0 - sink, 1.0j * h0.conj().T - sink, dim) + jumps]
    omegas = [0.0]
    for hk, w in oscillating:
        for x, sign in ((hk, 1.0), (hk.conj().T, -1.0)):
            ops.append(_superop(-1.0j * x, 1.0j * x, dim))
            omegas.append(sign * w)
    row, col = np.triu_indices(dim)
    upper = row * dim + col  # (i, j) with i <= j, in row-major order
    mirror = col * dim + row  # (j, i)
    diag = np.flatnonzero(row == col)
    gen = sp.hstack(ops, format="csr")[upper]
    omegas = np.array(omegas)

    def rhs(t, y):
        z = gen @ np.multiply.outer(np.exp(1.0j * omegas * t), y).ravel()
        z[diag] = z[diag].real
        out = np.empty_like(y)
        out[mirror] = z.conj()
        out[upper] = z
        return out

    return rhs, dim


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))
    return x + x.conj().T


# ---------------------------------------------------------------------------
# dissipator builders


def test_full_dissipators_channels_and_weights(params, derived):
    nf = 6
    spec = build_dissipators_full(params, nf)
    m = annihilation(nf)
    eye_m = np.eye(nf, dtype=complex)
    expected = [
        (np.kron(m, IDENTITY_2), derived.kappa * (derived.n_bar_m + 1.0) / 2.0),
        (np.kron(m.conj().T, IDENTITY_2), derived.kappa * derived.n_bar_m / 2.0),
        (np.kron(eye_m, SIGMA_MINUS), derived.gamma * (derived.n_bar_q + 1.0) / 2.0),
        (np.kron(eye_m, SIGMA_PLUS), derived.gamma * derived.n_bar_q / 2.0),
        (np.kron(eye_m, SIGMA_Z), derived.gamma_phi / 4.0),
    ]
    assert len(spec.channels) == 5
    for (op, w), (op_ref, w_ref) in zip(spec.channels, expected):
        assert_allclose(op, op_ref, atol=1e-15)
        assert w == pytest.approx(w_ref, rel=1e-12)
    # all five weights are nonzero at 10 mK (thermal occupations are tiny
    # but finite), so nothing is filtered
    assert len(spec.active()) == 5


def test_full_dissipators_drop_inactive_channels():
    spec = build_dissipators_full(PhysicalParams(gamma_phi=0.0), 4)
    assert len(spec.channels) == 5
    assert len(spec.active()) == 4


def build_dissipators_effective(params, fock_dim):
    """Effective-model channels on the joint magnon (x) qubit space, for the
    dense joint oracle: the thermal magnon pair plus the drive-frame qubit
    channel gamma(2n_q+1)/8 L[sb_x]; no pure-dephasing channel."""
    d = derive(params)
    eye_m = np.eye(fock_dim, dtype=complex)
    magnon = [(np.kron(op, IDENTITY_2), w)
              for op, w in magnon_thermal_dissipators(params, fock_dim).channels]
    sx = (np.kron(eye_m, SIGMA_X), d.gamma * (2.0 * d.n_bar_q + 1.0) / 8.0)
    return LindbladSpec(channels=magnon + [sx])


def test_effective_dissipators(params, derived):
    nf = 5
    spec = build_dissipators_effective(params, nf)
    assert len(spec.channels) == 3
    eye_m = np.eye(nf, dtype=complex)
    assert_allclose(spec.channels[2][0], np.kron(eye_m, SIGMA_X), atol=1e-15)
    # drive-frame RWA leaves a single qubit channel at gamma (2 n_q + 1) / 8
    assert spec.channels[2][1] == pytest.approx(
        derived.gamma * (2.0 * derived.n_bar_q + 1.0) / 8.0, rel=1e-12
    )


def test_magnon_thermal_dissipators(params, derived):
    spec = magnon_thermal_dissipators(params, 7)
    assert len(spec.channels) == 2
    assert spec.channels[0][0].shape == (7, 7)
    assert spec.channels[0][1] == pytest.approx(derived.kappa * (derived.n_bar_m + 1.0) / 2.0)
    assert spec.channels[1][1] == pytest.approx(derived.kappa * derived.n_bar_m / 2.0)


# ---------------------------------------------------------------------------
# evolve_master


def test_thermal_decay_law(params, derived):
    # |1><1| under the thermal pair relaxes as n(t) = n_bar + (1 - n_bar) e^{-kappa t}
    nf = 12
    rho0 = sector_rho0(nf)
    rho0.matrix[0, 0] = 0.0
    rho0.matrix[1, 1] = 1.0
    times = np.arange(0.0, 40.0 + 5.0, 5.0)
    nop = number_op(nf)

    def hook(t, rho):
        return {"n": float(np.real(np.trace(nop @ rho)))}

    res = evolve_master(None, magnon_thermal_dissipators(params, nf), rho0,
                        solver=solver_for(times), sample_hook=hook)
    nb = derived.n_bar_m
    expected = nb + (1.0 - nb) * np.exp(-derived.kappa * times)
    assert_allclose(res.observables["n"], expected, atol=1e-6)


def test_detailed_balance_steady_state():
    # at 300 mK the magnon mode thermalizes to n_bar ~ 3.65 with geometric
    # level populations; integrate far past 1/kappa and compare
    hot = PhysicalParams(temperature=300.0)
    dh = derive(hot)
    nf = 50
    res = evolve_master(None, magnon_thermal_dissipators(hot, nf), sector_rho0(nf),
                        solver=solver_for([6000.0]), store_states=True)
    rho = res.states[-1].matrix
    pops = np.real(np.diag(rho))
    n_final = float(np.arange(nf) @ pops)
    assert n_final == pytest.approx(dh.n_bar_m, rel=1e-2)
    assert pops[1] / pops[0] == pytest.approx(dh.n_bar_m / (dh.n_bar_m + 1.0), rel=1e-5)


def test_unitary_limit_matches_analytic_propagator(params):
    nf = 60
    ket0 = np.kron(np.eye(nf, 1).ravel(), KET_PLUS_X).astype(complex)
    rho0 = StateDensity(np.outer(ket0, ket0.conj()), frame="drive_interaction")
    h = build_H_cs(params, nf, delta_eff=0.0)
    res = evolve_master(h, None, rho0, solver=solver_for([10.0]), store_states=True)
    u = analytic_propagator(params, 10.0, nf, delta_eff=0.0)
    assert_allclose(res.states[-1].matrix, u @ rho0.matrix @ u.conj().T, atol=1e-7)
    assert res.metadata["max_trace_drift"] < 1e-10
    assert res.metadata["min_eigenvalue"] > -1e-7


def test_evolve_master_input_validation(params):
    nf = 6
    diss = magnon_thermal_dissipators(params, nf)
    rho0 = sector_rho0(nf)
    with pytest.raises(DimensionError):
        evolve_master(None, diss, rho0)  # no sample_times
    with pytest.raises(DimensionError):
        evolve_master(None, diss, rho0, solver=solver_for([0.0, 2.0, 1.0]))
    with pytest.raises(DimensionError):
        evolve_master(None, diss, sector_rho0(nf + 1), solver=solver_for([1.0]))
    with pytest.raises(DimensionError):
        evolve_master(None, None, rho0, solver=solver_for([1.0]))  # no generator at all
    with pytest.raises(DimensionError, match="callable"):
        evolve_master(lambda t: np.zeros((nf, nf)), diss, rho0, solver=solver_for([1.0]))
    with pytest.raises(DimensionError):
        evolve_master(SplitHamiltonian(np.zeros((nf, nf)), ((np.eye(nf + 1), 1.0),)),
                      diss, rho0, solver=solver_for([1.0]))


def test_evolve_master_refuses_non_hermitian_inputs(params):
    # the solver integrates only the upper triangle of rho, so a start or a
    # static Hamiltonian that is not Hermitian is refused, not integrated
    nf = 6
    diss = magnon_thermal_dissipators(params, nf)
    h = sector_split(params, nf, DELTA_OP)
    skew = sector_rho0(nf)
    skew.matrix[0, 1] = 1e-6
    with pytest.raises(DimensionError, match="rho0 is not Hermitian"):
        evolve_master(h, diss, skew, solver=solver_for([1.0]))
    static = np.diag(np.arange(nf, dtype=complex))
    static[0, 1] = 1e-6
    with pytest.raises(DimensionError, match="static Hamiltonian is not Hermitian"):
        evolve_master(SplitHamiltonian(static, h.terms), diss, sector_rho0(nf),
                      solver=solver_for([1.0]))
    # within the tolerance, the exact Hermitian part of rho0 is integrated
    near = sector_rho0(nf)
    near.matrix[0, 1] = 1e-14
    res = evolve_master(h, diss, near, solver=solver_for([0.0]), store_states=True)
    assert res.states[0].matrix[0, 1] == res.states[0].matrix[1, 0] == 0.5e-14


def test_evolve_master_refuses_a_weighted_rtol_below_the_floor(params):
    # the entries off the diagonal weigh rel_tol down by sqrt(nf / (nf + 1)):
    # at the floor itself they fall below it, where scipy would clamp them
    # with only a warning and the error norm would no longer be the full one
    nf = 6
    diss = magnon_thermal_dissipators(params, nf)
    with pytest.raises(DimensionError, match="floor"):
        evolve_master(None, diss, sector_rho0(nf),
                      solver=solver_for([1.0], rel_tol=RTOL_FLOOR))
    just_above = RTOL_FLOOR * math.sqrt((nf + 1) / nf) * (1.0 + 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = evolve_master(None, diss, sector_rho0(nf),
                            solver=solver_for([1.0], rel_tol=just_above))
    assert res.metadata["n_rhs_evals"] > 0


@given(
    dim=st.integers(2, 12),
    n_terms=st.integers(0, 3),
    n_channels=st.integers(0, 3),
    t=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_rhs_matches_dense_oracle(dim, n_terms, n_channels, t, seed):
    # the sparse RHS against dense products on random operators: a
    # Hermitian static part, random oscillating terms and channels, applied
    # to the upper vector of a Hermitian y, the only kind it serves
    rng = np.random.default_rng(seed)

    def rand():
        return rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))

    static = rand()
    static = static + static.conj().T
    terms = tuple((rand(), float(rng.uniform(-5.0, 5.0))) for _ in range(n_terms))
    channels = [(rand(), float(rng.uniform(0.0, 1.0))) for _ in range(n_channels)]

    def h_of_t(tt):
        h = static.copy()
        for hk, w in terms:
            h += np.exp(1.0j * w * tt) * hk + np.exp(-1.0j * w * tt) * hk.conj().T
        return h

    rhs, n, nnz = _lindblad_rhs(SplitHamiltonian(static, terms), channels)
    assert n == dim and nnz > 0
    y = rand()
    y = (y + y.conj().T).ravel()
    upper, _, _ = _triangle(dim)
    ref = dense_lindblad_rhs(h_of_t, channels)(t, y)[upper]
    assert np.linalg.norm(rhs(t, y[upper]) - ref) <= 1e-12 * np.linalg.norm(ref)


@given(
    builder=st.sampled_from([build_H_tot, build_H_rot, build_H_cs]),
    fock_dim=st.integers(3, 8),
    t=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_builder_splits_match_dense_oracle(builder, fock_dim, t, seed):
    # each builder's terms, as the sparse RHS assembles them, against its
    # own dense H(t): guards the merged omega_p/2 sideband and the sign of w
    params = PhysicalParams()
    split = builder(params, fock_dim)
    channels = build_dissipators_full(params, fock_dim).active()
    rhs, dim, _ = _lindblad_rhs(split, channels)
    assert dim == 2 * fock_dim
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))
    y = (y + y.conj().T).ravel()
    upper, _, diag = _triangle(dim)
    ref = dense_lindblad_rhs(split.at, channels)(t, y)[upper]
    out = rhs(t, y[upper])
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
    # the diagonal is exactly real; the samples that evolve_master rebuilds
    # are Hermitian bit for bit (test_upper_vector_run_matches_the_stacked_oracle)
    assert np.all(out[diag].imag == 0.0)


@pytest.mark.parametrize("params", [
    PhysicalParams(),
    PhysicalParams(kappa=2.0, temperature=300.0, gamma=300.0, gamma_phi=100.0),
], ids=["default", "hot"])
def test_full_rotating_states_match_the_dense_oracle(params):
    # an oracle independent of _lindblad_rhs: the full_rotating run of
    # evolve_master against a DOP853 integration of the dense per-call RHS
    # on every entry of the joint state
    nf = 12
    times = np.arange(0.0, 2.0 + 0.25, 0.25)
    h = build_H_rot(params, nf)
    dissipators = build_dissipators_full(params, nf)
    rho0 = joint_initial_state(qubit="plus_x", fock_dim=nf)
    res = evolve_master(h, dissipators, rho0,
                        solver=solver_for(times, rel_tol=1e-10, abs_tol=1e-12),
                        store_states=True)
    ref = solve_ivp(dense_lindblad_rhs(h.at, dissipators.active()), (0.0, times[-1]),
                    rho0.matrix.ravel().astype(complex), method="DOP853", t_eval=times,
                    rtol=1e-10, atol=1e-12)
    assert ref.success
    for y, state in zip(ref.y.T, res.states):
        assert_allclose(state.matrix, y.reshape(2 * nf, 2 * nf), rtol=0.0, atol=1e-10)


HOT = PhysicalParams(kappa=2.0, temperature=300.0, gamma=300.0, gamma_phi=100.0)


@pytest.mark.parametrize("params, fock_dim, t_max", [
    (PhysicalParams(), 12, 2.0),
    (HOT, 12, 2.0),
    (PhysicalParams(), 20, 10.0),
], ids=["default-fock12", "hot-fock12", "default-fock20"])
def test_upper_vector_run_matches_the_stacked_oracle(params, fock_dim, t_max):
    # evolve_master on the upper vector against DOP853 on all N^2 entries
    # under the stacked full-vector kernel: the weighted tolerances give the
    # same error norm, hence the same steps and nfev
    times = np.arange(0.0, t_max + 0.25, 0.5)
    h = build_H_rot(params, fock_dim)
    dissipators = build_dissipators_full(params, fock_dim)
    rho0 = joint_initial_state(qubit="plus_x", fock_dim=fock_dim)
    res = evolve_master(h, dissipators, rho0, solver=solver_for(times), store_states=True)
    rhs, dim = stacked_lindblad_rhs(h, dissipators.active())
    cfg = SolverConfig()
    ref = solve_ivp(rhs, (0.0, times[-1]), rho0.matrix.ravel().astype(complex),
                    method="DOP853", t_eval=times, rtol=cfg.rel_tol, atol=cfg.abs_tol)
    assert ref.success
    assert res.metadata["n_rhs_evals"] == ref.nfev
    for y, state in zip(ref.y.T, res.states):
        assert_allclose(state.matrix, y.reshape(dim, dim), rtol=0.0, atol=1e-12)
        # each sample is rebuilt by its mirrors: Hermitian bit for bit
        np.testing.assert_array_equal(state.matrix, state.matrix.conj().T)


def scipy_dop853(rhs, y0, t_grid, rtol, atol):
    """Test-local oracle: scipy.integrate.DOP853 stepped on rhs from
    (t_grid[0], y0) and sampled on t_grid through its dense output, as
    solve_ivp(..., t_eval=t_grid) does.  Returns (samples, nfev,
    step_times), the ends of its accepted steps."""
    ode = DOP853(rhs, t_grid[0], y0, t_grid[-1], rtol=rtol, atol=atol)
    ys, done, steps = [], 0, []
    while done < len(t_grid):
        ode.step()
        assert ode.status != "failed"
        steps.append(ode.t)
        upto = int(np.searchsorted(t_grid, ode.t, side="right"))
        if upto > done:
            ys.extend(ode.dense_output()(t_grid[done:upto]).T)
            done = upto
    return ys, ode.nfev, steps


def upper_problem(h, dissipators, fock_dim, rel_tol=1e-8, abs_tol=1e-10):
    """(rhs, y0, rtol, atol) of evolve_master's upper-vector run of h from
    |0> (x) |+x> on the joint space of fock_dim."""
    rhs, dim, _ = _lindblad_rhs(h, dissipators.active())
    upper, _, diag = _triangle(dim)
    rtol, atol = _upper_tolerances(dim, diag, rel_tol, abs_tol)
    y0 = joint_initial_state(qubit="plus_x", fock_dim=fock_dim).matrix.reshape(-1)[upper]
    return rhs, y0, rtol, atol


@pytest.mark.parametrize("params, frame, fock_dim, rel_tol, abs_tol, rejects", [
    (PhysicalParams(), "full_rotating", 12, 1e-8, 1e-10, False),
    (HOT, "full_rotating", 12, 1e-8, 1e-10, False),
    (PhysicalParams(), "full_lab", 8, 1e-3, 1e-5, True),
], ids=["default", "hot", "lab-loose"])
def test_dop853_loop_matches_scipy_step_for_step(params, frame, fock_dim, rel_tol, abs_tol,
                                                 rejects):
    # _dop853 against scipy's DOP853 stepped on the same upper-vector RHS:
    # the same tableau and step control make the same RHS calls and accept
    # the same steps; the stage sums differ only in rounding (np.einsum
    # against scipy's np.dot).  The loose lab-frame run rejects steps, so
    # the rejection branch is compared too
    build = build_H_rot if frame == "full_rotating" else build_H_tot
    rhs, y0, rtol, atol = upper_problem(build(params, fock_dim),
                                        build_dissipators_full(params, fock_dim), fock_dim,
                                        rel_tol, abs_tol)
    times = np.arange(0.0, 2.0 + 0.125, 0.25)
    ys, nfev, steps, n_rejected, _ = _dop853(rhs, y0, times, rtol, atol)
    ref_ys, ref_nfev, ref_steps = scipy_dop853(rhs, y0, times, rtol, atol)
    assert (n_rejected > 0) == rejects
    assert nfev == ref_nfev
    assert len(steps) == len(ref_steps)
    assert_allclose(steps, ref_steps, rtol=0.0, atol=1e-9)
    assert len(ys) == len(times)
    for y, ref in zip(ys, ref_ys):
        assert_allclose(y, ref, rtol=0.0, atol=1e-12)


def test_solver_statistics_count_every_rhs_call(params, monkeypatch):
    # two calls start the run (f(t0) and the initial-step probe), every
    # attempted step makes 12, and the three extra stages of the dense
    # output are made only on steps that hold a sample
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    rhs, y0, rtol, atol = upper_problem(build_H_rot(params, 12),
                                        build_dissipators_full(params, 12), 12)
    times = np.array([0.0, 0.1, 0.1001, 0.9, 2.0])  # two samples in one step
    ys, nfev, steps, n_rejected, _ = _dop853(counted, y0, times, rtol, atol)
    holding = len(np.unique(np.searchsorted(steps, times, side="left")))
    assert holding < len(times)
    assert nfev == len(calls) == 2 + 12 * (len(steps) + n_rejected) + 3 * holding
    # the full_model workload's shape: 0-5 ns at fock 40, one sample per
    # step.  The run grows through segments, each a run of its own: a
    # segment that starts between samples takes its start as a sample too,
    # and the step its stop test refuses counts as rejected
    segments = []

    def recorded(*args, **kwargs):
        segments.append(evolve_master(*args, **kwargs))
        return segments[-1]

    monkeypatch.setattr("magsqueeze.dynamics.evolve_master", recorded)
    times = np.arange(0.0, 5.0 + 0.25, 0.5)
    run = conditional_squeezing_run(params, fock_dim=40, sample_times=times)
    meta = run.metadata
    assert [n for n, _ in meta["fock_sizes"]] == [16, 24]
    assert len(segments) == 2
    for seg, (_, start) in zip(segments, meta["fock_sizes"]):
        m = seg.metadata
        holding = len(seg.times) + (len(seg.times) > 0 and start not in times)
        assert m["n_rhs_evals"] == 2 + 12 * (m["n_steps"] + m["n_rejected"]) + 3 * holding
    for key in ("n_rhs_evals", "n_steps", "n_rejected"):
        assert meta[key] == sum(seg.metadata[key] for seg in segments)
    assert np.array_equal(run.times, times)


@settings(max_examples=200)
@given(dim=st.integers(1, 10), log_rtol=st.floats(-12.0, -3.0), h=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_error_norm_equals_the_full_vector_norm(dim, log_rtol, h, seed):
    # the loop's initial step and error norm, on the upper entries of
    # Hermitian vectors under the weighted per-entry tolerances, equal
    # scipy's DOP853 on all dim^2 entries under the scalar ones
    rng = np.random.default_rng(seed)
    rel_tol, abs_tol = 10.0 ** log_rtol, 10.0 ** (log_rtol - 2.0)
    upper, _, diag = _triangle(dim)
    rtol, atol = _upper_tolerances(dim, diag, rel_tol, abs_tol)
    y, y_new, f = (random_hermitian(rng, dim).ravel() for _ in range(3))
    full = DOP853(lambda t, x: f, 0.0, y, 1.0, rtol=rel_tol, atol=abs_tol)
    h_abs = _initial_step(lambda t, x: f[upper], 0.0, y[upper], f[upper], 1.0, rtol, atol)
    assert h_abs == pytest.approx(full.h_abs, rel=1e-13)
    k = np.array([random_hermitian(rng, dim).ravel() for _ in range(full.K.shape[0])])
    scale = full.atol + np.maximum(np.abs(y), np.abs(y_new)) * full.rtol
    ref = full._estimate_error_norm(k, h, scale)
    scale = atol + np.maximum(np.abs(y[upper]), np.abs(y_new[upper])) * rtol
    k_upper = np.ascontiguousarray(k[:, upper])  # the loop's stage rows are contiguous
    assert _error_norm(k_upper, h, scale) == pytest.approx(ref, rel=1e-13)


effective_runs = st.builds(
    lambda kappa, temperature, gamma, delta_mhz, qubit_init, fock_dim: (
        PhysicalParams(kappa=kappa, temperature=temperature, gamma=gamma),
        qubit_init, fock_dim, TWO_PI * 1e-3 * delta_mhz),
    kappa=st.floats(0.0, 5.0),
    temperature=st.floats(1.0, 300.0),
    gamma=st.floats(0.0, 300.0),
    delta_mhz=st.floats(-12.0, 12.0),
    qubit_init=st.sampled_from(["plus_x", "minus_x", "plus_plus_minus"]),
    fock_dim=st.integers(6, 24),
)


def parity_support(fock_dim, magnon_jumps):
    """Entries of a sector's magnon state that |0> reaches under the
    two-photon squeezer: both indices even, and with the thermal pair every
    i - j even."""
    i, j = np.indices((fock_dim, fock_dim))
    return (i - j) % 2 == 0 if magnon_jumps else (i % 2 == 0) & (j % 2 == 0)


def class_support(fock_dim, magnon_jumps, qubit_jumps):
    """Entries of the joint state that |0, g> reaches under h (x) sb_x.
    Level (n, q) lies in class n + 2q mod 4, which the Hamiltonian keeps;
    the thermal pair moves it by -+1, L[sb_x] by 2, on both sides alike, so
    only the diagonal class blocks of the classes reached fill."""
    n, q = np.divmod(np.arange(2 * fock_dim), 2)
    cls = (n + 2 * q) % 4
    reached = [0, 1, 2, 3] if magnon_jumps else [0, 2] if qubit_jumps else [0]
    return (cls[:, None] == cls[None, :]) & np.isin(cls, reached)[:, None]


def expected_support(run):
    params, qubit_init, fock_dim, _ = run
    d = derive(params)
    if qubit_init in ("plus_x", "minus_x"):
        return parity_support(fock_dim, d.kappa > 0.0)
    return class_support(fock_dim, d.kappa > 0.0, d.gamma > 0.0)


@given(run=effective_runs, t=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
def test_reachable_support_is_closed_under_the_generator(run, t, seed):
    # the generator maps a vector on the support that the start reaches
    # into that support, with exact zeros everywhere else
    params, qubit_init, fock_dim, delta = run
    h, dissipators, _ = effective_model(params, qubit_init, fock_dim, delta)
    support = expected_support(run)
    np.testing.assert_array_equal(support, support.T)
    rhs, dim, _ = _lindblad_rhs(h, dissipators.active())
    upper, _, _ = _triangle(dim)
    on = support.ravel()[upper]  # the support on the upper vector
    rng = np.random.default_rng(seed)
    y = np.where(support, random_hermitian(rng, dim), 0.0).ravel()[upper]
    out = rhs(t, y)
    assert np.all(out[~on] == 0.0)
    assert np.any(out[on] != 0.0)


@given(run=effective_runs)
def test_joint_run_sectors_match_pinned_runs(run):
    # <s|rho|s> of the joint run from |0, g> evolves as half the pinned s
    # run: the Hamiltonian acts on it as s h, the thermal pair as on the
    # pinned state, and L[sb_x] only damps the s != r coherences
    params, _, fock_dim, delta = run
    times = np.arange(0.0, 6.0 + 1.5, 1.5)
    tight = solver_for(times, rel_tol=1e-10, abs_tol=1e-12)
    joint = evolve_master(*_effective_model(params, "plus_plus_minus", fock_dim, delta),
                          solver=tight, store_states=True)
    for init, ket in (("plus_x", KET_PLUS_X), ("minus_x", KET_MINUS_X)):
        pinned = evolve_master(*effective_model(params, init, fock_dim, delta),
                               solver=tight, store_states=True)
        for state, ref in zip(joint.states, pinned.states):
            block = np.einsum("a,iajb,b->ij", ket.conj(),
                              state.matrix.reshape(fock_dim, 2, fock_dim, 2), ket)
            assert_allclose(block, 0.5 * ref.matrix, atol=1e-8)


def test_positivity_monitor_aborts(params):
    # an indefinite start (eigenvalue -0.1) is caught at the t = 0 sample;
    # the sample-time monitor must abort rather than report garbage
    nf = 10
    rho = np.zeros((nf, nf), dtype=complex)
    rho[0, 0], rho[1, 1] = 1.1, -0.1
    with pytest.raises(NumericalError, match="positivity violated at t = 0.000"):
        evolve_master(sector_split(params, nf, None),
                      magnon_thermal_dissipators(params, nf),
                      StateDensity(rho, frame="drive_interaction"),
                      solver=solver_for([0.0, 1.0]))


class UnfilteredSpec(LindbladSpec):
    """Channels passed on as given, negative weights included."""

    def active(self):
        return list(self.channels)


def test_stiffness_error_on_unintegrable_generator():
    # a dephasing channel of negative weight -5 on K = diag(0, 1, 2, 3)
    # makes rho_ij blow up like e^{5 (k_i - k_j)^2 t}; the adaptive solver
    # must surface the failure as StiffnessError instead of returning
    # partial output
    k_grow = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    rho0 = StateDensity(np.full((4, 4), 0.25, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(StiffnessError, match="integrator failed"):
            evolve_master(None, UnfilteredSpec([(k_grow, -5.0)]), rho0,
                          solver=solver_for([60.0]))


def test_trajectory_metadata(params):
    nf = 10
    # a start with every entry nonzero: its upper vector holds them all
    spread = StateDensity(np.full((nf, nf), 1.0 / nf, dtype=complex))
    res = evolve_master(None, magnon_thermal_dissipators(params, nf), spread,
                        solver=solver_for([1.0, 2.0]))
    for key in ("max_trace_drift", "min_eigenvalue", "n_rhs_evals", "n_steps", "n_rejected",
                "wall_time_s", "method", "setup_s", "generator_nnz"):
        assert key in res.metadata
    assert res.metadata["n_rhs_evals"] > 0
    assert res.metadata["setup_s"] > 0.0
    # A = -w_1 m^dag m - w_2 m m^dag alone, diagonal: nf entries.  The jump
    # rows (i, j) with i <= j hold one entry per channel, from (i + 1, j + 1)
    # for m (i, j < nf - 1) and from (i - 1, j - 1) for m^dag (i, j > 0),
    # each on nf (nf - 1) / 2 rows
    nnz = nf + nf * (nf - 1)
    assert res.metadata["generator_nnz"] == nnz
    assert res.metadata["max_trace_drift"] < 1e-10
    # from vacuum, thermal decay alone only ever fills the diagonal; the
    # generator does not depend on the start
    res = evolve_master(None, magnon_thermal_dissipators(params, nf), sector_rho0(nf),
                        solver=solver_for([1.0, 2.0]))
    assert res.metadata["generator_nnz"] == nnz
    assert res.metadata["max_trace_drift"] < 1e-10


# ---------------------------------------------------------------------------
# postselection


def test_postselect_product_state(rng):
    nf = 8
    a = rng.normal(size=(nf, nf)) + 1j * rng.normal(size=(nf, nf))
    rho_m = a @ a.conj().T
    rho_m /= np.trace(rho_m).real
    joint = np.kron(rho_m, np.outer(KET_PLUS_X, KET_PLUS_X.conj()))
    p, cond = postselect_qubit(joint, "plus_x")
    assert p == pytest.approx(1.0, abs=1e-12)
    assert_allclose(cond.matrix, rho_m, atol=1e-12)
    assert cond.meta["outcome"] == "plus_x"
    assert cond.meta["probability"] == pytest.approx(1.0, abs=1e-12)
    p_g, cond_g = postselect_qubit(joint, "g")
    assert p_g == pytest.approx(0.5, abs=1e-12)
    assert_allclose(cond_g.matrix, rho_m, atol=1e-12)
    with pytest.raises(NumericalError):
        postselect_qubit(joint, "minus_x")  # orthogonal outcome, p = 0


def test_postselect_validation():
    with pytest.raises(DimensionError):
        postselect_qubit(np.eye(7) / 7.0, "g")
    with pytest.raises(DimensionError):
        postselect_qubit(np.eye(8) / 8.0, "up")


@given(nf=st.integers(1, 12), t=st.floats(0.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_plus_x_postselection_is_blind_to_the_drive_frame(nf, t, seed):
    # _plus_x_metrics postselects a rotating_half_pump sample as it is: the
    # drive_interaction frame differs by V = e^{+i (Omega/2) sb_x t}, which
    # only phases the sb_x = +1 block, so p and the magnon state agree with
    # those of the transformed sample to rounding
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * nf, 2 * nf)) + 1.0j * rng.normal(size=(2 * nf, 2 * nf))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    state = StateDensity(rho, frame="rotating_half_pump", time=t)
    p, block = postselect_qubit(state, "plus_x")
    p_ref, block_ref = postselect_qubit(
        frame_transform(state, "drive_interaction", PhysicalParams()), "plus_x")
    assert p == pytest.approx(p_ref, rel=1e-13)
    assert_allclose(block.matrix, block_ref.matrix, rtol=0.0,
                    atol=1e-13 * np.abs(block_ref.matrix).max())
    metrics = _plus_x_metrics(t, rho)
    assert metrics["p_plus"] == p


def test_postselect_conditional_squeezing_anchor(params, derived):
    # exact entangled state at t = 29 ns: measuring g/e leaves the
    # even/odd superposition of orthogonally squeezed vacua, with
    # p_g = (1 + cosh^{-1/2}(2 r)) / 2
    nf = 200
    t = 29.0
    u = analytic_propagator(params, t, nf, delta_eff=0.0)
    ket_g = np.kron(np.eye(nf, 1).ravel(), np.array([1.0, 0.0])).astype(complex)
    psi = u @ ket_g
    rho = np.outer(psi, psi.conj())
    r = abs(derived.g_cs) * t
    p_g, cond_g = postselect_qubit(rho, "g")
    p_e, cond_e = postselect_qubit(rho, "e")
    assert p_g == pytest.approx(0.5 * (1.0 + math.cosh(2.0 * r) ** -0.5), abs=1e-9)
    assert p_g + p_e == pytest.approx(1.0, abs=1e-12)
    xi = -1j * derived.g_cs * t
    for cond, sign in ((cond_g, +1), (cond_e, -1)):
        target = superposition_pm(xi, sign, nf)
        overlap = float(np.real(target.conj() @ cond.matrix @ target))
        assert overlap > 1.0 - 1e-9


# ---------------------------------------------------------------------------
# conditional squeezing runs


def test_sector_exact_ideal_law():
    times = np.arange(0.0, 20.0 + 1.0, 1.0)
    d = derive(NODISS)
    cov = sector_covariance_squeezing(NODISS, times, delta_eff=0.0)
    # the untruncated covariance: exact to round-off
    assert_allclose(cov["squeezing_db"], DB_PER_NEPER * abs(d.g_cs) * times, atol=1e-10)
    # the minus_x sector (s -> -s) squeezes the orthogonal quadrature at the
    # same rate: min_quadrature_variance of the two sectors' kets
    qv = {sector: [min_quadrature_variance(np.outer(ket, ket.conj()))
                   for ket in sector_kets(NODISS, 80, sector, 0.0, times)]
          for sector in (+1, -1)}
    for sector in (+1, -1):
        assert_allclose([squeezing_db(q.value) for q in qv[sector]], cov["squeezing_db"],
                        atol=1e-9)
    dtheta = np.array([m.angle - p.angle for p, m in zip(qv[+1], qv[-1])])[1:] % math.pi
    assert_allclose(dtheta, math.pi / 2.0, atol=1e-7)


def test_sector_master_equation_peak(params):
    # dissipative sector at the operating detuning: the peak sits near
    # 42.5 ns at 8.65 dB (kappa-limited, down from the 11.9 dB ideal value).
    # This reads the exact covariance; the master equation's own peak is
    # pinned by test_covariance_matches_master_equation.
    times = np.arange(0.0, 45.0 + 2.5, 2.5)
    s = sector_covariance_squeezing(params, times, delta_eff=DELTA_OP)["squeezing_db"]
    assert s[np.searchsorted(times, 42.5)] == pytest.approx(8.6542, abs=5e-3)
    assert times[int(np.argmax(s))] == pytest.approx(42.5, abs=2.6)
    assert 8.0 < s.max() < 13.0


def test_pinned_minus_x_sector_master_equation(params):
    # the dissipative -x sector, integrated as its own master equation,
    # squeezes at the level of the +1 sector's exact covariance: the -1
    # sector is the +1 one with s -> -s
    times = np.arange(0.0, 10.0 + 2.5, 2.5)
    me = sector_master_equation(params, -1, 20, times, DELTA_OP)
    cov = sector_covariance_squeezing(params, times, DELTA_OP)
    for key in ("zeta_sq", "squeezing_db", "n_magnon"):
        assert_allclose(me.observables[key], cov[key], rtol=1e-6, atol=1e-9)


def test_pinned_run_without_magnon_dissipation_is_exact():
    # a pinned sb_x start fills one (s, s) block, and the qubit channel only
    # damps the (+,-) block, so qubit dissipation alone keeps the closed form
    times = np.arange(0.0, 10.0 + 1.0, 1.0)
    runs = [sector_covariance_squeezing(p, times, delta_eff=0.0)
            for p in (PhysicalParams(kappa=0.0), NODISS)]
    for key, series in runs[1].items():
        np.testing.assert_array_equal(runs[0][key], series)


def sector_config(params, fock_dim, time_max=150.0):
    """A scenario config whose effective leg runs params at fock_dim over
    0..time_max on the default 0.5 ns grid."""
    return Config(params=params, run=RunOptions(fock_dim=fock_dim, time_max=time_max))


def test_pinned_run_without_magnon_loss_reads_the_covariance():
    # no Fock truncation enters the effective leg's series; fock_dim is held
    # to its tail, 7.5e-3 beyond 20 levels at 40 ns and 6.9e-8 beyond 80
    params = PhysicalParams(kappa=0.0)
    times = np.arange(0.0, 40.0 + 0.5, 0.5)
    with pytest.raises(TruncationError, match="beyond fock_dim=20 at t = 40.000 ns"):
        _effective_leg(sector_config(params, 20, 40.0), DELTA_OP)
    cov = sector_covariance_squeezing(params, times, DELTA_OP)
    leg, note = _effective_leg(sector_config(params, 80, 40.0), DELTA_OP)
    assert note == "effective: path=sector_exact, max_fock_tail=6.91e-08 at t=40 ns, fock_dim=80"
    for key in ("times", "zeta_sq", "squeezing_db", "n_magnon"):
        np.testing.assert_array_equal(leg[key], cov[key])


def test_pinned_run_refuses_a_fock_tail_beyond_the_tolerance(params, monkeypatch, tmp_path):
    # the analytic Delta_eff (derive()'s 2.007 MHz) lies below the
    # two-photon threshold: the magnon number grows without bound, and by
    # 150 ns 80 levels hold under 2 % of the state
    delta = derive(params).Delta_eff
    assert delta / TWO_PI * 1e3 == pytest.approx(2.007, abs=1e-3)
    with pytest.raises(TruncationError, match=r"9\.81e-01 .* fock_dim=80 at t = 150\.000 ns"):
        _effective_leg(sector_config(params, 80), delta)
    # squeeze_compare refuses before its full-model master equation, and
    # writes nothing
    def forbidden(*args, **kwargs):
        raise AssertionError("squeeze_compare ran the full model")

    monkeypatch.setattr("magsqueeze.scenarios.conditional_squeezing_run", forbidden)
    cfg = sector_config(params, 60, 45.0)
    cfg.run.delta_eff, cfg.run.output_dir = 2.0, str(tmp_path)
    with pytest.raises(TruncationError, match="fock_dim=60 at t = 45.000 ns"):
        run_scenario(ScenarioConfig(scenario="squeeze_compare", config=cfg))
    assert os.listdir(tmp_path) == []
    # a leg that passes records its worst tail and where it sits
    _, tail, t_tail = _sector_tail(sector_config(params, 80), DELTA_OP)
    assert tail == pytest.approx(2.25e-7, rel=1e-2)
    assert t_tail == 55.0
    assert tail < MIXED_TAIL_TOL
    assert _effective_leg(sector_config(params, 80), DELTA_OP)[1].endswith(
        f"max_fock_tail={tail:.2e} at t=55 ns, fock_dim=80")


def test_gaussian_populations_match_the_master_equation_diagonal(params):
    # the pinned master equation at fock 120 holds all but 5e-11 of the
    # state over 0..45 ns: its diagonal is the Gaussian p_n
    times = np.array([0.0, 10.0, 25.0, 42.5])
    me = sector_master_equation(params, +1, 120, times, DELTA_OP, store_states=True,
                                rel_tol=1e-10, abs_tol=1e-12)
    cov = sector_covariance_squeezing(params, times, DELTA_OP)
    p = gaussian_fock_populations(cov["n_magnon"], cov["s_abs"], 120)
    for state, row in zip(me.states, p):
        assert_allclose(np.diag(state.matrix).real, row, rtol=0.0, atol=1e-9)


@given(kappa=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), temperature=st.floats(10.0, 300.0),
       delta_mhz=st.floats(-12.0, 12.0), fock_dim=st.integers(20, 56),
       t=st.floats(1.0, 40.0), sector=st.sampled_from([+1, -1]))
@settings(max_examples=40)
@example(kappa=0.0, temperature=10.0, delta_mhz=0.2, fock_dim=56, t=25.85, sector=+1)
def test_master_equation_stays_within_the_tail_error_of_the_covariance(
        kappa, temperature, delta_mhz, fock_dim, t, sector):
    # wherever the tail passes, the master equation at that fock_dim is off
    # the exact covariance by no more than its tail allows.  Over 2200
    # passing draws from these ranges and 1100 with fock_dim up to 60 and
    # t up to 60 ns (rtol 1e-10), max |dS| was 8.6e3 dB and max
    # |dn|/(1 + n) 1.2e2 per unit of the run's worst tail (6.4e2 dB and 68
    # at the custom default, as in the README's table); the worst |dS| came
    # at kappa = 0, fock_dim 55-56, t near 25 ns.  A scan of that corner
    # (t 20-30 ns, |Delta| <= 12 MHz; then t 25.80-25.95 ns in 0.01 ns steps
    # and Delta 0-0.4 MHz in 0.02 MHz steps) peaks where the tail meets
    # MIXED_TAIL_TOL: the example reads 0.0869 dB at a tail of 9.986e-6,
    # 0.870 of its dB bound.  The bound is 1e4 dB and 2.5e2 per unit of
    # tail, plus the solver's own floor.
    params = PhysicalParams(kappa=kappa, temperature=temperature)
    delta = TWO_PI * delta_mhz * 1e-3
    times = np.linspace(0.0, t, 7)
    cov = sector_covariance_squeezing(params, times, delta)
    tail, _ = sector_fock_tail(cov, fock_dim)
    assume(tail <= MIXED_TAIL_TOL)  # where the effective leg runs
    me = sector_master_equation(params, sector, fock_dim, times, delta,
                                rel_tol=1e-10, abs_tol=1e-12)
    d_s = np.abs(me.observables["squeezing_db"] - cov["squeezing_db"])
    n = cov["n_magnon"]
    d_n = np.abs(me.observables["n_magnon"] - n) / (1.0 + n)
    assert d_s.max() <= 1e4 * tail + 1e-5
    assert d_n.max() <= 2.5e2 * tail + 1e-7


def test_joint_run_reduces_to_sector():
    # qubit prepared in |g> = (|+x> + |-x>)/sqrt(2): the joint effective
    # evolution postselected on sb_x = +1 must reproduce the pinned-sector
    # master equation exactly (qubit channels off, H block-diagonal in the
    # sb_x sectors)
    qdiss_off = PhysicalParams(gamma=0.0, gamma_phi=0.0)
    times = np.arange(0.0, 20.0 + 2.0, 2.0)
    joint = evolve_master(*_effective_model(qdiss_off, "plus_plus_minus", 40, DELTA_OP),
                          solver=solver_for(times), sample_hook=_plus_x_metrics,
                          store_states=True)
    sector = sector_master_equation(qdiss_off, +1, 40, times, DELTA_OP)
    # nothing feeds the entries outside the four n + 2q mod 4 class blocks:
    # they stay exact zeros
    outside = ~class_support(40, magnon_jumps=True, qubit_jumps=False)
    for state in joint.states:
        assert np.all(state.matrix[outside] == 0.0)
    assert_allclose(joint.observables["p_plus"], 0.5, atol=1e-9)
    for key in ("zeta_sq", "squeezing_db", "n_magnon"):
        assert_allclose(joint.observables[key], sector.observables[key], atol=1e-8)


def test_block_runs_match_dense_joint_oracle():
    # both conditional runs from |0, g> evolve the effective model with the
    # sparse RHS; the reference integrates the same model with dense
    # products on all 4 N^2 entries of the joint space (H_cs,
    # build_dissipators_effective) and postselects each sample.
    # Delta != 0 and a large gamma exercise the time-dependent generator
    # and the damping of the sb_x coherences.
    hot_qubit = PhysicalParams(gamma=300.0)
    nf = 30
    delta = TWO_PI * 9e-3
    times = np.arange(0.0, 12.0 + 1.0, 1.0)
    tight = dict(rel_tol=1e-10, abs_tol=1e-12)
    rho0 = joint_initial_state(qubit="plus_plus_minus", fock_dim=nf).matrix
    rhs = dense_lindblad_rhs(build_H_cs(hot_qubit, nf, delta_eff=delta).at,
                             build_dissipators_effective(hot_qubit, nf).channels)
    ref = solve_ivp(rhs, (0.0, times[-1]), rho0.ravel().astype(complex), method="DOP853",
                    t_eval=times, rtol=1e-10, atol=1e-12)
    assert ref.success
    dense = [StateDensity(0.5 * (x + x.conj().T), frame="drive_interaction")
             for x in ref.y.T.reshape(len(times), 2 * nf, 2 * nf)]
    squeeze = evolve_master(*_effective_model(hot_qubit, "plus_plus_minus", nf, delta),
                            solver=solver_for(times, **tight),
                            sample_hook=_plus_x_metrics, store_states=True)
    sup = conditional_superposition_run(hot_qubit, times, fock_dim=nf, delta_eff=delta,
                                        solver=SolverConfig(**tight))
    for i, state in enumerate(dense):
        assert_allclose(squeeze.states[i].matrix, state.matrix, atol=1e-8)
        p_plus, rho_plus = postselect_qubit(state, "plus_x")
        assert squeeze.observables["p_plus"][i] == pytest.approx(p_plus, abs=1e-8)
        n_plus = float(np.real(np.trace(number_op(nf) @ rho_plus.matrix)))
        assert squeeze.observables["n_magnon"][i] == pytest.approx(n_plus, abs=1e-8)
        for outcome in ("g", "e") if i else ("g",):
            p_out, rho_out = postselect_qubit(state, outcome)
            assert sup.observables[f"p_{outcome}"][i] == pytest.approx(p_out, abs=1e-8)
            assert_allclose(sup.metadata[f"states_{outcome}"][i].matrix, rho_out.matrix,
                            atol=1e-8)
    # without the qubit channel the coherence survives and p_g comes out
    # visibly different, so the comparison above does test the damping
    cold = conditional_superposition_run(PhysicalParams(gamma=0.0), times, fock_dim=nf,
                                         delta_eff=delta, solver=SolverConfig(**tight))
    assert abs(cold.observables["p_g"][-1] - sup.observables["p_g"][-1]) > 1e-3


def test_covariance_ideal_law():
    times = np.arange(0.0, 40.0 + 1.0, 1.0)
    d = derive(NODISS)
    out = sector_covariance_squeezing(NODISS, times, delta_eff=0.0)
    assert_allclose(out["squeezing_db"], DB_PER_NEPER * abs(d.g_cs) * times, atol=1e-7)


def test_covariance_matches_master_equation(params):
    # Gaussian covariance integration against the truncated-Fock master
    # equation -- completely independent numerics
    times = np.arange(0.0, 45.0 + 2.5, 2.5)
    cov = sector_covariance_squeezing(params, times, delta_eff=DELTA_OP)
    me = sector_master_equation(params, +1, 100, times, DELTA_OP)
    assert np.max(np.abs(cov["squeezing_db"] - me.observables["squeezing_db"])) < 2e-3


def covariance_ode(params, times, delta_eff, sector=+1):
    """The moment equations of the sb_x = sector block, integrated by DOP853
    from the vacuum at t = 0: the oracle for sector_covariance_squeezing.
    Returns (<n>, <m^2>) on times, <m^2> in the drive frame."""
    d = derive(params, delta_eff_override=delta_eff)
    c = -(d.g_cs / 2.0) * float(sector)

    def rhs(t, y):
        n, sr, si = y
        s = sr + 1.0j * si
        dn = -4.0 * c * si - d.kappa * (n - d.n_bar_m)
        ds = -2.0j * d.Delta_eff * s - 2.0j * c * (2.0 * n + 1.0) - d.kappa * s
        return [dn, ds.real, ds.imag]

    if times[-1] == 0.0:  # only the start: the vacuum
        return np.zeros(len(times)), np.zeros(len(times), dtype=complex)
    # solve_ivp takes strictly increasing times: a grid inside a subnormal
    # span repeats them
    distinct, which = np.unique(times, return_inverse=True)
    sol = solve_ivp(rhs, (0.0, float(times[-1])), [0.0, 0.0, 0.0], method="DOP853",
                    t_eval=distinct, rtol=1e-12, atol=1e-14)
    assert sol.success
    n, s = sol.y[0][which], (sol.y[1] + 1.0j * sol.y[2])[which]
    return n, np.exp(2.0j * d.Delta_eff * times) * s


def sector_generator(d, sector):
    """_moment_generator of the sb_x = sector block: c -> sector c."""
    return _moment_generator(replace(d, g_cs=sector * d.g_cs))


G_CS_MHZ = abs(derive(PhysicalParams()).g_cs) / TWO_PI * 1e3  # threshold |g_cs|

covariance_cells = st.builds(
    lambda kappa, temperature, delta_mhz, sector: (
        PhysicalParams(kappa=kappa, temperature=temperature),
        TWO_PI * 1e-3 * delta_mhz, sector),
    kappa=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    temperature=st.floats(1.0, 300.0),
    # resonance, the threshold on either side, below it and above it
    delta_mhz=st.one_of(st.sampled_from([0.0, G_CS_MHZ, -G_CS_MHZ]),
                        st.floats(-G_CS_MHZ, G_CS_MHZ), st.floats(-30.0, 30.0)),
    sector=st.sampled_from([+1, -1]),
)

# non-uniform increasing grids, at or after t = 0, up to 100 ns
covariance_grids = st.builds(
    lambda start, steps: start + np.concatenate([[0.0], np.cumsum(steps)]),
    start=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    steps=st.lists(st.floats(0.05, 5.0), min_size=0, max_size=12),
)


@given(cell=covariance_cells, times=covariance_grids)
def test_covariance_matches_moment_ode(cell, times):
    # the closed-form propagator against step-by-step integration of the
    # same moment equations; the -1 sector is the +1 run with s -> -s
    params, delta, sector = cell
    cov = sector_covariance_squeezing(params, times, delta_eff=delta)
    n_ref, s_ref = covariance_ode(params, times, delta, sector)
    assert_allclose(cov["n_magnon"], n_ref, rtol=1e-8, atol=1e-12)
    assert_allclose(cov["s_abs"], np.abs(s_ref), rtol=1e-8, atol=1e-12)
    assert_allclose(sector * cov["s"], s_ref, rtol=1e-8, atol=1e-12)


@given(cell=covariance_cells, times=covariance_grids)
def test_covariance_is_even_in_delta(cell, times):
    # s -> -s^* maps the Delta solution onto the -Delta one; the generators
    # at +-Delta differ by the sign flip of Re s, which floating point
    # carries through every product exactly, so the series agree bit for bit
    params, delta, _ = cell
    cov = sector_covariance_squeezing(params, times, delta_eff=[delta, -delta])
    for key in ("n_magnon", "s_abs", "squeezing_db"):
        np.testing.assert_array_equal(cov[key][0], cov[key][1])


@pytest.mark.parametrize("params, delta", [
    (NODISS, 0.0),  # ideal: zeta^2 = e^{-2r} falls to 5e-13 by 300 ns
    (PhysicalParams(), 0.0),
    (PhysicalParams(), DELTA_OP),
], ids=["ideal", "resonant", "operating"])
def test_covariance_squeezing_matches_50_digit_exponential(params, delta):
    # zeta^2 = 1 + 2n - 2|s| in 50-digit arithmetic from the (n, s, 1) rows
    # of the same generator; at large squeezing the double-precision
    # difference of the two large terms would lose every digit
    times = [30.0, 150.0, 300.0]
    gen = _moment_generator(derive(params, delta_eff_override=delta))
    with mpmath.workdps(50):
        moments = mpmath.matrix(gen[np.ix_([0, 1, 2, 4], [0, 1, 2, 4])].tolist())
        ref = []
        for t in times:
            n, s_re, s_im, _ = mpmath.expm(moments * t)[:, 3]
            zeta_sq = 1 + 2 * n - 2 * mpmath.sqrt(s_re ** 2 + s_im ** 2)
            ref.append(float(-10 * mpmath.log10(zeta_sq)))
    got = sector_covariance_squeezing(params, times, delta_eff=delta)["squeezing_db"]
    assert_allclose(got, ref, rtol=0.0, atol=1e-10)


def test_expm_stack_matches_scipy():
    # random 5 x 5 matrices and moment generators, scaled to 1-norms from
    # 1e-3 to 30 and exponentiated as one stack, so each matrix takes its
    # own number of squarings; above norm 1 the gap is scipy's own error
    # (against a 40-digit exponential both stay below 1e-12, ours 1e-14)
    rng = np.random.default_rng(7)
    norms = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0])
    gens = np.array([
        sector_generator(derive(PhysicalParams(kappa=rng.uniform(0.0, 10.0)),
                                rng.uniform(-0.2, 0.2)), rng.choice([-1, 1]))
        for _ in range(20)])
    stack = np.concatenate([rng.normal(size=(20, 5, 5)), gens])
    stack = (stack / np.abs(stack).sum(axis=-2).max(axis=-1)[:, None, None]
             * norms[:, None, None, None])  # (norm, matrix, 4, 4)
    got = _expm_stack(stack)
    for norm, mats, exps in zip(norms, stack, got):
        tol = 1e-14 if norm <= 1.0 else 1e-11
        for a, e in zip(mats, exps):
            ref = expm(a)
            assert np.abs(e - ref).max() <= tol * np.abs(ref).max()
    np.testing.assert_array_equal(_expm_stack(np.zeros((2, 4, 4))), [np.eye(4)] * 2)


def test_batched_covariance_equals_per_cell_calls():
    # cells broadcast from a parameter sequence and a detuning sequence;
    # each row is bit-equal to its own single call, so equal cells give
    # equal rows (the heatmap's inert gamma axis relies on it)
    times = np.array([0.0, 0.5, 1.0, 3.0, 3.5, 10.0, 25.0, 25.5])
    cells = [PhysicalParams(kappa=k, gamma=g) for k in (0.0, 2.0) for g in (1.0, 300.0)]
    deltas = [0.0, DELTA_OP, -DELTA_OP, 0.02]
    out = sector_covariance_squeezing(cells, times, delta_eff=deltas)
    assert out["squeezing_db"].shape == (4, len(times))
    for i, (p, delta) in enumerate(zip(cells, deltas)):
        one = sector_covariance_squeezing(p, times, delta_eff=delta)
        assert one["squeezing_db"].shape == times.shape
        for key in ("zeta_sq", "squeezing_db", "n_magnon", "s_abs"):
            np.testing.assert_array_equal(out[key][i], one[key])
    per_params = sector_covariance_squeezing(cells, times, delta_eff=DELTA_OP)
    per_delta = sector_covariance_squeezing(cells[1], times, delta_eff=deltas)
    np.testing.assert_array_equal(per_params["n_magnon"][1], per_delta["n_magnon"][1])
    for key in ("n_magnon", "s_abs"):  # gamma does not enter the moment equations
        np.testing.assert_array_equal(per_params[key][0], per_params[key][1])
        np.testing.assert_array_equal(per_params[key][2], per_params[key][3])
    with pytest.raises(DimensionError, match="broadcast"):
        sector_covariance_squeezing(cells, times, delta_eff=deltas[:3])


def covariance_step_loop(cells, times):
    """sector_covariance_squeezing's arrays for (params, delta) cells from a
    loop that updates y = (n, Re s, Im s, det) one step at a time, term by
    term in the order p0 n + p1 Re s + p2 Im s + p3 det + p4."""
    ds = [derive(p, delta_eff_override=delta) for p, delta in cells]
    steps, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    props = _expm_stack(steps[:, None, None, None]
                        * np.array([_moment_generator(d) for d in ds]))
    y = np.zeros((len(ds), 4))
    y[:, 3] = 1.0
    out = np.empty((4, len(ds), len(times)))
    for k, u in enumerate(which.ravel()):
        p = props[u, :, :4]
        y = (p[..., 0] * y[:, :1] + p[..., 1] * y[:, 1:2] + p[..., 2] * y[:, 2:3]
             + p[..., 3] * y[:, 3:] + p[..., 4])
        out[:, :, k] = y.T
    s_abs = np.hypot(out[1], out[2])
    zeta_sq = out[3] / (1.0 + 2.0 * out[0] + 2.0 * s_abs)
    return {"zeta_sq": zeta_sq, "squeezing_db": -10.0 * np.log10(zeta_sq),
            "n_magnon": out[0], "s_abs": s_abs,
            "s": (np.exp(2.0j * np.outer([d.Delta_eff for d in ds], times))
                  * (out[1] + 1.0j * out[2]))}


@settings(max_examples=200)
@given(
    cells=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                             st.floats(1.0, 300.0),
                             st.sampled_from([+1.0, -1.0]),
                             st.floats(1.001 * G_CS_MHZ, 30.0)),
                   min_size=1, max_size=6),
    # uniform grids from 0 or from later, a single time, non-uniform grids
    times=st.one_of(
        st.builds(lambda start, t_max, dt: start + default_sample_times(t_max, dt),
                  st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
                  st.floats(0.0, 80.0), st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        st.floats(0.0, 100.0).map(lambda t: np.array([t])),
        covariance_grids),
)
def test_covariance_matches_the_step_loop_bit_for_bit(cells, times):
    # .tobytes() tells -0.0 from 0.0 and the last bit of every entry, which
    # the golden CSVs' 13 digits cannot
    cells = [(PhysicalParams(kappa=kappa, temperature=temp), sign * TWO_PI * 1e-3 * mhz)
             for kappa, temp, sign, mhz in cells]
    ref = covariance_step_loop(cells, times)
    batch = sector_covariance_squeezing([p for p, _ in cells], times,
                                        delta_eff=[delta for _, delta in cells])
    one = sector_covariance_squeezing(cells[0][0], times, delta_eff=cells[0][1])
    for key, want in ref.items():
        assert batch[key].shape == want.shape
        assert batch[key].tobytes() == want.tobytes(), key
        assert one[key].tobytes() == want[0].tobytes(), key
    assert batch["times"].tobytes() == np.asarray(times, dtype=float).tobytes()


def test_covariance_outside_physical_region_raises():
    # a step backward in time from the vacuum un-thermalizes it: <n> goes
    # negative and zeta^2 = 1 + 2<n> - 2|s| below zero
    hot = PhysicalParams(kappa=10.0, temperature=300.0)
    with pytest.raises(NumericalError, match="physical region"):
        sector_covariance_squeezing(hot, [-5.0], delta_eff=DELTA_OP)


def test_full_lab_matches_full_rotating(params):
    # same physics in two different time-dependent representations with
    # different frame chains; agreement is a strong end-to-end check.  The
    # lab-frame run is the test-local oracle: build_H_tot, whose 3 GHz drive
    # the adaptive steps resolve unaided, and the lab leg before the
    # package's rotating-frame hook
    times = np.arange(0.0, 10.0 + 2.0, 2.0)

    def lab_hook(t, rho):
        return _plus_x_metrics(t, lab_leg(StateDensity(rho, frame="lab", time=float(t)),
                                          params).matrix)

    lab = evolve_master(build_H_tot(params, 20), build_dissipators_full(params, 20),
                        joint_initial_state(qubit="plus_x", fock_dim=20),
                        solver=solver_for(times), sample_hook=lab_hook, store_states=True)
    rot = full_rotating_states(params, 20, times, sample_hook=_plus_x_metrics)
    # the full models fill the whole joint space
    for run in (lab, rot):
        assert np.count_nonzero(run.states[-1].matrix) == (2 * 20) ** 2
    assert np.max(np.abs(lab.observables["squeezing_db"]
                         - rot.observables["squeezing_db"])) < 1e-5
    assert np.max(np.abs(lab.observables["p_plus"] - rot.observables["p_plus"])) < 1e-6


def test_full_model_squeezes_at_twice_the_reduced_rate(params):
    # the sb_x-sector projection of the static two-magnon term carries twice
    # the coefficient of the reduced conditional Hamiltonian (see README),
    # so the full model accumulates squeezing at very nearly double the
    # reduced-model rate at early times; this pins that known offset
    times = np.arange(0.0, 5.0 + 1.0, 1.0)
    full = conditional_squeezing_run(params, fock_dim=20, sample_times=times)
    eff = sector_covariance_squeezing(params, times)
    ratio = full.observables["squeezing_db"][-1] / eff["squeezing_db"][-1]
    assert 1.85 < ratio < 2.05


def full_rotating_states(params, fock_dim, times, sample_hook=None):
    """The master equation of conditional_squeezing_run, with its joint
    states stored: |0> (x) |+x> under build_H_rot in the
    rotating_half_pump frame."""
    rho0 = joint_initial_state(qubit="plus_x", fock_dim=fock_dim)
    rho0.frame = "rotating_half_pump"
    return evolve_master(build_H_rot(params, fock_dim), build_dissipators_full(params, fock_dim),
                         rho0, solver=solver_for(times), sample_hook=sample_hook,
                         store_states=True)


def test_run_store_states(params):
    # the full model's master equation stores its joint states in the frame
    # it integrates, and the run's series are those states postselected
    times = np.arange(0.0, 2.0 + 1.0, 1.0)
    res = full_rotating_states(params, 6, times)
    run = conditional_squeezing_run(params, fock_dim=6, sample_times=times)
    assert res.frame == run.frame == "rotating_half_pump"
    assert run.states is None
    for st, p_plus in zip(res.states, run.observables["p_plus"]):
        assert postselect_qubit(st, "plus_x")[0] == p_plus
    assert len(res.states) == len(times)
    for t, st in zip(times, res.states):
        assert st.frame == "rotating_half_pump"
        assert st.time == pytest.approx(t)
        assert st.matrix.shape == (12, 12)


def test_full_run_records_its_fock_edge_population():
    # max_edge_population is p_{N-1} summed over the qubit, read from the
    # diagonal of each stored joint state
    nf = 8
    times = np.arange(0.0, 3.0 + 0.5, 0.5)
    run = conditional_squeezing_run(HOT, fock_dim=nf, sample_times=times)
    edge = [np.real(np.diag(state.matrix)).reshape(nf, 2).sum(axis=1)[-1]
            for state in full_rotating_states(HOT, nf, times).states]
    worst = int(np.argmax(edge))
    assert edge[worst] > 1e-8
    assert run.metadata["max_edge_population"] == edge[worst]
    assert run.metadata["max_edge_population_time"] == run.times[worst]


def test_evolve_master_starts_at_the_state_time(params):
    # a run split at t1 continues from the state at t1 with the phases of
    # t1: it matches one unbroken run, where a start at t = 0 would not
    nf = 8
    h, dissipators = build_H_rot(HOT, nf), build_dissipators_full(HOT, nf)
    rho0 = joint_initial_state(qubit="plus_x", fock_dim=nf)
    times = np.arange(0.0, 2.0 + 0.25, 0.5)
    tol = dict(rel_tol=1e-10, abs_tol=1e-12)
    whole = evolve_master(h, dissipators, rho0, solver=solver_for(times, **tol),
                          store_states=True)
    first = evolve_master(h, dissipators, rho0, solver=solver_for(times[:3], **tol),
                          store_states=True)
    split = first.states[-1]
    assert split.time == times[2]
    second = evolve_master(h, dissipators, split, solver=solver_for(times[3:], **tol),
                           store_states=True)
    assert np.array_equal(second.times, times[3:])
    for a, b in zip(whole.states[3:], second.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9
    at_zero = evolve_master(h, dissipators, replace(split, time=0.0),
                            solver=solver_for(times[3:] - times[2], **tol), store_states=True)
    assert np.max(np.abs(at_zero.states[-1].matrix - whole.states[-1].matrix)) > 1e-3
    # a sample at the start is the start itself; one before it is refused
    same = evolve_master(h, dissipators, split, solver=solver_for([times[2]]), store_states=True)
    assert np.array_equal(same.states[0].matrix, split.matrix)
    with pytest.raises(DimensionError, match="precedes the start"):
        evolve_master(h, dissipators, split, solver=solver_for(times[1:]))


def test_evolve_master_stops_before_the_step_its_test_refuses(params):
    # the stop test sees the diagonal of each accepted step's end; the run
    # keeps the samples before the refused step and hands back the state
    # it started from, which a second run continues to the same samples
    nf = 8
    h, dissipators = build_H_rot(HOT, nf), build_dissipators_full(HOT, nf)
    rho0 = joint_initial_state(qubit="plus_x", fock_dim=nf)
    times = np.arange(0.0, 3.0 + 0.25, 0.5)
    whole = evolve_master(h, dissipators, rho0, solver=solver_for(times), store_states=True)
    edge = [np.real(np.diag(st.matrix))[-2:].sum() for st in whole.states]
    tol = 0.5 * (edge[2] + edge[3])
    seen = []

    def stop(p):
        seen.append(p[-2] + p[-1])
        return seen[-1] > tol

    part = evolve_master(h, dissipators, rho0, solver=solver_for(times), store_states=True,
                         stop=stop)
    state = part.metadata["stopped_state"]
    assert np.array_equal(part.times, times[:3])
    assert times[2] <= state.time < times[3]
    assert np.real(np.diag(state.matrix))[-2:].sum() <= tol < seen[-1]
    assert whole.metadata["stopped_state"] is None
    for a, b in zip(part.states, whole.states):
        assert np.array_equal(a.matrix, b.matrix)
    rest = evolve_master(h, dissipators, state, solver=solver_for(times[3:]), store_states=True)
    for a, b in zip(rest.states, whole.states[3:]):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7


# bounds of the grown run against the fixed-fock oracle: measured worst
# over 52 random draws in the property's ranges, times about 5
GROWN_DB_BOUND, GROWN_P_BOUND, GROWN_N_BOUND = 5e-6, 1e-6, 1e-7


@settings(max_examples=5)
@given(kappa=st.floats(0.0, 2.0), temperature=st.floats(10.0, 300.0),
       t_max=st.floats(0.5, 10.0), fock_dim=st.integers(24, 48))
@example(kappa=2.0, temperature=300.0, t_max=10.0, fock_dim=48)
def test_grown_run_matches_the_fixed_fock_oracle(kappa, temperature, t_max, fock_dim):
    # the run that grows its Fock space up to fock_dim against one master
    # equation at fock_dim: each segment stops once its last level holds
    # GROWTH_TOL, so what the smaller space leaves out stays below the
    # solver's own error, and the two differ by their step sequences
    params = PhysicalParams(kappa=kappa, temperature=temperature)
    times = np.linspace(0.0, t_max, 6)
    run = conditional_squeezing_run(params, fock_dim=fock_dim, sample_times=times)
    ref = full_rotating_states(params, fock_dim, times, sample_hook=_plus_x_metrics)
    sizes, starts = zip(*run.metadata["fock_sizes"])
    assert list(sizes) == [min(FOCK_START + FOCK_GROWTH * i, fock_dim) for i in range(len(sizes))]
    assert starts[0] == 0.0 and np.all(np.diff(starts) > 0.0) and starts[-1] < t_max
    # below the cap every sample's last level stays within the tolerance
    assert sizes[-1] == fock_dim or run.metadata["max_edge_population"] <= GROWTH_TOL
    assert np.array_equal(run.times, times)
    got, want = run.observables, ref.observables
    assert np.max(np.abs(got["squeezing_db"] - want["squeezing_db"])) < GROWN_DB_BOUND
    assert np.max(np.abs(got["p_plus"] - want["p_plus"])) < GROWN_P_BOUND
    assert np.max(np.abs(got["n_magnon"] - want["n_magnon"])
                  / (1.0 + want["n_magnon"])) < GROWN_N_BOUND


@pytest.mark.parametrize("fock_dim", [6, FOCK_START])
def test_run_at_or_below_the_start_size_is_one_fixed_run(params, fock_dim):
    # fock_dim <= FOCK_START: no growth, the oracle's master equation bit
    # for bit
    times = np.arange(0.0, 2.0 + 0.25, 0.5)
    run = conditional_squeezing_run(HOT, fock_dim=fock_dim, sample_times=times)
    ref = full_rotating_states(HOT, fock_dim, times, sample_hook=_plus_x_metrics)
    assert run.metadata["fock_sizes"] == [(fock_dim, 0.0)]
    assert run.metadata["n_rhs_evals"] == ref.metadata["n_rhs_evals"]
    assert np.array_equal(run.times, ref.times)
    assert sorted(run.observables) == sorted(ref.observables)
    for key, series in ref.observables.items():
        assert np.array_equal(run.observables[key], series)


@pytest.mark.parametrize("refused", [
    dict(model="adiabatic"),
    dict(model="full_lab"),
    dict(model="effective", qubit_init="g"),
    dict(model="effective", qubit_init="plus_plus_minus"),
    dict(model="effective", store_states=True),
    dict(delta_eff=DELTA_OP),  # the full model has no effective detuning
    dict(store_states=True),  # the states are evolve_master's to store
], ids=["adiabatic", "full_lab", "effective_from_g", "effective_from_plus_plus_minus",
        "stored_states_with_kappa", "full_with_delta_eff", "stored_states"])
def test_run_refuses_requests_off_its_two_paths(params, monkeypatch, refused):
    # conditional_squeezing_run integrates the full model from plus_x and
    # takes no model, start or detuning: each request that those switches
    # once made is refused by the signature, before any master equation
    # (the effective model is read from sector_covariance_squeezing)
    def forbidden(*args, **kwargs):
        raise AssertionError("conditional_squeezing_run ran a master equation")

    monkeypatch.setattr("magsqueeze.dynamics.evolve_master", forbidden)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        conditional_squeezing_run(params, fock_dim=40, sample_times=[0.0, 1.0], **refused)


# ---------------------------------------------------------------------------
# superposition protocol


def sector_exact_states(params, fock_dim, sector, delta_eff, times):
    """Test-local oracle: pure evolution of |0> under the truncated sector
    Hamiltonian, by eigendecomposition.

    Uses H(t) = V H(0) V^dag with V = e^{+i Delta n t}:
    psi(t) = e^{+i Delta n t} e^{-i (H(0) + Delta n) t} |0>.  H(0) + Delta n
    keeps Fock parity, so only the even levels are diagonalised; the odd
    amplitudes are exact zeros.  Returns one row psi(t) per time.
    """
    h = sector_split(params, fock_dim, delta_eff, sector)
    (_, w), = h.terms
    delta = -0.5 * w  # the term oscillates at w = -2 Delta
    n_even = np.arange(0, fock_dim, 2, dtype=float)
    gen = h.at(0.0)[::2, ::2] + delta * np.diag(n_even)
    evals, vecs = herm_eig(gen)
    times = np.asarray(times, dtype=float)
    # <v_k|0> is conj(vecs[0, k])
    even = (vecs * vecs[0].conj()) @ np.exp(-1.0j * np.outer(evals, times))
    out = np.zeros((len(times), fock_dim), dtype=complex)
    out[:, ::2] = (np.exp(1.0j * delta * np.outer(n_even, times)) * even).T
    return out


def sector_kets(params, fock_dim, sector, delta_eff, times):
    """The package's pure sector states S(sector zeta)|0>, zeta from the
    covariance of the +1 sector."""
    cov = sector_covariance_squeezing(params, times, delta_eff)
    return [squeezed_vacuum_fock(sector * z, fock_dim) for z in _squeeze_parameters(cov)]


def phased_defect(ket, reference, phase):
    """1 - Re <reference|phase ket>: zero only when phase ket equals the
    normalised reference, global phase included."""
    return 1.0 - float(np.real(phase * np.vdot(reference, ket)))


@pytest.mark.parametrize("sector", [+1, -1])
@pytest.mark.parametrize("delta", [0.0, DELTA_OP])
def test_sector_exact_states_match_full_exponential(sector, delta):
    # the eigendecomposition oracle diagonalises only the even Fock levels;
    # expm exponentiates H(0) + Delta n on every level.  The package's
    # squeezed vacua carry no global phase: S(zeta)|0> has a real, positive
    # vacuum amplitude, so expm's vacuum amplitude supplies it.
    nf = 40
    times = np.array([0.0, 3.0, 11.5])
    psis = sector_exact_states(NODISS, nf, sector, delta, times)
    kets = sector_kets(NODISS, nf, sector, delta, times)
    h = sector_split(NODISS, nf, delta, sector)
    n = np.arange(nf, dtype=float)
    for t, psi, ket in zip(times, psis, kets):
        u = expm(-1.0j * (h.at(0.0) + delta * np.diag(n)) * t)
        exact = np.exp(1.0j * delta * n * t) * u[:, 0]
        assert_allclose(psi, exact, atol=1e-12)
        assert np.all(psi[1::2] == 0.0)
        assert phased_defect(ket, exact, exact[0] / abs(exact[0])) < 1e-12
        assert np.all(ket[1::2] == 0.0)


@given(delta_mhz=st.floats(-12.0, 12.0), sector=st.sampled_from([+1, -1]),
       t=st.floats(0.5, 29.0), nf=st.integers(40, 300),
       kappa=st.sampled_from([0.0, 0.5, 2.0]))
@settings(max_examples=40)
def test_gaussian_sector_states_match_the_eigendecomposition(delta_mhz, sector, t, nf, kappa):
    # |Delta| up to 12 MHz lies on both sides of the threshold |g_cs| = 7.5 MHz
    delta = TWO_PI * delta_mhz * 1e-3
    (zeta,) = sector * _squeeze_parameters(sector_covariance_squeezing(NODISS, [t], delta))
    untruncated = squeezed_vacuum_fock(zeta, 1000)
    assume(np.vdot(untruncated[nf:], untruncated[nf:]).real < 1e-12)
    ket, = sector_kets(NODISS, nf, sector, delta, [t])

    oracle = {s: sector_exact_states(NODISS, nf, s, delta, [t])[0] for s in (+1, -1)}
    # one global phase, shared by both sectors: that of the vacuum amplitude
    assert oracle[-1][0] == pytest.approx(oracle[+1][0], abs=1e-12)
    phase = oracle[+1][0] / abs(oracle[+1][0])
    assert phased_defect(ket, oracle[sector], phase) < 1e-10
    assert phased_defect(squeezed_vacuum_fock(-zeta, nf), oracle[-sector], phase) < 1e-10

    # the sector covariance without magnon loss: metrics, and the angle
    # theta* = arg(s)/2 + pi/2 (mod pi) of the squeezed quadrature, with
    # s -> -s for the -1 sector
    cov = sector_covariance_squeezing(PhysicalParams(kappa=0.0), [t], delta)
    qv = min_quadrature_variance(np.outer(oracle[sector], oracle[sector].conj()))
    assert cov["n_magnon"][0] == pytest.approx(qv.n_mean, rel=1e-9, abs=1e-12)
    assert cov["zeta_sq"][0] == pytest.approx(qv.value, rel=1e-8)
    assert abs(-sector * cov["s"][0] / abs(cov["s"][0]) - np.exp(2.0j * qv.angle)) < 1e-7

    # the targets ignore the run's dissipation
    targets, = ideal_superposition_targets(PhysicalParams(kappa=kappa), [t], nf, delta)
    for outcome, sign in (("g", +1.0), ("e", -1.0)):
        raw = 0.5 * (oracle[+1] + sign * oracle[-1])
        p = float(np.vdot(raw, raw).real)
        p_new, target = targets[outcome]
        assert p_new == pytest.approx(p, rel=1e-9)
        assert phased_defect(target, raw / math.sqrt(p), phase) < 1e-10


def test_ideal_targets_refuse_a_truncation_that_cannot_hold_them():
    # Delta = 0, 29 ns: r = 1.37, and 120 levels leave 2.35e-8 of chi_+- out
    with pytest.raises(TruncationError, match="fock_dim=120"):
        ideal_superposition_targets(NODISS, [29.0], 120, delta_eff=0.0)
    targets, = ideal_superposition_targets(NODISS, [29.0], 200, delta_eff=0.0)
    assert targets["g"][0] + targets["e"][0] == pytest.approx(1.0, abs=1e-12)


def test_ideal_superposition_targets(derived):
    nf = 200
    t = 29.0
    targets, = ideal_superposition_targets(NODISS, [t], nf, delta_eff=0.0)
    p_g, ket_g = targets["g"]
    p_e, ket_e = targets["e"]
    r = abs(derived.g_cs) * t
    assert p_g + p_e == pytest.approx(1.0, abs=1e-12)
    assert p_g == pytest.approx(0.5 * (1.0 + math.cosh(2.0 * r) ** -0.5), abs=1e-9)
    xi = -1j * derived.g_cs * t
    assert abs(np.vdot(superposition_pm(xi, +1, nf), ket_g)) > 1.0 - 1e-10
    assert abs(np.vdot(superposition_pm(xi, -1, nf), ket_e)) > 1.0 - 1e-10
    with pytest.raises(NumericalError):
        ideal_superposition_targets(NODISS, [0.0], nf)  # e outcome has zero weight


def test_conditional_superposition_run_ideal_limit(derived):
    # dissipation-free run against the exact targets; modest r so a small
    # Fock space suffices
    times = np.arange(0.0, 8.0 + 0.25, 0.25)
    res = conditional_superposition_run(NODISS, times, fock_dim=60, delta_eff=0.0)
    # t = 0: outcome e never occurs, conditional state undefined
    assert res.observables["p_e"][0] == 0.0
    assert res.metadata["states_e"][0] is None
    assert_allclose(res.observables["p_g"] + res.observables["p_e"], 1.0, atol=1e-9)
    r = abs(derived.g_cs) * 8.0
    assert res.observables["p_g"][-1] == pytest.approx(
        0.5 * (1.0 + math.cosh(2.0 * r) ** -0.5), abs=1e-8)
    targets, = ideal_superposition_targets(NODISS, [8.0], 60, delta_eff=0.0)
    for outcome, bucket in (("g", "states_g"), ("e", "states_e")):
        ket = targets[outcome][1]
        fid = uhlmann_fidelity(np.outer(ket, ket.conj()),
                               res.metadata[bucket][-1].matrix)
        assert fid > 1.0 - 1e-7


def converged_fock(params, t, delta):
    """Fock dimension at which the superposition run has converged: 2K + 20
    levels, with K such that a squeezed vacuum of the sector's <n> keeps
    (n / (n + 1))^K = 1e-12 beyond level 2K (234 levels at Delta = 0,
    29 ns, where 200 levels still leave 5e-8 in W)."""
    n = max(float(sector_covariance_squeezing(params, [t], delta)["n_magnon"][0]), 1e-3)
    return max(40, 2 * math.ceil(12.0 * math.log(10.0) / math.log1p(1.0 / n)) + 20)


def block_moments(x):
    """(Tr X, <m^2>, <m^dag^2>, <m^dag m>) of a magnon block, <A> = Tr(X A)/Tr X."""
    k = np.arange(1, x.shape[0], dtype=float)
    pair = np.sqrt(k[:-1] * k[1:])
    tr = np.trace(x)
    return (tr, np.diagonal(x, -2) @ pair / tr, np.diagonal(x, 2) @ pair / tr,
            np.diagonal(x) @ np.arange(x.shape[0]) / tr)


def blocks_at(blocks, i=0):
    return {key: [v[i] for v in blk] for key, blk in blocks.items()}


SUPERPOSITION_AXIS = np.linspace(-8.0, 8.0, 11)


@given(kappa=st.floats(0.0, 5.0), temperature=st.floats(5.0, 300.0),
       delta=st.floats(-0.1, 0.1), t=st.floats(0.0, 60.0))
@settings(max_examples=50)
def test_minus_block_is_the_minus_sector(kappa, temperature, delta, t):
    # R = i^{m^dag m} maps the -1 sector onto the +1 one with n unchanged
    # and s -> -s; superposition_blocks builds X_-- that way, and the moment
    # equations of the -1 sector agree
    params = PhysicalParams(kappa=kappa, temperature=temperature)
    times = np.linspace(0.0, t, 7)
    plus = sector_covariance_squeezing(params, times, delta)
    half, a, b, n = superposition_blocks(params, times, delta)["--"]
    assert np.array_equal(half, np.full(7, 0.5))
    assert np.array_equal(a, -plus["s"]) and np.array_equal(b, -plus["s"].conj())
    assert np.array_equal(n, plus["n_magnon"])
    n_ref, s_ref = covariance_ode(params, times, delta, -1)
    assert_allclose(n, n_ref, rtol=1e-8, atol=1e-12)
    assert_allclose(a, s_ref, rtol=1e-8, atol=1e-12)


@given(t=st.floats(1.0, 29.0), kappa=st.floats(0.0, 0.6),
       temperature=st.floats(5.0, 40.0), delta=st.sampled_from([0.0, DELTA_OP]))
@settings(max_examples=8)
def test_superposition_blocks_match_the_master_equation(t, kappa, temperature, delta):
    # the joint run at a fock where it has converged: its (+,-) block, the
    # post-selected grids and p_g against the closed-form Gaussian blocks.
    # The moments weigh level k by up to k^2, so the near-empty top levels
    # need an absolute tolerance far below the bound: DOP853 weighs each
    # upper-triangle entry of rho by atol + rtol |rho_ij|.  At rtol 5e-12,
    # atol 5e-14 the moments landed 3.0e-7 off at t = 21 ns, kappa = 0,
    # Delta = 0 (fock 120); at rtol 1e-12, atol 1e-15 they land 7.7e-13 off
    # there, with 356 RHS calls against 236.  Worst over t = 21..29 ns,
    # kappa = 0 and 0.3 MHz at Delta = 0 (fock 118-232): 6.3e-9 in the
    # moments and 4.1e-8 in W, the latter the Fock-ket oracle's own.
    params = PhysicalParams(kappa=kappa, temperature=temperature)
    nf = converged_fock(params, t, delta)
    h, dissipators, rho0 = _effective_model(params, "plus_plus_minus", nf, delta)
    rho = evolve_master(h, dissipators, rho0, store_states=True,
                        solver=solver_for([t], rel_tol=1e-12, abs_tol=1e-15)).states[0]
    r4 = rho.matrix.reshape(nf, 2, nf, 2)
    coherence = np.einsum("a,iajb,b->ij", KET_PLUS_X.conj(), r4, KET_MINUS_X)

    blocks = blocks_at(superposition_blocks(params, [t], delta))
    assert_allclose(blocks["+-"], block_moments(coherence), rtol=0, atol=1e-7)
    grids = superposition_grids(blocks, SUPERPOSITION_AXIS, SUPERPOSITION_AXIS)
    for outcome in ("g", "e"):
        p, state = postselect_qubit(rho, outcome)
        assert grids[outcome][0] == pytest.approx(p, abs=1e-8)
        oracle = wigner(state.matrix, SUPERPOSITION_AXIS, SUPERPOSITION_AXIS)
        assert_allclose(grids[outcome][1].values, oracle.values, rtol=0, atol=1e-7)


@given(t=st.floats(1.0, 29.0), delta=st.sampled_from([0.0, DELTA_OP]))
@settings(max_examples=10)
def test_superposition_blocks_without_dissipation_give_the_ideal_states(t, delta, derived):
    # at kappa = gamma = 0 the grids are those of (S(zeta)|0> +- S(-zeta)|0>)/N:
    # psi+- themselves at Delta = 0, the ideal targets at any Delta
    grids = superposition_grids(blocks_at(superposition_blocks(NODISS, [t], delta)),
                                SUPERPOSITION_AXIS, SUPERPOSITION_AXIS)
    targets, = ideal_superposition_targets(NODISS, [t], 420, delta)
    for outcome, sign in (("g", +1), ("e", -1)):
        p, ket = targets[outcome]
        if delta == 0.0:
            ket = superposition_pm(-1.0j * derived.g_cs * t, sign, 420)
        assert grids[outcome][0] == pytest.approx(p, abs=1e-12)
        oracle = wigner(ket, SUPERPOSITION_AXIS, SUPERPOSITION_AXIS)
        assert_allclose(grids[outcome][1].values, oracle.values, rtol=0, atol=1e-12)


def test_superposition_blocks_refuse_negative_times():
    with pytest.raises(DimensionError):
        superposition_blocks(NODISS, [1.0, -1.0])
    # t = 0: the outcome e has no weight and no grid; g is the vacuum
    grids = superposition_grids(blocks_at(superposition_blocks(NODISS, [0.0])),
                                SUPERPOSITION_AXIS, SUPERPOSITION_AXIS)
    assert list(grids) == ["g"] and grids["g"][0] == 1.0
    with pytest.raises(NumericalError, match="outcome e"):
        require_outcome(grids, "e")


def overlap_determinants(params, times, delta):
    """det(C_X + C_Y) of the 16 Gaussian overlaps of superposition_fidelities
    over times: X one of the four sb_x blocks, Y one of the four target dyads."""
    blocks = superposition_blocks(params, times, delta)
    tr, a, b, n = blocks["+-"]
    xs = [blocks["++"], blocks["--"], blocks["+-"], (tr.conj(), b.conj(), a.conj(), n.conj())]
    zeta = _squeeze_parameters(sector_covariance_squeezing(replace(params, kappa=0.0),
                                                           times, delta))
    dets = []
    for x in xs:
        for ket_sign in (1, -1):
            for bra_sign in (1, -1):
                y = squeezed_vacuum_dyad(zeta, ket_sign, bra_sign)
                cxx, cyy, cxy = (u + v for u, v in zip(_wigner_covariance(*x[1:]),
                                                        _wigner_covariance(*y[1:])))
                dets.append(cxx * cyy - cxy * cxy)
    return np.array(dets)


@given(frac=st.floats(0.0, 1.0), kappa=st.floats(0.0, 0.6),
       temperature=st.floats(5.0, 40.0), delta=st.sampled_from([0.0, DELTA_OP, -DELTA_OP]))
@settings(max_examples=6)
def test_superposition_fidelity_matches_the_master_equation(frac, kappa, temperature, delta):
    # the closed-form p and F against the joint run and the ket targets at a
    # fock where both have converged (converged_fock: 234 levels at Delta = 0,
    # 29 ns).  The near-empty top levels need an absolute tolerance far below
    # the bound: at rtol 1e-10, atol 1e-13 the run landed 1.4e-9 off at
    # t = 20.4 ns, kappa = 0, Delta = 0 (fock 114); at rtol 1e-12, atol 1e-15
    # it lands 4.2e-15 off there.  Worst over t = 19.8..29 ns at Delta = 0
    # and 40 ns at +-DELTA_OP: 1.1e-11
    t = 1.0 + frac * ((29.0 if delta == 0.0 else 40.0) - 1.0)
    params = PhysicalParams(kappa=kappa, temperature=temperature)
    nf = converged_fock(params, t, delta)
    run = conditional_superposition_run(params, [t], fock_dim=nf, delta_eff=delta,
                                        solver=SolverConfig(rel_tol=1e-12, abs_tol=1e-15))
    targets, = ideal_superposition_targets(params, [t], nf, delta)
    (row,) = superposition_fidelity_series(params, [t], delta)
    for i, outcome in enumerate(("g", "e")):
        ket = targets[outcome][1]
        rho = run.metadata[f"states_{outcome}"][0].matrix
        assert row[1 + i] == pytest.approx(run.observables[f"p_{outcome}"][0], abs=1e-9)
        assert row[3 + i] == pytest.approx(
            math.sqrt(np.vdot(ket, rho @ ket).real), abs=1e-9)
    # the principal root is the continuous one: on the way to t every
    # det(C_X + C_Y) stays in the right half-plane, off the negative axis
    dets = overlap_determinants(params, np.linspace(0.0, t, 33), delta)
    assert np.all(dets.real > 0.0)


def test_superposition_fidelity_in_the_ideal_limit(derived):
    # kappa = gamma = 0, Delta = 0, 40 ns: r = 1.88, where ket targets need
    # 420 levels; the closed form reaches the targets themselves
    t = 40.0
    r = abs(derived.g_cs) * t
    (row,) = superposition_fidelity_series(NODISS, [t], 0.0)
    overlap = math.cosh(2.0 * r) ** -0.5
    assert row[1] == pytest.approx(0.5 * (1.0 + overlap), abs=1e-12)
    assert row[2] == pytest.approx(0.5 * (1.0 - overlap), abs=1e-12)
    assert row[3] == pytest.approx(1.0, abs=1e-12)
    assert row[4] == pytest.approx(1.0, abs=1e-12)


def test_superposition_fidelity_refuses_an_empty_outcome():
    # t = 0: the run is still |0>|g>, so the outcome e has no weight
    with pytest.raises(NumericalError, match="outcome e"):
        superposition_fidelity_series(PhysicalParams(), [0.0, 5.0], DELTA_OP)


def test_default_sample_times():
    times = default_sample_times()
    assert times[0] == 0.0
    assert times[-1] == 150.0
    assert len(times) == 301
    assert_allclose(np.diff(times), 0.5, atol=1e-12)
    short = default_sample_times(10.0, 1.0)
    assert_allclose(short, np.arange(0.0, 11.0, 1.0), atol=1e-12)
