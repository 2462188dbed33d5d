"""Lindblad time evolution, qubit postselection, and the conditional
squeezing / superposition protocols.

Master-equation convention: for channels (o_k, w_k),

    drho/dt = -i[H, rho] + sum_k w_k (2 o_k rho o_k^dag
                                      - o_k^dag o_k rho - rho o_k^dag o_k)

i.e. the stored weight w multiplies the "2 o rho o^dag - {o^dag o, rho}"
form directly.  A bare loss channel (m, kappa/2) then gives <n> ~ e^{-kappa t}.

The effective model, H_cs = h(t) (x) sb_x with the thermal magnon pair and
w L[sb_x], leaves the sb_x blocks <s|rho|r> of the joint state uncoupled;
w L[sb_x] only damps the s != r block, at 4w.  The conditional runs
dispatch on that structure:

* sb_x eigenstate qubit, no dissipation -> exact sector propagator
  (closed form; the time-dependent two-photon Hamiltonian factors as
  H(t) = V H(0) V^dag with V = e^{+i Delta n t}, so
  U(t) = e^{+i Delta n t} e^{-i(H(0) + Delta n) t});
* any other effective run -> one master equation on the N x N magnon
  blocks the start fills (one for an sb_x eigenstate, else three),
  assembled into the 2N joint state at sample times;
* full models -> one master equation on the 2N joint space.

Every master equation runs on one sparse Liouvillian, assembled once per
run from a SplitHamiltonian: a static part plus terms e^{i w t} H_k + h.c.
"""

import math
import time as _time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.integrate import DOP853, solve_ivp

from .errors import DimensionError, NumericalError, StiffnessError
from .model import (
    build_H_cs,  # not called here; benchmark/spans.py traces dynamics.build_H_cs
    build_H_rot,
    build_H_tot,
    derive,
    dressed_rotation,
    frame_transform,
)
from .qops import (
    IDENTITY_2,
    KET_E,
    KET_G,
    KET_MINUS_X,
    KET_PLUS_X,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    StateDensity,
    annihilation,
    herm_eig,
    kron,
)
from .observables import min_quadrature_variance, squeezing_db
from .states import joint_initial_state


@dataclass
class LindbladSpec:
    """Collapse channels as (operator, weight) pairs; see module docstring."""

    channels: list

    def active(self):
        return [(o, w) for o, w in self.channels if w > 0.0]


@dataclass
class SolverConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = None
    sample_times: np.ndarray = None


@dataclass
class TrajectoryResult:
    times: np.ndarray
    observables: dict
    states: list = None
    frame: str = None
    metadata: dict = field(default_factory=dict)


def build_dissipators_full(params, fock_dim, qubit_basis="dressed"):
    """Thermal magnon pair + qubit relaxation pair + pure dephasing (5 channels)
    on the joint space, for the lab/rotating full model.

    Qubit operators default to the dressed (energy-eigenbasis) ladder
    operators, where relaxation physically acts; qubit_basis
    "persistent_current" instead uses the current-basis ladder operators
    (expressed in the dressed representation) for comparison.
    """
    d = derive(params)
    n = int(fock_dim)
    eye_m = np.eye(n, dtype=complex)
    if qubit_basis == "dressed":
        s_minus, s_plus, s_z = SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z
    elif qubit_basis == "persistent_current":
        # same channel shapes, but acting in the current basis: rewrite the
        # current-basis ladder/dephasing operators in the dressed rep
        r = dressed_rotation(params.theta)
        s_minus = r.conj().T @ SIGMA_MINUS @ r
        s_plus = s_minus.conj().T
        s_z = r.conj().T @ SIGMA_Z @ r
    else:
        raise DimensionError(f"unknown qubit_basis {qubit_basis!r}")
    return LindbladSpec(
        channels=_magnon_channels_on_joint(params, n) + [
            (kron(eye_m, s_minus), d.gamma * (d.n_bar_q + 1.0) / 2.0),
            (kron(eye_m, s_plus), d.gamma * d.n_bar_q / 2.0),
            (kron(eye_m, s_z), d.gamma_phi / 4.0),
        ]
    )


def _sx_weight(d):
    """Weight w of the effective model's drive-frame qubit channel w L[sb_x]."""
    return d.gamma * (2.0 * d.n_bar_q + 1.0) / 8.0


def _magnon_channels_on_joint(params, fock_dim):
    return [(kron(o, IDENTITY_2), w)
            for o, w in magnon_thermal_dissipators(params, fock_dim).channels]


def magnon_thermal_dissipators(params, fock_dim):
    """Magnon-only thermal pair: the magnon channels of every model, and all
    of the effective model's channels on its sb_x blocks."""
    d = derive(params)
    m = annihilation(fock_dim)
    return LindbladSpec(
        channels=[
            (m, d.kappa * (d.n_bar_m + 1.0) / 2.0),
            (m.conj().T, d.kappa * d.n_bar_m / 2.0),
        ]
    )


# ---------------------------------------------------------------------------
# master-equation integrator


@dataclass
class SplitHamiltonian:
    """H(t) = static + sum_k [e^{i w_k t} H_k + e^{-i w_k t} H_k^dag].

    static is a matrix or None; terms holds (H_k, w_k) pairs, w_k in rad/ns.
    This is how evolve_master takes a time-dependent Hamiltonian: each term
    becomes two fixed superoperators scaled by e^{+i w_k t} and e^{-i w_k t}.
    """

    static: np.ndarray = None
    terms: tuple = ()


def _superop(left, right, n):
    """X -> left X + X right on the row-major vec of an n x n block."""
    eye = sp.identity(n, dtype=complex, format="csr")
    return sp.kron(left, eye, format="csr") + sp.kron(eye, right.T, format="csr")


def _lindblad_rhs(h, channels, sectors=((1, 1),), pair_rate=0.0):
    """Return (f(t, y), dim, nnz) for the vectorized master equation.

    y stacks one dim x dim block X per (s, r) in sectors, evolving as

        dX/dt = A_s X + X A_r^dag + sum_k 2 w_k o_k X o_k^dag - [s != r] pair_rate X

    with A_s = -i s H(t) - sum_k w_k o_k^dag o_k: the <s|.|r> sb_x block of
    a joint state under H (x) sb_x.  The single (+1, +1) block is the plain
    master equation for H.

    h is a matrix, None or a SplitHamiltonian.  The generator is one CSR
    Liouvillian, block-diagonal over sectors and assembled once.  The static
    part and the channels make L0; each oscillating term H_k adds the
    operators of X -> -i s H_k X + i r X H_k and of the same with H_k^dag.
    They sit side by side, [L0, L_1, L_1', ...], so a call is one product
    with the stacked copies [y, e^{i w_1 t} y, e^{-i w_1 t} y, ...].
    """
    if isinstance(h, SplitHamiltonian):
        static, terms = h.static, list(h.terms)
    elif callable(h):
        raise DimensionError(
            "a time-dependent Hamiltonian must be a SplitHamiltonian, not a callable")
    else:
        static, terms = h, []
    mats = [np.asarray(x) for x in [static] + [hk for hk, _ in terms]
            + [o for o, _ in channels] if x is not None]
    if not mats:
        raise DimensionError("need a Hamiltonian or at least one channel")
    dim = mats[0].shape[0]
    if any(x.shape != (dim, dim) for x in mats):
        raise DimensionError(
            f"Hamiltonian terms and channels must all be {dim} x {dim}: "
            f"got shapes {sorted({x.shape for x in mats})}")

    h0 = sp.csr_matrix((dim, dim) if static is None else static, dtype=complex)
    oscillating = []
    for hk, w in terms:
        hk = sp.csr_matrix(hk, dtype=complex)
        if w == 0.0:  # a term with w = 0 is static
            h0 = h0 + hk + hk.conj().T
        else:
            oscillating.append((hk, float(w)))

    sink = sp.csr_matrix((dim, dim), dtype=complex)
    jumps = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for o, w in channels:
        o = sp.csr_matrix(o, dtype=complex)
        sink = sink + w * (o.conj().T @ o)
        jumps = jumps + 2.0 * w * sp.kron(o, o.conj(), format="csr")

    ops = [sp.block_diag(
        [_superop(-1.0j * s * h0 - sink, 1.0j * r * h0.conj().T - sink, dim) + jumps
         - (pair_rate if s != r else 0.0) * sp.identity(dim * dim, format="csr")
         for s, r in sectors], format="csr")]
    omegas = [0.0]
    for hk, w in oscillating:
        for x, sign in ((hk, 1.0), (hk.conj().T, -1.0)):
            ops.append(sp.block_diag(
                [_superop(-1.0j * s * x, 1.0j * r * x, dim) for s, r in sectors],
                format="csr"))
            omegas.append(sign * w)
    gen = sp.hstack(ops, format="csr")
    omegas = np.array(omegas)

    def rhs(t, y):
        return gen @ np.multiply.outer(np.exp(1.0j * omegas * t), y).ravel()

    return rhs, dim, gen.nnz


_SX_KETS = {+1: KET_PLUS_X, -1: KET_MINUS_X}


# Scale of each stored <s|rho|r> block.  An s != r block also stands for its
# adjoint; storing it times sqrt(2) makes the stack's Euclidean norm the joint
# state's Hilbert-Schmidt norm, so the solver's error control weighs the
# coherences as a dense joint run does.
_BLOCK_WEIGHT = {(1, 1): 1.0, (-1, -1): 1.0, (1, -1): math.sqrt(2.0)}


def _joint_from_blocks(blocks, sectors):
    """Stored sb_x blocks -> joint matrix, kron(magnon, qubit) order in the
    dressed {g, e} basis; an s != r block also supplies its adjoint."""
    joint = 0.0
    for x, (s, r) in zip(blocks, sectors):
        term = kron(x / _BLOCK_WEIGHT[s, r], np.outer(_SX_KETS[s], _SX_KETS[r].conj()))
        joint = joint + (term if s == r else term + term.conj().T)
    return joint


def _dop853(rhs, y0, t_grid, cfg):
    """Adaptive DOP853 sampled on t_grid through its dense output, step for
    step what solve_ivp(..., t_eval=t_grid) does.  Returns (samples, nfev)."""
    ode = DOP853(rhs, t_grid[0], y0, t_grid[-1], rtol=cfg.rel_tol, atol=cfg.abs_tol,
                 max_step=cfg.max_step if cfg.max_step else np.inf)
    ys, done = [], 0
    try:
        while done < len(t_grid):
            message = ode.step()
            if ode.status == "failed":
                raise StiffnessError(
                    f"integrator failed: {message} (reached t = {ode.t:.3f} ns)")
            upto = int(np.searchsorted(t_grid, ode.t, side="right"))
            if upto > done:
                ys.extend(ode.dense_output()(t_grid[done:upto]).T)
                done = upto
        return ys, ode.nfev
    finally:
        # the solver's closures refer to the solver itself; clearing it frees
        # its work arrays and rhs now instead of at the next full collection
        vars(ode).clear()


def evolve_master(h, dissipators, rho0, solver=None, sample_hook=None,
                  store_states=False, sectors=((1, 1),), pair_rate=0.0):
    """Integrate the master equation and monitor state sanity at samples.

    h           static matrix, SplitHamiltonian, or None
    dissipators LindbladSpec (may be empty)
    rho0        StateDensity (frame tag propagated to outputs); its matrix
                stacks one block per entry of sectors
    solver      SolverConfig; sample_times required
    sample_hook optional callable (t, rho_matrix) -> dict of scalars,
                merged into the observables series
    sectors     (s, r) sb_x signs of the blocks (see _lindblad_rhs); several
                blocks are a joint state under h (x) sb_x, which the monitor,
                hook and stored states see assembled as the 2N joint matrix.
    pair_rate   decay of the blocks with s != r (4w for w L[sb_x])

    Trace drift beyond 1e-8 warns; eigenvalues below -1e-6 abort.
    """
    solver = solver or SolverConfig()
    if solver.sample_times is None:
        raise DimensionError("SolverConfig.sample_times is required")
    t_grid = np.asarray(solver.sample_times, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise DimensionError("sample_times must be strictly increasing")

    channels = dissipators.active() if dissipators is not None else []
    setup0 = _time.perf_counter()
    rhs, dim, nnz = _lindblad_rhs(h, channels, sectors, pair_rate)
    setup_s = _time.perf_counter() - setup0
    shape = rho0.matrix.shape
    if shape[-2:] != (dim, dim) or rho0.matrix.size != len(sectors) * dim * dim:
        raise DimensionError(
            f"rho0 shape {shape} != {len(sectors)} block(s) of generator dimension {dim}"
        )

    y0 = rho0.matrix.astype(complex).ravel()
    wall0 = _time.perf_counter()
    if float(t_grid[0]) != 0.0:
        t_grid = np.concatenate([[0.0], t_grid])
        prepend = True
    else:
        prepend = False

    if len(t_grid) == 1:
        ys = [y0]
        n_evals = 0
    else:
        ys, n_evals = _dop853(rhs, y0, t_grid, solver)

    if prepend:
        ys = ys[1:]
        t_grid = t_grid[1:]

    series = {}
    states = [] if store_states else None
    max_trace_drift = 0.0
    min_eig = np.inf
    for t, y in zip(t_grid, ys):
        blocks = y.reshape(len(sectors), dim, dim)
        rho = blocks[0] if len(sectors) == 1 else _joint_from_blocks(blocks, sectors)
        rho = 0.5 * (rho + rho.conj().T)
        drift = abs(np.trace(rho).real - 1.0)
        max_trace_drift = max(max_trace_drift, drift)
        evals_min = float(np.linalg.eigvalsh(rho).min())
        min_eig = min(min_eig, evals_min)
        if evals_min < -1e-6:
            raise NumericalError(
                f"positivity violated at t = {t:.3f} ns (eigenvalue {evals_min:.3e}); "
                "tighten tolerances or raise fock_dim"
            )
        if sample_hook is not None:
            for key, val in sample_hook(t, rho).items():
                series.setdefault(key, []).append(val)
        if store_states:
            states.append(StateDensity(rho.copy(), frame=rho0.frame, time=float(t)))
    if max_trace_drift > 1e-8:
        warnings.warn(
            f"trace drift {max_trace_drift:.2e} exceeds 1e-8; tighten tolerances",
            stacklevel=2,
        )
    observables = {k: np.asarray(v) for k, v in series.items()}
    return TrajectoryResult(
        times=t_grid.copy(),
        observables=observables,
        states=states,
        frame=rho0.frame,
        metadata={
            "max_trace_drift": max_trace_drift,
            "min_eigenvalue": float(min_eig),
            "n_rhs_evals": n_evals,
            "wall_time_s": _time.perf_counter() - wall0,
            "setup_s": setup_s,
            "generator_nnz": nnz,
            "method": "adaptive_rk",
        },
    )


# ---------------------------------------------------------------------------
# measurement


_OUTCOME_KETS = {
    "plus_x": KET_PLUS_X,
    "minus_x": KET_MINUS_X,
    "g": KET_G,
    "e": KET_E,
}


def postselect_qubit(rho_joint, outcome):
    """Project the qubit onto an outcome and return (probability, magnon state).

    rho_joint may be a StateDensity or a raw joint matrix.  Probabilities
    at or below 1e-12 raise (postselected state undefined).
    """
    if outcome not in _OUTCOME_KETS:
        raise DimensionError(f"unknown outcome {outcome!r}")
    ket = _OUTCOME_KETS[outcome]
    if isinstance(rho_joint, StateDensity):
        mat, frame, t = rho_joint.matrix, rho_joint.frame, rho_joint.time
    else:
        mat, frame, t = np.asarray(rho_joint), "lab", 0.0
    d = mat.shape[0]
    if d % 2:
        raise DimensionError("joint dimension must be even")
    n = d // 2
    rho4 = mat.reshape(n, 2, n, 2)
    block = np.einsum("a,iajb,b->ij", ket.conj(), rho4, ket)
    p = float(np.trace(block).real)
    if p <= 1e-12:
        raise NumericalError(f"outcome {outcome} has probability {p:.3e}")
    out = StateDensity(block / p, frame=frame, time=t)
    out.meta["outcome"] = outcome
    out.meta["probability"] = p
    return p, out


# ---------------------------------------------------------------------------
# conditional squeezing protocol


def _sector_hamiltonian(params, fock_dim, delta_eff, sector=+1):
    """Two-photon Hamiltonian of the sb_x = sector block,

        h(t) = c [e^{-2i Delta t} m^2 + e^{+2i Delta t} m^dag^2],  c = -(g_cs/2) sector.

    Returns (h(0), h as a SplitHamiltonian, Delta).
    """
    d = derive(params)
    delta = d.Delta_eff if delta_eff is None else float(delta_eff)
    m = annihilation(fock_dim)
    c = -(d.g_cs / 2.0) * float(sector)
    term = c * (m @ m)
    h0 = term + term.conj().T
    return h0, SplitHamiltonian(terms=((term, -2.0 * delta),)), delta


def _sector_exact_states(params, fock_dim, sector, delta_eff, times):
    """Closed-form pure evolution of |0> under the sector Hamiltonian.

    Uses H(t) = V H(0) V^dag with V = e^{+i Delta n t}:
    psi(t) = e^{+i Delta n t} e^{-i (H(0) + Delta n) t} |0>.
    """
    h0, _, delta = _sector_hamiltonian(params, fock_dim, delta_eff, sector)
    n_diag = np.arange(fock_dim, dtype=float)
    gen = h0 + delta * np.diag(n_diag)
    evals, vecs = herm_eig(gen)
    psi0 = np.zeros(fock_dim, dtype=complex)
    psi0[0] = 1.0
    coeffs = vecs.conj().T @ psi0
    out = []
    for t in times:
        psi = vecs @ (np.exp(-1.0j * evals * t) * coeffs)
        psi = np.exp(1.0j * delta * n_diag * t) * psi
        out.append(psi)
    return out


def _effective_model(params, qubit_init, fock_dim, delta_eff):
    """Effective model on the sb_x blocks that |0>(x)|qubit_init> fills: one
    (s, s) block for an sb_x eigenstate, else (+,+), (-,-) and (+,-), whose
    adjoint is not stored.  Returns (h, dissipators, rho0, evolve_master
    keywords).  The stack is renormalized to unit trace, which removes the
    rounding of the basis change: a pinned start is exactly |0><0|.
    """
    _, h, _ = _sector_hamiltonian(params, fock_dim, delta_eff)
    rho4 = joint_initial_state(qubit=qubit_init, fock_dim=fock_dim).matrix.reshape(
        fock_dim, 2, fock_dim, 2)
    split = {
        (s, r): np.einsum("a,iajb,b->ij", _SX_KETS[s].conj(), rho4, _SX_KETS[r])
        for s, r in ((1, 1), (-1, -1), (1, -1))
    }
    sectors = tuple(sr for sr, x in split.items() if np.any(x))
    norm = sum(np.trace(split[sr]).real for sr in sectors if sr[0] == sr[1])
    blocks = np.array([split[sr] * _BLOCK_WEIGHT[sr] for sr in sectors]) / norm
    blockwise = {"sectors": sectors, "pair_rate": 4.0 * _sx_weight(derive(params))}
    return (h, magnon_thermal_dissipators(params, fock_dim),
            StateDensity(blocks, frame="drive_interaction"), blockwise)


def _magnon_metrics(rho_m):
    qv = min_quadrature_variance(rho_m)
    return {
        "zeta_sq": qv.value,
        "squeezing_db": squeezing_db(qv.value),
        "theta_star": qv.angle,
        "n_magnon": qv.n_mean,
    }


_METRIC_KEYS = ("p_plus", "zeta_sq", "squeezing_db", "theta_star", "n_magnon")


def _pinned_metrics(sign):
    """Sample hook of a pinned sb_x = sign sector: its own magnon state's
    metrics, with p_plus the probability of sb_x = +1 (1 or 0)."""
    p_plus = 1.0 if sign > 0 else 0.0

    def hook(t, rho_m):
        out = _magnon_metrics(rho_m)
        out["p_plus"] = p_plus
        return out

    return hook


def _plus_x_metrics(params, frame_tag, transform_chain):
    """Sample hook: joint state -> drive_interaction frame -> sb_x = +1
    postselection -> p_plus and the magnon metrics."""

    def hook(t, rho_joint):
        state = StateDensity(rho_joint, frame=frame_tag, time=float(t))
        for target in transform_chain:
            state = frame_transform(state, target, params)
        p, rho_m = postselect_qubit(state, "plus_x")
        out = _magnon_metrics(rho_m.matrix)
        out["p_plus"] = p
        return out

    return hook


def default_sample_times(t_max=150.0, dt=0.5):
    return np.round(np.arange(0.0, t_max + dt / 2.0, dt), 9)


def conditional_squeezing_run(
    params,
    qubit_init="plus_x",
    model="effective",
    fock_dim=80,
    sample_times=None,
    delta_eff=None,
    solver=None,
    store_states=False,
    qubit_basis="dressed",
):
    """Run the conditional-squeezing protocol and record per-sample
    post-selected metrics (p_plus, zeta_sq, squeezing_db, n_magnon, theta_star).

    model: "effective" (two-photon Hamiltonian + effective dissipators, in
    the drive_interaction frame), "full_lab" (lab-frame drive, dressed
    representation), or "full_rotating" (exact half-pump-frame transform);
    "full" is an alias for "full_lab".  Full-model samples are transformed
    to the drive_interaction frame before the sb_x = +1 postselection.
    """
    if sample_times is None:
        sample_times = default_sample_times()
    sample_times = np.asarray(sample_times, dtype=float)
    if model == "full":
        model = "full_lab"

    d = derive(params, delta_eff_override=delta_eff)
    meta = {
        "model": model,
        "qubit_init": qubit_init,
        "fock_dim": fock_dim,
        "delta_eff": d.Delta_eff,
    }

    if model == "effective":
        h, dissipators, rho0, blockwise = _effective_model(
            params, qubit_init, fock_dim, delta_eff
        )
        sectors = blockwise["sectors"]
        dissipative = bool(dissipators.active()) or blockwise["pair_rate"] > 0.0

        if len(sectors) == 1:
            sign = sectors[0][0]
            hook = _pinned_metrics(sign)
            if not dissipative:
                # exact closed-form sector propagation
                psis = _sector_exact_states(params, fock_dim, sign, delta_eff,
                                            sample_times)
                rhos = [np.outer(psi, psi.conj()) for psi in psis]
                samples = [hook(t, rho_m) for t, rho_m in zip(sample_times, rhos)]
                return TrajectoryResult(
                    times=sample_times.copy(),
                    observables={k: np.asarray([s[k] for s in samples])
                                 for k in _METRIC_KEYS},
                    states=[StateDensity(rho_m, frame="drive_interaction", time=float(t))
                            for t, rho_m in zip(sample_times, rhos)] if store_states else None,
                    frame="drive_interaction",
                    metadata=dict(meta, path="sector_exact"),
                )
            meta["path"] = "sector_master_equation"
        else:
            meta["path"] = "joint_master_equation"
            hook = _plus_x_metrics(params, "drive_interaction", [])
    elif model in ("full_lab", "full_rotating"):
        n = fock_dim
        m = annihilation(n)
        eye_m = np.eye(n, dtype=complex)
        if model == "full_lab":
            # build_H_tot at cos(omega_p t) = 0 is the static part
            h_static = build_H_tot(params, math.pi / (2.0 * d.omega_p), n)
            drive = -0.5 * d.Omega * kron(eye_m, SIGMA_X)
            h = SplitHamiltonian(h_static, ((drive, d.omega_p),))
            frame_tag = "lab"
            transform_chain = ["rotating_half_pump", "drive_interaction"]
        else:
            h0 = build_H_rot(params, 0.0, n, keep_counter_rotating=True)
            a13 = d.g_x * kron(m, SIGMA_PLUS) + d.g_z * kron(m.conj().T, SIGMA_Z)
            a2 = d.g_x * kron(m.conj().T, SIGMA_PLUS)
            acr = -0.5 * d.Omega * kron(eye_m, SIGMA_PLUS)
            static = h0 - (
                a13 + a13.conj().T + a2 + a2.conj().T + acr + acr.conj().T
            )
            wp = d.omega_p
            h = SplitHamiltonian(static, ((a13, 0.5 * wp), (a2, 1.5 * wp), (acr, 2.0 * wp)))
            frame_tag = "rotating_half_pump"
            transform_chain = ["drive_interaction"]
        rho0 = joint_initial_state(qubit=qubit_init, fock_dim=fock_dim)
        rho0.frame = frame_tag
        dissipators = build_dissipators_full(params, fock_dim, qubit_basis=qubit_basis)
        blockwise = {}
        meta["path"] = "joint_master_equation"
        hook = _plus_x_metrics(params, frame_tag, transform_chain)
    else:
        raise DimensionError(f"unknown model {model!r}")

    cfg = replace(solver or SolverConfig(), sample_times=sample_times)
    if model == "full_lab":
        # the 3 GHz drive needs explicit step limiting
        cfg.max_step = min(cfg.max_step, 0.01) if cfg.max_step else 0.01

    result = evolve_master(h, dissipators, rho0, solver=cfg, sample_hook=hook,
                           store_states=store_states, **blockwise)
    result.metadata.update(meta)
    return result


def sector_covariance_squeezing(params, times, delta_eff=None, sector=+1):
    """Exact second-moment evolution of the sector-reduced conditional run.

    The sector Hamiltonian is quadratic and the thermal channels are
    Gaussian, so (n, s) = (<m^dag m>, <m^2>) close on themselves:

        dn/dt = -4 c Im(s) - kappa (n - n_bar)
        ds/dt = -2i Delta s - 2i c (2n + 1) - kappa s

    (written in the frame where the two-photon term is static; n and |s|,
    hence zeta^2 = 1 + 2n - 2|s|, are frame-independent).  Starts from
    vacuum.  Returns dict with zeta_sq, squeezing_db, n_magnon arrays.
    No truncation enters here -- this is the infinite-dimensional result,
    used as a cross-check oracle and as a fast cell evaluator for sweeps.
    """
    times = np.asarray(times, dtype=float)
    d = derive(params, delta_eff_override=delta_eff)
    c = -(d.g_cs / 2.0) * float(sector)
    delta = d.Delta_eff
    kappa = d.kappa
    nbar = d.n_bar_m

    def rhs(t, y):
        n, sr, si = y
        s = sr + 1.0j * si
        dn = -4.0 * c * si - kappa * (n - nbar)
        ds = -2.0j * delta * s - 2.0j * c * (2.0 * n + 1.0) - kappa * s
        return [dn, ds.real, ds.imag]

    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        [0.0, 0.0, 0.0],
        method="DOP853",
        t_eval=times,
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise StiffnessError(f"covariance integration failed: {sol.message}")
    n = sol.y[0]
    s_abs = np.hypot(sol.y[1], sol.y[2])
    zeta_sq = 1.0 + 2.0 * n - 2.0 * s_abs
    if np.any(zeta_sq <= 0.0):
        raise NumericalError("covariance evolution left the physical region")
    return {
        "times": times,
        "zeta_sq": zeta_sq,
        "squeezing_db": -10.0 * np.log10(zeta_sq),
        "n_magnon": n,
        "s_abs": s_abs,
    }


# ---------------------------------------------------------------------------
# conditional superposition protocol (qubit measured in the energy basis)


def ideal_superposition_targets(params, t, fock_dim, delta_eff=None):
    """Zero-dissipation references for the superposition protocol.

    Starting from |0> (x) |g| = (|+x> + |-x>)/sqrt(2), the exact sector
    propagators give psi(t) = [chi_+ (x) |+x> + chi_- (x) |-x>]/sqrt(2);
    measuring the qubit in {g, e} leaves (chi_+ +- chi_-)/norm.
    Returns dict {"g": (prob, ket), "e": (prob, ket)}.
    """
    chi_p = _sector_exact_states(params, fock_dim, +1, delta_eff, [t])[0]
    chi_m = _sector_exact_states(params, fock_dim, -1, delta_eff, [t])[0]
    out = {}
    for outcome, sign in (("g", +1.0), ("e", -1.0)):
        raw = 0.5 * (chi_p + sign * chi_m)
        p = float(np.vdot(raw, raw).real)
        if p <= 1e-12:
            raise NumericalError(f"ideal outcome {outcome} has zero weight")
        out[outcome] = (p, raw / math.sqrt(p))
    return out


def conditional_superposition_run(
    params,
    sample_times,
    fock_dim=80,
    delta_eff=None,
    solver=None,
):
    """Dissipative superposition protocol: |0>(x)|g> under the effective
    model, qubit measured in {g, e} at each sample.

    Returns a TrajectoryResult with series p_g/p_e and per-sample
    post-selected magnon states in states_g / states_e metadata lists.
    An outcome with (numerically) zero weight -- e at t = 0, where the
    joint state is exactly |0>(x)|g> -- has no conditional state; its
    probability is recorded as 0.0 and None is appended to the state list.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    d = derive(params, delta_eff_override=delta_eff)
    h, dissipators, rho0, blockwise = _effective_model(
        params, "plus_plus_minus", fock_dim, delta_eff
    )
    states_g, states_e = [], []

    def hook(t, rho_joint):
        state = StateDensity(rho_joint, frame="drive_interaction", time=float(t))
        out = {}
        for outcome, bucket in (("g", states_g), ("e", states_e)):
            try:
                p, rho_m = postselect_qubit(state, outcome)
            except NumericalError:
                p, rho_m = 0.0, None
            bucket.append(rho_m)
            out[f"p_{outcome}"] = p
        return out

    result = evolve_master(
        h,
        dissipators,
        rho0,
        solver=replace(solver or SolverConfig(), sample_times=sample_times),
        sample_hook=hook,
        **blockwise,
    )
    result.metadata.update(
        model="effective",
        qubit_init="plus_plus_minus",
        fock_dim=fock_dim,
        delta_eff=d.Delta_eff,
        states_g=states_g,
        states_e=states_e,
    )
    return result
