"""Lindblad time evolution, qubit postselection, and the conditional
squeezing / superposition protocols.

Master-equation convention: for channels (o_k, w_k),

    drho/dt = -i[H, rho] + sum_k w_k (2 o_k rho o_k^dag
                                      - o_k^dag o_k rho - rho o_k^dag o_k)

i.e. the stored weight w multiplies the "2 o rho o^dag - {o^dag o, rho}"
form directly.  A bare loss channel (m, kappa/2) then gives <n> ~ e^{-kappa t}.

The effective model is H_cs = h(t) (x) sb_x with the thermal magnon pair
and w L[sb_x].  conditional_squeezing_run has two paths, and refuses any
other request:

* effective, from an sb_x eigenstate qubit (plus_x, minus_x) -> the
  magnon state of that sector alone: its <s|rho|s> block is closed under
  the generator, and the qubit channel only damps the s != r coherences,
  which such a start never fills.  The sector Hamiltonian is quadratic and
  the channels thermal, so at any kappa the state stays Gaussian, every
  metric comes from the exact, untruncated covariance
  (sector_covariance_squeezing), and fock_dim is held to the state's exact
  Fock tail;
* the full model (full_rotating) -> one master equation on the 2N joint
  space, in the rotating_half_pump frame.

The superposition run from |0> (x) |g> also has a closed form: each of its
sb_x blocks is a Gaussian operator, the diagonal ones from the sector
covariance and the (+,-) coherence from a matrix Riccati equation solved
exactly by Radon's lemma (superposition_blocks).  The superposition_wigner
grids and the fidelity series come from there; no scenario integrates the
effective model.  The master equations below serve the full model, and the
joint effective one (_effective_model, conditional_superposition_run)
serves as a test oracle.

Every master equation runs on one sparse Liouvillian, assembled once per
run from a SplitHamiltonian: a static part plus terms e^{i w t} H_k + h.c.
The static part and the start must be Hermitian.  Then rho stays Hermitian,
and the Liouvillian keeps only the rows of the entries on and above the
diagonal: each entry below it is the conjugate of its mirror, so one call
costs about half a full product.  DOP853 combines RHS values with real
coefficients, so the integrated rho stays exactly Hermitian.  The solver
integrates every entry of rho, in its row-major vec.
"""

import math
import time as _time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, NumericalError, StiffnessError, TruncationError
from .model import (
    PhysicalParams,
    SplitHamiltonian,
    build_H_cs,
    build_H_rot,
    derive,
    frame_transform,  # unused here; benchmark/spans.py traces dynamics.frame_transform
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
    density_from_vector,
    herm_eig,  # unused here; benchmark/spans.py traces dynamics.herm_eig
    kron,
)
from .observables import min_quadrature_variance, squeezing_db
from .states import (MIXED_TAIL_TOL, gaussian_fock_populations, joint_initial_state,
                     squeezed_vacuum_fock)


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
    sample_times: np.ndarray = None


@dataclass
class TrajectoryResult:
    times: np.ndarray
    observables: dict
    states: list = None
    frame: str = None
    metadata: dict = field(default_factory=dict)


def build_dissipators_full(params, fock_dim):
    """Thermal magnon pair + qubit relaxation pair + pure dephasing (5 channels)
    on the joint space, for the full model.  The qubit channels
    act in the dressed (energy) eigenbasis, where relaxation physically acts.
    """
    d = derive(params)
    n = int(fock_dim)
    eye_m = np.eye(n, dtype=complex)
    return LindbladSpec(
        channels=_magnon_channels_on_joint(params, n) + [
            (kron(eye_m, SIGMA_MINUS), d.gamma * (d.n_bar_q + 1.0) / 2.0),
            (kron(eye_m, SIGMA_PLUS), d.gamma * d.n_bar_q / 2.0),
            (kron(eye_m, SIGMA_Z), d.gamma_phi / 4.0),
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

HERMITIAN_TOL = 1e-12  # relative defect above which rho0 or a static H is refused


def _hermitian_defect(x):
    """max |x - x^dag| relative to max |x| (0 for a zero matrix); x dense or sparse."""
    scale = abs(x).max()
    return float(abs(x - x.conj().T).max() / scale) if scale else 0.0


def _superop(left, right, n):
    """X -> left X + X right on the row-major vec of an n x n block."""
    import scipy.sparse as sp

    eye = sp.identity(n, dtype=complex, format="csr")
    return sp.kron(left, eye, format="csr") + sp.kron(eye, right.T, format="csr")


def _operators(h, channels):
    """Sparse parts of a master equation: (dim, h0, oscillating, channels).

    h is a matrix, None or a SplitHamiltonian; its terms with w = 0 are
    folded into the static h0, the others are the (H_k, w) in oscillating.
    A static part that is not Hermitian to HERMITIAN_TOL of its largest
    entry raises DimensionError; h0 is its exact Hermitian part.
    """
    import scipy.sparse as sp

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
    defect = _hermitian_defect(h0)
    if defect > HERMITIAN_TOL:
        raise DimensionError(f"the static Hamiltonian is not Hermitian (relative defect "
                             f"{defect:.2e})")
    h0 = 0.5 * (h0 + h0.conj().T)
    oscillating = []
    for hk, w in terms:
        hk = sp.csr_matrix(hk, dtype=complex)
        if w == 0.0:  # a term with w = 0 is static
            h0 = h0 + hk + hk.conj().T
        else:
            oscillating.append((hk, float(w)))
    return dim, h0, oscillating, [(sp.csr_matrix(o, dtype=complex), w) for o, w in channels]


def _lindblad_rhs(h, channels):
    """Return (f(t, y), dim, nnz) for the master equation on the row-major
    vec y of the dim x dim rho (module docstring).

    h is a matrix, None or a SplitHamiltonian.  The generator is one CSR
    Liouvillian, assembled once.  The static part and the channels make L0;
    each oscillating term H_k adds the operators of rho -> -i[H_k, rho] and
    of the same with H_k^dag.  The blocks sit side by side, [L0, L_1, L_1',
    ...], so a call is one product with the stacked copies [y, e^{i w_1 t} y,
    e^{-i w_1 t} y, ...].

    The generator maps a Hermitian rho to a Hermitian drho/dt, so only the
    rows of the upper triangle (i <= j) are kept: the product gives those
    entries, the diagonal is made real, and each entry below the diagonal is
    the conjugate of its mirror.  f is therefore exact only on the vec of a
    Hermitian matrix.  nnz counts the entries of the kept rows.
    """
    import scipy.sparse as sp

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
        out[upper] = z  # after the mirrors: the diagonal keeps z itself
        return out

    return rhs, dim, gen.nnz


def _dop853(rhs, y0, t_grid, cfg):
    """Adaptive DOP853 sampled on t_grid through its dense output, step for
    step what solve_ivp(..., t_eval=t_grid) does.  Returns (samples, nfev)."""
    from scipy.integrate import DOP853

    ode = DOP853(rhs, t_grid[0], y0, t_grid[-1], rtol=cfg.rel_tol, atol=cfg.abs_tol)
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
                  store_states=False):
    """Integrate the master equation and monitor state sanity at samples.

    h           static matrix, SplitHamiltonian, or None
    dissipators LindbladSpec (may be empty)
    rho0        StateDensity (frame tag propagated to outputs)
    solver      SolverConfig; sample_times required
    sample_hook optional callable (t, rho_matrix) -> dict of scalars,
                merged into the observables series

    rho0 must be Hermitian to HERMITIAN_TOL of its largest entry
    (DimensionError otherwise); its exact Hermitian part is integrated, every
    entry of it, and every sample is exactly Hermitian (_lindblad_rhs).
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
    rhs, dim, nnz = _lindblad_rhs(h, channels)
    setup_s = _time.perf_counter() - setup0

    y0 = np.asarray(rho0.matrix, dtype=complex)
    if y0.shape != (dim, dim):
        raise DimensionError(f"rho0 shape {y0.shape} != generator dimension {dim}")
    defect = _hermitian_defect(y0)
    if defect > HERMITIAN_TOL:
        raise DimensionError(f"rho0 is not Hermitian (relative defect {defect:.2e})")
    y0 = (0.5 * (y0 + y0.conj().T)).ravel()  # the exact Hermitian part
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
        rho = y.reshape(dim, dim)
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
            states.append(StateDensity(rho, frame=rho0.frame, time=float(t)))
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


# sb_x sign of the qubit starts that pin the run to one sector
_PINNED = {"plus_x": +1, "minus_x": -1}


def _effective_model(params, qubit_init, fock_dim, delta_eff):
    """Effective model on the joint space from |0> (x) |qubit_init>, as (h,
    dissipators, rho0): H_cs with the thermal pair (x) 1 and w L[1 (x) sb_x],
    in the dressed {g, e} basis and the drive_interaction frame."""
    rho0 = joint_initial_state(qubit=qubit_init, fock_dim=fock_dim)
    rho0.frame = "drive_interaction"
    sx = (kron(np.eye(fock_dim), SIGMA_X), _sx_weight(derive(params)))
    return (build_H_cs(params, fock_dim, delta_eff),
            LindbladSpec(_magnon_channels_on_joint(params, fock_dim) + [sx]), rho0)


def _plus_x_metrics(t, rho_joint):
    """Sample hook: sb_x = +1 postselection of a joint state -> p_plus and
    the magnon metrics.  A full-model sample is postselected in its
    rotating_half_pump frame as it is: the drive_interaction frame differs
    by V = e^{+i (Omega/2) sb_x t}, which only phases the sb_x = +1 block."""
    p, rho_m = postselect_qubit(rho_joint, "plus_x")
    qv = min_quadrature_variance(rho_m.matrix)
    return {"p_plus": p, "zeta_sq": qv.value, "squeezing_db": squeezing_db(qv.value),
            "theta_star": qv.angle, "n_magnon": qv.n_mean}


def default_sample_times(t_max=150.0, dt=0.5):
    return np.round(np.arange(0.0, t_max + dt / 2.0, dt), 9)


def sector_fock_tail(cov, fock_dim):
    """(tail, t): the largest population that the states of one sector
    covariance run leave beyond fock_dim, and its first sample time."""
    tails = 1.0 - gaussian_fock_populations(cov["n_magnon"], cov["s_abs"],
                                            fock_dim).sum(axis=-1)
    worst = int(np.argmax(tails))
    return float(tails[worst]), float(cov["times"][worst])


def conditional_squeezing_run(
    params,
    qubit_init="plus_x",
    model="effective",
    fock_dim=80,
    sample_times=None,
    delta_eff=None,
    solver=None,
    store_states=False,
):
    """Run the conditional-squeezing protocol and record per-sample
    post-selected metrics (p_plus, zeta_sq, squeezing_db, n_magnon, theta_star).

    Two paths:

    * model="effective" from a pinned start (plus_x, minus_x) reads the
      exact sector covariance (path "sector_exact", drive_interaction
      frame) and raises TruncationError where its Fock tail beyond fock_dim
      passes MIXED_TAIL_TOL; metadata records the worst tail
      (max_fock_tail, max_fock_tail_time).  delta_eff=None takes the
      analytic 2.007 MHz, below the two-photon threshold, so the default
      run is refused.  Stored states are S(zeta)|0>, which needs kappa = 0.
    * model="full_rotating" integrates the full model in the exact
      half-pump frame (build_H_rot) under solver (path
      "joint_master_equation"); each sample is postselected on sb_x = +1
      in that frame (_plus_x_metrics).

    Any other model, an effective run from another start, and stored states
    of an effective run with kappa > 0 raise DimensionError; nothing is
    integrated first.
    """
    if model not in ("effective", "full_rotating"):
        raise DimensionError(f"unknown model {model!r}: use 'effective' or 'full_rotating'")
    sign = _PINNED.get(qubit_init)
    if model == "effective" and sign is None:
        raise DimensionError(f"an effective run starts from plus_x or minus_x, "
                             f"not {qubit_init!r}")
    if sample_times is None:
        sample_times = default_sample_times()
    sample_times = np.asarray(sample_times, dtype=float)

    d = derive(params, delta_eff_override=delta_eff)
    meta = {
        "model": model,
        "qubit_init": qubit_init,
        "fock_dim": fock_dim,
        "delta_eff": d.Delta_eff,
    }

    if model == "full_rotating":
        rho0 = joint_initial_state(qubit=qubit_init, fock_dim=fock_dim)
        rho0.frame = "rotating_half_pump"
        result = evolve_master(build_H_rot(params, fock_dim),
                               build_dissipators_full(params, fock_dim), rho0,
                               solver=replace(solver or SolverConfig(), sample_times=sample_times),
                               sample_hook=_plus_x_metrics, store_states=store_states)
        result.metadata.update(meta, path="joint_master_equation")
        return result

    cov = sector_covariance_squeezing(params, sample_times, delta_eff, sign)
    tail, t_tail = sector_fock_tail(cov, fock_dim)
    if tail > MIXED_TAIL_TOL:
        raise TruncationError(f"the sector state leaves {tail:.2e} of its population beyond "
                              f"fock_dim={fock_dim} at t = {t_tail:.3f} ns "
                              f"(tolerance {MIXED_TAIL_TOL:.0e})")
    if store_states and d.kappa > 0.0:
        raise DimensionError("an effective run stores the pure states S(zeta)|0> only: "
                             f"kappa = {params.kappa} MHz leaves them mixed")
    obs = {k: cov[k] for k in ("zeta_sq", "squeezing_db", "n_magnon")}
    obs["p_plus"] = np.full(len(sample_times), float(sign > 0))
    # min_quadrature_variance's angle, and its 0 for the vacuum
    s = cov["s"]
    obs["theta_star"] = np.where(s == 0.0, 0.0, np.angle(s) / 2.0 + math.pi / 2.0)
    states = None
    if store_states:
        states = [StateDensity(density_from_vector(squeezed_vacuum_fock(z, fock_dim)),
                               frame="drive_interaction", time=float(t))
                  for t, z in zip(sample_times, _squeeze_parameters(cov))]
    return TrajectoryResult(sample_times.copy(), obs, states, "drive_interaction",
                            dict(meta, path="sector_exact", max_fock_tail=tail,
                                 max_fock_tail_time=t_tail))


_TAYLOR_DEGREE = 18  # remainder below 1/19! ~ 8e-18 at a scaled norm of 1


def _expm_stack(a):
    """e^A for every matrix of a real stack a (..., k, k), in numpy alone.

    Scaling and squaring: each A is halved s times until its 1-norm is
    below 1, exponentiated by its Taylor series, and squared back s times;
    s is chosen per matrix.  scipy.linalg.expm would do the same job, but
    scipy ships its own OpenBLAS whose thread pool, once woken, competes
    with numpy's and slows the BLAS calls that follow.
    """
    a = np.asarray(a, dtype=float)
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))  # 1-norm < 2^s
    s = np.maximum(s, 0)
    x = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    e = eye + x / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = eye + (x @ e) / k
    for j in range(int(s.max(initial=0))):
        sq = s > j
        e[sq] = e[sq] @ e[sq]
    return e


def _moment_generator(d, sector):
    """5 x 5 generator of y = (n, Re s, Im s, det, 1) for
    sector_covariance_squeezing."""
    c = -(d.g_cs / 2.0) * float(sector)
    kappa, delta = d.kappa, d.Delta_eff
    source = 2.0 * kappa * (2.0 * d.n_bar_m + 1.0)
    return np.array([
        [-kappa, 0.0, -4.0 * c, 0.0, kappa * d.n_bar_m],
        [0.0, -kappa, 2.0 * delta, 0.0, 0.0],
        [-4.0 * c, -2.0 * delta, -kappa, 0.0, -2.0 * c],
        [2.0 * source, 0.0, 0.0, -2.0 * kappa, source],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])


def sector_covariance_squeezing(params, times, delta_eff=None, sector=+1):
    """Exact second-moment evolution of the sector-reduced conditional run.

    The sector Hamiltonian is quadratic and the thermal channels are
    Gaussian, so (n, s) = (<m^dag m>, <m^2>) close on themselves (Weedbrook
    et al., Rev. Mod. Phys. 84, 621 (2012)):

        dn/dt = -4 c Im(s) - kappa (n - n_bar)
        ds/dt = -2i Delta s - 2i c (2n + 1) - kappa s

    (written in the frame where the two-photon term is static; n and |s|,
    hence zeta^2 = 1 + 2n - 2|s|, are frame-independent).  The covariance
    determinant det = (1 + 2n)^2 - 4|s|^2 obeys
    d det/dt = -2 kappa det + 2 kappa (2 n_bar + 1)(1 + 2n), as the
    Hamiltonian part is traceless, so zeta^2 = det / (1 + 2n + 2|s|) comes
    without the cancellation of 1 + 2n - 2|s| when both terms are large.
    Starts from vacuum.  No truncation enters here -- this is the
    infinite-dimensional result.  The map s -> -s^* takes the Delta solution
    onto the -Delta one, so zeta_sq, squeezing_db, n_magnon and s_abs are
    even in Delta.  The returned s is <m^2> in the drive frame of build_H_cs
    and the master equation, e^{+2i Delta t} times the static-frame value,
    and is not even in Delta.

    The equations are linear with constant coefficients: with y = (n,
    Re s, Im s, det, 1), y' = G y, so each step t_{k-1} -> t_k (t_{-1} = 0) is
    y -> e^{G (t_k - t_{k-1})} y, one matrix exponential per distinct step.

    params and delta_eff may each be one value or a sequence; they are
    broadcast against each other into cells, all on the same times.
    Returns a dict with times and the zeta_sq, squeezing_db, n_magnon,
    s_abs and (complex) s arrays, with a leading cell axis when either
    input is a sequence.
    """
    times = np.asarray(times, dtype=float)
    one_p, one_d = isinstance(params, PhysicalParams), np.ndim(delta_eff) == 0
    cells_p = [params] if one_p else list(params)
    cells_d = [delta_eff] if one_d else list(delta_eff)
    n_cells = max(len(cells_p), len(cells_d))
    if {len(cells_p), len(cells_d)} - {1, n_cells}:
        raise DimensionError(
            f"{len(cells_p)} parameter sets and {len(cells_d)} detunings do not broadcast")
    cells = [derive(p, delta_eff_override=dl)
             for p, dl in zip(cells_p * (n_cells // len(cells_p)),
                              cells_d * (n_cells // len(cells_d)))]
    gen = np.array([_moment_generator(d, sector) for d in cells])
    steps, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    props = _expm_stack(steps[:, None, None, None] * gen)  # (step, cell, 5, 5)

    # elementwise products, so equal cells give bit-equal rows wherever
    # they sit in the stack
    y = np.zeros((n_cells, 4))  # (n, Re s, Im s, det); the 1 stays implicit
    y[:, 3] = 1.0  # the vacuum's det
    out = np.empty((4, n_cells, len(times)))
    for k, u in enumerate(which.ravel()):
        p = props[u, :, :4]
        y = (p[..., 0] * y[:, :1] + p[..., 1] * y[:, 1:2] + p[..., 2] * y[:, 2:3]
             + p[..., 3] * y[:, 3:] + p[..., 4])
        out[:, :, k] = y.T
    n = out[0]
    s_abs = np.hypot(out[1], out[2])
    zeta_sq = out[3] / (1.0 + 2.0 * n + 2.0 * s_abs)
    if not np.all(zeta_sq > 0.0):
        raise NumericalError("covariance evolution left the physical region")
    result = {
        "zeta_sq": zeta_sq,
        "squeezing_db": -10.0 * np.log10(zeta_sq),
        "n_magnon": n,
        "s_abs": s_abs,
        "s": (np.exp(2.0j * np.outer([d.Delta_eff for d in cells], times))
              * (out[1] + 1.0j * out[2])),
    }
    if one_p and one_d:
        result = {k: v[0] for k, v in result.items()}
    result["times"] = times
    return result


def _squeeze_parameters(cov):
    """zeta per time of the pure states S(zeta)|0> (up to a global phase) of
    a dissipation-free sector run, from its covariance: S(zeta)|0> has
    <n> = sinh^2 r and <m^2> = -e^{i arg zeta} sinh r cosh r."""
    return np.arcsinh(np.sqrt(cov["n_magnon"])) * np.exp(1.0j * np.angle(-cov["s"]))


def _coherence_generator(d):
    """Real 8 x 8 form of the Radon generator G = [[A, Q], [-B, -A]] of
    superposition_blocks, a complex 4 x 4 acting on [U; V]."""
    c = -d.g_cs / 2.0
    eye = np.eye(2)
    a = np.diag([1.0j * d.Delta_eff, -1.0j * d.Delta_eff]) - (d.kappa / 2.0) * eye
    q = -1.0j * c * eye + d.kappa * (d.n_bar_m + 0.5) * SIGMA_X.real
    g = np.block([[a, q], [4.0j * c * eye, -a]])
    return np.block([[g.real, -g.imag], [g.imag, g.real]])


def superposition_blocks(params, times, delta_eff=None):
    """The three sb_x blocks X_sr = <s x|rho|r x> of the superposition run
    (|0> (x) |g> under the effective model), exact and untruncated.

    Each block is a Gaussian operator, fixed by Tr X and the normalised
    moments a = <m^2>, b = <m^dag^2>, n = <m^dag m> (<A> = Tr(X A)/Tr X,
    drive frame).  The diagonal blocks are half the sector states:
    Tr = 1/2, a = s, b = s^*, n from sector_covariance_squeezing.  The
    coherence X = X_+- obeys

        X' = -i{h, X} + D_kappa[X] - 4 w X

    (the qubit channel w L[sb_x] damps it at 4w).  In the static frame,
    with C = -g_cs/2, Wick's theorem closes the moments into the matrix
    Riccati equation M' = A M + M A + M B M + Q for M = [[b, n + 1/2],
    [n + 1/2, a]], M(0) = sigma_x/2, with A = i Delta sigma_z - kappa/2,
    B = -4iC and Q = -iC + kappa (n_bar + 1/2) sigma_x.  Radon's lemma
    makes it linear: [U; V] = e^{G t} [sigma_x/2; 1] with G = [[A, Q],
    [-B, -A]], M = U V^-1.  Since (ln Tr X)' = -2iC (a + b) - 4w =
    Tr(B M)/2 - 4w and (ln det V)' = kappa - Tr(B M),

        Tr X = 1/2 e^{(kappa/2 - 4w) t} / sqrt(det V).

    a and b are rotated to the drive frame by e^{+-2i Delta t}.  The root
    is the principal one: R = i^{m^dag m} takes h to -h, so X_-+ = X_+-^dag
    = R X_+- R^dag and Tr X is real; it starts at 1/2 and cannot reach 0
    at finite det V, so det V stays real positive.

    Returns {"++": blk, "--": blk, "+-": blk}, each blk a tuple (trace, a,
    b, n) of arrays over times.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise DimensionError("superposition block times must be >= 0")
    d = derive(params, delta_eff_override=delta_eff)
    blocks = {}
    for key, sector in (("++", +1), ("--", -1)):
        cov = sector_covariance_squeezing(params, times, delta_eff, sector)
        blocks[key] = (np.full(len(times), 0.5), cov["s"], cov["s"].conj(), cov["n_magnon"])
    prop = _expm_stack(times[:, None, None] * _coherence_generator(d))
    # e^{Gt} [sigma_x/2; 1]: its complex 4 x 2 from the real 8 x 8 embedding
    uv = (prop[:, :4, :4] + 1.0j * prop[:, 4:, :4]) @ np.vstack([SIGMA_X / 2.0, np.eye(2)])
    u, v = uv[:, :2], uv[:, 2:]
    m = u @ np.linalg.inv(v)
    w = _sx_weight(d)
    phase = np.exp(2.0j * d.Delta_eff * times)
    blocks["+-"] = (0.5 * np.exp((d.kappa / 2.0 - 4.0 * w) * times) / np.sqrt(np.linalg.det(v)),
                    m[:, 1, 1] * phase, m[:, 0, 0] / phase, m[:, 0, 1] - 0.5)
    return blocks


# ---------------------------------------------------------------------------
# conditional superposition protocol (qubit measured in the energy basis)


def ideal_superposition_targets(params, times, fock_dim, delta_eff=None):
    """Zero-dissipation references for the superposition protocol.

    Starting from |0> (x) |g> = (|+x> + |-x>)/sqrt(2), the dissipation-free
    sectors give psi(t) = [chi_+ (x) |+x> + chi_- (x) |-x>]/sqrt(2) with
    chi_+- = S(+-zeta)|0> up to one global phase they share, zeta from the
    kappa = 0 covariance of the +1 sector; measuring the qubit in {g, e}
    leaves (chi_+ +- chi_-)/norm.  Returns one dict
    {"g": (prob, ket), "e": (prob, ket)} per time.  Raises TruncationError
    where fock_dim cannot hold chi_+-.
    """
    cov = sector_covariance_squeezing(replace(params, kappa=0.0), times, delta_eff)
    out = []
    for zeta in _squeeze_parameters(cov):
        psi_p = squeezed_vacuum_fock(zeta, fock_dim)
        psi_m = squeezed_vacuum_fock(-zeta, fock_dim)
        targets = {}
        for outcome, sign in (("g", +1.0), ("e", -1.0)):
            raw = 0.5 * (psi_p + sign * psi_m)
            p = float(np.vdot(raw, raw).real)
            if p <= 1e-12:
                raise NumericalError(f"ideal outcome {outcome} has zero weight")
            targets[outcome] = (p, raw / math.sqrt(p))
        out.append(targets)
    return out


def conditional_superposition_run(
    params,
    sample_times,
    fock_dim=80,
    delta_eff=None,
    solver=None,
):
    """Dissipative superposition protocol: |0>(x)|g> under the effective
    model, qubit measured in {g, e} at each sample.  The master equation
    integrates all 4 N^2 entries of the joint state.  No scenario calls it
    (superposition_blocks gives its blocks in closed form); it stays as the
    tests' oracle, and benchmark/spans.py traces it.

    Returns a TrajectoryResult with series p_g/p_e and per-sample
    post-selected magnon states in states_g / states_e metadata lists.
    An outcome with (numerically) zero weight -- e at t = 0, where the
    joint state is exactly |0>(x)|g> -- has no conditional state; its
    probability is recorded as 0.0 and None is appended to the state list.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    d = derive(params, delta_eff_override=delta_eff)
    h, dissipators, rho0 = _effective_model(params, "plus_plus_minus", fock_dim, delta_eff)
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
