"""Lindblad time evolution, qubit postselection, and the conditional
squeezing / superposition protocols.

Master-equation convention: for channels (o_k, w_k),

    drho/dt = -i[H, rho] + sum_k w_k (2 o_k rho o_k^dag
                                      - o_k^dag o_k rho - rho o_k^dag o_k)

i.e. the stored weight w multiplies the "2 o rho o^dag - {o^dag o, rho}"
form directly.  A bare loss channel (m, kappa/2) then gives <n> ~ e^{-kappa t}.

The effective model is H_cs = h(t) (x) sb_x with the thermal magnon pair
and w L[sb_x].  From an sb_x eigenstate qubit (plus_x, minus_x) only the
magnon state of that sector evolves: its <s|rho|s> block is closed under
the generator, and the qubit channel only damps the s != r coherences,
which such a start never fills.  The sector Hamiltonian is quadratic and
the channels thermal, so at any kappa the state stays Gaussian, and its
exact, untruncated covariance (sector_covariance_squeezing) gives every
metric; sector_fock_tail measures what a given fock_dim would leave out.
conditional_squeezing_run is the full model alone: a master equation
on the 2N joint space, in the rotating_half_pump frame, whose N grows
from FOCK_START up to fock_dim as the state reaches its last level.

The superposition run from |0> (x) |g> also has a closed form: each of its
sb_x blocks is a Gaussian operator, the diagonal ones from the sector
covariance and the (+,-) coherence from a matrix Riccati equation solved
exactly by Radon's lemma (superposition_blocks).  The superposition_wigner
grids and the fidelity series come from there; no scenario integrates the
effective model.  The master equations below serve the full model, and the
joint effective one (_effective_model, conditional_superposition_run)
serves as a test oracle.

Every master equation integrates the upper vector of rho: its entries
with i <= j, in row-major order.  The Hamiltonian is a SplitHamiltonian, a
static part plus terms e^{i w t} H_k + h.c.; the static part and the start
must be Hermitian.  Then rho stays Hermitian, each entry below the diagonal
is the conjugate of its mirror, and one RHS call is A rho + (A rho)^dag
plus the jumps, with one sparse A(t) = -i H(t) - sum_k w_k o_k^dag o_k
(_lindblad_rhs).  DOP853 combines RHS values with real coefficients, so
the diagonal stays real and every sample, rebuilt by its mirrors, is
exactly Hermitian.  Its tolerances are weighted per entry so that its RMS
error norm over the upper vector equals the one over all of rho
(_upper_tolerances): it takes the steps it would take on the full vec.

DOP853 runs in a loop of its own (_dop853) that takes scipy's steps with
scipy's tableau, but forms every dense sum with np.einsum: neither it nor
the RHS makes a BLAS call per step.
"""

import math
import time as _time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, NumericalError, StiffnessError
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
    herm_eig,  # unused here; benchmark/spans.py traces dynamics.herm_eig
    kron,
)
from .observables import min_quadrature_variance, squeezing_db
from .states import gaussian_fock_populations, joint_initial_state, squeezed_vacuum_fock


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


def _triangle(dim):
    """(upper, mirror, diag) of the upper vector of a dim x dim matrix: the
    row-major flat indices of its entries (i, j) with i <= j and of their
    mirrors (j, i), and the positions of the diagonal in the vector."""
    row, col = np.triu_indices(dim)
    return row * dim + col, col * dim + row, np.flatnonzero(row == col)


def _from_upper(y, upper, mirror, out):
    """Fill out with the Hermitian matrix whose upper vector is y: each
    entry below the diagonal is the conjugate of its mirror."""
    flat = out.reshape(-1)
    flat[mirror] = y.conj()
    flat[upper] = y  # after the mirrors: the diagonal keeps y itself
    return out


def _lindblad_rhs(h, channels):
    """Return (f(t, y), dim, nnz) for the master equation on the upper
    vector y of the dim x dim rho (module docstring, _triangle).

    h is a matrix, None or a SplitHamiltonian.  f computes

        drho/dt = A rho + (A rho)^dag + sum_k 2 w_k o_k rho o_k^dag,
        A(t) = -i H(t) - sum_k w_k o_k^dag o_k,

    on the upper entries.  A is one CSR matrix on the union pattern of its
    parts: -i H_0 - sink, then -i H_k and -i H_k^dag for each oscillating
    term.  Each call sets its data to coef @ e^{i omega t}, one column of
    coef per part, by np.einsum: no BLAS call.  The jumps form one
    superoperator on the row-major vec of rho, kept on the upper rows.  A
    call rebuilds rho from y, so f is exact only for a Hermitian rho; the
    diagonal of f is made real.  nnz counts A's stored entries and those of
    the jump rows.
    """
    import scipy.sparse as sp

    dim, h0, oscillating, channels = _operators(h, channels)
    upper, mirror, diag = _triangle(dim)
    sink = sp.csr_matrix((dim, dim), dtype=complex)
    jumps = sp.csr_matrix((len(upper), dim * dim), dtype=complex)
    for o, w in channels:
        sink = sink + w * (o.conj().T @ o)
        jumps = jumps + 2.0 * w * sp.kron(o, o.conj(), format="csr")[upper]

    parts, omegas = [-1.0j * h0 - sink], [0.0]
    for hk, w in oscillating:
        parts += [-1.0j * hk, -1.0j * hk.conj().T]
        omegas += [w, -w]
    pattern = sum((abs(p) for p in parts[1:]), abs(parts[0])).tocsr()
    rows = np.repeat(np.arange(dim), np.diff(pattern.indptr))
    coef = np.column_stack([np.asarray(p.tocsr()[rows, pattern.indices]).ravel()
                            for p in parts])
    a = sp.csr_matrix((coef[:, 0].copy(), pattern.indices, pattern.indptr), shape=(dim, dim))
    omegas = np.array(omegas)
    rho = np.empty((dim, dim), dtype=complex)

    def rhs(t, y):
        np.einsum("kp,p->k", coef, np.exp(1.0j * omegas * t), out=a.data)
        _from_upper(y, upper, mirror, rho)
        ar = (a @ rho).reshape(-1)
        z = ar[upper]
        z += ar[mirror].conj()
        z += jumps @ rho.reshape(-1)
        z[diag] = z[diag].real
        return z

    return rhs, dim, a.nnz + jumps.nnz


RTOL_FLOOR = 100.0 * np.finfo(float).eps  # a smaller weighted rtol is refused


def _upper_tolerances(dim, diag, rel_tol, abs_tol):
    """DOP853's per-entry (rtol, atol) on the upper vector of a dim x dim rho.

    The solver's error norm is an RMS over the components (Hairer, Norsett
    and Wanner, Solving ODEs I, II.4).  An entry above the diagonal stands
    for itself and its mirror, so it carries the weight w = 2 n_up / dim^2,
    a diagonal entry w = n_up / dim^2, with n_up = dim (dim + 1) / 2.
    Dividing both tolerances by sqrt(w) makes the RMS over the n_up entries,
    and the initial-step norm, equal to those over all dim^2 entries.  The
    off-diagonal rtol is then rel_tol sqrt(dim / (dim + 1)).  No step can
    meet an rtol below RTOL_FLOOR, 100 eps, in double precision, so a
    weighted rtol below it raises DimensionError instead of being clamped.
    """
    n_up = dim * (dim + 1) // 2
    root = np.full(n_up, math.sqrt(2.0 * n_up / dim**2))
    root[diag] = math.sqrt(n_up / dim**2)
    rtol = rel_tol / root
    if rtol.min() < RTOL_FLOOR:
        raise DimensionError(
            f"rel_tol {rel_tol:.3e} weights to {rtol.min():.3e} on the entries off the "
            f"diagonal, below the solver's floor of 100 eps = {RTOL_FLOOR:.3e}")
    return rtol, abs_tol / root


# DOP853's step-size control, as in scipy.integrate's RungeKutta
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _combine(coef, k):
    """sum_s coef[s] k[s] over the first len(coef) rows of a complex stage
    array k, as np.einsum on its real view: no BLAS call."""
    return np.einsum("s,sn->n", coef, k[:len(coef)].view(float)).view(complex)


def _rms(x):
    """RMS norm of a complex vector, its squares summed by np.einsum."""
    xr = x.view(float)
    return math.sqrt(np.einsum("i,i->", xr, xr)) / math.sqrt(len(x))


def _initial_step(f, t0, y0, f0, t_end, rtol, atol):
    """DOP853's first step from (t0, y0) with f0 = f(t0, y0), as scipy's
    select_initial_step chooses it (Hairer, Norsett and Wanner, II.4);
    calls f once."""
    from scipy.integrate import DOP853

    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (DOP853.error_estimator_order + 1))
    return min(100.0 * h0, h1, t_end - t0)


def _error_norm(k, h, scale):
    """DOP853's error norm of a step h with stages k: the 5th-order estimate
    (E5), damped where the 3rd-order one (E3) is small (Hairer, Norsett and
    Wanner, II.10), as an RMS on the per-entry scale."""
    from scipy.integrate import DOP853

    err5, err3 = _combine(DOP853.E5, k) / scale, _combine(DOP853.E3, k) / scale
    err5_2 = np.einsum("i,i->", err5.view(float), err5.view(float))
    err3_2 = np.einsum("i,i->", err3.view(float), err3.view(float))
    if err5_2 == 0.0 and err3_2 == 0.0:
        return 0.0
    return abs(h) * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _dense_samples(k, f, t_old, y_old, h, y, f_new, ts):
    """The step (t_old, y_old) -> (t_old + h, y) at the times ts, by DOP853's
    7th-degree dense output.  k holds the step's 13 stages (f(t_old, y_old)
    first, f_new last); its rows 13-15 get the three extra stages, three
    calls of f.  Returns one row per time."""
    from scipy.integrate import DOP853

    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1):
        k[s] = f(t_old + c * h, y_old + _combine(a[:s], k) * h)
    delta = y - y_old
    poly = np.empty((3 + len(DOP853.D), len(y)), dtype=complex)
    poly[0] = delta
    poly[1] = h * k[0] - delta
    poly[2] = 2 * delta - h * (f_new + k[0])
    poly[3:] = h * np.einsum("ds,sn->dn", DOP853.D, k.view(float)).view(complex)
    x = ((np.asarray(ts) - t_old) / h)[:, None]
    out = np.zeros((len(x), len(y)), dtype=complex)
    for i, row in enumerate(poly[::-1]):
        out += row
        out *= x if i % 2 == 0 else 1 - x
    out += y_old
    return out


def _dop853(rhs, y0, t_grid, rtol, atol, stop=None):
    """Adaptive DOP853 from (t_grid[0], y0), sampled on t_grid through its
    dense output: step for step what scipy.integrate.DOP853 does under
    solve_ivp(..., t_eval=t_grid), with the tableau read from that class
    (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.6).

    scipy combines the stages with np.dot, an OpenBLAS gemv that runs on
    every core once the stage block is large and leaves the other threads
    spinning between calls; here each combination and error sum is an
    np.einsum on the real view (_combine), in one thread.

    A step is accepted where its error norm is below 1; the next step is
    scaled by SAFETY err^(-1/8) within [MIN_FACTOR, MAX_FACTOR], and does
    not grow after a rejection.  A step below 10 ulp of t raises
    StiffnessError.  The three extra stages of the dense output are built
    only on steps that hold a sample, so the RHS is called 2 + 12 (accepted
    + rejected) + 3 (steps holding a sample) times.

    stop, if given, is tested on the end state of each step the error test
    accepts.  Where it holds, that step is refused (counted in n_rejected)
    and the run ends at the step's start, with the samples up to there.
    Returns (samples, n_rhs_evals, step_times, n_rejected, y): step_times
    are the ends of the accepted steps, y the state at the last of them
    (y0 where none was accepted).
    """
    from scipy.integrate import DOP853

    n_calls = 0

    def f(t, y):
        nonlocal n_calls
        n_calls += 1
        return rhs(t, y)

    n_stages = DOP853.n_stages
    exponent = -1.0 / (DOP853.error_estimator_order + 1)
    t_end = float(t_grid[-1])
    k = np.empty((n_stages + 1 + len(DOP853.A_EXTRA), len(y0)), dtype=complex)
    t, y = float(t_grid[0]), y0
    fy = f(t, y)
    h_abs = _initial_step(f, t, y, fy, t_end, rtol, atol)
    ys, done, step_times, n_rejected = [], 0, [], 0
    while done < len(t_grid):
        min_step = 10.0 * abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    "integrator failed: Required step size is less than spacing between "
                    f"numbers. (reached t = {t:.3f} ns)")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            k[0] = fy
            for s in range(1, n_stages):
                k[s] = f(t + DOP853.C[s] * h, y + _combine(DOP853.A[s, :s], k) * h)
            y_new = y + h * _combine(DOP853.B, k)
            k[n_stages] = f_new = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(k, h, scale)
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**exponent)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**exponent)
            rejected = True
            n_rejected += 1
        if stop is not None and stop(y_new):
            return ys, n_calls, step_times, n_rejected + 1, y
        upto = int(np.searchsorted(t_grid, t_new, side="right"))
        if upto > done:
            ys.extend(_dense_samples(k, f, t, y, h, y_new, f_new, t_grid[done:upto]))
            done = upto
        t, y, fy = t_new, y_new, f_new
        step_times.append(t)
    return ys, n_calls, step_times, n_rejected, y


def evolve_master(h, dissipators, rho0, solver=None, sample_hook=None,
                  store_states=False, stop=None):
    """Integrate the master equation from rho0.time and monitor state
    sanity at samples.

    h           static matrix, SplitHamiltonian, or None
    dissipators LindbladSpec (may be empty)
    rho0        StateDensity (frame tag propagated to outputs); the run
                starts at its time
    solver      SolverConfig; sample_times required, none before rho0.time
    sample_hook optional callable (t, rho_matrix) -> dict of scalars,
                merged into the observables series
    stop        optional callable (diagonal of rho, real) -> bool, tested
                on the end of each accepted step (_dop853): where it holds,
                the run ends at that step's start t with the samples up to
                t, and metadata["stopped_state"] holds the state at t

    rho0 must be Hermitian to HERMITIAN_TOL of its largest entry
    (DimensionError otherwise).  The upper vector of its exact Hermitian
    part is integrated under the weighted tolerances of _upper_tolerances
    (DimensionError where solver.rel_tol weighs in below RTOL_FLOOR), and
    each sample is rebuilt by its mirrors, exactly Hermitian.  Trace drift
    beyond 1e-8 warns; eigenvalues below -1e-6 abort.  metadata counts the
    RHS calls (n_rhs_evals) and the accepted and rejected steps (n_steps,
    n_rejected) of _dop853; stopped_state is None where the run reached its
    last sample.
    """
    solver = solver or SolverConfig()
    if solver.sample_times is None:
        raise DimensionError("SolverConfig.sample_times is required")
    t_grid = np.asarray(solver.sample_times, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise DimensionError("sample_times must be strictly increasing")
    t0 = float(rho0.time)
    if t_grid[0] < t0:
        raise DimensionError(f"sample time {t_grid[0]:g} ns precedes the start, "
                             f"rho0.time = {t0:g} ns")

    channels = dissipators.active() if dissipators is not None else []
    setup0 = _time.perf_counter()
    rhs, dim, nnz = _lindblad_rhs(h, channels)
    setup_s = _time.perf_counter() - setup0
    upper, mirror, diag = _triangle(dim)
    rtol, atol = _upper_tolerances(dim, diag, solver.rel_tol, solver.abs_tol)

    y0 = np.asarray(rho0.matrix, dtype=complex)
    if y0.shape != (dim, dim):
        raise DimensionError(f"rho0 shape {y0.shape} != generator dimension {dim}")
    defect = _hermitian_defect(y0)
    if defect > HERMITIAN_TOL:
        raise DimensionError(f"rho0 is not Hermitian (relative defect {defect:.2e})")
    y0 = (0.5 * (y0 + y0.conj().T)).reshape(-1)[upper]  # the exact Hermitian part
    wall0 = _time.perf_counter()
    prepend = float(t_grid[0]) != t0
    if prepend:
        t_grid = np.concatenate([[t0], t_grid])

    if len(t_grid) == 1:
        ys, n_evals, step_times, n_rejected, y_end = [y0], 0, [], 0, y0
    else:
        test = None if stop is None else (lambda y: stop(y[diag].real))
        ys, n_evals, step_times, n_rejected, y_end = _dop853(rhs, y0, t_grid, rtol, atol,
                                                             test)
    stopped_state = None
    if len(ys) < len(t_grid):
        stopped_state = StateDensity(
            _from_upper(y_end, upper, mirror, np.empty((dim, dim), dtype=complex)),
            frame=rho0.frame, time=step_times[-1] if step_times else t0)
        t_grid = t_grid[:len(ys)]
    if prepend:
        ys = ys[1:]
        t_grid = t_grid[1:]

    series = {}
    states = [] if store_states else None
    max_trace_drift = 0.0
    min_eig = np.inf
    for t, y in zip(t_grid, ys):
        rho = _from_upper(y, upper, mirror, np.empty((dim, dim), dtype=complex))
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
            "n_steps": len(step_times),
            "n_rejected": n_rejected,
            "wall_time_s": _time.perf_counter() - wall0,
            "setup_s": setup_s,
            "generator_nnz": nnz,
            "method": "adaptive_rk",
            "stopped_state": stopped_state,
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
    covariance run leave beyond fock_dim, 1 - sum p_n of the exact Fock
    populations, and its first sample time.  A converged state reads the
    sum's rounding floor, a few 1e-16, not 0."""
    tails = 1.0 - gaussian_fock_populations(cov["n_magnon"], cov["s_abs"],
                                            fock_dim).sum(axis=-1)
    worst = int(np.argmax(tails))
    return float(tails[worst]), float(cov["times"][worst])


FOCK_START = 16  # magnon levels a full-model run starts with
FOCK_GROWTH = 8  # levels added each time the state reaches the edge
GROWTH_TOL = 1e-12  # edge population p_{N-1} at which the run grows


def _pad_magnon(state, fock_dim):
    """A joint (magnon, qubit) state zero-padded to fock_dim magnon levels."""
    n = state.dim // 2
    rho = np.zeros((fock_dim, 2, fock_dim, 2), dtype=complex)
    rho[:n, :, :n, :] = state.matrix.reshape(n, 2, n, 2)
    return StateDensity(rho.reshape(2 * fock_dim, 2 * fock_dim), frame=state.frame,
                        time=state.time)


def _edge_above_tol(p):
    """Stop test on the diagonal p of a joint state: the last magnon level,
    summed over the qubit, holds more than GROWTH_TOL."""
    return p[-2] + p[-1] > GROWTH_TOL


def conditional_squeezing_run(params, fock_dim=80, sample_times=None):
    """The conditional-squeezing protocol in the full model: |0> (x) |+x>
    on the 2N joint space, integrated in the exact half-pump frame
    (build_H_rot) under the default SolverConfig.  Each sample is
    postselected on sb_x = +1 in that frame (_plus_x_metrics), giving the
    series p_plus, zeta_sq, squeezing_db, theta_star and n_magnon.

    fock_dim caps N.  The run starts at N = min(FOCK_START, fock_dim) and
    grows on demand: a segment below the cap stops at the first accepted
    step whose last level, p_{N-1} summed over the qubit, holds more than
    GROWTH_TOL; the last state within it is zero-padded to
    min(N + FOCK_GROWTH, fock_dim) levels and integrated on from its time.
    Samples already taken are kept.  At the cap the segment runs to the end,
    so a run with fock_dim <= FOCK_START is one master equation at fock_dim.

    metadata holds evolve_master's solver statistics summed over the
    segments (n_rhs_evals, n_steps, n_rejected, wall_time_s, setup_s; a
    stop counts as a rejected step), min_eigenvalue and max_trace_drift over
    them, generator_nnz of the last, the (N, start time) of each segment
    (fock_sizes), the path ("joint_master_equation"), fock_dim, and the
    largest p_{N-1} at any sample, at that sample's N, with its first
    sample time (max_edge_population, max_edge_population_time); nothing is
    refused on it.  The effective model needs no run: its sectors are read
    from sector_covariance_squeezing.
    """
    if sample_times is None:
        sample_times = default_sample_times()
    times = np.asarray(sample_times, dtype=float)
    n = min(FOCK_START, fock_dim)
    rho0 = joint_initial_state(qubit="plus_x", fock_dim=n)
    rho0.frame = "rotating_half_pump"
    edge, segments, sizes = [], [], []

    def hook(t, rho):
        # p_{N-1}: the last two diagonal entries of the (magnon, qubit) order
        edge.append(rho[-2, -2].real + rho[-1, -1].real)
        return _plus_x_metrics(t, rho)

    while True:
        sizes.append((n, float(rho0.time)))
        segments.append(evolve_master(
            build_H_rot(params, n), build_dissipators_full(params, n), rho0,
            solver=SolverConfig(sample_times=times), sample_hook=hook,
            stop=_edge_above_tol if n < fock_dim else None))
        stopped = segments[-1].metadata["stopped_state"]
        if stopped is None:
            break
        times = times[len(segments[-1].times):]
        n = min(n + FOCK_GROWTH, fock_dim)
        rho0 = _pad_magnon(stopped, n)

    metas = [seg.metadata for seg in segments]
    meta = dict(metas[-1])
    for key in ("n_rhs_evals", "n_steps", "n_rejected", "wall_time_s", "setup_s"):
        meta[key] = sum(m[key] for m in metas)
    meta["min_eigenvalue"] = min(m["min_eigenvalue"] for m in metas)
    meta["max_trace_drift"] = max(m["max_trace_drift"] for m in metas)
    all_times = np.concatenate([seg.times for seg in segments])
    worst = int(np.argmax(edge))
    meta.update(path="joint_master_equation", fock_dim=fock_dim, fock_sizes=sizes,
                max_edge_population=float(edge[worst]),
                max_edge_population_time=float(all_times[worst]))
    return TrajectoryResult(
        times=all_times,
        observables={key: np.concatenate([seg.observables.get(key, []) for seg in segments])
                     for key in segments[-1].observables},
        frame=rho0.frame, metadata=meta)


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


def _moment_generator(d):
    """5 x 5 generator of y = (n, Re s, Im s, det, 1) for
    sector_covariance_squeezing."""
    c = -d.g_cs / 2.0
    kappa, delta = d.kappa, d.Delta_eff
    source = 2.0 * kappa * (2.0 * d.n_bar_m + 1.0)
    return np.array([
        [-kappa, 0.0, -4.0 * c, 0.0, kappa * d.n_bar_m],
        [0.0, -kappa, 2.0 * delta, 0.0, 0.0],
        [-4.0 * c, -2.0 * delta, -kappa, 0.0, -2.0 * c],
        [2.0 * source, 0.0, 0.0, -2.0 * kappa, source],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])


def sector_covariance_squeezing(params, times, delta_eff=None):
    """Exact second-moment evolution of the sb_x = +1 sector of the
    conditional run.

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
    even in Delta.  The -1 sector (c -> -c) is the same run with s -> -s:
    R = i^{m^dag m} maps one onto the other with n unchanged.  The returned
    s is <m^2> in the drive frame of build_H_cs and the master equation,
    e^{+2i Delta t} times the static-frame value, and is not even in Delta.

    The equations are linear with constant coefficients: with y = (n,
    Re s, Im s, det, 1), y' = G y, so each step t_{k-1} -> t_k (t_{-1} = 0) is
    y -> e^{G (t_k - t_{k-1})} y, one matrix exponential per distinct step,
    applied to every cell at once as one product and one sum over y's entries.

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
    gen = np.array([_moment_generator(d) for d in cells])
    steps, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    props = _expm_stack(steps[:, None, None, None] * gen)  # (step, cell, 5, 5)

    # the sum runs along the outer axis, so it adds the terms j = 0..4 left to right;
    # elementwise, so equal cells give bit-equal rows wherever they sit in the stack
    p = np.ascontiguousarray(props[:, :, :4].transpose(0, 3, 2, 1))  # (step, j, i, cell)
    y = np.ones((len(times) + 1, 5, n_cells))  # per time: n, Re s, Im s, det, 1
    y[0, :3] = 0.0  # the vacuum, det = 1
    buf = np.empty(p.shape[1:])
    for k, u in enumerate(which.ravel()):
        np.add.reduce(np.multiply(p[u], y[k, :, None], out=buf), axis=0, out=y[k + 1, :4])
    out = np.ascontiguousarray(y[1:, :4].transpose(1, 2, 0))  # (4, cell, time)
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
    Tr = 1/2, a = s, b = s^*, n from sector_covariance_squeezing of the +1
    sector, with s -> -s for X_-- (R below maps the -1 sector onto it).  The
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
    cov = sector_covariance_squeezing(params, times, delta_eff)
    half, s, n = np.full(len(times), 0.5), cov["s"], cov["n_magnon"]
    blocks = {"++": (half, s, s.conj(), n), "--": (half, -s, -s.conj(), n)}
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
    runs on the whole joint state (4 N^2 entries).  No scenario calls it
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
