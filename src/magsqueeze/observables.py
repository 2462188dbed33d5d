"""Scalar and phase-space observables of the magnon mode.

The central quantity is the minimum quadrature variance

    zeta^2 = 1 + 2(<m^dag m> - |<m>|^2) - 2|<m^2> - <m>^2|

normalized so the vacuum gives exactly 1, with squeezing degree
S = -10 log10(zeta^2).  The raw symmetric-ordering variance (vacuum 1/2)
is zeta^2 / 2 and is carried alongside.

The commands' Wigner grids are closed-form Gaussians or sums of them
(gaussian_wigner, superposition_grids).  The tests' oracle ``wigner``
evaluates any state by displaced parity in Royer's form,
W(alpha) = (2/pi) Tr[rho D(2 alpha) P] with P = (-1)^{m^dag m}
(D(a) P D(a)^dag = D(2a) P; Phys. Rev. A 15, 449 (1977)).  On a cartesian
grid the displacement splits as D(2x + 2iy) = e^{4ixy} D(2x) D(2iy), so
the grid needs one block of real displacements per x and one of imaginary
displacements per y, both from a single eigendecomposition of the real
tridiagonal quadrature q = m + m^dag, and one GEMM over the kept
eigenvectors of the state.  The Fock dimension the displacements act in
(the pad) is chosen from the data; see ``wigner``.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericalError
from .qops import herm_eig
from .states import squeezed_vacuum_dyad


class QuadratureVariance(NamedTuple):
    value: float        # vacuum-normalized minimum variance zeta^2
    angle: float        # optimal quadrature angle theta*, radians
    raw: float          # physical symmetric-ordering variance, = value/2
    n_mean: float       # <m^dag m>


def min_quadrature_variance(rho_magnon):
    """Minimum quadrature variance of a magnon-only state, vacuum -> 1.

    Depends only on first and second moments; the optimal quadrature angle
    theta* = arg(<m^2> - <m>^2)/2 + pi/2 and <m^dag m> come along as
    metadata.  The moments are read off the diagonal and the first two
    sub-diagonals of rho: <m> = sum_k sqrt(k+1) rho[k+1, k], and likewise.
    """
    rho = np.asarray(rho_magnon)
    n = rho.shape[0]
    k = np.arange(1, n, dtype=float)
    m_exp = np.diagonal(rho, -1) @ np.sqrt(k)
    m2_exp = np.diagonal(rho, -2) @ np.sqrt(k[:-1] * k[1:])
    n_exp = float(np.diagonal(rho).real @ np.arange(n, dtype=float))
    c = m2_exp - m_exp**2
    zeta_sq = float(1.0 + 2.0 * (n_exp - abs(m_exp) ** 2) - 2.0 * abs(c))
    angle = float(np.angle(c) / 2.0 + math.pi / 2.0) if abs(c) > 0 else 0.0
    return QuadratureVariance(value=zeta_sq, angle=angle, raw=zeta_sq / 2.0, n_mean=n_exp)


def squeezing_db(zeta_sq):
    """Squeezing degree S = -10 log10(zeta^2), positive when squeezed."""
    if zeta_sq <= 0:
        raise NumericalError(f"nonpositive variance {zeta_sq}")
    return -10.0 * math.log10(zeta_sq)


# ---------------------------------------------------------------------------
# Wigner function


@dataclass
class WignerGrid:
    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray           # shape (len(im_axis), len(re_axis))
    meta: dict = field(default_factory=dict)

    @property
    def cell_area(self):
        dx = self.re_axis[1] - self.re_axis[0]
        dy = self.im_axis[1] - self.im_axis[0]
        return dx * dy

    def normalization(self):
        return float(np.sum(self.values) * self.cell_area)

    def to_csv(self, path):
        """One (re, im, W) row per point, im outer, %.12e, LF endings."""
        shape = (len(self.im_axis), len(self.re_axis))
        if np.shape(self.values) != shape:
            raise DimensionError(f"Wigner values of shape {np.shape(self.values)} "
                                 f"do not match the (im, re) axes {shape}")
        # each axis value is formatted once: one template per grid row, with
        # "@" standing for the row's im value and %.12e for each W
        row = "".join("%.12e,@,%%.12e\n" % x for x in self.re_axis.tolist())
        text = "".join(row.replace("@", "%.12e" % im) % tuple(ws)
                       for im, ws in zip(self.im_axis.tolist(), self.values.tolist()))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("re_alpha,im_alpha,wigner\n")
            fh.write(text)

    def descriptor(self):
        return {
            "re_axis": [float(self.re_axis[0]), float(self.re_axis[-1]), len(self.re_axis)],
            "im_axis": [float(self.im_axis[0]), float(self.im_axis[-1]), len(self.im_axis)],
            "normalization": self.normalization(),
            **self.meta,
        }

    def to_json(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.descriptor(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def default_axes(half_width=5.0, points=201):
    ax = np.linspace(-half_width, half_width, points)
    return ax, ax.copy()


# Largest Fock dimension (even) a Wigner grid may displace in; a grid that
# needs more raises NumericalError before allocating it.
WIGNER_PAD_CAP = 2048
# The pad is accepted once the top Fock level of every displaced column
# holds less than this share of the state's population.
WIGNER_PAD_TAIL = 1e-12
_PAD_GROWTH = 1.25


def _quadrature_eig(n):
    """Eigenvalues (ascending) and real orthonormal eigenvectors of
    q = m + m^dag at even truncation n.

    q maps even Fock levels to odd ones through the bidiagonal block B, so
    q^2 = B^T B (+) B B^T, two tridiagonal problems of half the size.  For
    B^T B w = s^2 w and B B^T u = s^2 u with u signed so that B w = s u,
    (w, +-u) / sqrt(2) are the eigenvectors of q at +-s.
    """
    from scipy.linalg import eigh_tridiagonal

    h = n // 2
    j = np.arange(h, dtype=float)
    mu, w = eigh_tridiagonal(4.0 * j + 1.0, np.sqrt((2.0 * j[:-1] + 1.0) * (2.0 * j[:-1] + 2.0)))
    odd_diag = 4.0 * j + 3.0
    odd_diag[-1] = n - 1.0                 # the top level n-1 has no level above
    _, u = eigh_tridiagonal(odd_diag, np.sqrt((2.0 * j[:-1] + 2.0) * (2.0 * j[:-1] + 3.0)))
    bw = np.sqrt(2.0 * j + 1.0)[:, None] * w
    bw[:-1] += np.sqrt(2.0 * j[:-1] + 2.0)[:, None] * w[1:]
    u *= np.sign(np.sum(u * bw, axis=0))
    sigma = np.sqrt(mu)                    # B^T B is positive definite
    v = np.empty((n, n))
    v[0::2, :h], v[1::2, :h] = w[:, ::-1], -u[:, ::-1]
    v[0::2, h:], v[1::2, h:] = w, u
    return np.concatenate([-sigma[::-1], sigma]), v * math.sqrt(0.5)


def _real_left_matmul(real, cplx):
    """real @ cplx as one real GEMM on the interleaved (re, im) columns."""
    cplx = np.ascontiguousarray(cplx)
    return (real @ cplx.view(np.float64)).view(np.complex128)


def _fock_quantile(pops, share):
    """Number of leading Fock levels holding all but ``share`` of pops."""
    beyond = np.cumsum(pops[::-1])[::-1]
    return int(np.count_nonzero(beyond > share * beyond[0]))


def wigner(rho_magnon, re_axis=None, im_axis=None, weight_floor=1e-13):
    """Wigner function on a cartesian alpha grid by exact displaced parity.

    Accepts a density matrix or a pure-state ket.  Density matrices are
    eigendecomposed once and W is accumulated over the eigenvectors u_k
    whose population exceeds ``weight_floor`` (raise it, e.g. to 1e-6, for
    mixed solver output whose noise-floor eigenvectors cost time but
    contribute nothing visible):

        W[y, x] = (2/pi) Re e^{4ixy} sum_k <D(-2x) u_k | D(2iy) P u_k>.

    Both displacements come from q = m + m^dag = V diag(lam) V^T (real,
    tridiagonal): D(it) = e^{itq} and D(s) = Phi e^{isq} Phi^dag with
    Phi = diag((-i)^n).  So the columns D(-2x) u_k and D(2iy) P u_k of the
    whole grid are two blocks of real GEMMs, and W is one GEMM over them.

    A truncated displacement rings once the displaced state reaches the
    top Fock level, even when the state itself is well converged.  The
    state is therefore zero-padded to a larger Fock dimension, the pad,
    before displacing.  The pad starts at the semiclassical radius of the
    state displaced to the farthest grid line, (2 max|alpha| +
    sqrt(n_6) + 2.5)^2, with n_6 the number of Fock levels holding all
    but 1e-6 of the population, and grows by 1.25x until the top level of
    every displaced column holds less than ``WIGNER_PAD_TAIL`` of the
    population, summed over the u_k.  The chosen pad and that tail are
    recorded in ``meta`` ("fock_dim", "pad_tail"); a grid that would need
    more than ``WIGNER_PAD_CAP`` levels raises NumericalError.  Trailing
    Fock levels at round-off amplitude (population below 1e-30 of the
    total) are dropped first, so zero-extending a state changes nothing.

    Warns when |W| at the grid boundary exceeds 1e-4 (state support leaking
    off-grid; extend the axes).
    """
    arr = np.asarray(rho_magnon, dtype=complex)
    if arr.ndim == 1:
        basis = arr[:, None]                   # single unit-weight column
    else:
        pops, vecs = herm_eig(0.5 * (arr + arr.conj().T))
        keep = pops > weight_floor
        if not np.any(keep):
            raise NumericalError("state has no significant eigenvalues")
        basis = vecs[:, keep] * np.sqrt(pops[keep])[None, :]
    if re_axis is None or im_axis is None:
        dflt = default_axes()
        re_axis = dflt[0] if re_axis is None else np.asarray(re_axis, dtype=float)
        im_axis = dflt[1] if im_axis is None else np.asarray(im_axis, dtype=float)
    else:
        re_axis = np.asarray(re_axis, dtype=float)
        im_axis = np.asarray(im_axis, dtype=float)

    level_pops = np.sum(np.abs(basis) ** 2, axis=1)
    total = float(level_pops.sum())
    if total == 0.0:
        raise NumericalError("state has zero norm")
    support = _fock_quantile(level_pops, 1e-30)
    basis = basis[:support]
    reach = 2.0 * max(np.max(np.abs(re_axis)), np.max(np.abs(im_axis)))
    # The start is where the bulk of the state, displaced to the farthest
    # grid line, fits (2.5: the vacuum's own reach at a 1e-12 tail).  It is
    # a floor, not a guess: below it a truncated displacement wraps around,
    # and its top level can read small by accident (the vacuum displaced by
    # 60 has 1.7e-15 there at pad 60).
    pad = max(support, math.ceil(
        (reach + math.sqrt(_fock_quantile(level_pops, 1e-6)) + 2.5) ** 2))
    pad += pad % 2
    parity = (-1.0) ** np.arange(support)
    tail = math.inf
    while pad <= WIGNER_PAD_CAP:
        lam, v = _quadrature_eig(pad)
        fock_phase = (1.0j) ** (np.arange(pad) % 4)             # i^n = conj (-i)^n
        # V^T Phi^dag u and V^T P u: only the state's own levels contribute
        cx = v[:support].T @ (fock_phase[:support, None] * basis)
        cy = v[:support].T @ (parity[:, None] * basis)
        ex = np.exp(-2.0j * np.outer(lam, re_axis))
        ey = np.exp(2.0j * np.outer(lam, im_axis))
        # top-level population of every displaced column, from V's last row
        tail = max(
            float(np.max(np.sum(np.abs((cx.T * v[-1]) @ ex) ** 2, axis=0))),
            float(np.max(np.sum(np.abs((cy.T * v[-1]) @ ey) ** 2, axis=0))),
        ) / total
        if tail < WIGNER_PAD_TAIL or pad == WIGNER_PAD_CAP:
            break
        pad = min(2 * math.ceil(pad * _PAD_GROWTH / 2), WIGNER_PAD_CAP)
    if not tail < WIGNER_PAD_TAIL:
        raise NumericalError(
            f"Wigner grid needs more than {WIGNER_PAD_CAP} Fock levels to "
            f"displace the state to |alpha| = {reach / 2:.3g}")

    # <D(-2x) u | D(2iy) P u> = sum_n conj(V ex c_x)[n, x] i^n (V ey c_y)[n, y],
    # stacked over as many u_k as keep each displaced block near 32 MB
    nx, ny = len(re_axis), len(im_axis)
    chunk = max(1, 2**21 // (pad * (nx + ny)))
    overlap = np.zeros((ny, nx), dtype=complex)
    for k in range(0, basis.shape[1], chunk):
        left = _real_left_matmul(v, (cx[:, k:k + chunk, None] * ex[:, None, :]).reshape(pad, -1))
        right = _real_left_matmul(v, (cy[:, k:k + chunk, None] * ey[:, None, :]).reshape(pad, -1))
        right *= fock_phase[:, None]
        overlap += right.reshape(-1, ny).T @ left.reshape(-1, nx).conj()
    values = (2.0 / math.pi) * np.real(np.exp(4.0j * np.outer(im_axis, re_axis)) * overlap)

    grid = WignerGrid(re_axis=re_axis, im_axis=im_axis, values=values)
    grid.meta["fock_dim"] = pad
    grid.meta["pad_tail"] = tail
    grid.meta["rank"] = basis.shape[1]
    return flag_boundary(grid)


def flag_boundary(grid):
    """Record the largest |W| on the grid's edge as meta["boundary_max_abs"]
    and warn, at the caller of the grid's maker, when it exceeds 1e-4."""
    values = grid.values
    boundary = max(
        float(np.max(np.abs(values[0, :]))),
        float(np.max(np.abs(values[-1, :]))),
        float(np.max(np.abs(values[:, 0]))),
        float(np.max(np.abs(values[:, -1]))),
    )
    grid.meta["boundary_max_abs"] = boundary
    if boundary > 1e-4:
        warnings.warn(
            f"Wigner support reaches the grid boundary (|W| = {boundary:.2e}); "
            "extend the axes",
            stacklevel=3,
        )
    return grid


def _wigner_covariance(a, b, n):
    """(C_xx, C_yy, C_xy) of a zero-mean Gaussian operator from its
    normalised moments a = <m^2>, b = <m^dag^2>, n = <m^dag m>: the
    symmetric covariance of x = Re alpha, y = Im alpha in its Wigner
    function, complex for a non-Hermitian operator."""
    return (a + b + 2.0 * n + 1.0) / 4.0, (2.0 * n + 1.0 - a - b) / 4.0, (a - b) / 4.0j


def gaussian_wigner(trace, a, b, n, re_axis, im_axis):
    """W[y, x] of a zero-mean Gaussian operator X from Tr X and its
    normalised moments a = <m^2>, b = <m^dag^2>, n = <m^dag m>:

        W = Tr X exp(-r^T C^-1 r / 2) / (2 pi sqrt(det C)),  r = (x, y),

    C_xx = (a + b + 2n + 1)/4, C_yy = (2n + 1 - a - b)/4, C_xy = (a - b)/4i,
    the symmetric covariance of x = Re alpha, y = Im alpha.  Complex for a
    non-Hermitian X, such as a coherence between two states; the root is
    the principal one, which is the continuous branch wherever det C stays
    near the positive axis (for a state, det C > 0).
    """
    cxx, cyy, cxy = _wigner_covariance(a, b, n)
    det = cxx * cyy - cxy * cxy
    x = np.asarray(re_axis, dtype=float)[None, :]
    y = np.asarray(im_axis, dtype=float)[:, None]
    quad = (cyy * x * x - 2.0 * cxy * x * y + cxx * y * y) / det
    return trace * np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(det))


def gaussian_overlap(x, y):
    """Tr(X Y) of two zero-mean Gaussian operators, each given as (trace, a,
    b, n) as for gaussian_wigner; the entries broadcast.

    Tr(X Y) = pi * integral of W_X W_Y d^2 alpha, a Gaussian integral:

        Tr(X Y) = Tr X Tr Y / (2 sqrt(det(C_X + C_Y)))

    (the vacuum with itself gives 1).  The root is the principal one, the
    continuous branch while det(C_X + C_Y) stays off the negative real axis
    (for two states it is real positive).
    """
    cx, cy = _wigner_covariance(*x[1:]), _wigner_covariance(*y[1:])
    cxx, cyy, cxy = (u + v for u, v in zip(cx, cy))
    return x[0] * y[0] / (2.0 * np.sqrt(cxx * cyy - cxy * cxy))


def _outcome_weights(blocks):
    """{"g": (+1, p_g), "e": (-1, p_e)} of the superposition blocks, with
    p = (Tr X_++ + Tr X_--)/2 +- Re Tr X_+-, holding only the outcomes of
    weight above 1e-12 at every time."""
    half = 0.5 * np.real(np.add(blocks["++"][0], blocks["--"][0]))
    out = {}
    for outcome, sign in (("g", 1.0), ("e", -1.0)):
        p = half + sign * np.real(blocks["+-"][0])
        if np.all(p > 1e-12):
            out[outcome] = (sign, p)
    return out


def require_outcome(by_outcome, outcome):
    """by_outcome[outcome]; NumericalError if the outcome has no weight and
    so no entry."""
    if outcome not in by_outcome:
        raise NumericalError(f"outcome {outcome} has probability at or below 1e-12")
    return by_outcome[outcome]


def superposition_grids(blocks, re_axis, im_axis):
    """Post-selected Wigner grids of the superposition run from its three
    Gaussian sb_x blocks, {"++", "--", "+-"}: (trace, a, b, n) each, as
    for gaussian_wigner.

    |g>, |e> = (|+x> +- |-x>)/sqrt(2), so the outcome g (e) leaves
    (X_++ + X_-- +- (X_+- + X_-+))/(2p), X_-+ = X_+-^dag, whose Wigner
    function is (W_++ + W_-- +- 2 Re W_+-)/(2p) with
    p = (Tr X_++ + Tr X_--)/2 +- Re Tr X_+-.  Returns {"g": (p, grid),
    "e": (p, grid)} without the outcomes of weight at or below 1e-12, which
    have no state (require_outcome refuses them).
    """
    re_axis = np.asarray(re_axis, dtype=float)
    im_axis = np.asarray(im_axis, dtype=float)
    w = {key: gaussian_wigner(*blk, re_axis, im_axis) for key, blk in blocks.items()}
    out = {}
    for outcome, (sign, p) in _outcome_weights(blocks).items():
        p = float(p)
        values = (w["++"].real + w["--"].real + 2.0 * sign * w["+-"].real) / (2.0 * p)
        out[outcome] = (p, flag_boundary(WignerGrid(re_axis, im_axis, values)))
    return out


def superposition_fidelities(blocks, zeta):
    """Outcome weights and fidelities of the superposition run against the
    dissipation-free targets (chi_+ +- chi_-)/N, chi_+- = S(+-zeta)|0>, in
    closed form and untruncated.

    blocks are the three sb_x blocks {"++", "--", "+-"} as for
    superposition_grids, zeta the targets' squeeze parameter; both run over
    the same times.  With X_-+ = X_+-^dag (trace conj(Tr X_+-),
    a = conj(b_+-), b = conj(a_+-), n = conj(n_+-)) and sigma_+ = 1,
    sigma_- = +-1 for the outcome g (e), the post-selected state is
    sum_sr sigma_s sigma_r X_sr / (2p) and

        F^2 = sum_{jk,sr} sigma_j sigma_k sigma_s sigma_r <chi_j|X_sr|chi_k>
              / (2p N^2),   N^2 = sum_jk sigma_j sigma_k <chi_j|chi_k>,

    each of the 16 terms the Gaussian overlap Tr(X_sr |chi_k><chi_j|)
    (gaussian_overlap, squeezed_vacuum_dyad).  For a pure target the
    Uhlmann fidelity is sqrt(<psi|rho|psi>).  Returns {"g": (p, F),
    "e": (p, F)}, arrays over times; an outcome of weight at or below 1e-12
    at any time raises.
    """
    tr, a, b, n = blocks["+-"]
    x = {(+1, +1): blocks["++"], (-1, -1): blocks["--"], (+1, -1): blocks["+-"],
         (-1, +1): (np.conj(tr), np.conj(b), np.conj(a), np.conj(n))}
    signs = list(x)
    dyads = {(j, k): squeezed_vacuum_dyad(zeta, k, j) for j, k in signs}
    weights = _outcome_weights(blocks)
    out = {}
    for outcome in ("g", "e"):
        sign, p = require_outcome(weights, outcome)
        weight = {+1: 1.0, -1: sign}
        norm_sq = sum(weight[j] * weight[k] * dyads[j, k][0] for j, k in signs).real
        f_sq = sum(weight[j] * weight[k] * weight[s] * weight[r]
                   * gaussian_overlap(x[s, r], dyads[j, k])
                   for j, k in signs for s, r in signs)
        out[outcome] = (p, np.sqrt(np.maximum(0.0, np.real(f_sq) / (2.0 * p * norm_sq))))
    return out


def wigner_negativity_volume(grid):
    """Integrated negative part of the Wigner function, >= 0."""
    return float(np.sum(np.clip(-grid.values, 0.0, None)) * grid.cell_area)
