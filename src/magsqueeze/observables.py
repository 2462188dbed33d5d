"""Scalar and phase-space observables of the magnon mode.

The central quantity is the minimum quadrature variance

    zeta^2 = 1 + 2(<m^dag m> - |<m>|^2) - 2|<m^2> - <m>^2|

normalized so the vacuum gives exactly 1, with squeezing degree
S = -10 log10(zeta^2).  The raw symmetric-ordering variance (vacuum 1/2)
is zeta^2 / 2 and is carried alongside.

The Wigner function is evaluated by displaced parity,
W(alpha) = (2/pi) Tr[(-1)^{m^dag m} D^dag(alpha) rho D(alpha)], with the
displacement factored as D(alpha) = P_phi D(|alpha|) P_phi^dag
(P_phi = e^{i phi m^dag m}), so one eigendecomposition of the radial
generator serves every grid point exactly.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericalError
from .qops import annihilation, herm_eig, matrix_sqrt_psd, parity_operator


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("re_alpha,im_alpha,wigner\n")
            for iy, y in enumerate(self.im_axis):
                for ix, x in enumerate(self.re_axis):
                    fh.write(f"{x:.12e},{y:.12e},{self.values[iy, ix]:.12e}\n")

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


def wigner(rho_magnon, re_axis=None, im_axis=None, pad_to=None, weight_floor=1e-13):
    """Wigner function on a cartesian alpha grid by exact displaced parity.

    Accepts a density matrix or a pure-state ket.  Density matrices are
    eigendecomposed once and W is accumulated over the significant
    eigenstates, so low-rank (near-pure) states cost far less than full
    rank: per grid point, W = (2/pi) sum_k p_k <u_k| D(a) P D(a)^dag |u_k>
    with D(a) = R_phi D(s) R_phi^dag split into diagonal phase rotations
    and a radial displacement diagonalized once up front.

    The truncated displacement operator rings when the displaced state's
    energy approaches the Fock cutoff (roughly n + s^2 + 2 s sqrt(n) near
    the cutoff); rings show up as boundary garbage at large |alpha| even
    when the state itself is well converged.  ``pad_to`` zero-pads the
    state into a larger Fock space before displacing, which cures the
    ringing without re-running the dynamics at the larger dimension.
    ``weight_floor`` drops eigenstates below that population; raise it
    (e.g. 1e-6) for mixed solver output where the noise-floor eigenvectors
    cost time but contribute nothing visible.

    Warns when |W| at the grid boundary exceeds 1e-4 (state support leaking
    off-grid; extend the axes).
    """
    arr = np.asarray(rho_magnon, dtype=complex)
    if arr.ndim == 1:
        n = arr.shape[0]
        basis = arr[:, None].copy()            # single unit-weight column
    else:
        n = arr.shape[0]
        sym = 0.5 * (arr + arr.conj().T)
        pops, vecs = np.linalg.eigh(sym)
        keep = pops > weight_floor
        if not np.any(keep):
            raise NumericalError("state has no significant eigenvalues")
        basis = vecs[:, keep] * np.sqrt(pops[keep])[None, :]
    if pad_to is not None and pad_to > n:
        padded = np.zeros((pad_to, basis.shape[1]), dtype=complex)
        padded[:n, :] = basis
        basis, n = padded, pad_to
    if re_axis is None or im_axis is None:
        dflt = default_axes()
        re_axis = dflt[0] if re_axis is None else np.asarray(re_axis, dtype=float)
        im_axis = dflt[1] if im_axis is None else np.asarray(im_axis, dtype=float)
    else:
        re_axis = np.asarray(re_axis, dtype=float)
        im_axis = np.asarray(im_axis, dtype=float)

    m = annihilation(n)
    radial_gen = 1.0j * (m.conj().T - m)          # Hermitian; D(s) = e^{-i s G}
    lam, v = herm_eig(radial_gen)
    vh = v.conj().T
    parity_diag = (-1.0) ** np.arange(n)
    fock_idx = np.arange(n)

    values = np.empty((len(im_axis), len(re_axis)))
    for iy, y in enumerate(im_axis):
        for ix, x in enumerate(re_axis):
            s = math.hypot(x, y)
            phi = math.atan2(y, x)
            # rotate into the displacement direction, then displace radially
            cols = np.exp(-1.0j * phi * fock_idx)[:, None] * basis
            z = v @ (np.exp(1.0j * s * lam)[:, None] * (vh @ cols))
            values[iy, ix] = (2.0 / math.pi) * float(
                parity_diag @ np.einsum("nk,nk->n", z, z.conj()).real
            )

    grid = WignerGrid(re_axis=re_axis, im_axis=im_axis, values=values)
    grid.meta["fock_dim"] = n
    grid.meta["rank"] = basis.shape[1]
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
            stacklevel=2,
        )
    return grid


def wigner_negativity_volume(grid):
    """Integrated negative part of the Wigner function, >= 0."""
    return float(np.sum(np.clip(-grid.values, 0.0, None)) * grid.cell_area)


# ---------------------------------------------------------------------------
# fidelity and Fock statistics


def uhlmann_fidelity(rho1, rho2):
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), in [0, 1]."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionError(f"shape mismatch {rho1.shape} vs {rho2.shape}")
    s1 = matrix_sqrt_psd(rho1, neg_tol=1e-6)
    inner = s1 @ rho2 @ s1
    evals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    evals = np.clip(evals, 0.0, None)
    return float(np.sum(np.sqrt(evals)))


def fock_populations(rho_magnon):
    """Diagonal of the magnon state in the Fock basis."""
    return np.real(np.diagonal(np.asarray(rho_magnon))).copy()
