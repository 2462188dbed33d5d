"""Correctness checks for the benchmark's operations.

Every check compares a scenario's written output with a value the
benchmark computes itself, or with a property the method must have.
Nothing is compared with stored output.  Each check returns a list of
``Clause`` results; an operation is correct when all of its clauses hold.

The oracles:

* ``moment_series``: the Gaussian second-moment equations of the
  sector-reduced conditional run, solved exactly.  With y = (<m^dag m>,
  Re s, Im s, 1), s = <m^2> in the frame where the two-photon term is
  static, the equations are linear, y' = M y, so y(t) = expm(M t) y(0).
* ``WignerOracle``: displaced parity W(a) = (2/pi) <psi| D(a) P D(a)^dag
  |psi> with D and the squeezers from ``scipy.linalg.expm`` in a Fock
  space larger than the one the program uses.
* ``axis_field``: the closed-form centre field of a square loop,
  2 sqrt(2) mu0 I / (pi L), and its on-axis continuation.
  The field is harmonic inside a current-free ball, so its sphere average
  equals its value at the sphere centre (mean-value property).
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# CODATA 2018, kept here so the coupling oracle does not read the
# package's constants
MU0 = 1.25663706212e-6
MU_B = 9.2740100783e-24
H_PLANCK = 6.62607015e-34
YIG_SPIN_DENSITY_CM3 = 2.1e22
YIG_SPIN = 2.5
LANDE_G = 2.0

S_TOL_DB = 0.02          # master equation vs moment equations
N_TOL_REL = 2e-3         # same, on <n>, relative to 1 + <n>
RATIO_BAND = (1.85, 2.05)  # S_full / S_effective at 5 ns
W0_TOL = 1e-4
NORM_TOL = 2e-3
SYMMETRY_TOL = 1e-8
ORACLE_TOL = 1e-6
BOUNDARY_TOL = 1e-4
PROB_SUM_TOL_NOTE = 2e-6   # p_g, p_e are printed with 6 decimals in the notes
PROB_SUM_TOL_CSV = 1e-9
FIDELITY_MIN = 0.9
COUPLING_REL_TOL = 1e-9     # CSV carries 13 significant digits
ORACLE_FOCK = 480


@dataclass
class Clause:
    name: str
    ok: bool
    detail: str = ""
    fault: bool = False      # the clause names a known fault of the program


def read_csv(path):
    """CSV with a header row -> (header, float array of rows)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# moment equations


def moment_series(g_cs, delta, kappa, n_bar, times, sector=+1):
    """Exact (<n>, |<m^2>|, S_dB) of the sector run from vacuum.

    All rates in rad/ns, times in ns.  Uses one expm per distinct step of
    the (uniform or not) time grid.
    """
    c = -(g_cs / 2.0) * sector
    m = np.array([
        [-kappa, 0.0, -4.0 * c, kappa * n_bar],
        [0.0, -kappa, 2.0 * delta, 0.0],
        [-4.0 * c, -2.0 * delta, -kappa, -2.0 * c],
        [0.0, 0.0, 0.0, 0.0],
    ])
    times = np.asarray(times, dtype=float)
    y = np.array([0.0, 0.0, 0.0, 1.0])
    out = np.empty((len(times), 4))
    t_prev, step_cache = 0.0, {}
    for k, t in enumerate(times):
        dt = round(float(t) - t_prev, 12)
        if dt not in step_cache:
            step_cache[dt] = scipy.linalg.expm(m * dt)
        y = step_cache[dt] @ y
        out[k] = y
        t_prev = float(t)
    n = out[:, 0]
    s_abs = np.hypot(out[:, 1], out[:, 2])
    return n, s_abs, -10.0 * np.log10(1.0 + 2.0 * n - 2.0 * s_abs)


def rates(derived):
    """(g_cs, Delta_eff, kappa, n_bar_m) from a magsqueeze DerivedParams."""
    return derived.g_cs, derived.Delta_eff, derived.kappa, derived.n_bar_m


def compare_series(label, s_db, n_mag, oracle_s, oracle_n):
    ds = float(np.max(np.abs(s_db - oracle_s)))
    dn = float(np.max(np.abs(n_mag - oracle_n) / (1.0 + oracle_n)))
    return [
        Clause(f"{label}: S vs moment equations", ds <= S_TOL_DB,
               f"max |dS| = {ds:.2e} dB (tol {S_TOL_DB})"),
        Clause(f"{label}: <n> vs moment equations", dn <= N_TOL_REL,
               f"max |dn|/(1+n) = {dn:.2e} (tol {N_TOL_REL})"),
    ]


def check_kappa_sweep(out_dir, derive_for_kappa):
    """derive_for_kappa(kappa_MHz) -> DerivedParams at the run's detuning."""
    _, data = read_csv(os.path.join(out_dir, "kappa_sweep.csv"))
    clauses = []
    for k in np.unique(data[:, 0]):
        rows = data[data[:, 0] == k]
        n, _, s = moment_series(*rates(derive_for_kappa(float(k))), rows[:, 1])
        clauses += compare_series(f"kappa {k:g} MHz", rows[:, 2], rows[:, 3], s, n)
    _, peaks = read_csv(os.path.join(out_dir, "kappa_sweep_peaks.csv"))
    peaks = peaks[np.argsort(peaks[:, 0])]
    clauses.append(Clause(
        "peak S non-increasing in kappa",
        bool(np.all(np.diff(peaks[:, 1]) <= 0.0)),
        "peaks " + ", ".join(f"{p:.4f}" for p in peaks[:, 1]),
    ))
    return clauses


def check_heatmap(out_dir, derive_for_cell, t_max):
    """derive_for_cell(kappa_MHz) -> DerivedParams; gamma must not matter."""
    _, data = read_csv(os.path.join(out_dir, "max_squeeze_heatmap.csv"))
    times = np.arange(0.0, t_max + 0.25, 0.5)
    kappas = np.unique(data[:, 0])
    worst, flat = 0.0, True
    for k in kappas:
        rows = data[data[:, 0] == k]
        flat &= bool(np.all(rows[:, 2] == rows[0, 2]) and np.all(rows[:, 3] == rows[0, 3]))
        _, _, s = moment_series(*rates(derive_for_cell(float(k))), times)
        worst = max(worst, abs(float(rows[0, 2]) - float(np.max(s))))
    return [
        Clause("heatmap peak S vs moment equations", worst <= S_TOL_DB,
               f"max |dS| = {worst:.2e} dB over {len(kappas)} kappa rows"),
        Clause("heatmap unchanged along gamma", flat),
    ]


def check_squeeze_compare(out_dir, derived):
    _, data = read_csv(os.path.join(out_dir, "squeeze_compare.csv"))
    n, _, s = moment_series(*rates(derived), data[:, 0])
    clauses = compare_series("effective column", data[:, 1], data[:, 2], s, n)
    at5 = data[np.isclose(data[:, 0], 5.0)]
    if len(at5) != 1:
        return clauses + [Clause("S_full/S_eff at 5 ns", False, "no 5 ns sample")]
    ratio = float(at5[0, 3] / at5[0, 1])
    lo, hi = RATIO_BAND
    p = data[:, 4]
    clauses.append(Clause("S_full/S_eff at 5 ns", lo <= ratio <= hi,
                          f"{ratio:.4f} (band [{lo}, {hi}])"))
    clauses.append(Clause("p_plus_full in (0, 1]",
                          bool(np.all((p > 0.0) & (p <= 1.0 + 1e-12)))))
    return clauses


def check_refusal(exit_code, out_dir, derived, t_end):
    """Below-threshold run: the program must refuse with exit 3.

    When it does not, the report gives its last sample against the
    moment equations, which stay exact past the instability threshold.
    """
    if exit_code == 3:
        return [Clause("below threshold refused with exit 3", True)]
    detail = f"exit {exit_code}"
    path = os.path.join(out_dir, "squeeze_custom.csv")
    if exit_code == 0 and os.path.exists(path):
        _, data = read_csv(path)
        n, _, s = moment_series(*rates(derived), data[:, 0])
        detail += (f"; at {t_end:g} ns S = {data[-1, 1]:+.2f} dB, <n> = {data[-1, 2]:.2f}"
                   f"; moment equations give {s[-1]:+.2f} dB, {n[-1]:.2f}")
    return [Clause("below threshold refused with exit 3", False, detail)]


# ---------------------------------------------------------------------------
# Wigner grids


def load_grid(base):
    """Wigner CSV + descriptor -> (axis, values[iy, ix])."""
    _, data = read_csv(base + ".csv")
    lo, hi, n = read_json(base + ".json")["re_axis"]
    return np.linspace(lo, hi, n), data[:, 2].reshape(n, n)


def _annihilation(n):
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


class WignerOracle:
    """Displaced parity from matrix exponentials, cached per argument."""

    def __init__(self, fock=ORACLE_FOCK):
        self.fock = fock
        self.m = _annihilation(fock)
        self._disp = {}
        self._vacua = {}

    def _squeezed_vacuum(self, z):
        """S(z)|0> with S(z) = expm((z* m^2 - z m^dag^2) / 2)."""
        z = complex(z)
        if z not in self._vacua:
            m, md = self.m, self.m.conj().T
            gen = 0.5 * (np.conj(z) * (m @ m) - z * (md @ md))
            self._vacua[z] = scipy.linalg.expm(gen)[:, 0]
        return self._vacua[z]

    def ket(self, xi, sign):
        raw = self._squeezed_vacuum(xi) + sign * self._squeezed_vacuum(-xi)
        return raw / np.linalg.norm(raw)

    def value(self, ket, alpha):
        alpha = complex(alpha)
        if alpha not in self._disp:
            # D(alpha)^dag = expm(alpha* m - alpha m^dag)
            self._disp[alpha] = scipy.linalg.expm(
                np.conj(alpha) * self.m - alpha * self.m.conj().T)
        phi = self._disp[alpha] @ ket
        parity = (-1.0) ** np.arange(self.fock)
        return (2.0 / math.pi) * float(parity @ np.abs(phi) ** 2)


def boundary_max(values):
    return float(max(np.abs(values[0]).max(), np.abs(values[-1]).max(),
                     np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max()))


def oracle_points(ax):
    """Three off-centre grid points (index offsets from the centre)."""
    c = len(ax) // 2
    return [(c + dx, c + dy) for dx, dy in ((1, 0), (2, -1), (-1, 2))]


def check_ideal_grid(tag, ax, values, xi, sign, oracle, riemann=True):
    """Clauses for an ideal psi+- grid.  ``riemann`` adds the normalisation
    and negativity clauses, which need a grid fine enough for a Riemann sum."""
    c = len(ax) // 2
    clauses = []
    w0 = float(values[c, c]) if ax[c] == 0.0 else math.nan
    clauses.append(Clause(f"{tag}: W(0) = 2/pi", abs(w0 - 2.0 / math.pi) <= W0_TOL,
                          f"W(0) = {w0:.8f}"))
    # W(x, y) = W(-y, x): values[iy, ix] against values[ix, n-1-iy]
    rot = values.T[::-1, :]
    asym = float(np.max(np.abs(values - rot)))
    clauses.append(Clause(f"{tag}: fourfold symmetry", asym <= SYMMETRY_TOL,
                          f"max |W(x,y) - W(-y,x)| = {asym:.2e}"))
    worst = 0.0
    ket = oracle.ket(xi, sign)
    for ix, iy in oracle_points(ax):
        ref = oracle.value(ket, complex(ax[ix], ax[iy]))
        worst = max(worst, abs(float(values[iy, ix]) - ref))
    clauses.append(Clause(f"{tag}: displaced parity oracle", worst <= ORACLE_TOL,
                          f"max |dW| = {worst:.2e} at 3 points"))
    clauses.append(Clause(f"{tag}: boundary |W| <= {BOUNDARY_TOL:g}",
                          boundary_max(values) <= BOUNDARY_TOL,
                          f"{boundary_max(values):.2e}"))
    if riemann:
        h = ax[1] - ax[0]
        norm = float(values.sum() * h * h)
        neg = float(np.clip(-values, 0.0, None).sum() * h * h)
        clauses.append(Clause(f"{tag}: normalisation", abs(norm - 1.0) <= NORM_TOL,
                              f"{norm:.6f}"))
        clauses.append(Clause(f"{tag}: negativity volume > 0", neg > 0.0, f"{neg:.4f}"))
    return clauses


def notes_probabilities(manifest):
    for note in manifest["notes"]:
        if note.startswith("p_g="):
            pg, pe = (float(part.split("=")[1]) for part in note.split())
            return pg, pe
    raise ValueError("manifest notes carry no p_g/p_e")


def check_superposition_wigner(out_dir, xi, oracle, riemann=True):
    """Ideal and dissipative grids of one superposition_wigner run.

    Returns (clauses, boundary_clauses): the dissipative-boundary clauses
    are kept apart so a caller can name them as a known fault.
    """
    clauses = []
    for tag, sign in (("sym", +1), ("antisym", -1)):
        ax, values = load_grid(os.path.join(out_dir, f"wigner_ideal_{tag}"))
        clauses += check_ideal_grid(f"ideal {tag}", ax, values, xi, sign, oracle, riemann)
    pg, pe = notes_probabilities(read_json(os.path.join(out_dir, "manifest.json")))
    clauses.append(Clause("dissipative p_g + p_e = 1",
                          abs(pg + pe - 1.0) <= PROB_SUM_TOL_NOTE, f"{pg + pe:.6f}"))
    boundary = []
    for tag in ("sym", "antisym"):
        _, values = load_grid(os.path.join(out_dir, f"wigner_dissipative_{tag}"))
        b = boundary_max(values)
        boundary.append(Clause(f"dissipative {tag}: boundary |W| <= {BOUNDARY_TOL:g}",
                               b <= BOUNDARY_TOL, f"{b:.2e}"))
    return clauses, boundary


def check_fidelity(out_dir):
    _, data = read_csv(os.path.join(out_dir, "superposition_fidelity.csv"))
    psum = float(np.max(np.abs(data[:, 1] + data[:, 2] - 1.0)))
    f_sym, f_anti = data[:, 3], data[:, 4]
    return [
        Clause("p_g + p_e = 1", psum <= PROB_SUM_TOL_CSV, f"max dev {psum:.2e}"),
        Clause(f"F >= {FIDELITY_MIN}", bool(np.min(data[:, 3:5]) >= FIDELITY_MIN),
               f"min F = {np.min(data[:, 3:5]):.4f}"),
        Clause("F_antisym <= F_sym", bool(np.all(f_anti <= f_sym))),
    ]


# ---------------------------------------------------------------------------
# coupling maps


def _coupling_from_field(b_tesla, radius_um):
    n_spins = YIG_SPIN_DENSITY_CM3 * 4.0 * math.pi * (radius_um * 1e-4) ** 3 / 3.0
    energy = LANDE_G * MU_B * b_tesla * math.sqrt(n_spins * YIG_SPIN / 2.0)
    return energy / H_PLANCK * 1e-9


def axis_field(side_um, current_ua, x_um):
    """On-axis field of a square loop; 2 sqrt(2) mu0 I / (pi L) at x = 0.

    With lengths in um and currents in uA the unit factors cancel."""
    a2 = side_um**2
    return MU0 * current_ua * a2 / (
        2.0 * math.pi * (x_um**2 + a2 / 4.0) * math.sqrt(x_um**2 + a2 / 2.0))


def _rel_dev(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def check_coupling_point(out_dir, side_um):
    _, data = read_csv(os.path.join(out_dir, "coupling_map_point.csv"))
    want = np.array([_coupling_from_field(axis_field(side_um, i, 0.0), r)
                     for r, i in data[:, :2]])
    dev = _rel_dev(data[:, 2], want)
    return [Clause("point map vs closed-form centre field", dev <= COUPLING_REL_TOL,
                   f"max rel dev {dev:.2e} over {len(data)} cells")]


def check_coupling_volume(out_dir, side_um, current_ua):
    _, data = read_csv(os.path.join(out_dir, "coupling_map_volume.csv"))
    want = np.array([_coupling_from_field(axis_field(side_um, current_ua, x), r)
                     for r, x in data[:, :2]])
    dev = _rel_dev(data[:, 2], want)
    decreasing = True
    for r in np.unique(data[:, 0]):
        rows = data[data[:, 0] == r]
        rows = rows[np.argsort(rows[:, 1])]
        decreasing &= bool(np.all(np.diff(rows[:, 2]) < 0.0))
    return [
        Clause("volume map vs on-axis field (mean-value property)",
               dev <= COUPLING_REL_TOL, f"max rel dev {dev:.2e}"),
        Clause("volume map decreases in x0", decreasing),
    ]
