"""Named experiment scenarios: declarative runs that write plot-ready CSV
plus a JSON manifest with checksums.

Everything here is deterministic and seed-free; rerunning a scenario with
the same config produces byte-identical CSV files.  The kappa and
temperature sweeps read every cell from one batched call of the exact
sector covariance evolution, whose rows do not depend on the other cells in
the batch; the heatmap makes one such call with one cell per kappa.

superposition_wigner and superposition_fidelity run no master equation
either: every grid, ideal and dissipative, and every outcome weight and
fidelity is read from the closed-form Gaussian sb_x blocks of the
superposition run (dynamics.superposition_blocks), the fidelities as
Gaussian overlaps with the targets' outer products, so fock_dim enters
neither.

A note on detuning defaults.  The two-photon interaction is only bounded
for |Delta_eff| > |g_cs| = 2pi x 7.5 MHz; at or below that the sector
dynamics are a detuned parametric amplifier past threshold and the magnon
number grows without bound, which no truncated simulation represents
honestly.  Dissipative scenarios therefore default to an operating
detuning just above threshold (below), which preserves > 8 dB conditional
squeezing while keeping occupations of order unity.  The ideal
superposition states are squeezed vacua at Delta_eff = 0, where
xi(t) = -i g_cs t; the fidelity targets are the squeezed vacua of the
exact dissipation-free sector covariance at the run's own detuning.
"""

import hashlib
import json
import math
import os
import time as _time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import Config, require_fock_floor
from .constants import TWO_PI
from .coupling import YIG, coupling_map
from .dynamics import (
    _squeeze_parameters,
    conditional_squeezing_run,
    default_sample_times,
    sector_covariance_squeezing,
    sector_fock_tail,
    superposition_blocks,
)
# unused here; benchmark/spans.py traces both names
from .dynamics import conditional_superposition_run, ideal_superposition_targets
from .errors import ConfigError, TruncationError
from .model import derive, squeezing_parameter
from .observables import require_outcome, superposition_fidelities, superposition_grids
from .observables import wigner  # unused here; benchmark/spans.py traces scenarios.wigner
from .states import MIXED_TAIL_TOL
from .states import superposition_pm  # unused here; benchmark/spans.py traces it too

_trapz = getattr(np, "trapezoid", None) or np.trapz

SCENARIOS = (
    "coupling_map_a",
    "coupling_map_b",
    "squeeze_compare",
    "kappa_sweep",
    "temperature_sweep",
    "max_squeeze_heatmap",
    "superposition_wigner",
    "superposition_fidelity",
    "custom",
)

# the scenarios whose effective leg is read at fock_dim: they hold the
# fock_dim floor, and converge checks their Fock tail; the rest truncate
# nothing
TRUNCATING_SCENARIOS = ("custom", "squeeze_compare")

# Operating detuning for dissipative runs: just above the two-photon
# instability threshold |g_cs| = 2pi x 7.495 MHz, so the conditional
# dynamics stay bounded (peak <n> ~ 2.5) while the squeezing peak stays
# above 8 dB.  Linear MHz here; converted like every other frequency.
OPERATING_DETUNING_MHZ = 8.75
OPERATING_DETUNING_RAD_NS = TWO_PI * OPERATING_DETUNING_MHZ * 1e-3


@dataclass
class ScenarioConfig:
    scenario: str = "custom"
    config: Config = field(default_factory=Config)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r} (choose from {SCENARIOS})"
            )
        if self.scenario in TRUNCATING_SCENARIOS:
            require_fock_floor(self.config.run, self.scenario)

    @classmethod
    def from_config(cls, cfg, scenario=None):
        name = scenario or cfg.run.scenario
        return cls(scenario=name, config=cfg)


@dataclass
class RunManifest:
    scenario: str
    config_echo: dict
    versions: dict
    outputs: list
    wall_clock_s: float
    notes: list = field(default_factory=list)

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(vars(self), indent=2, sort_keys=True) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _versions():
    import scipy

    return {"magsqueeze": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _config_echo(cfg):
    return {
        "physical": dict(vars(cfg.params)),
        "geometry": {
            "side_length_um": cfg.geometry.side_length,
            "current_uA": cfg.geometry.current,
        },
        "run": dict(vars(cfg.run)),
    }


def write_csv(path, header, rows):
    """Plot-ready CSV: unit-annotated header, %.12e floats, str() of any
    other value, LF endings.  Each row is formatted by one %-template, built
    again only when the types along a row change."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        kinds = None
        for row in map(tuple, rows):
            if kinds != (kinds := tuple(map(type, row))):
                template = ",".join("%.12e" if isinstance(v, float) else "%s"
                                    for v in row) + "\n"
            fh.write(template % row)


# manifest note of the scenarios whose cells are covariance evolutions
_COVARIANCE_NOTE = ("cells: exact sector covariance evolution "
                    "(sector_covariance_squeezing), no Fock truncation")


def _operating_delta(cfg):
    """Dissipative-run detuning in rad/ns (config override or operating default)."""
    if cfg.run.delta_eff is not None:
        return TWO_PI * cfg.run.delta_eff * 1e-3
    return OPERATING_DETUNING_RAD_NS


def _time_grid(cfg):
    return default_sample_times(cfg.run.time_max, cfg.run.time_step)


# ---------------------------------------------------------------------------
# scenario bodies (each returns (outputs, notes))


def _run_coupling_map(sc, outdir, mode):
    cfg = sc.config
    if mode == "point_sphere":
        axes = {
            "R": np.linspace(0.1, 1.0, 19),
            "I_p": np.linspace(0.1, 1.0, 19),
        }
        fname = "coupling_map_point.csv"
    else:
        axes = {
            "R": np.linspace(0.1, 1.0, 19),
            "x0": np.linspace(0.0, 3.0, 21),
        }
        fname = "coupling_map_volume.csv"
    result = coupling_map(cfg.geometry, YIG, axes, mode=mode)
    path = os.path.join(outdir, fname)
    result.to_csv(path)
    return [path], [f"mode={mode}"]


def _sector_tail(cfg, delta):
    """(cov, tail, t): the plus_x sector covariance on the scenario's time
    grid, and the worst Fock tail that fock_dim leaves out, with its time."""
    cov = sector_covariance_squeezing(cfg.params, _time_grid(cfg), delta)
    return (cov, *sector_fock_tail(cov, cfg.run.fock_dim))


def _effective_leg(cfg, delta):
    """The plus_x sector covariance on the scenario's time grid, and the
    manifest note of its path and worst Fock tail.  A tail above
    MIXED_TAIL_TOL raises TruncationError: fock_dim cannot hold the state."""
    cov, tail, t_tail = _sector_tail(cfg, delta)
    nf = cfg.run.fock_dim
    if tail > MIXED_TAIL_TOL:
        raise TruncationError(f"the sector state leaves {tail:.2e} of its population beyond "
                              f"fock_dim={nf} at t = {t_tail:.3f} ns "
                              f"(tolerance {MIXED_TAIL_TOL:.0e})")
    return cov, (f"effective: path=sector_exact, max_fock_tail={tail:.2e} "
                 f"at t={t_tail:g} ns, fock_dim={nf}")


def _full_window(cfg):
    """(t_end, times): the full leg's window, t_end = min(time_max, 40 ns),
    and the scenario's time grid up to it."""
    t_end = min(cfg.run.time_max, 40.0)
    times = _time_grid(cfg)
    return t_end, times[times <= t_end + 1e-9]


def _run_squeeze_compare(sc, outdir):
    cfg = sc.config
    delta = _operating_delta(cfg)
    eff, eff_note = _effective_leg(cfg, delta)

    # full model in the exact half-pump rotating frame (unitarily identical
    # to the lab-frame drive, far cheaper to step); its times are a prefix
    # of the effective grid
    t_full_max, times_full = _full_window(cfg)
    full = conditional_squeezing_run(cfg.params, fock_dim=cfg.run.fock_dim,
                                     sample_times=times_full)
    pad = np.full(len(eff["times"]) - len(full.times), math.nan)
    rows = np.column_stack([eff["times"], eff["squeezing_db"], eff["n_magnon"],
                            np.concatenate([full.observables["squeezing_db"], pad]),
                            np.concatenate([full.observables["p_plus"], pad])]).tolist()
    path = os.path.join(outdir, "squeeze_compare.csv")
    write_csv(
        path,
        ["time_ns", "S_effective_dB", "n_effective", "S_full_dB", "p_plus_full"],
        rows,
    )
    notes = [
        f"delta_eff_rad_ns={delta:.6e}",
        eff_note,
        f"full-model window 0..{t_full_max} ns (rotating-frame integration), fock sizes "
        + ", ".join(f"{n} from {t:.3f} ns" for n, t in full.metadata["fock_sizes"])
        + f" (cap fock_dim={cfg.run.fock_dim})",
    ]
    return [path], notes


def _run_parameter_sweep(sc, outdir, param, column, values):
    """Conditional squeezing over one PhysicalParams field, every cell from
    one batched covariance call: each S(t), n(t) series plus each cell's
    peak, as <param>_sweep.csv and <param>_sweep_peaks.csv."""
    cfg = sc.config
    delta = _operating_delta(cfg)
    times = _time_grid(cfg)
    out = sector_covariance_squeezing(
        [replace(cfg.params, **{param: v}) for v in values], times, delta_eff=delta)
    s_db, n_m = out["squeezing_db"], out["n_magnon"]
    peak = np.argmax(s_db, axis=1)
    peaks = list(zip(values, s_db[np.arange(len(values)), peak].tolist(), times[peak].tolist()))
    rows = np.column_stack([np.repeat(values, len(times)), np.tile(times, len(values)),
                            s_db.ravel(), n_m.ravel()]).tolist()
    path = os.path.join(outdir, f"{param}_sweep.csv")
    write_csv(path, [column, "time_ns", "S_dB", "n_magnon"], rows)
    peak_path = os.path.join(outdir, f"{param}_sweep_peaks.csv")
    write_csv(peak_path, [column, "peak_S_dB", "t_peak_ns"], peaks)
    return [path, peak_path], [f"delta_eff_rad_ns={delta:.6e}", _COVARIANCE_NOTE]


def _run_kappa_sweep(sc, outdir):
    return _run_parameter_sweep(sc, outdir, "kappa", "kappa_MHz",
                                (0.5, 1.0, 2.0, 4.0))


def _run_temperature_sweep(sc, outdir):
    return _run_parameter_sweep(sc, outdir, "temperature", "temperature_mK",
                                (10.0, 100.0, 200.0, 300.0))


def _run_heatmap(sc, outdir):
    """Peak conditional squeezing over the (kappa, gamma) plane, from the
    exact covariance evolution of the sector-reduced run: one batched call
    with one cell per kappa.

    The qubit channel acts trivially on the sb_x-polarized protocol, so
    gamma does not enter the moment equations and each kappa's peak is
    repeated along the gamma axis, which is recorded for orientation
    against the figure it mirrors.
    """
    cfg = sc.config
    delta = _operating_delta(cfg)
    pts = cfg.run.heatmap_points
    kappas = np.logspace(-1.0, 1.0, pts)       # 0.1 .. 10 MHz
    gammas = np.logspace(0.0, 3.0, pts)        # 1 .. 1000 kHz
    times = _time_grid(cfg)
    s_db = sector_covariance_squeezing(
        [replace(cfg.params, kappa=float(k)) for k in kappas], times, delta_eff=delta,
    )["squeezing_db"]
    peak = np.argmax(s_db, axis=1)
    rows = np.column_stack([np.repeat(kappas, pts), np.tile(gammas, pts),
                            np.repeat(s_db[np.arange(pts), peak], pts),
                            np.repeat(times[peak], pts)]).tolist()
    path = os.path.join(outdir, "max_squeeze_heatmap.csv")
    write_csv(path, ["kappa_MHz", "gamma_kHz", "peak_S_dB", "t_peak_ns"], rows)
    notes = [
        f"delta_eff_rad_ns={delta:.6e}",
        _COVARIANCE_NOTE,
        "gamma axis is inert for this protocol (qubit channel acts trivially "
        "on sb_x eigenstates); see README",
    ]
    return [path], notes


def superposition_wigner_grids(cfg, ideal=False):
    """{"g": (p, grid), "e": (p, grid)} of the run from |0>|g> at delta_eff =
    0, at run.superposition_time, from the closed-form sb_x blocks; ideal
    drops kappa and gamma, leaving psi+- = S(xi)|0> +- S(-xi)|0>.  An
    outcome without weight (e at t = 0) has no entry."""
    params = replace(cfg.params, kappa=0.0, gamma=0.0) if ideal else cfg.params
    ax = np.linspace(-8.0, 8.0, cfg.run.wigner_points)
    blocks = superposition_blocks(params, [cfg.run.superposition_time], delta_eff=0.0)
    return superposition_grids({key: [x[0] for x in blk] for key, blk in blocks.items()},
                               ax, ax)


def _run_superposition_wigner(sc, outdir):
    cfg = sc.config
    t_sup = cfg.run.superposition_time
    xi = squeezing_parameter(cfg.params, t_sup, delta_eff=0.0)

    # every grid exists before the first is written: no outcome, no files
    grids = {}
    for kind in ("ideal", "dissipative"):
        by_outcome = superposition_wigner_grids(cfg, ideal=kind == "ideal")
        for outcome, tag in (("g", "sym"), ("e", "antisym")):
            grids[kind, tag] = require_outcome(by_outcome, outcome)
    outputs = []
    for (kind, tag), (_, grid) in grids.items():
        base = os.path.join(outdir, f"wigner_{kind}_{tag}")
        grid.to_csv(base + ".csv")
        grid.to_json(base + ".json")
        outputs += [base + ".csv", base + ".json"]
    p_g, p_e = grids["dissipative", "sym"][0], grids["dissipative", "antisym"][0]
    return outputs, [f"t={t_sup} ns, xi={xi:.6f} (delta_eff=0)",
                     "grids: closed-form Gaussian sb_x blocks (superposition_blocks), "
                     "no Fock truncation",
                     f"p_g={p_g:.6f} p_e={p_e:.6f}"]


def superposition_fidelity_series(params, times, delta_eff):
    """Dissipative superposition protocol vs zero-dissipation targets.

    Returns rows (t, p_g, p_e, F_g, F_e): the post-selected magnon states
    of the run from |0> (x) |g> against (S(zeta)|0> +- S(-zeta)|0>)/N, zeta
    from the kappa = 0 sector covariance at the run's own detuning, read as
    Gaussian overlaps of the closed-form sb_x blocks
    (superposition_fidelities): nothing is truncated and no master
    equation runs.  An outcome of weight at or below 1e-12 (e at t = 0)
    raises NumericalError.
    """
    times = np.asarray(times, dtype=float)
    zeta = _squeeze_parameters(
        sector_covariance_squeezing(replace(params, kappa=0.0), times, delta_eff))
    out = superposition_fidelities(superposition_blocks(params, times, delta_eff), zeta)
    (p_g, f_g), (p_e, f_e) = out["g"], out["e"]
    return list(zip(times.tolist(), p_g.tolist(), p_e.tolist(), f_g.tolist(), f_e.tolist()))


_FIDELITY_TIMES_NS = np.arange(5.0, 40.0 + 2.5, 5.0)


def _run_superposition_fidelity(sc, outdir):
    cfg = sc.config
    delta = _operating_delta(cfg)
    rows = superposition_fidelity_series(cfg.params, _FIDELITY_TIMES_NS, delta)
    path = os.path.join(outdir, "superposition_fidelity.csv")
    write_csv(path, ["time_ns", "p_g", "p_e", "F_sym", "F_antisym"], rows)
    return [path], [f"delta_eff_rad_ns={delta:.6e}",
                    "closed-form Gaussian overlaps (superposition_blocks), no Fock truncation"]


def _run_custom(sc, outdir):
    """Minimal deterministic run: effective conditional squeezing series."""
    cfg = sc.config
    delta = _operating_delta(cfg)
    cov, eff_note = _effective_leg(cfg, delta)
    rows = np.column_stack([cov["times"], cov["squeezing_db"], cov["n_magnon"]]).tolist()
    path = os.path.join(outdir, "squeeze_custom.csv")
    write_csv(path, ["time_ns", "S_dB", "n_magnon"], rows)
    return [path], [f"delta_eff_rad_ns={delta:.6e}", eff_note]


_SCENARIO_BODIES = {
    "coupling_map_a": lambda sc, out: _run_coupling_map(sc, out, "point_sphere"),
    "coupling_map_b": lambda sc, out: _run_coupling_map(sc, out, "volume_avg"),
    "squeeze_compare": _run_squeeze_compare,
    "kappa_sweep": _run_kappa_sweep,
    "temperature_sweep": _run_temperature_sweep,
    "max_squeeze_heatmap": _run_heatmap,
    "superposition_wigner": _run_superposition_wigner,
    "superposition_fidelity": _run_superposition_fidelity,
    "custom": _run_custom,
}


def run(sc):
    """Execute a scenario; write outputs + manifest.json; return the manifest."""
    outdir = sc.config.run.output_dir
    os.makedirs(outdir, exist_ok=True)
    t0 = _time.perf_counter()
    outputs, notes = _SCENARIO_BODIES[sc.scenario](sc, outdir)
    manifest = RunManifest(
        scenario=sc.scenario,
        config_echo=_config_echo(sc.config),
        versions=_versions(),
        outputs=[
            {"path": os.path.relpath(p, outdir), "sha256": _sha256(p),
             "bytes": os.path.getsize(p)}
            for p in outputs
        ],
        wall_clock_s=_time.perf_counter() - t0,
        notes=notes,
    )
    manifest.write(os.path.join(outdir, "manifest.json"))
    return manifest


# ---------------------------------------------------------------------------
# calibration and convergence


def calibrate_delta_eff(sc, full_series=None, window_mhz=10.0, n_scan=41):
    """Scan Delta_eff around the analytic default and pick the value
    minimizing the time-integrated |S_full - S_eff|.

    full_series: optional (times, S_dB) tuple to calibrate against.
    Without it, the full model is integrated in the rotating frame over
    squeeze_compare's full-leg window: the run's time grid up to
    min(time_max, 40 ns).

    Returns (best_delta_rad_ns, scan_table, convex) where scan_table is a
    list of (delta_rad_ns, objective) rows.

    The effective series is even in Delta_eff (sector_covariance_squeezing),
    so the objective is too: each minimum at +Delta has a mirror at -Delta
    with the same S(t).  A window that holds both, like check 6's +-30 MHz
    around +2 MHz, is never single-minimum and warns; the pick falls in
    whichever of the two wells the grid samples more closely (check 6:
    -9.99 MHz, the mirror of +9.99 MHz).

    A pick at or below the two-photon threshold (below_threshold) warns
    too: there the magnon number grows without bound, so the effective
    model has no squeezing peak to match.  A short window can favour one
    (fock 40 over 0-5 ns picks 0.007 MHz).
    """
    cfg = sc.config
    d = derive(cfg.params)
    center = d.Delta_eff
    half = TWO_PI * window_mhz * 1e-3
    grid = np.linspace(center - half, center + half, n_scan)

    if full_series is not None:
        t_ref, s_ref = full_series
    else:
        full = conditional_squeezing_run(cfg.params, fock_dim=cfg.run.fock_dim,
                                         sample_times=_full_window(cfg)[1])
        t_ref, s_ref = full.times, full.observables["squeezing_db"]

    t_ref = np.asarray(t_ref, dtype=float)
    s_ref = np.asarray(s_ref, dtype=float)
    s_eff = sector_covariance_squeezing(cfg.params, t_ref, delta_eff=grid)["squeezing_db"]
    objs = _trapz(np.abs(s_eff - s_ref), t_ref, axis=-1)
    table = [(float(delta), float(obj)) for delta, obj in zip(grid, objs)]
    best = int(np.argmin(objs))
    # single-minimum = interior optimum, nonincreasing before, nondecreasing after
    convex = (
        0 < best < n_scan - 1
        and np.all(np.diff(objs[: best + 1]) <= 1e-12)
        and np.all(np.diff(objs[best:]) >= -1e-12)
    )
    if not convex:
        warnings.warn(
            "calibration objective is not single-minimum on the scan window; "
            "full scan table returned",
            stacklevel=2,
        )
    pick = table[best][0]
    if below_threshold(cfg.params, pick):
        warnings.warn(
            f"calibrated delta_eff {pick / TWO_PI * 1e3:.3f} MHz is at or below the "
            f"two-photon threshold |g_cs| = {abs(d.g_cs) / TWO_PI * 1e3:.3f} MHz, "
            "where the magnon number grows without bound",
            stacklevel=2,
        )
    return pick, table, convex


def below_threshold(params, delta_eff):
    """True where |delta_eff| <= |g_cs|: the detuned two-magnon drive is
    past its instability threshold and the magnon number grows without
    bound."""
    return abs(delta_eff) <= abs(derive(params).g_cs)


def convergence_check(sc):
    """Check the scenario's truncated leg against its fock_dim.

    TRUNCATING_SCENARIOS (custom, squeeze_compare): the worst Fock tail of
    their effective leg (_sector_tail) over the scenario's time grid, as
    max_fock_tail and its time; flagged above MIXED_TAIL_TOL, where the
    leg itself would refuse to run.  The other scenarios,
    superposition_fidelity and superposition_wigner among them, truncate
    nothing: trivially converged.
    """
    cfg = sc.config
    report = {"fock_dim": cfg.run.fock_dim}

    if sc.scenario not in TRUNCATING_SCENARIOS:
        report["notes"] = "no Fock-space content; trivially converged"
        report["flagged"] = False
    else:
        _, report["max_fock_tail"], report["max_fock_tail_time"] = _sector_tail(
            cfg, _operating_delta(cfg))
        report["fock_tail_tol"] = MIXED_TAIL_TOL
        report["flagged"] = report["max_fock_tail"] > MIXED_TAIL_TOL
    return report
