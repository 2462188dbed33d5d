"""Named experiment scenarios: declarative runs that write plot-ready CSV
plus a JSON manifest with checksums.

Everything here is deterministic and seed-free; rerunning a scenario with
the same config produces byte-identical CSV files.  The kappa and
temperature sweeps and the heatmap read every cell from one batched call
of the exact sector covariance evolution, whose rows do not depend on the
other cells in the batch.

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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import Config, require_fock_floor
from .constants import TWO_PI
from .coupling import YIG, coupling_map
from .dynamics import (
    _squeeze_parameters,
    conditional_squeezing_run,
    sector_covariance_squeezing,
    sector_fock_tail,
    superposition_blocks,
)
# unused here; benchmark/spans.py traces both names
from .dynamics import conditional_superposition_run, ideal_superposition_targets
from .errors import ConfigError
from .model import derive, squeezing_parameter
from .observables import superposition_fidelities, superposition_grids
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
        if self.scenario in ("custom", "squeeze_compare"):
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
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _versions():
    import scipy

    try:
        from importlib.metadata import version

        pkg = version("magsqueeze")
    except Exception:
        pkg = "unknown"
    return {"magsqueeze": pkg, "numpy": np.__version__, "scipy": scipy.__version__}


def _config_echo(cfg):
    return {
        "physical": asdict(cfg.params),
        "geometry": {
            "side_length_um": cfg.geometry.side_length,
            "current_uA": cfg.geometry.current,
            "sphere_center_um": list(cfg.sphere.center),
            "sphere_radius_um": cfg.sphere.radius,
        },
        "run": asdict(cfg.run),
    }


def write_csv(path, header, rows):
    """Plot-ready CSV: unit-annotated header, %.12e floats, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    f"{v:.12e}" if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


# manifest note of the scenarios whose cells are covariance evolutions
_COVARIANCE_NOTE = ("cells: exact sector covariance evolution "
                    "(sector_covariance_squeezing), no Fock truncation")


def _operating_delta(cfg):
    """Dissipative-run detuning in rad/ns (config override or operating default)."""
    if cfg.run.delta_eff is not None:
        return TWO_PI * cfg.run.delta_eff * 1e-3
    return OPERATING_DETUNING_RAD_NS


def _time_grid(cfg):
    return np.round(
        np.arange(0.0, cfg.run.time_max + cfg.run.time_step / 2.0, cfg.run.time_step),
        9,
    )


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


def _effective_leg(cfg, delta):
    """The pinned plus_x effective run on the scenario's time grid, and the
    manifest note of its path and worst Fock tail."""
    run = conditional_squeezing_run(cfg.params, qubit_init="plus_x", model="effective",
                                    fock_dim=cfg.run.fock_dim, sample_times=_time_grid(cfg),
                                    delta_eff=delta)
    meta = run.metadata
    return run, (f"effective: path={meta['path']}, max_fock_tail={meta['max_fock_tail']:.2e} "
                 f"at t={meta['max_fock_tail_time']:g} ns, fock_dim={meta['fock_dim']}")


def _run_squeeze_compare(sc, outdir):
    cfg = sc.config
    delta = _operating_delta(cfg)
    eff, eff_note = _effective_leg(cfg, delta)
    times = eff.times

    # full model in the exact half-pump rotating frame (unitarily identical
    # to the lab-frame drive, far cheaper to step)
    t_full_max = min(cfg.run.time_max, 40.0)
    times_full = times[times <= t_full_max + 1e-9]
    full = conditional_squeezing_run(
        cfg.params,
        qubit_init="plus_x",
        model="full_rotating",
        fock_dim=cfg.run.fock_dim,
        sample_times=times_full,
        delta_eff=delta,
    )

    rows = []
    s_full = dict(zip(np.round(full.times, 9), full.observables["squeezing_db"]))
    p_full = dict(zip(np.round(full.times, 9), full.observables["p_plus"]))
    for i, t in enumerate(times):
        key = round(float(t), 9)
        rows.append(
            (
                float(t),
                float(eff.observables["squeezing_db"][i]),
                float(eff.observables["n_magnon"][i]),
                float(s_full.get(key, math.nan)),
                float(p_full.get(key, math.nan)),
            )
        )
    path = os.path.join(outdir, "squeeze_compare.csv")
    write_csv(
        path,
        ["time_ns", "S_effective_dB", "n_effective", "S_full_dB", "p_plus_full"],
        rows,
    )
    notes = [
        f"delta_eff_rad_ns={delta:.6e}",
        eff_note,
        f"full-model window 0..{t_full_max} ns (rotating-frame integration)",
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
    peaks = [(v, float(s_db[i, peak[i]]), float(times[peak[i]]))
             for i, v in enumerate(values)]
    rows = [(float(v), float(t), float(s), float(n))
            for v, s_row, n_row in zip(values, s_db, n_m)
            for t, s, n in zip(times, s_row, n_row)]
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
    exact covariance evolution of the sector-reduced run: every cell in one
    batched call.

    The qubit channel acts trivially on the sb_x-polarized protocol, so
    the gamma axis cannot change these values; it is swept and recorded
    for orientation against the figure it mirrors.
    """
    cfg = sc.config
    delta = _operating_delta(cfg)
    pts = cfg.run.heatmap_points
    kappas = np.logspace(-1.0, 1.0, pts)       # 0.1 .. 10 MHz
    gammas = np.logspace(0.0, 3.0, pts)        # 1 .. 1000 kHz
    cells = [(float(k), float(g)) for k in kappas for g in gammas]
    times = np.arange(0.0, cfg.run.time_max + 0.25, 0.5)
    s_db = sector_covariance_squeezing(
        [replace(cfg.params, kappa=k, gamma=g, gamma_phi=g) for k, g in cells],
        times, delta_eff=delta,
    )["squeezing_db"]
    peak = np.argmax(s_db, axis=1)
    rows = [(k, g, float(s_db[i, peak[i]]), float(times[peak[i]]))
            for i, (k, g) in enumerate(cells)]
    path = os.path.join(outdir, "max_squeeze_heatmap.csv")
    write_csv(path, ["kappa_MHz", "gamma_kHz", "peak_S_dB", "t_peak_ns"], rows)
    notes = [
        f"delta_eff_rad_ns={delta:.6e}",
        _COVARIANCE_NOTE,
        "gamma axis is inert for this protocol (qubit channel acts trivially "
        "on sb_x eigenstates); see README",
    ]
    return [path], notes


def _run_superposition_wigner(sc, outdir):
    cfg = sc.config
    t_sup = cfg.run.superposition_time
    xi = squeezing_parameter(cfg.params, t_sup, delta_eff=0.0)
    ax = np.linspace(-8.0, 8.0, cfg.run.wigner_points)

    outputs, notes = [], [f"t={t_sup} ns, xi={xi:.6f} (delta_eff=0)"]
    # both legs post-select the run from |0>|g> at delta_eff = 0; without
    # dissipation its outcomes are psi+- = S(xi)|0> +- S(-xi)|0>
    ideal = replace(cfg.params, kappa=0.0, gamma=0.0)
    for kind, params in (("ideal", ideal), ("dissipative", cfg.params)):
        blocks = superposition_blocks(params, [t_sup], delta_eff=0.0)
        grids = superposition_grids({key: [x[0] for x in blk] for key, blk in blocks.items()},
                                    ax, ax)
        for outcome, tag in (("g", "sym"), ("e", "antisym")):
            base = os.path.join(outdir, f"wigner_{kind}_{tag}")
            grids[outcome][1].to_csv(base + ".csv")
            grids[outcome][1].to_json(base + ".json")
            outputs += [base + ".csv", base + ".json"]
    notes.append("grids: closed-form Gaussian sb_x blocks (superposition_blocks), "
                 "no Fock truncation")
    notes.append(f"p_g={grids['g'][0]:.6f} p_e={grids['e'][0]:.6f}")
    return outputs, notes


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
    return [tuple(float(v) for v in row) for row in zip(times, p_g, p_e, f_g, f_e)]


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
    run, eff_note = _effective_leg(cfg, delta)
    rows = [
        (float(t), float(s), float(n))
        for t, s, n in zip(
            run.times, run.observables["squeezing_db"], run.observables["n_magnon"]
        )
    ]
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


def calibrate_delta_eff(sc, full_series=None, window_mhz=10.0, n_scan=41,
                        t_max=40.0):
    """Scan Delta_eff around the analytic default and pick the value
    minimizing the time-integrated |S_full - S_eff|.

    full_series: optional (times, S_dB) tuple to calibrate against.
    Without it, the full model is integrated in the rotating frame over
    [0, t_max].

    Returns (best_delta_rad_ns, scan_table, convex) where scan_table is a
    list of (delta_rad_ns, objective) rows.

    The effective series is even in Delta_eff (sector_covariance_squeezing),
    so the objective is too: each minimum at +Delta has a mirror at -Delta
    with the same S(t).  A window that holds both, like check 6's +-30 MHz
    around +2 MHz, is never single-minimum and warns; the pick falls in
    whichever of the two wells the grid samples more closely (check 6:
    -9.99 MHz, the mirror of +9.99 MHz).
    """
    cfg = sc.config
    d = derive(cfg.params)
    center = d.Delta_eff
    half = TWO_PI * window_mhz * 1e-3
    grid = np.linspace(center - half, center + half, n_scan)

    if full_series is not None:
        t_ref, s_ref = full_series
    else:
        full = conditional_squeezing_run(
            cfg.params,
            qubit_init="plus_x",
            model="full_rotating",
            fock_dim=cfg.run.fock_dim,
            sample_times=np.arange(0.0, t_max + 0.25, 0.5),
        )
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
    return table[best][0], table, convex


def convergence_check(sc):
    """Check the scenario's truncated leg against its fock_dim.

    custom and squeeze_compare: the worst Fock tail of the pinned effective
    run (the exact sector covariance) over the scenario's time grid, as
    max_fock_tail and its time; flagged above MIXED_TAIL_TOL.  The other
    scenarios, superposition_fidelity and superposition_wigner among them,
    truncate nothing: trivially converged.
    """
    cfg = sc.config
    nf = cfg.run.fock_dim
    report = {"fock_dim": nf}

    if sc.scenario in ("coupling_map_a", "coupling_map_b", "kappa_sweep",
                       "temperature_sweep", "max_squeeze_heatmap", "superposition_wigner",
                       "superposition_fidelity"):
        report["notes"] = "no Fock-space content; trivially converged"
        report["flagged"] = False
    else:
        cov = sector_covariance_squeezing(cfg.params, _time_grid(cfg), _operating_delta(cfg))
        report["max_fock_tail"], report["max_fock_tail_time"] = sector_fock_tail(cov, nf)
        report["fock_tail_tol"] = MIXED_TAIL_TOL
        report["flagged"] = report["max_fock_tail"] > MIXED_TAIL_TOL
    return report
