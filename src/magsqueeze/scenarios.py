"""Named experiment scenarios: declarative runs that write plot-ready CSV
plus a JSON manifest with checksums.

Everything here is deterministic and seed-free; rerunning a scenario with
the same config produces byte-identical CSV files.  The kappa and
temperature sweeps and the heatmap read every cell from one batched call
of the exact sector covariance evolution, whose rows do not depend on the
other cells in the batch.

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

from .config import Config
from .constants import TWO_PI
from .coupling import YIG, coupling_map
from .dynamics import (
    SolverConfig,
    conditional_squeezing_run,
    conditional_superposition_run,
    ideal_superposition_targets,
    sector_covariance_squeezing,
)
from .errors import ConfigError
from .model import derive, squeezing_parameter
from .observables import wigner
from .states import superposition_pm

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
        if self.config.run.fock_dim < 40:
            raise ConfigError("fock_dim must be at least 40")

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


def _effective_series(params, times, delta_eff, fock_dim):
    # strongly damped runs (kappa ~ 4 MHz over 150 ns) accumulate enough
    # integration error at the library default tolerances to trip the
    # positivity monitor; pin the solver a decade tighter here
    run = conditional_squeezing_run(
        params,
        qubit_init="plus_x",
        model="effective",
        fock_dim=fock_dim,
        sample_times=times,
        delta_eff=delta_eff,
        solver=SolverConfig(rel_tol=1e-9, abs_tol=1e-11),
    )
    return run


def _run_squeeze_compare(sc, outdir):
    cfg = sc.config
    delta = _operating_delta(cfg)
    times = _time_grid(cfg)
    eff = _effective_series(cfg.params, times, delta, cfg.run.fock_dim)

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
    half_width, n_pts = 8.0, cfg.run.wigner_points
    ax = np.linspace(-half_width, half_width, n_pts)

    outputs, notes = [], [f"t={t_sup} ns, xi={xi:.6f} (delta_eff=0)"]
    ket_dim = 420            # holds psi+- to round-off (1e-30) up to 29 ns
    for sign, tag in ((+1, "sym"), ((-1), "antisym")):
        ket = superposition_pm(xi, sign, ket_dim)
        grid = wigner(ket, ax, ax)
        base = os.path.join(outdir, f"wigner_ideal_{tag}")
        grid.to_csv(base + ".csv")
        grid.to_json(base + ".json")
        outputs += [base + ".csv", base + ".json"]

    # dissipative counterparts: evolve |0>|g> under the effective model at
    # delta_eff = 0 and postselect the qubit energy basis at t_sup
    nf = max(cfg.run.fock_dim, 120)
    run = conditional_superposition_run(
        cfg.params, np.array([t_sup]), fock_dim=nf, delta_eff=0.0
    )
    for outcome, tag in (("g", "sym"), ("e", "antisym")):
        rho = run.metadata[f"states_{outcome}"][-1]
        grid = wigner(rho.matrix, ax, ax, weight_floor=1e-6)
        base = os.path.join(outdir, f"wigner_dissipative_{tag}")
        grid.to_csv(base + ".csv")
        grid.to_json(base + ".json")
        outputs += [base + ".csv", base + ".json"]
    notes.append(f"dissipative run fock_dim={nf}; ideal kets at {ket_dim}")
    notes.append(
        f"p_g={run.observables['p_g'][-1]:.6f} p_e={run.observables['p_e'][-1]:.6f}"
    )
    return outputs, notes


def superposition_fidelity_series(params, times, fock_dim, delta_eff, solver=None):
    """Dissipative superposition protocol vs zero-dissipation targets.

    Returns rows (t, p_g, p_e, F_g, F_e): postselected magnon states
    against the untruncated dissipation-free states
    (ideal_superposition_targets), written into the run's fock_dim; a
    target that does not fit raises TruncationError before the run starts.
    """
    times = np.asarray(times, dtype=float)
    all_targets = ideal_superposition_targets(params, times, fock_dim, delta_eff)
    solver = solver or SolverConfig(rel_tol=1e-9, abs_tol=1e-11)
    run = conditional_superposition_run(
        params, times, fock_dim=fock_dim, delta_eff=delta_eff, solver=solver,
    )
    rows = []
    for i, (t, targets) in enumerate(zip(run.times, all_targets)):
        row = [float(t), float(run.observables["p_g"][i]),
               float(run.observables["p_e"][i])]
        for outcome in ("g", "e"):
            rho = run.metadata[f"states_{outcome}"][i].matrix
            _, ket = targets[outcome]
            # Uhlmann fidelity against a pure target reduces to sqrt(<psi|rho|psi>)
            f = math.sqrt(max(0.0, float(np.real(np.vdot(ket, rho @ ket)))))
            row.append(f)
        rows.append(tuple(row))
    return rows


_FIDELITY_TIMES_NS = np.arange(5.0, 40.0 + 2.5, 5.0)


def _run_superposition_fidelity(sc, outdir):
    cfg = sc.config
    delta = _operating_delta(cfg)
    nf = max(cfg.run.fock_dim, 120)
    rows = superposition_fidelity_series(cfg.params, _FIDELITY_TIMES_NS, nf, delta)
    path = os.path.join(outdir, "superposition_fidelity.csv")
    write_csv(path, ["time_ns", "p_g", "p_e", "F_sym", "F_antisym"], rows)
    return [path], [f"delta_eff_rad_ns={delta:.6e}", f"fock_dim={nf}"]


def _run_custom(sc, outdir):
    """Minimal deterministic run: effective conditional squeezing series."""
    cfg = sc.config
    delta = _operating_delta(cfg)
    times = _time_grid(cfg)
    run = _effective_series(cfg.params, times, delta, cfg.run.fock_dim)
    rows = [
        (float(t), float(s), float(n))
        for t, s, n in zip(
            times, run.observables["squeezing_db"], run.observables["n_magnon"]
        )
    ]
    path = os.path.join(outdir, "squeeze_custom.csv")
    write_csv(path, ["time_ns", "S_dB", "n_magnon"], rows)
    return [path], [f"delta_eff_rad_ns={delta:.6e}"]


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
    """Rerun the scenario's most demanding point at fock_dim and fock_dim+20.

    Reports max |dS| (dB) between the two truncations, for Wigner
    scenarios the max |dW| and for superposition_fidelity the largest
    change in p_g, p_e, F_sym and F_antisym; flags failure above 0.02 dB /
    1e-3 / 1e-3.  The coupling maps and the covariance scenarios have no
    Fock space to truncate and report as trivially converged.
    """
    cfg = sc.config
    nf = cfg.run.fock_dim
    report = {"fock_dim": nf, "fock_dim_check": nf + 20, "max_delta_s_db": 0.0,
              "max_delta_wigner": 0.0, "max_delta_fidelity": 0.0}

    if sc.scenario in ("coupling_map_a", "coupling_map_b", "kappa_sweep",
                       "temperature_sweep", "max_squeeze_heatmap"):
        report["notes"] = "no Fock-space content; trivially converged"
        report["flagged"] = False
        return report

    if sc.scenario == "superposition_wigner":
        # the demanding point is the dissipative leg: the joint master
        # equation truncated at nf (ideal kets are built at a fixed 420 and
        # guarded separately).  Mirror the scenario's internal floor.
        nf0 = max(nf, 120)
        report["fock_dim"], report["fock_dim_check"] = nf0, nf0 + 20
        t_sup = cfg.run.superposition_time
        ax = np.linspace(-8.0, 8.0, 101)
        grids = []
        for dim in (nf0, nf0 + 20):
            run_out = conditional_superposition_run(
                cfg.params, np.array([t_sup]), fock_dim=dim, delta_eff=0.0
            )
            rho = run_out.metadata["states_e"][-1]      # antisym: widest support
            # wigner pads each state until the displacements no longer ring,
            # so the difference probes the state truncation only
            grids.append(wigner(rho.matrix, ax, ax, weight_floor=1e-9).values)
        report["max_delta_wigner"] = float(np.max(np.abs(grids[0] - grids[1])))
    elif sc.scenario == "superposition_fidelity":
        # the scenario's own leg: the joint run at its floor of 120 levels
        nf0 = max(nf, 120)
        report["fock_dim"], report["fock_dim_check"] = nf0, nf0 + 20
        rows = [np.array(superposition_fidelity_series(
            cfg.params, _FIDELITY_TIMES_NS, dim, _operating_delta(cfg)))
            for dim in (nf0, nf0 + 20)]
        # every column but the time: p_g, p_e, F_sym, F_antisym
        report["max_delta_fidelity"] = float(np.max(np.abs(rows[0][:, 1:] - rows[1][:, 1:])))
    else:
        delta = _operating_delta(cfg)
        times = np.arange(0.0, min(cfg.run.time_max, 60.0) + 0.5, 1.0)
        series = []
        for dim in (nf, nf + 20):
            run_out = _effective_series(cfg.params, times, delta, dim)
            series.append(run_out.observables["squeezing_db"])
        report["max_delta_s_db"] = float(np.max(np.abs(series[0] - series[1])))

    report["flagged"] = (
        report["max_delta_s_db"] > 0.02 or report["max_delta_wigner"] > 1e-3
        or report["max_delta_fidelity"] > 1e-3
    )
    return report
