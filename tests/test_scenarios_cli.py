"""Config ingestion, scenario runner artifacts (CSV + manifest), calibration,
convergence reporting, and the command-line surface.

Runner tests use deliberately small time grids and Fock spaces; the
physics content of each scenario is covered by the module tests, so what
matters here is the artifact contract: file names, headers, determinism,
checksums, exit codes.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from magsqueeze import cli
from magsqueeze.config import _KEYS, Config, RunOptions, load_config
from magsqueeze.coupling import LoopGeometry
from magsqueeze.constants import TWO_PI
from magsqueeze.dynamics import sector_covariance_squeezing
from magsqueeze.errors import ConfigError, DimensionError, FrameError
from magsqueeze.model import PhysicalParams, derive, squeezing_parameter
from magsqueeze.observables import gaussian_wigner, wigner
from magsqueeze.scenarios import (
    OPERATING_DETUNING_RAD_NS,
    ScenarioConfig,
    below_threshold,
    calibrate_delta_eff,
    convergence_check,
    run,
    write_csv,
)
from magsqueeze.states import MIXED_TAIL_TOL, superposition_pm
from test_dynamics import sector_master_equation  # test-local oracle


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def small_run(fock_dim=40, **kw):
    opts = dict(fock_dim=fock_dim, time_max=10.0, time_step=1.0)
    opts.update(kw)
    return Config(run=RunOptions(**opts))


# the 300 mK temperature_sweep cell against a fock-150 master equation on
# 0..30 ns (1 ns steps): measured max |dS| 2.4e-7 dB, max |dn|/(1+n) 4.1e-11
TEMP_ME_T_MAX = 30.0
TEMP_ME_S_TOL_DB = 1e-5
TEMP_ME_N_TOL = 1e-8


def sweep_times(cfg):
    return np.round(
        np.arange(0.0, cfg.run.time_max + cfg.run.time_step / 2.0, cfg.run.time_step), 9)


def write_per_cell_sweep(cfg, param, column, values, outdir):
    """The <param>_sweep CSVs written from one sector_covariance_squeezing
    call per cell, at the operating detuning (cfg leaves delta_eff unset)."""
    times = sweep_times(cfg)
    rows, peaks = [], []
    for v in values:
        out = sector_covariance_squeezing(replace(cfg.params, **{param: v}), times,
                                          delta_eff=OPERATING_DETUNING_RAD_NS)
        s_db, n_m = out["squeezing_db"], out["n_magnon"]
        i = int(np.argmax(s_db))
        peaks.append((v, float(s_db[i]), float(times[i])))
        rows += [(float(v), float(t), float(s), float(n))
                 for t, s, n in zip(times, s_db, n_m)]
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, f"{param}_sweep.csv"),
              [column, "time_ns", "S_dB", "n_magnon"], rows)
    write_csv(os.path.join(outdir, f"{param}_sweep_peaks.csv"),
              [column, "peak_S_dB", "t_peak_ns"], peaks)


def sweep_digests(outdir, param):
    return (sha256(os.path.join(outdir, f"{param}_sweep.csv")),
            sha256(os.path.join(outdir, f"{param}_sweep_peaks.csv")))


def synthetic_series(params, delta, t_max=30.0):
    """An effective-model S(t) at a known detuning, to calibrate against."""
    times = np.arange(0.0, t_max + 0.25, 0.5)
    return times, sector_covariance_squeezing(params, times, delta_eff=delta)["squeezing_db"]


# ---------------------------------------------------------------------------
# config parsing


def test_load_defaults():
    cfg = load_config(None, env={})
    assert cfg.params.omega_m == 1.513
    assert cfg.params.kappa == 0.5
    assert cfg.run.fock_dim == 80
    assert cfg.run.scenario == "custom"
    assert cfg.geometry.side_length == 10.0
    assert cfg.geometry.current == 0.4


def test_bare_number_rejected(tmp_path):
    path = write_ini(tmp_path, "[physical]\nomega_m = 1.513\n")
    with pytest.raises(ConfigError, match=r"physical\.omega_m"):
        load_config(path, env={})


def test_unknown_unit_rejected(tmp_path):
    path = write_ini(tmp_path, "[physical]\nkappa = 0.5 THz\n")
    with pytest.raises(ConfigError, match="not accepted"):
        load_config(path, env={})


def test_unit_conversions(tmp_path):
    path = write_ini(
        tmp_path,
        "[physical]\n"
        "omega_m = 1513 MHz\n"
        "Omega = 0.5 GHz\n"
        "gamma = 0.003 MHz\n"
        "temperature = 0.01 K\n"
        "theta = 45 deg\n"
        "[geometry]\n"
        "side_length = 10000 nm\n"
        "current = 400 nA\n"
        "[run]\n"
        "time_max = 0.05 us\n",
    )
    cfg = load_config(path, env={})
    assert cfg.params.omega_m == pytest.approx(1.513)
    assert cfg.params.Omega == pytest.approx(0.5)
    assert cfg.params.gamma == pytest.approx(3.0)         # kHz canonical
    assert cfg.params.temperature == pytest.approx(10.0)  # mK canonical
    assert cfg.params.theta == pytest.approx(math.pi / 4.0)
    assert cfg.geometry.side_length == pytest.approx(10.0)
    assert cfg.geometry.current == pytest.approx(0.4)
    assert cfg.run.time_max == pytest.approx(50.0)        # ns canonical


def test_unknown_sections_and_keys(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown config section \[magic\]"):
        load_config(write_ini(tmp_path, "[magic]\nx = 1 GHz\n"), env={})
    with pytest.raises(ConfigError, match=r"physical\.flux"):
        load_config(write_ini(tmp_path, "[physical]\nflux = 0.5 GHz\n", "b.ini"), env={})
    with pytest.raises(ConfigError, match=r"run\.colors"):
        load_config(write_ini(tmp_path, "[run]\ncolors = red\n", "c.ini"), env={})


def test_env_overrides(tmp_path):
    # each accepted key is a field of the dataclass it fills, and each one
    # can be set from the environment, over the file's value
    targets = {"physical": PhysicalParams, "geometry": LoopGeometry, "run": RunOptions}
    for section, keys in _KEYS.items():
        assert set(keys) == {f.name for f in fields(targets[section])}
    env, want = {}, {}
    for section, keys in _KEYS.items():
        for key, kind in keys.items():
            text, want[section, key] = {str: (" x7 ", "x7"), int: ("7", 7)}.get(
                kind, (f"0.7 {kind}", 0.7))
            env[f"MAGSQUEEZE_{section.upper()}_{key.upper()}"] = text
    ini = write_ini(tmp_path, "[physical]\nkappa = 1 MHz\n[run]\nfock_dim = 50\n")
    cfg = load_config(ini, env=env)
    got = {"physical": cfg.params, "geometry": cfg.geometry, "run": cfg.run}
    for (section, key), value in want.items():
        assert getattr(got[section], key) == value, f"{section}.{key}"
    # the same strict unit rules apply to environment values
    with pytest.raises(ConfigError, match=r"physical\.kappa"):
        load_config(None, env={"MAGSQUEEZE_PHYSICAL_KAPPA": "1.5"})


@pytest.mark.parametrize("section, key, value", [
    ("physical", "phi", "1 rad"),
    ("geometry", "sphere_radius", "0.5 um"),
    ("geometry", "sphere_x", "1 um"),
    ("geometry", "sphere_y", "1 um"),
    ("geometry", "sphere_z", "1 um"),
])
def test_cli_refuses_keys_that_no_computation_reads(tmp_path, capsys, section, key, value):
    # the drive phase and the config sphere reached no result: the coupling
    # maps sweep their own spheres, and derive() has no phase
    ini = write_ini(tmp_path, f"[{section}]\n{key} = {value}\n")
    assert cli.main(["coupling-map", "--config", ini, "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_validation_floors(tmp_path):
    # the fock_dim floor belongs to the runs that truncate, not to the file
    cfg = load_config(write_ini(tmp_path, "[run]\nfock_dim = 30\n"), env={})
    assert cfg.run.fock_dim == 30
    with pytest.raises(ConfigError, match="fock_dim: 30 below the minimum of 40 for custom"):
        ScenarioConfig.from_config(cfg)
    with pytest.raises(ConfigError, match="time_"):
        load_config(write_ini(tmp_path, "[run]\ntime_step = -1 ns\n", "d.ini"), env={})
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.ini"), env={})


def test_scenario_config_validation():
    with pytest.raises(ConfigError, match="unknown scenario"):
        ScenarioConfig(scenario="frobnicate")
    low = Config(run=RunOptions(fock_dim=20))
    for truncating in ("custom", "squeeze_compare"):
        with pytest.raises(ConfigError, match="fock_dim"):
            ScenarioConfig(scenario=truncating, config=low)
    # the other scenarios ignore fock_dim
    for scenario in ("coupling_map_a", "coupling_map_b", "kappa_sweep", "temperature_sweep",
                     "max_squeeze_heatmap", "superposition_wigner", "superposition_fidelity"):
        assert ScenarioConfig(scenario=scenario, config=low).scenario == scenario


# ---------------------------------------------------------------------------
# runner artifacts


def test_custom_scenario_writes_outputs_and_manifest(tmp_path):
    cfg = small_run(output_dir=str(tmp_path))
    manifest = run(ScenarioConfig(scenario="custom", config=cfg))
    csv_path = tmp_path / "squeeze_custom.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "time_ns,S_dB,n_magnon"

    man_path = tmp_path / "manifest.json"
    assert man_path.exists()
    data = json.loads(man_path.read_text())
    assert data["scenario"] == "custom"
    assert data["config_echo"]["physical"]["omega_m"] == 1.513
    assert data["config_echo"]["run"]["fock_dim"] == 40
    for key in ("magsqueeze", "numpy", "scipy"):
        assert key in data["versions"]
    # every output is referenced with a checksum that verifies
    assert len(data["outputs"]) == len(manifest.outputs) == 1
    entry = data["outputs"][0]
    assert entry["path"] == "squeeze_custom.csv"
    assert entry["sha256"] == sha256(str(csv_path))
    assert entry["bytes"] == os.path.getsize(csv_path)
    # the effective leg names its path and its worst Fock tail
    assert data["notes"][1] == ("effective: path=sector_exact, max_fock_tail=2.22e-16 "
                                "at t=8 ns, fock_dim=40")


def test_squeeze_compare_notes_name_the_effective_path(tmp_path):
    cfg = small_run(output_dir=str(tmp_path), time_max=1.0)
    manifest = run(ScenarioConfig(scenario="squeeze_compare", config=cfg))
    assert any(note.startswith("effective: path=sector_exact, max_fock_tail=")
               and note.endswith("fock_dim=40") for note in manifest.notes)


def test_rerun_is_byte_identical(tmp_path):
    digests = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        cfg = small_run(output_dir=str(outdir))
        run(ScenarioConfig(scenario="custom", config=cfg))
        digests.append(sha256(str(outdir / "squeeze_custom.csv")))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("param, column, values", [
    ("kappa", "kappa_MHz", (0.5, 1.0, 2.0, 4.0)),
    ("temperature", "temperature_mK", (10.0, 100.0, 200.0, 300.0)),
], ids=["kappa_sweep", "temperature_sweep"])
def test_sweep_matches_per_cell_covariance(param, column, values, tmp_path):
    # the batched call gives every cell the bits it gets alone
    cfg = small_run(output_dir=str(tmp_path / "batched"))
    manifest = run(ScenarioConfig(scenario=f"{param}_sweep", config=cfg))
    write_per_cell_sweep(cfg, param, column, values, str(tmp_path / "cells"))
    assert (sweep_digests(str(tmp_path / "batched"), param)
            == sweep_digests(str(tmp_path / "cells"), param))
    assert any("sector_covariance_squeezing" in note for note in manifest.notes)


def test_temperature_sweep_hot_series_matches_master_equation(tmp_path):
    # the 300 mK cell (n_bar ~ 3.7) against a master equation with Fock
    # headroom for the thermal tail
    cfg = small_run(output_dir=str(tmp_path), time_max=TEMP_ME_T_MAX, time_step=1.0)
    run(ScenarioConfig(scenario="temperature_sweep", config=cfg))
    data = np.loadtxt(tmp_path / "temperature_sweep.csv", delimiter=",", skiprows=1)
    hot = data[data[:, 0] == 300.0]
    me = sector_master_equation(replace(cfg.params, temperature=300.0), +1, 150,
                                sweep_times(cfg), OPERATING_DETUNING_RAD_NS,
                                rel_tol=1e-9, abs_tol=1e-11)
    np.testing.assert_array_equal(hot[:, 1], me.times)
    n_me = me.observables["n_magnon"]
    assert np.max(np.abs(hot[:, 2] - me.observables["squeezing_db"])) < TEMP_ME_S_TOL_DB
    assert np.max(np.abs(hot[:, 3] - n_me) / (1.0 + n_me)) < TEMP_ME_N_TOL


def test_heatmap_reads_the_run_time_grid(tmp_path):
    # at a 0.25 ns step the (0.1 MHz, 1 kHz) cell peaks at 51.25 ns, a time
    # that a 0.5 ns grid misses
    cfg = small_run(output_dir=str(tmp_path), time_max=60.0, time_step=0.25,
                    heatmap_points=2)
    run(ScenarioConfig(scenario="max_squeeze_heatmap", config=cfg))
    data = np.loadtxt(tmp_path / "max_squeeze_heatmap.csv", delimiter=",", skiprows=1)
    kappa, gamma, peak, t_peak = data[0]
    times = sweep_times(cfg)
    s_db = sector_covariance_squeezing(
        replace(cfg.params, kappa=kappa, gamma=gamma, gamma_phi=gamma), times,
        delta_eff=OPERATING_DETUNING_RAD_NS)["squeezing_db"]
    assert (kappa, gamma) == (0.1, 1.0)
    assert t_peak == times[np.argmax(s_db)] == 51.25
    assert peak == pytest.approx(np.max(s_db), rel=1e-12)


def test_heatmap_evaluates_one_series_per_kappa(tmp_path, monkeypatch):
    # gamma does not enter the moment equations: one covariance call with
    # one cell per kappa, whose peak repeats byte for byte along gamma, and
    # the file is the one that per-cell calls with gamma set would write
    cells = []

    def recorded(params, times, delta_eff=None):
        cells.append(len(params))
        return sector_covariance_squeezing(params, times, delta_eff)

    monkeypatch.setattr("magsqueeze.scenarios.sector_covariance_squeezing", recorded)
    cfg = small_run(output_dir=str(tmp_path), time_max=30.0, time_step=0.5, heatmap_points=3)
    run(ScenarioConfig(scenario="max_squeeze_heatmap", config=cfg))
    assert cells == [3]
    path = tmp_path / "max_squeeze_heatmap.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 9
    for block in (rows[0:3], rows[3:6], rows[6:9]):
        assert len({row[0] for row in block}) == 1 and len({row[1] for row in block}) == 3
        assert len({(row[2], row[3]) for row in block}) == 1
    times, expected = sweep_times(cfg), []
    for kappa in np.logspace(-1.0, 1.0, 3):
        for gamma in np.logspace(0.0, 3.0, 3):
            s_db = sector_covariance_squeezing(
                replace(cfg.params, kappa=kappa, gamma=gamma, gamma_phi=gamma), times,
                delta_eff=OPERATING_DETUNING_RAD_NS)["squeezing_db"]
            i = int(np.argmax(s_db))
            expected.append((float(kappa), float(gamma), float(s_db[i]), float(times[i])))
    write_csv(str(tmp_path / "per_cell.csv"), ["kappa_MHz", "gamma_kHz", "peak_S_dB",
                                               "t_peak_ns"], expected)
    assert path.read_bytes() == (tmp_path / "per_cell.csv").read_bytes()


def test_coupling_map_scenario(tmp_path):
    cfg = small_run(output_dir=str(tmp_path))
    manifest = run(ScenarioConfig(scenario="coupling_map_a", config=cfg))
    out = tmp_path / "coupling_map_point.csv"
    assert out.exists()
    assert any("point_sphere" in note for note in manifest.notes)
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["outputs"][0]["sha256"] == sha256(str(out))


def test_write_csv_format(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a_ns", "b"], [(1.5, 2), (0.25, "tag")])
    assert path.read_bytes() == (
        b"a_ns,b\n1.500000000000e+00,2\n2.500000000000e-01,tag\n"
    )


def test_write_csv_matches_formatting_each_value(tmp_path):
    # each row is one %-template, rebuilt where the types along a row
    # change: the bytes of formatting every value on its own
    rows = [(1.5, 2), (0.25, "tag"), (np.float64(-0.0), 3.0), [math.nan, -math.inf],
            (True, np.float32(0.1)), (1e-300, -2.5e17, "x"), ("a", None), (7.0, 8.0)]
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b"], iter(rows))
    assert path.read_text() == "a,b\n" + "".join(
        ",".join(f"{v:.12e}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows)


def run_superposition_wigner(tmp_path, monkeypatch, **run_options):
    # the scenario reads closed-form Gaussian blocks: no master equation,
    # no displaced parity
    def forbidden(*args, **kwargs):
        raise AssertionError("superposition_wigner left the closed form")

    monkeypatch.setattr("magsqueeze.scenarios.conditional_superposition_run", forbidden)
    monkeypatch.setattr("magsqueeze.scenarios.wigner", forbidden)
    cfg = Config(run=RunOptions(output_dir=str(tmp_path), **run_options))
    manifest = run(ScenarioConfig(scenario="superposition_wigner", config=cfg))
    descriptors = {
        name: json.loads((tmp_path / f"wigner_{name}.json").read_text())
        for name in ("ideal_sym", "ideal_antisym", "dissipative_sym", "dissipative_antisym")}
    return manifest, descriptors


def test_superposition_wigner_writes_closed_form_grids(tmp_path, monkeypatch):
    manifest, descriptors = run_superposition_wigner(
        tmp_path, monkeypatch, superposition_time=17.0, wigner_points=41)
    assert [o["path"] for o in manifest.outputs] == [
        f"wigner_{kind}_{tag}.{ext}" for kind in ("ideal", "dissipative")
        for tag in ("sym", "antisym") for ext in ("csv", "json")]
    for desc in descriptors.values():
        # no Fock pad: the keys of a displaced-parity grid are gone
        assert set(desc) == {"re_axis", "im_axis", "normalization", "boundary_max_abs"}
        assert desc["re_axis"] == [-8.0, 8.0, 41]
        assert desc["boundary_max_abs"] < 1e-4
    p_g, p_e = (float(part.split("=")[1]) for part in manifest.notes[-1].split())
    assert manifest.notes[-1].startswith("p_g=")
    assert p_g + p_e == pytest.approx(1.0, abs=2e-6)


def test_manifest_is_the_json_of_a_deep_copy(tmp_path, monkeypatch):
    # the manifest and its config echo are written from the dataclass fields
    # as they stand: the bytes of deep asdict copies of both
    manifest, _ = run_superposition_wigner(tmp_path, monkeypatch, wigner_points=21)
    cfg = Config(run=RunOptions(output_dir=str(tmp_path), wigner_points=21))
    assert manifest.config_echo == {
        "physical": asdict(cfg.params),
        "geometry": {"side_length_um": cfg.geometry.side_length,
                     "current_uA": cfg.geometry.current},
        "run": asdict(cfg.run),
    }
    expected = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "manifest.json").read_bytes() == expected.encode("utf-8")


def test_superposition_wigner_warns_when_the_grid_is_too_small(tmp_path, monkeypatch):
    # at 45 ns psi+- reach well past |alpha| = 8 (r = 2.1): every grid warns
    with pytest.warns(UserWarning, match="Wigner support reaches the grid boundary") as caught:
        _, descriptors = run_superposition_wigner(
            tmp_path, monkeypatch, superposition_time=45.0, wigner_points=21)
    assert len(caught) == 4
    assert all(desc["boundary_max_abs"] > 1e-4 for desc in descriptors.values())


def test_superposition_fidelity_reads_closed_form_overlaps(tmp_path, monkeypatch):
    # the scenario scores the closed-form Gaussian blocks against the
    # targets' outer products: no master equation, no Fock ket
    def forbidden(*args, **kwargs):
        raise AssertionError("superposition_fidelity left the closed form")

    monkeypatch.setattr("magsqueeze.scenarios.conditional_superposition_run", forbidden)
    monkeypatch.setattr("magsqueeze.dynamics.evolve_master", forbidden)
    monkeypatch.setattr("magsqueeze.dynamics.squeezed_vacuum_fock", forbidden)
    cfg = Config(run=RunOptions(output_dir=str(tmp_path)))
    manifest = run(ScenarioConfig(scenario="superposition_fidelity", config=cfg))
    assert [o["path"] for o in manifest.outputs] == ["superposition_fidelity.csv"]
    assert manifest.notes[-1] == ("closed-form Gaussian overlaps (superposition_blocks), "
                                  "no Fock truncation")
    data = np.loadtxt(tmp_path / "superposition_fidelity.csv", delimiter=",", skiprows=1)
    assert_allclose(data[:, 0], np.arange(5.0, 42.5, 5.0))
    assert_allclose(data[:, 1] + data[:, 2], 1.0, rtol=0, atol=1e-12)
    assert np.all(data[:, 4] <= data[:, 3])


# ---------------------------------------------------------------------------
# calibration and convergence


def test_calibrate_recovers_synthetic_detuning():
    sc = ScenarioConfig(scenario="squeeze_compare", config=small_run())
    d = derive(sc.config.params)
    target = d.Delta_eff + TWO_PI * 1.7e-3
    # the target, 3.7 MHz, lies below the two-photon threshold
    with pytest.warns(UserWarning, match="two-photon threshold"):
        best, table, convex = calibrate_delta_eff(
            sc, full_series=synthetic_series(sc.config.params, target),
            window_mhz=2.0, n_scan=21
        )
    assert len(table) == 21
    spacing = table[1][0] - table[0][0]
    assert abs(best - target) <= spacing / 2.0 * 1.01
    assert convex


def test_calibrate_warns_when_not_single_minimum():
    # a window wide enough to include the mirror solution at -delta gives a
    # genuine second well; the scan must say so rather than silently pick one
    sc = ScenarioConfig(scenario="squeeze_compare", config=small_run())
    d = derive(sc.config.params)
    target = d.Delta_eff + TWO_PI * 1.7e-3  # below the two-photon threshold too
    with pytest.warns(UserWarning, match="two-photon threshold"), \
            pytest.warns(UserWarning, match="single-minimum"):
        best, table, convex = calibrate_delta_eff(
            sc, full_series=synthetic_series(sc.config.params, target),
            window_mhz=5.0, n_scan=21
        )
    assert not convex
    # the best point is still the true target, not the mirror
    spacing = table[1][0] - table[0][0]
    assert abs(best - target) <= spacing


def test_calibrate_flags_a_pick_below_the_two_photon_threshold(tmp_path, capsys):
    # a 5 ns window at fock 40 favours resonance: the pick, 0.007 MHz, is a
    # clean minimum of the objective but lies far below |g_cs| = 2 pi x
    # 7.495 MHz, where the magnon number grows without bound
    ini = write_ini(tmp_path, "[run]\nfock_dim = 40\ntime_max = 5 ns\n")
    with pytest.warns(UserWarning, match="two-photon threshold") as caught:
        code = cli.main(["calibrate", "--config", ini, "--out", str(tmp_path / "o")])
    assert code == 0
    assert not [w for w in caught if "single-minimum" in str(w.message)]
    assert "MHz), single-minimum=True, below-threshold\n" in capsys.readouterr().out


def test_calibrate_does_not_flag_a_pick_above_the_threshold():
    # the scan, -8 to 12 MHz, recovers a 10.45 MHz target; the pick is above
    # |g_cs| and only the +-Delta mirror may warn
    sc = ScenarioConfig(scenario="squeeze_compare", config=small_run())
    target = OPERATING_DETUNING_RAD_NS + TWO_PI * 1.7e-3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best, table, _convex = calibrate_delta_eff(
            sc, full_series=synthetic_series(sc.config.params, target))
    assert abs(best - target) <= (table[1][0] - table[0][0]) / 2.0 * 1.01
    assert not below_threshold(sc.config.params, best)
    assert below_threshold(sc.config.params, -0.999 * abs(derive(sc.config.params).g_cs))
    assert not [w for w in caught if "threshold" in str(w.message)]


@pytest.mark.parametrize("time_max, times", [
    (5.0, np.arange(0.0, 5.25, 0.5)),    # the config's window
    (150.0, np.arange(0.0, 40.25, 0.5)),  # the default: capped at 40 ns
])
def test_calibrate_runs_its_full_leg_on_the_config_time_grid(monkeypatch, time_max, times):
    # without a reference series, calibrate integrates the full model on
    # squeeze_compare's full-leg window: run.time_max and run.time_step
    # reach it, up to 40 ns
    seen = []

    def full_leg(params, fock_dim=80, sample_times=None, **kwargs):
        seen.append(np.asarray(sample_times))
        t, s = synthetic_series(params, OPERATING_DETUNING_RAD_NS, t_max=sample_times[-1])
        return SimpleNamespace(times=t, observables={"squeezing_db": s})

    monkeypatch.setattr("magsqueeze.scenarios.conditional_squeezing_run", full_leg)
    cfg = small_run(time_max=time_max, time_step=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the +-Delta mirror wells
        calibrate_delta_eff(ScenarioConfig(scenario="squeeze_compare", config=cfg))
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], times)


@pytest.mark.parametrize("scenario", ["coupling_map_a", "coupling_map_b", "kappa_sweep",
                                      "temperature_sweep", "max_squeeze_heatmap",
                                      "superposition_wigner", "superposition_fidelity"])
def test_convergence_trivial_without_fock_space(scenario, monkeypatch):
    # nothing these scenarios run is truncated, so nothing may be rerun
    def no_master_equation(*args, **kwargs):
        raise AssertionError("convergence_check ran a master equation")

    monkeypatch.setattr("magsqueeze.scenarios.conditional_squeezing_run", no_master_equation)
    monkeypatch.setattr("magsqueeze.scenarios.conditional_superposition_run",
                        no_master_equation)
    rep = convergence_check(ScenarioConfig(scenario=scenario, config=small_run()))
    assert rep["flagged"] is False
    assert "trivially" in rep["notes"]


def test_convergence_checks_the_fidelity_leg(tmp_path, capsys, monkeypatch):
    # superposition_fidelity reads closed-form Gaussian overlaps, so its leg
    # has no truncation: converge reruns neither the pinned sector run of
    # custom nor any master equation, and --strict passes at fock_dim = 40
    def no_run(*args, **kwargs):
        raise AssertionError("convergence_check ran a truncated leg")

    monkeypatch.setattr("magsqueeze.scenarios.conditional_squeezing_run", no_run)
    monkeypatch.setattr("magsqueeze.dynamics.evolve_master", no_run)
    ini = write_ini(tmp_path, "[run]\nfock_dim = 40\n")
    code = cli.main(["converge", "--scenario", "superposition_fidelity", "--config", ini,
                     "--out", str(tmp_path / "o"), "--strict"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "fock_dim": 40, "flagged": False,
        "notes": "no Fock-space content; trivially converged"}


def test_convergence_passes_at_adequate_truncation(monkeypatch):
    # the report reads the exact Fock tail: no run, no master equation
    monkeypatch.setattr("magsqueeze.scenarios.conditional_squeezing_run", None)
    cfg = small_run(fock_dim=80, time_max=30.0)
    rep = convergence_check(ScenarioConfig(scenario="custom", config=cfg))
    assert rep["max_fock_tail"] == pytest.approx(1.08e-10, rel=1e-2)
    assert rep["max_fock_tail"] < MIXED_TAIL_TOL == rep["fock_tail_tol"]
    assert rep["flagged"] is False


def test_convergence_flags_small_truncation():
    # fock_dim 40 is too small once the anti-squeezed quadrature stretches
    # the occupation tail over a 60 ns window
    cfg = small_run(fock_dim=40, time_max=60.0)
    rep = convergence_check(ScenarioConfig(scenario="custom", config=cfg))
    assert rep["max_fock_tail"] == pytest.approx(2.52e-4, rel=1e-2)
    assert rep["max_fock_tail_time"] == 55.0
    assert rep["max_fock_tail"] > MIXED_TAIL_TOL
    assert rep["flagged"] is True


# ---------------------------------------------------------------------------
# command line


def test_cli_run_custom(tmp_path, capsys):
    ini = write_ini(tmp_path, "[run]\ntime_max = 10 ns\ntime_step = 1 ns\n")
    code = cli.main(["squeeze", "--scenario", "custom", "--config", ini,
                     "--out", str(tmp_path / "out"), "--fock-dim", "40"])
    assert code == 0
    assert (tmp_path / "out" / "squeeze_custom.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    assert "custom: 1 output(s)" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    ini = write_ini(tmp_path, "[physical]\nomega_m = 1.513\n")
    code = cli.main(["squeeze", "--config", ini, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_invalid_parameter_exit_code(tmp_path):
    # PhysicalParams.validate raises ValueError; the CLI must report it as a
    # config error (exit 2), not end in a traceback
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, MAGSQUEEZE_PHYSICAL_THETA="100 deg",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "magsqueeze.cli", "coupling-map", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "theta" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_start_loads_no_scipy():
    # the benchmark's setup_s times this statement in a fresh interpreter;
    # importing scipy.linalg or scipy.integrate there adds 0.2-0.5 s to a
    # start of about 0.25 s (2 cores), so scipy loads only where it is used
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAGSQUEEZE_")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = ("import sys\n"
            "import magsqueeze.cli\n"
            "from magsqueeze.config import load_config\n"
            "from magsqueeze.scenarios import ScenarioConfig\n"
            "ScenarioConfig.from_config(load_config(), scenario='custom')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("error", [DimensionError, FrameError])
def test_cli_dimension_and_frame_errors_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(sc):
        raise error("bad setup")

    monkeypatch.setattr(cli.scenarios, "run", fail)
    assert cli.main(["squeeze", "--out", str(tmp_path / "o")]) == 2
    assert "config error: bad setup" in capsys.readouterr().err


def test_cli_unknown_scenario_exit_code(tmp_path, capsys):
    code = cli.main(["squeeze", "--scenario", "bogus", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_wigner_of_an_outcome_without_weight_is_a_numeric_failure(tmp_path, capsys):
    # at t = 0 the run is still |0>|g>: the outcome e has no weight, so the
    # antisymmetric grid exits 3, as superpose does there, not with a traceback
    ini = write_ini(tmp_path, "[run]\nsuperposition_time = 0 ns\n")
    code = cli.main(["wigner", "--state", "antisym", "--config", ini,
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "outcome e has probability" in err
    assert not (tmp_path / "o" / "wigner_antisym.csv").exists()


def test_cli_wigner_draws_the_outcome_that_has_weight(tmp_path):
    # at t = 0 the outcome g holds the whole weight: its grid is the vacuum,
    # while superpose, which needs both outcomes, still exits 3 and writes
    # nothing
    ini = write_ini(tmp_path, "[run]\nsuperposition_time = 0 ns\nwigner_points = 41\n")
    assert cli.main(["wigner", "--state", "sym", "--config", ini,
                     "--out", str(tmp_path / "w")]) == 0
    ax = np.linspace(-8.0, 8.0, 41)
    values = np.loadtxt(tmp_path / "w" / "wigner_sym.csv", delimiter=",",
                        skiprows=1)[:, 2].reshape(41, 41)
    assert_allclose(values, gaussian_wigner(1.0, 0.0, 0.0, 0.0, ax, ax).real,
                    rtol=1e-11, atol=0)
    assert cli.main(["superpose", "--config", ini, "--out", str(tmp_path / "s")]) == 3
    assert os.listdir(tmp_path / "s") == []


def test_cli_wigner_draws_a_state_no_ket_truncation_holds(tmp_path):
    # r = |g_cs| * 80 ns ~ 3.8 needs more than 420 Fock levels; the closed
    # form draws it, and the antisqueezed width e^r/2 ~ 22 passes the +-8
    # grid, so the boundary check warns, as it does for superpose
    ini = write_ini(tmp_path, "[run]\nsuperposition_time = 80 ns\n")
    with pytest.warns(UserWarning, match="Wigner support reaches the grid boundary"):
        code = cli.main(["wigner", "--state", "sym", "--config", ini,
                         "--out", str(tmp_path / "o")])
    assert code == 0
    desc = json.loads((tmp_path / "o" / "wigner_sym.json").read_text())
    assert desc["boundary_max_abs"] > 1e-4


def test_cli_wigner_grids_are_superposes_ideal_grids(tmp_path):
    # the vacuum and psi+- drawn in closed form match displaced parity of
    # their Fock kets (the oracle), and psi+- are byte for byte the ideal
    # grids that superpose writes
    ini = write_ini(tmp_path, "[run]\nwigner_points = 41\n")
    assert cli.main(["superpose", "--config", ini, "--out", str(tmp_path / "s")]) == 0
    ax = np.linspace(-8.0, 8.0, 41)
    cfg = Config()
    xi = squeezing_parameter(cfg.params, cfg.run.superposition_time, delta_eff=0.0)
    oracles = {"vacuum": wigner(np.eye(8, 1).ravel(), ax, ax),
               "sym": wigner(superposition_pm(xi, +1, 420), ax, ax),
               "antisym": wigner(superposition_pm(xi, -1, 420), ax, ax)}
    for state, oracle in oracles.items():
        assert cli.main(["wigner", "--state", state, "--config", ini,
                         "--out", str(tmp_path / "w")]) == 0
        path = tmp_path / "w" / f"wigner_{state}.csv"
        values = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2].reshape(41, 41)
        assert np.max(np.abs(values - oracle.values)) < 1e-12
        if state != "vacuum":
            assert path.read_bytes() == (tmp_path / "s" / f"wigner_ideal_{state}.csv").read_bytes()


def test_cli_fidelity_scores_targets_past_the_ket_truncation(tmp_path):
    # at Delta_eff = 0 the 40 ns target has r = 1.88, which a ket needs 420
    # levels to hold; the closed form has no truncation and scores it
    ini = write_ini(tmp_path, "[run]\ndelta_eff = 0 MHz\n")
    code = cli.main(["fidelity", "--config", ini, "--out", str(tmp_path / "o")])
    assert code == 0
    path = tmp_path / "o" / "superposition_fidelity.csv"
    assert path.read_text().splitlines()[0] == "time_ns,p_g,p_e,F_sym,F_antisym"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (8, 5)
    assert_allclose(data[:, 1] + data[:, 2], 1.0, rtol=0, atol=1e-12)
    assert np.all((data[:, 3:] > 0.0) & (data[:, 3:] <= 1.0))


def test_cli_custom_below_threshold_is_refused(tmp_path, capsys):
    # Delta_eff = 2 MHz lies below the two-photon threshold: by 45 ns the
    # sector state leaves 4.1e-2 beyond 60 levels, and the run exits 3
    # before it writes its CSV
    ini = write_ini(tmp_path, "[run]\nfock_dim = 60\ntime_max = 45 ns\ndelta_eff = 2 MHz\n")
    code = cli.main(["sweep", "--scenario", "custom", "--config", ini,
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "4.08e-02 of its population beyond fock_dim=60 at t = 45.000 ns" in err
    assert not (tmp_path / "o" / "squeeze_custom.csv").exists()
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_cli_wigner_vacuum(tmp_path, capsys):
    ini = write_ini(tmp_path, "[run]\nwigner_points = 41\nfock_dim = 40\n")
    code = cli.main(["wigner", "--state", "vacuum", "--config", ini,
                     "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "negativity volume 0.000000" in out
    assert (tmp_path / "o" / "wigner_vacuum.csv").exists()
    desc = json.loads((tmp_path / "o" / "wigner_vacuum.json").read_text())
    assert desc["re_axis"] == [-8.0, 8.0, 41]
    # a closed-form grid: no Fock pad keys
    assert set(desc) == {"re_axis", "im_axis", "normalization", "boundary_max_abs"}


def test_cli_converge_strict_exit_code(tmp_path, capsys):
    ini = write_ini(tmp_path, "[run]\nfock_dim = 40\ntime_max = 60 ns\n")
    code = cli.main(["converge", "--scenario", "custom", "--config", ini,
                     "--out", str(tmp_path / "o"), "--strict"])
    assert code == 4
    report = json.loads(capsys.readouterr().out)
    assert report["flagged"] is True
    assert report["max_fock_tail"] > MIXED_TAIL_TOL
    # same report without --strict is informational only
    code = cli.main(["converge", "--scenario", "custom", "--config", ini,
                     "--out", str(tmp_path / "o")])
    assert code == 0


@pytest.mark.parametrize("argv", [["fidelity"], ["superpose"], ["wigner", "--state", "vacuum"]],
                         ids=["fidelity", "superpose", "wigner-vacuum"])
def test_cli_untruncated_commands_accept_a_small_fock_dim(tmp_path, argv):
    ini = write_ini(tmp_path, "[run]\nwigner_points = 21\n")
    assert cli.main(argv + ["--config", ini, "--out", str(tmp_path / "o"),
                            "--fock-dim", "20"]) == 0


@pytest.mark.parametrize("argv", [["squeeze"], ["squeeze", "--scenario", "custom"],
                                  ["calibrate"], ["converge", "--scenario", "kappa_sweep"]])
def test_cli_truncating_commands_refuse_a_small_fock_dim(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "o"), "--fock-dim", "20"]) == 2
    assert "fock_dim: 20 below the minimum of 40" in capsys.readouterr().err


# scipy is imported where it is called: loading the CLI and a config, or
# running a sweep, imports none of the scipy modules below, and a master
# equation does not import scipy.sparse.csgraph.  The check runs in a fresh
# interpreter, since pytest's own filterwarnings setting imports scipy.sparse
# into this one.
_IMPORT_PROBE = """
import sys
import numpy as np
import magsqueeze.cli
from magsqueeze.config import load_config
from magsqueeze.scenarios import ScenarioConfig
ScenarioConfig.from_config(load_config(None, env={}), scenario="kappa_sweep")
print(sorted(m for m in ("scipy.sparse", "scipy.integrate", "scipy.linalg")
             if m in sys.modules))
magsqueeze.cli.main(["sweep", "--out", sys.argv[1]])
print(sorted(m for m in ("scipy.integrate", "importlib.metadata") if m in sys.modules))
from magsqueeze.dynamics import SolverConfig, evolve_master, magnon_thermal_dissipators
from magsqueeze.model import PhysicalParams
from magsqueeze.qops import StateDensity
rho0 = np.zeros((6, 6), dtype=complex)
rho0[0, 0] = 1.0
evolve_master(None, magnon_thermal_dissipators(PhysicalParams(), 6), StateDensity(rho0),
              solver=SolverConfig(sample_times=[0.0, 1.0]))
print(sorted(m for m in ("scipy.sparse.csgraph",) if m in sys.modules))
"""


def test_loading_the_cli_imports_no_scipy_submodules(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env = {k: v for k, v in env.items() if not k.startswith("MAGSQUEEZE_")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-2] == "[]"  # after the sweep
    assert lines[-1] == "[]"  # after the master equation


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
