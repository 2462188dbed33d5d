"""Each correctness check passes on a correct output and fails on a corrupted one."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import checks
from magsqueeze import PhysicalParams, superposition_pm, wigner
from magsqueeze.model import derive

DERIVED = derive(PhysicalParams(temperature=50.0), delta_eff_override=2 * math.pi * 9.5e-3)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12e}" for v in row) + "\n")


def _failed(clauses):
    return [c.name for c in clauses if not c.ok]


def test_moment_series_matches_an_ode_integration():
    g_cs, delta, kappa, nbar = checks.rates(DERIVED)
    c = -g_cs / 2.0
    times = np.arange(0.0, 60.25, 0.5)

    def rhs(t, y):
        n, s = y[0].real, y[1]
        return [-4 * c * s.imag - kappa * (n - nbar),
                -2j * delta * s - 2j * c * (2 * n + 1) - kappa * s]

    sol = solve_ivp(rhs, (0, 60), [0j, 0j], t_eval=times, rtol=1e-11, atol=1e-13)
    n, s_abs, s_db = checks.moment_series(g_cs, delta, kappa, nbar, times)
    assert np.max(np.abs(n - sol.y[0].real)) < 1e-8
    assert np.max(np.abs(s_abs - np.abs(sol.y[1]))) < 1e-8
    assert s_db.max() > 5.0


# ---------------------------------------------------------------------------
# sector series


def _kappa_sweep(tmp_path, shift=0.0, swap_peaks=False):
    times = np.arange(0.0, 30.25, 0.5)
    rows, peaks = [], []
    for k in (0.5, 1.0, 2.0, 4.0):
        d = derive(PhysicalParams(kappa=k, temperature=50.0),
                   delta_eff_override=DERIVED.Delta_eff)
        n, _, s = checks.moment_series(*checks.rates(d), times)
        s = s + shift
        rows += [(k, t, si, ni) for t, si, ni in zip(times, s, n)]
        peaks.append((k, s.max(), times[np.argmax(s)]))
    if swap_peaks:
        peaks[0], peaks[1] = (peaks[0][0],) + peaks[1][1:], (peaks[1][0],) + peaks[0][1:]
    _write_csv(tmp_path / "kappa_sweep.csv", ["kappa_MHz", "time_ns", "S_dB", "n"], rows)
    _write_csv(tmp_path / "kappa_sweep_peaks.csv", ["kappa_MHz", "peak", "t"], peaks)
    return checks.check_kappa_sweep(
        str(tmp_path),
        lambda k: derive(PhysicalParams(kappa=k, temperature=50.0),
                         delta_eff_override=DERIVED.Delta_eff))


def test_kappa_sweep_passes_on_moment_series(tmp_path):
    assert _failed(_kappa_sweep(tmp_path)) == []


def test_kappa_sweep_fails_on_shifted_s_column(tmp_path):
    assert any("S vs moment" in n for n in _failed(_kappa_sweep(tmp_path, shift=0.03)))


def test_kappa_sweep_fails_when_peaks_rise_with_kappa(tmp_path):
    assert _failed(_kappa_sweep(tmp_path, swap_peaks=True)) == ["peak S non-increasing in kappa"]


def _heatmap(tmp_path, bump=None, shift=0.0):
    t_max = 30.0
    times = np.arange(0.0, t_max + 0.25, 0.5)
    rows = []
    for k in (0.1, 1.0, 10.0):
        d = derive(PhysicalParams(kappa=k), delta_eff_override=DERIVED.Delta_eff)
        _, _, s = checks.moment_series(*checks.rates(d), times)
        for j, g in enumerate((1.0, 10.0, 100.0)):
            peak = s.max() + shift + (1e-6 if bump == (k, j) else 0.0)
            rows.append((k, g, peak, times[np.argmax(s)]))
    _write_csv(tmp_path / "max_squeeze_heatmap.csv", ["k", "g", "S", "t"], rows)
    return checks.check_heatmap(
        str(tmp_path),
        lambda k: derive(PhysicalParams(kappa=k), delta_eff_override=DERIVED.Delta_eff),
        t_max)


def test_heatmap_checks(tmp_path):
    assert _failed(_heatmap(tmp_path)) == []
    assert _failed(_heatmap(tmp_path, bump=(1.0, 2))) == ["heatmap unchanged along gamma"]
    assert _failed(_heatmap(tmp_path, shift=0.05)) == ["heatmap peak S vs moment equations"]


def _squeeze_compare(tmp_path, ratio=2.0, shift=0.0):
    times = np.arange(0.0, 5.25, 0.5)
    n, _, s = checks.moment_series(*checks.rates(DERIVED), times)
    rows = [(t, si + shift, ni, ratio * si, 0.99) for t, si, ni in zip(times, s, n)]
    _write_csv(tmp_path / "squeeze_compare.csv", ["t", "Se", "ne", "Sf", "p"], rows)
    return checks.check_squeeze_compare(str(tmp_path), DERIVED)


def test_squeeze_compare_checks(tmp_path):
    assert _failed(_squeeze_compare(tmp_path)) == []
    assert _failed(_squeeze_compare(tmp_path, ratio=2.1)) == ["S_full/S_eff at 5 ns"]
    assert "effective column: S vs moment equations" in _failed(
        _squeeze_compare(tmp_path, shift=0.03))


def test_refusal_passes_only_on_exit_3(tmp_path):
    assert _failed(checks.check_refusal(3, str(tmp_path), DERIVED, 45.0)) == []
    times = np.arange(0.0, 45.25, 0.5)
    _write_csv(tmp_path / "squeeze_custom.csv", ["t", "S", "n"],
               [(t, -8.0, 12.0) for t in times])
    (clause,) = checks.check_refusal(0, str(tmp_path), DERIVED, 45.0)
    assert not clause.ok and "exit 0" in clause.detail and "moment equations" in clause.detail


# ---------------------------------------------------------------------------
# Wigner grids

XI = -1.0j * derive(PhysicalParams()).g_cs * 12.0
AX = np.linspace(-8.0, 8.0, 41)


@pytest.fixture(scope="module")
def ideal_grids():
    return {sign: wigner(superposition_pm(XI, sign, 420), AX, AX).values
            for sign in (+1, -1)}


@pytest.fixture(scope="module")
def oracle():
    return checks.WignerOracle(fock=320)


@pytest.mark.parametrize("sign", [+1, -1])
def test_ideal_grid_passes(ideal_grids, oracle, sign):
    assert _failed(checks.check_ideal_grid("g", AX, ideal_grids[sign], XI, sign, oracle)) == []


def test_ideal_grid_fails_on_90_degree_asymmetry(ideal_grids, oracle):
    x, y = np.meshgrid(AX, AX)
    bad = ideal_grids[+1] + 1e-6 * x * np.exp(-(x**2 + y**2))
    assert _failed(checks.check_ideal_grid("g", AX, bad, XI, +1, oracle)) == [
        "g: fourfold symmetry"]


def test_ideal_grid_fails_on_shifted_grid(ideal_grids, oracle):
    failed = _failed(checks.check_ideal_grid("g", AX, ideal_grids[-1] + 1e-3, XI, -1, oracle))
    for name in ("W(0) = 2/pi", "displaced parity oracle", "boundary", "normalisation"):
        assert any(name in f for f in failed), name


def test_ideal_grid_fails_on_the_wrong_state(ideal_grids, oracle):
    failed = _failed(checks.check_ideal_grid("g", AX, ideal_grids[+1], XI, -1, oracle))
    assert failed == ["g: displaced parity oracle"]


def _superposition_dir(tmp_path, grids, boundary=0.0, pg=0.7, pe=0.3):
    for tag, sign in (("sym", +1), ("antisym", -1)):
        for kind, values in (("ideal", grids[sign]), ("dissipative", 0.5 * grids[sign])):
            base = tmp_path / f"wigner_{kind}_{tag}"
            values = values.copy()
            if kind == "dissipative":
                values[-1, -1] = boundary
            with open(f"{base}.csv", "w") as fh:
                fh.write("re,im,w\n")
                for iy, yv in enumerate(AX):
                    for ix, xv in enumerate(AX):
                        fh.write(f"{xv:.12e},{yv:.12e},{values[iy, ix]:.12e}\n")
            with open(f"{base}.json", "w") as fh:
                json.dump({"re_axis": [-8.0, 8.0, len(AX)], "im_axis": [-8.0, 8.0, len(AX)]}, fh)
    with open(tmp_path / "manifest.json", "w") as fh:
        json.dump({"notes": ["t=12 ns", f"p_g={pg:.6f} p_e={pe:.6f}"]}, fh)
    return str(tmp_path)


def test_superposition_wigner_files(tmp_path, ideal_grids, oracle):
    out = _superposition_dir(tmp_path, ideal_grids)
    clauses, boundary = checks.check_superposition_wigner(out, XI, oracle)
    assert _failed(clauses + boundary) == []
    out = _superposition_dir(tmp_path, ideal_grids, boundary=-1.08e-3, pe=0.31)
    clauses, boundary = checks.check_superposition_wigner(out, XI, oracle)
    assert _failed(clauses) == ["dissipative p_g + p_e = 1"]
    assert _failed(boundary) == ["dissipative sym: boundary |W| <= 0.0001",
                                 "dissipative antisym: boundary |W| <= 0.0001"]


def _fidelity(tmp_path, rows):
    _write_csv(tmp_path / "superposition_fidelity.csv", ["t", "pg", "pe", "Fs", "Fa"], rows)
    return _failed(checks.check_fidelity(str(tmp_path)))


def test_fidelity_checks(tmp_path):
    good = [(5.0, 0.97, 0.03, 0.99, 0.98), (40.0, 0.7, 0.3, 0.95, 0.91)]
    assert _fidelity(tmp_path, good) == []
    assert _fidelity(tmp_path, good + [(45.0, 0.7, 0.3, 0.95, 0.89)]) == ["F >= 0.9"]
    assert _fidelity(tmp_path, good + [(45.0, 0.7, 0.3, 0.93, 0.94)]) == ["F_antisym <= F_sym"]
    assert _fidelity(tmp_path, good + [(45.0, 0.7, 0.31, 0.95, 0.94)]) == ["p_g + p_e = 1"]


# ---------------------------------------------------------------------------
# coupling maps


def test_axis_field_centre_value():
    side, current = 10.0, 0.4
    centre = 2 * math.sqrt(2) * checks.MU0 * current / (math.pi * side)
    assert checks.axis_field(side, current, 0.0) == pytest.approx(centre, rel=1e-15)


def test_point_map_against_the_package(tmp_path):
    from magsqueeze import YIG, LoopGeometry, SphereSpec, coupling_strength

    rows = []
    for r in (0.1, 0.55, 1.0):
        for i in (0.1, 1.0):
            g = coupling_strength(LoopGeometry(9.0, i), SphereSpec((0, 0, 0), r), YIG,
                                  point_approx=True).g_ghz
            rows.append((r, i, g))
    _write_csv(tmp_path / "coupling_map_point.csv", ["R", "I", "g"], rows)
    assert _failed(checks.check_coupling_point(str(tmp_path), 9.0)) == []
    rows[3] = rows[3][:2] + (rows[3][2] * 1.001,)
    _write_csv(tmp_path / "coupling_map_point.csv", ["R", "I", "g"], rows)
    assert _failed(checks.check_coupling_point(str(tmp_path), 9.0)) == [
        "point map vs closed-form centre field"]


def _volume_rows(side, current, corrupt=None):
    rows = []
    for r in (0.1, 1.0):
        for x in (0.0, 1.5, 3.0):
            g = checks._coupling_from_field(checks.axis_field(side, current, x), r)
            rows.append((r, x, g * (corrupt.get((r, x), 1.0) if corrupt else 1.0)))
    return rows


def test_volume_map_checks(tmp_path):
    path = tmp_path / "coupling_map_volume.csv"
    _write_csv(path, ["R", "x0", "g"], _volume_rows(10.0, 0.4))
    assert _failed(checks.check_coupling_volume(str(tmp_path), 10.0, 0.4)) == []
    _write_csv(path, ["R", "x0", "g"], _volume_rows(10.0, 0.4, {(1.0, 1.5): 1.0 + 1e-6}))
    assert _failed(checks.check_coupling_volume(str(tmp_path), 10.0, 0.4)) == [
        "volume map vs on-axis field (mean-value property)"]
    _write_csv(path, ["R", "x0", "g"], _volume_rows(10.0, 0.4, {(0.1, 3.0): 2.0}))
    assert "volume map decreases in x0" in _failed(
        checks.check_coupling_volume(str(tmp_path), 10.0, 0.4))


def test_volume_map_against_the_package():
    from magsqueeze import LoopGeometry, SphereSpec, volume_avg_field

    b = volume_avg_field(LoopGeometry(10.0, 0.4), SphereSpec((1.5, 0.0, 0.0), 0.8),
                         orders=(8, 8, 16))
    assert b == pytest.approx(checks.axis_field(10.0, 0.4, 1.5), rel=1e-9)


def test_notes_probabilities_parses_the_manifest_note():
    assert checks.notes_probabilities({"notes": ["x", "p_g=0.683314 p_e=0.316686"]}) == (
        0.683314, 0.316686)
