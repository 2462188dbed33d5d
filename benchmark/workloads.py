"""The benchmark's workloads: one round of operations each, drawn from a seed.

An operation is one ``magsqueeze.cli.main([...])`` call on a generated INI
config, with ``run.threads = 1``.  Every round of a workload runs the same
operations; only the drawn inputs change from round to round.  The
detuning Delta_eff is always drawn above the two-photon instability
threshold |g_cs| = 2 pi x 7.495 MHz, except in the fixed below-threshold
refusal operation.

The two ``fault`` operations use fixed inputs and fail every time on a
known fault of the program: they count as failed, not as incorrect.
"""

import math
import os
from dataclasses import dataclass, field, replace

import checks

TWO_PI = 2.0 * math.pi

# draw ranges (see README)
DETUNING_MHZ = (9.5, 10.0)
SECTOR_TEMPERATURE_MK = (10.0, 60.0)
SECTOR_FOCK = 52
SECTOR_T_MAX_NS = 60.0
HEATMAP_POINTS = 11
FULL_FOCK = 40
FULL_T_MAX_NS = 5.0
FULL_KAPPA_MHZ = (0.3, 0.6)
FULL_TEMPERATURE_MK = (10.0, 40.0)
SUP_TIME_NS = (15.0, 21.0)
SUP_KAPPA_MHZ = (0.3, 0.45)
SUP_TEMPERATURE_MK = (5.0, 15.0)
WIGNER_POINTS = 61
LOOP_SIDE_UM = (8.0, 12.0)
LOOP_CURRENT_UA = (0.3, 0.5)

# fixed inputs of the two fault operations
REFUSAL = {"fock_dim": 60, "delta_eff_mhz": 2.0, "time_max_ns": 45.0}
BOUNDARY_WIGNER_POINTS = 17      # the default superposition_time, 29 ns


@dataclass
class Op:
    label: str
    argv: list
    ini: dict
    check: object               # check(op, exit_code, out_dir, cfg) -> [Clause]
    fault: str = None           # known fault this operation shows, if any
    draws: dict = field(default_factory=dict)


def ini_text(ini):
    lines = []
    for section, values in ini.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def _run(**values):
    return {"threads": "1", **{k: str(v) for k, v in values.items()}}


def _mhz(x):
    return f"{x:.6f} MHz"


def _derived(cfg, kappa=None):
    from magsqueeze.model import derive

    params = cfg.params if kappa is None else replace(cfg.params, kappa=kappa)
    return derive(params, delta_eff_override=TWO_PI * cfg.run.delta_eff * 1e-3)


# ---------------------------------------------------------------------------
# checks bound to operations


def _check_kappa_sweep(op, code, out, cfg):
    return checks.check_kappa_sweep(out, lambda k: _derived(cfg, k))


def _check_heatmap(op, code, out, cfg):
    return checks.check_heatmap(out, lambda k: _derived(cfg, k), cfg.run.time_max)


def _check_refusal(op, code, out, cfg):
    clauses = checks.check_refusal(code, out, _derived(cfg), cfg.run.time_max)
    for c in clauses:
        c.fault = True
    return clauses


def _check_squeeze_compare(op, code, out, cfg):
    return checks.check_squeeze_compare(out, _derived(cfg))


_ORACLE = checks.WignerOracle()


def _xi(cfg):
    from magsqueeze.model import derive

    return -1.0j * derive(cfg.params).g_cs * cfg.run.superposition_time


def _check_superposition(op, code, out, cfg):
    clauses, boundary = checks.check_superposition_wigner(out, _xi(cfg), _ORACLE)
    return clauses + boundary


def _check_boundary_fault(op, code, out, cfg):
    clauses, boundary = checks.check_superposition_wigner(
        out, _xi(cfg), _ORACLE, riemann=False)
    for c in boundary:
        c.fault = True
    return clauses + boundary


def _check_fidelity(op, code, out, cfg):
    return checks.check_fidelity(out)


def _check_coupling_a(op, code, out, cfg):
    return checks.check_coupling_point(out, cfg.geometry.side_length)


def _check_coupling_b(op, code, out, cfg):
    return checks.check_coupling_volume(out, cfg.geometry.side_length,
                                        cfg.geometry.current)


# ---------------------------------------------------------------------------
# rounds


def sector_sweep(rng):
    delta = rng.uniform(*DETUNING_MHZ)
    temp = rng.uniform(*SECTOR_TEMPERATURE_MK)
    physical = {"temperature": f"{temp:.4f} mK"}
    return [
        Op("kappa_sweep", ["sweep"],
           {"physical": physical,
            "run": _run(fock_dim=SECTOR_FOCK, time_max=f"{SECTOR_T_MAX_NS} ns",
                        delta_eff=_mhz(delta))},
           _check_kappa_sweep, draws={"delta_MHz": delta, "T_mK": temp}),
        Op("max_squeeze_heatmap", ["heatmap"],
           {"physical": physical,
            "run": _run(heatmap_points=HEATMAP_POINTS, time_max=f"{SECTOR_T_MAX_NS} ns",
                        delta_eff=_mhz(delta))},
           _check_heatmap),
        Op("below_threshold_refusal", ["sweep", "--scenario", "custom"],
           {"run": _run(fock_dim=REFUSAL["fock_dim"],
                        time_max=f"{REFUSAL['time_max_ns']} ns",
                        delta_eff=_mhz(REFUSAL["delta_eff_mhz"]))},
           _check_refusal,
           fault="custom run below the instability threshold exits 0 instead of 3"),
    ]


def full_model(rng):
    delta = rng.uniform(*DETUNING_MHZ)
    temp = rng.uniform(*FULL_TEMPERATURE_MK)
    kappa = rng.uniform(*FULL_KAPPA_MHZ)
    return [
        Op("squeeze_compare", ["squeeze"],
           {"physical": {"kappa": _mhz(kappa), "temperature": f"{temp:.4f} mK"},
            "run": _run(fock_dim=FULL_FOCK, time_max=f"{FULL_T_MAX_NS} ns",
                        delta_eff=_mhz(delta))},
           _check_squeeze_compare,
           draws={"delta_MHz": delta, "T_mK": temp, "kappa_MHz": kappa}),
    ]


def superposition(rng):
    t_sup = rng.uniform(*SUP_TIME_NS)
    kappa = rng.uniform(*SUP_KAPPA_MHZ)
    temp = rng.uniform(*SUP_TEMPERATURE_MK)
    delta = rng.uniform(*DETUNING_MHZ)
    physical = {"kappa": _mhz(kappa), "temperature": f"{temp:.4f} mK"}
    return [
        Op("superposition_wigner", ["superpose"],
           {"physical": physical,
            "run": _run(superposition_time=f"{t_sup:.4f} ns",
                        wigner_points=WIGNER_POINTS)},
           _check_superposition, draws={"t_sup_ns": t_sup}),
        Op("superposition_fidelity", ["fidelity"],
           {"physical": physical, "run": _run(delta_eff=_mhz(delta))},
           _check_fidelity, draws={"delta_MHz": delta, "kappa_MHz": kappa, "T_mK": temp}),
        Op("dissipative_wigner_boundary", ["superpose"],
           {"run": _run(wigner_points=BOUNDARY_WIGNER_POINTS)},
           _check_boundary_fault,
           fault="dissipative Wigner grids ring at the boundary (pad_to=320)"),
    ]


def coupling_maps(rng):
    side = rng.uniform(*LOOP_SIDE_UM)
    current = rng.uniform(*LOOP_CURRENT_UA)
    geometry = {"side_length": f"{side:.4f} um", "current": f"{current:.4f} uA"}
    return [
        Op("coupling_map_a", ["coupling-map", "--scenario", "coupling_map_a"],
           {"geometry": geometry, "run": _run()}, _check_coupling_a),
        Op("coupling_map_b", ["coupling-map", "--scenario", "coupling_map_b"],
           {"geometry": geometry, "run": _run()}, _check_coupling_b),
    ]


WORKLOADS = {
    "sector_sweep": sector_sweep,
    "full_model": full_model,
    "superposition": superposition,
    "coupling_maps": coupling_maps,
}


def write_ini(op, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(ini_text(op.ini))
