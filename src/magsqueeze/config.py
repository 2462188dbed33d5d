"""Run configuration: a single INI-style file with mandatory unit suffixes.

Every physical quantity must carry a unit ("omega_m = 1.513 GHz"); a bare
number is a hard error.  Frequencies are linear (cycles), not angular --
conversion to rad/ns happens once, in model.derive().  Any key can be
overridden from the environment as MAGSQUEEZE_<SECTION>_<KEY>, with the
same parsing rules.

Sections:
  [physical]  PhysicalParams fields
  [geometry]  coupling loop + YIG sphere
  [run]       scenario name, fock_dim, output_dir, time grid, sweeps
"""

import configparser
import math
import os
from dataclasses import dataclass, field, replace

from .coupling import LoopGeometry, SphereSpec
from .errors import ConfigError
from .model import PhysicalParams

ENV_PREFIX = "MAGSQUEEZE"

# accepted suffix -> factor into the field's canonical unit
_UNIT_TABLES = {
    "GHz": {"GHz": 1.0, "MHz": 1e-3, "kHz": 1e-6},
    "MHz": {"GHz": 1e3, "MHz": 1.0, "kHz": 1e-3},
    "kHz": {"GHz": 1e6, "MHz": 1e3, "kHz": 1.0},
    "mK": {"K": 1e3, "mK": 1.0},
    "rad": {"rad": 1.0, "deg": math.pi / 180.0},
    "um": {"um": 1.0, "µm": 1.0, "nm": 1e-3, "mm": 1e3},
    "uA": {"uA": 1.0, "µA": 1.0, "nA": 1e-3, "mA": 1e3},
    "ns": {"ns": 1.0, "ps": 1e-3, "us": 1e3, "µs": 1e3},
}

# field -> canonical unit; drives both parsing and error messages
_PHYSICAL_UNITS = {
    "omega_m": "GHz",
    "nu": "GHz",
    "omega_p": "GHz",
    "Omega": "GHz",
    "phi": "rad",
    "g": "GHz",
    "theta": "rad",
    "kappa": "MHz",
    "gamma": "kHz",
    "gamma_phi": "kHz",
    "temperature": "mK",
}

_GEOMETRY_UNITS = {
    "side_length": "um",
    "current": "uA",
    "sphere_radius": "um",
    "sphere_x": "um",
    "sphere_y": "um",
    "sphere_z": "um",
}

_RUN_QUANTITY_UNITS = {
    "time_max": "ns",
    "time_step": "ns",
    "delta_eff": "MHz",
    "superposition_time": "ns",
}
_RUN_INT_KEYS = {"fock_dim", "threads", "heatmap_points", "wigner_points"}
_RUN_STR_KEYS = {"scenario", "output_dir"}

# fock_dim floor of the runs in which a Fock truncation enters (custom,
# squeeze_compare, calibrate, converge, wigner); the others ignore fock_dim
MIN_FOCK_DIM = 40


def parse_quantity(text, unit, where):
    """Parse "value suffix" into the canonical unit; reject bare numbers."""
    parts = str(text).split()
    if len(parts) != 2:
        raise ConfigError(
            f"{where}: expected '<value> <unit>' with unit in "
            f"{sorted(_UNIT_TABLES[unit])}, got {text!r}"
        )
    raw, suffix = parts
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {raw!r} is not a number") from None
    table = _UNIT_TABLES[unit]
    if suffix not in table:
        raise ConfigError(
            f"{where}: unit {suffix!r} not accepted (use one of {sorted(table)})"
        )
    return value * table[suffix]


def _parse_int(text, where):
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError(f"{where}: {text!r} is not an integer") from None


@dataclass
class RunOptions:
    scenario: str = "custom"
    fock_dim: int = 80
    output_dir: str = "out"
    threads: int = 1                 # accepted so older configs load; no effect
    time_max: float = 150.0          # ns
    time_step: float = 0.5           # ns
    delta_eff: float = None          # MHz (linear); None -> analytic default
    superposition_time: float = 29.0  # ns
    heatmap_points: int = 21
    wigner_points: int = 201


@dataclass
class Config:
    params: PhysicalParams = field(default_factory=PhysicalParams)
    geometry: LoopGeometry = field(default_factory=lambda: LoopGeometry(10.0, 0.4))
    sphere: SphereSpec = field(default_factory=lambda: SphereSpec((0.0, 0.0, 0.0), 0.5))
    run: RunOptions = field(default_factory=RunOptions)


def _apply_env(cp, env):
    """Overlay MAGSQUEEZE_<SECTION>_<KEY> environment values onto the parser."""
    for section in ("physical", "geometry", "run"):
        known = {
            "physical": _PHYSICAL_UNITS.keys(),
            "geometry": _GEOMETRY_UNITS.keys(),
            "run": _RUN_QUANTITY_UNITS.keys() | _RUN_INT_KEYS | _RUN_STR_KEYS,
        }[section]
        for key in known:
            env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
            if env_key in env:
                if not cp.has_section(section):
                    cp.add_section(section)
                cp.set(section, key, env[env_key])


def require_fock_floor(run, what):
    """Refuse a fock_dim below MIN_FOCK_DIM for a run that truncates."""
    if run.fock_dim < MIN_FOCK_DIM:
        raise ConfigError(f"run.fock_dim: {run.fock_dim} below the minimum of "
                          f"{MIN_FOCK_DIM} for {what}")


def load_config(path=None, env=None):
    """Read an INI file (optional) plus environment overrides into a Config."""
    env = os.environ if env is None else env
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (Omega vs omega_m)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        cp.read(path)
        for section in cp.sections():
            if section not in ("physical", "geometry", "run"):
                raise ConfigError(f"unknown config section [{section}]")
    _apply_env(cp, env)

    params = PhysicalParams()
    if cp.has_section("physical"):
        updates = {}
        for key, text in cp.items("physical"):
            if key not in _PHYSICAL_UNITS:
                raise ConfigError(f"physical.{key}: unknown parameter")
            updates[key] = parse_quantity(text, _PHYSICAL_UNITS[key], f"physical.{key}")
        params = replace(params, **updates)
        try:
            params.validate()
        except ValueError as exc:
            raise ConfigError(f"physical: {exc}") from None

    geom_vals = {"side_length": 10.0, "current": 0.4, "sphere_radius": 0.5,
                 "sphere_x": 0.0, "sphere_y": 0.0, "sphere_z": 0.0}
    if cp.has_section("geometry"):
        for key, text in cp.items("geometry"):
            if key not in _GEOMETRY_UNITS:
                raise ConfigError(f"geometry.{key}: unknown parameter")
            geom_vals[key] = parse_quantity(text, _GEOMETRY_UNITS[key], f"geometry.{key}")
    geometry = LoopGeometry(geom_vals["side_length"], geom_vals["current"])
    sphere = SphereSpec(
        (geom_vals["sphere_x"], geom_vals["sphere_y"], geom_vals["sphere_z"]),
        geom_vals["sphere_radius"],
    )

    run = RunOptions()
    if cp.has_section("run"):
        for key, text in cp.items("run"):
            where = f"run.{key}"
            if key in _RUN_QUANTITY_UNITS:
                setattr(run, key, parse_quantity(text, _RUN_QUANTITY_UNITS[key], where))
            elif key in _RUN_INT_KEYS:
                setattr(run, key, _parse_int(text, where))
            elif key in _RUN_STR_KEYS:
                setattr(run, key, str(text).strip())
            else:
                raise ConfigError(f"{where}: unknown option")
    if run.time_step <= 0 or run.time_max <= 0:
        raise ConfigError("run.time_max and run.time_step must be positive")

    return Config(params=params, geometry=geometry, sphere=sphere, run=run)
