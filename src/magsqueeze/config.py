"""Run configuration: a single INI-style file with mandatory unit suffixes.

Every physical quantity must carry a unit ("omega_m = 1.513 GHz"); a bare
number is a hard error.  Frequencies are linear (cycles), not angular --
conversion to rad/ns happens once, in model.derive().  Any key can be
overridden from the environment as MAGSQUEEZE_<SECTION>_<KEY>, with the
same parsing rules.  _KEYS lists every accepted key; any other key or
section is a ConfigError naming it.

Sections:
  [physical]  PhysicalParams fields
  [geometry]  the coupling loop: side length and current (the coupling
              maps sweep the sphere themselves)
  [run]       scenario name, fock_dim, output_dir, time grid, sweeps
"""

import configparser
import math
import os
from dataclasses import dataclass, field, replace

from .coupling import LoopGeometry
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

# section -> key -> canonical unit, or int / str; the one list of accepted
# keys, read by the parser, the environment overlay and the error messages
_KEYS = {
    "physical": {"omega_m": "GHz", "nu": "GHz", "omega_p": "GHz", "Omega": "GHz",
                 "g": "GHz", "theta": "rad", "kappa": "MHz", "gamma": "kHz",
                 "gamma_phi": "kHz", "temperature": "mK"},
    "geometry": {"side_length": "um", "current": "uA"},
    "run": {"scenario": str, "fock_dim": int, "output_dir": str, "threads": int,
            "time_max": "ns", "time_step": "ns", "delta_eff": "MHz",
            "superposition_time": "ns", "heatmap_points": int, "wigner_points": int},
}

# fock_dim floor of the runs in which a Fock truncation enters (custom,
# squeeze_compare, calibrate, converge); the others ignore fock_dim
MIN_FOCK_DIM = 40


def _parse(text, kind, where):
    """Parse one value by its _KEYS entry: str, int, or a canonical unit, into
    which "value suffix" converts; a bare number is refused."""
    if kind is str:
        return str(text).strip()
    if kind is int:
        try:
            return int(str(text).strip())
        except ValueError:
            raise ConfigError(f"{where}: {text!r} is not an integer") from None
    table = _UNIT_TABLES[kind]
    parts = str(text).split()
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected '<value> <unit>' with unit in "
                          f"{sorted(table)}, got {text!r}")
    raw, suffix = parts
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {raw!r} is not a number") from None
    if suffix not in table:
        raise ConfigError(f"{where}: unit {suffix!r} not accepted (use one of {sorted(table)})")
    return value * table[suffix]


@dataclass
class RunOptions:
    scenario: str = "custom"
    fock_dim: int = 80
    output_dir: str = "out"
    threads: int = 1                 # accepted (the benchmark's configs set it); no effect
    time_max: float = 150.0          # ns
    time_step: float = 0.5           # ns
    # MHz (linear); None -> scenarios.OPERATING_DETUNING_MHZ.  superpose and
    # wigner run at 0 and calibrate centres on derive()'s value, whatever is set
    delta_eff: float = None
    superposition_time: float = 29.0  # ns
    heatmap_points: int = 21
    wigner_points: int = 201


@dataclass
class Config:
    params: PhysicalParams = field(default_factory=PhysicalParams)
    geometry: LoopGeometry = field(default_factory=lambda: LoopGeometry(10.0, 0.4))
    run: RunOptions = field(default_factory=RunOptions)


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
        # read_file, not read: read skips a path it cannot open
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}") from None
        for section in cp.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")

    values = {}
    for section, keys in _KEYS.items():
        given = dict(cp.items(section)) if cp.has_section(section) else {}
        for key in keys:
            env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
            if env_key in env:
                given[key] = env[env_key]
        for key in given:
            if key not in keys:
                raise ConfigError(f"{section}.{key}: unknown key")
        values[section] = {key: _parse(text, keys[key], f"{section}.{key}")
                           for key, text in given.items()}

    base = Config()
    try:
        params = replace(base.params, **values["physical"]).validate()
    except ValueError as exc:
        raise ConfigError(f"physical: {exc}") from None
    run = replace(base.run, **values["run"])
    if run.time_step <= 0 or run.time_max <= 0:
        raise ConfigError("run.time_max and run.time_step must be positive")
    # the fewest points a heatmap axis and a Wigner axis can be drawn on
    for key, least in (("heatmap_points", 1), ("wigner_points", 2)):
        if getattr(run, key) < least:
            raise ConfigError(f"run.{key}: {getattr(run, key)} below the minimum of {least}")
    return Config(params=params, geometry=replace(base.geometry, **values["geometry"]), run=run)
