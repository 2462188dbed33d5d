"""Command-line entry point.

Exit codes: 0 success; 2 configuration error; 3 numeric failure
(stiffness, positivity, truncation); 4 convergence flag raised under
--strict.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import scenarios
from .config import load_config, require_fock_floor
from .errors import ConfigError, DimensionError, NumericalError, TruncationError
from .observables import (WignerGrid, flag_boundary, gaussian_wigner, require_outcome,
                          wigner_negativity_volume)

_COMMAND_SCENARIO = {
    "coupling-map": "coupling_map_a",
    "squeeze": "squeeze_compare",
    "sweep": "kappa_sweep",
    "heatmap": "max_squeeze_heatmap",
    "superpose": "superposition_wigner",
    "fidelity": "superposition_fidelity",
}


@functools.cache
def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", default=None,
                        help="INI config file (unit suffixes required)")
    shared.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (overrides run.output_dir)")
    shared.add_argument("--fock-dim", type=int, default=None, metavar="N")
    shared.add_argument("--scenario", default=None, metavar="NAME",
                        help="scenario name (where the command allows a choice)")

    parser = argparse.ArgumentParser(
        prog="magsqueeze",
        description="Conditional magnon squeezing and superposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("coupling-map", parents=[shared],
                   help="loop-field coupling maps (point or volume-averaged)")
    sub.add_parser("squeeze", parents=[shared],
                   help="conditional squeezing, effective vs full model")
    sub.add_parser("sweep", parents=[shared],
                   help="dissipation sweeps (kappa_sweep or temperature_sweep)")
    sub.add_parser("heatmap", parents=[shared],
                   help="peak squeezing over the dissipation plane")
    sub.add_parser("superpose", parents=[shared],
                   help="superposition states: ideal + dissipative Wigner grids")
    w = sub.add_parser("wigner", parents=[shared],
                       help="single ideal-state Wigner grid")
    w.add_argument("--state", choices=("vacuum", "sym", "antisym"), default="sym")
    sub.add_parser("fidelity", parents=[shared],
                   help="dissipative superposition fidelity vs ideal targets")
    sub.add_parser("calibrate", parents=[shared],
                   help="scan the effective detuning against the full model")
    c = sub.add_parser("converge", parents=[shared],
                       help="truncation convergence report for a scenario")
    c.add_argument("--strict", action="store_true",
                   help="exit 4 if the convergence check flags")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.out is not None:
        cfg.run.output_dir = args.out
    if args.fock_dim is not None:
        cfg.run.fock_dim = args.fock_dim
    return cfg


def _run_scenario(args):
    cfg = _load(args)
    sc = scenarios.ScenarioConfig.from_config(
        cfg, scenario=args.scenario or _COMMAND_SCENARIO[args.command])
    manifest = scenarios.run(sc)
    print(f"{sc.scenario}: {len(manifest.outputs)} output(s) in {cfg.run.output_dir}")
    for note in manifest.notes:
        print(f"  {note}")
    return 0


def _run_wigner(args):
    cfg = _load(args)
    os.makedirs(cfg.run.output_dir, exist_ok=True)
    if args.state == "vacuum":
        ax = np.linspace(-8.0, 8.0, cfg.run.wigner_points)
        grid = flag_boundary(WignerGrid(ax, ax, gaussian_wigner(1.0, 0.0, 0.0, 0.0, ax, ax).real))
    else:
        grids = scenarios.superposition_wigner_grids(cfg, ideal=True)
        grid = require_outcome(grids, "g" if args.state == "sym" else "e")[1]
    base = os.path.join(cfg.run.output_dir, f"wigner_{args.state}")
    grid.to_csv(base + ".csv")
    grid.to_json(base + ".json")
    neg = wigner_negativity_volume(grid)
    print(f"wigner[{args.state}]: negativity volume {neg:.6f}, grid at {base}.csv")
    return 0


def _run_calibrate(args):
    cfg = _load(args)
    os.makedirs(cfg.run.output_dir, exist_ok=True)
    sc = scenarios.ScenarioConfig.from_config(cfg, scenario="squeeze_compare")
    best, table, convex = scenarios.calibrate_delta_eff(sc)
    path = os.path.join(cfg.run.output_dir, "calibration.csv")
    scenarios.write_csv(path, ["delta_eff_rad_ns", "objective_dB_ns"],
                        [(d, o) for d, o in table])
    below = ", below-threshold" if scenarios.below_threshold(cfg.params, best) else ""
    print(f"calibrated delta_eff = {best:.6e} rad/ns "
          f"({best / (2.0 * np.pi) * 1e3:.3f} MHz), single-minimum={convex}{below}")
    print(f"scan table: {path}")
    return 0


def _run_converge(args):
    cfg = _load(args)
    require_fock_floor(cfg.run, "converge")
    scenario = args.scenario or cfg.run.scenario
    sc = scenarios.ScenarioConfig.from_config(cfg, scenario=scenario)
    report = scenarios.convergence_check(sc)
    print(json.dumps(report, indent=2, sort_keys=True))
    if report.get("flagged") and args.strict:
        return 4
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command in _COMMAND_SCENARIO:
            return _run_scenario(args)
        if args.command == "wigner":
            return _run_wigner(args)
        if args.command == "calibrate":
            return _run_calibrate(args)
        if args.command == "converge":
            return _run_converge(args)
        raise ConfigError(f"unhandled command {args.command!r}")
    except (ConfigError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, TruncationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
