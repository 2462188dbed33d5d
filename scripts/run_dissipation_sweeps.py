#!/usr/bin/env python3
"""Dissipation sweeps: peak squeezing vs kappa, vs temperature, and optionally
the full (kappa, gamma) heatmap.

All three read their cells from the exact covariance evolution of the
conditional sector (sector_covariance_squeezing), one batched call per
scenario, so no Fock truncation enters. Each sweep writes into its own
subdirectory.
"""

import argparse
import os

from magsqueeze.config import load_config
from magsqueeze.scenarios import ScenarioConfig, run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None, metavar="PATH")
    ap.add_argument("--out", default="out/sweeps", metavar="DIR")
    ap.add_argument("--heatmap", action="store_true",
                    help="also run the (kappa, gamma) peak-squeezing heatmap")
    ap.add_argument("--heatmap-points", type=int, default=None, metavar="N")
    args = ap.parse_args()

    names = ["kappa_sweep", "temperature_sweep"]
    if args.heatmap:
        names.append("max_squeeze_heatmap")
    for scenario in names:
        cfg = load_config(args.config)
        cfg.run.output_dir = os.path.join(args.out, scenario)
        if args.heatmap_points is not None:
            cfg.run.heatmap_points = args.heatmap_points
        manifest = run(ScenarioConfig.from_config(cfg, scenario=scenario))
        print(f"{scenario}: {len(manifest.outputs)} output(s), "
              f"{manifest.wall_clock_s:.1f} s")


if __name__ == "__main__":
    main()
