#!/usr/bin/env python3
"""Conditional squeezing S(t): effective model next to the full two-mode model.

Writes squeeze_compare.csv (time, effective, full, difference). The full-model
leg dominates the runtime; --fock-dim trades accuracy for speed.
"""

import argparse

from magsqueeze.config import load_config
from magsqueeze.scenarios import ScenarioConfig, run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None, metavar="PATH")
    ap.add_argument("--out", default="out/squeeze", metavar="DIR")
    ap.add_argument("--fock-dim", type=int, default=None, metavar="N")
    args = ap.parse_args()

    cfg = load_config(args.config)
    cfg.run.output_dir = args.out
    if args.fock_dim is not None:
        cfg.run.fock_dim = args.fock_dim
    manifest = run(ScenarioConfig.from_config(cfg, scenario="squeeze_compare"))
    print(f"squeeze_compare: {len(manifest.outputs)} output(s) in {cfg.run.output_dir}")
    for note in manifest.notes:
        print(f"  {note}")


if __name__ == "__main__":
    main()
