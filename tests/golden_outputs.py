"""Golden outputs of the twelve default commands and one short full-model run.

The thirteenth command is squeeze on a 5 ns window at fock 40 (the
benchmark's full_model shape), on a config that collect() writes; it is
the one entry that integrates the full-model master equation.

For every file a command writes (its manifest aside), tests/golden.json
holds the sha256, the byte count and the row count; for every manifest it
holds the notes.  converge writes no file: its stdout report stands in.
The CSVs print %.12e, 13 significant digits, so their bytes can miss a
change in a value's last bits: each CSV also gets a "bits" digest, the
sha256 over float.hex of every float its writer (scenarios.write_csv,
WignerGrid.to_csv, CouplingMapResult.to_csv) is handed, and str() of any
other value.  The JSON files and the converge report print floats by repr,
which round-trips, so their bytes pin every bit already.  The file also
records the numpy and scipy versions the digests were taken under.
test_golden.py runs the commands again and compares.  Any change that moves
a byte or a bit regenerates the file and says which outputs moved:

    PYTHONPATH=src python tests/golden_outputs.py

The commands run in one process, at the default config unless CONFIGS
names one, with every MAGSQUEEZE_* environment override removed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import scipy

from magsqueeze import cli, scenarios
from magsqueeze.coupling import CouplingMapResult
from magsqueeze.observables import WignerGrid

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

COMMANDS = {
    "coupling_map_a": ["coupling-map"],
    "coupling_map_b": ["coupling-map", "--scenario", "coupling_map_b"],
    "kappa_sweep": ["sweep"],
    "temperature_sweep": ["sweep", "--scenario", "temperature_sweep"],
    "heatmap": ["heatmap"],
    "superpose": ["superpose"],
    "fidelity": ["fidelity"],
    "custom": ["squeeze", "--scenario", "custom"],
    "wigner_vacuum": ["wigner", "--state", "vacuum"],
    "wigner_sym": ["wigner", "--state", "sym"],
    "wigner_antisym": ["wigner", "--state", "antisym"],
    "converge_custom": ["converge", "--scenario", "custom"],
    "squeeze_5ns": ["squeeze"],
}

# commands that run on a config of their own, written next to their outputs
CONFIGS = {
    "squeeze_5ns": "[run]\nfock_dim = 40\ntime_max = 5 ns\n",
}


def _digest(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "rows": data.count(b"\n")}


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _update_bits(bits, path, values):
    """Feed float.hex of each float in values (str() of anything else) into
    the sha256 kept for path's file name."""
    h = bits.setdefault(os.path.basename(path), hashlib.sha256())
    for v in values:
        h.update((float.hex(v) if isinstance(v, float) else str(v)).encode("ascii") + b",")


@contextlib.contextmanager
def _recording_bits(bits):
    """Wrap the three CSV writers so that each one, before it writes, feeds
    every value it is handed into bits[file name]."""
    write_csv = scenarios.write_csv
    wigner_to_csv, coupling_to_csv = WignerGrid.to_csv, CouplingMapResult.to_csv

    def write_csv_bits(path, header, rows):
        rows = [tuple(row) for row in rows]
        _update_bits(bits, path, [v for row in rows for v in row])
        return write_csv(path, header, rows)

    def wigner_bits(grid, path):
        for x in (grid.re_axis, grid.im_axis, grid.values):
            _update_bits(bits, path, np.ravel(x).tolist())
        return wigner_to_csv(grid, path)

    def coupling_bits(result, path):
        for x in (*result.axis_values, result.g_ghz):
            _update_bits(bits, path, np.ravel(x).tolist())
        return coupling_to_csv(result, path)

    scenarios.write_csv = write_csv_bits
    WignerGrid.to_csv, CouplingMapResult.to_csv = wigner_bits, coupling_bits
    try:
        yield
    finally:
        scenarios.write_csv = write_csv
        WignerGrid.to_csv, CouplingMapResult.to_csv = wigner_to_csv, coupling_to_csv


def collect(workdir):
    """{command: {"exit", "outputs", "notes"}} of the commands, each
    writing into its own directory under workdir; a CSV's entry in outputs
    also holds its "bits" digest."""
    result = {}
    for name, argv in COMMANDS.items():
        outdir = os.path.join(workdir, name)
        if name in CONFIGS:
            ini = os.path.join(workdir, f"{name}.ini")
            with open(ini, "w", encoding="utf-8") as fh:
                fh.write(CONFIGS[name])
            argv = argv + ["--config", ini]
        stdout, bits = io.StringIO(), {}
        with contextlib.redirect_stdout(stdout), _recording_bits(bits):
            code = cli.main(argv + ["--out", outdir])
        entry = {"exit": code, "outputs": {}, "notes": []}
        if argv[0] == "converge":
            entry["outputs"]["stdout"] = _digest(stdout.getvalue().encode("utf-8"))
        for fname in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
            with open(os.path.join(outdir, fname), "rb") as fh:
                data = fh.read()
            if fname == "manifest.json":
                entry["notes"] = json.loads(data)["notes"]
            else:
                entry["outputs"][fname] = _digest(data)
                if fname in bits:
                    entry["outputs"][fname]["bits"] = bits[fname].hexdigest()
        result[name] = entry
    return result


def main():
    for key in [k for k in os.environ if k.startswith("MAGSQUEEZE_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as workdir:
        commands = collect(workdir)
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"commands": commands, "versions": versions()}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    n = sum(len(entry["outputs"]) for entry in commands.values())
    n_bits = sum("bits" in out for entry in commands.values()
                 for out in entry["outputs"].values())
    print(f"{GOLDEN_PATH}: {n} outputs ({n_bits} with bits) of {len(commands)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
