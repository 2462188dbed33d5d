"""Golden outputs of the twelve default commands and one short full-model run.

The thirteenth command is squeeze on a 5 ns window at fock 40 (the
benchmark's full_model shape), on a config that collect() writes; it is
the one entry that integrates the full-model master equation.

For every file a command writes (its manifest aside), tests/golden.json
holds the sha256, the byte count and the row count; for every manifest it
holds the notes.  converge writes no file: its stdout report stands in.
test_golden.py runs the commands again and compares.  Any change that moves
a byte regenerates the file and says which outputs moved:

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

from magsqueeze import cli

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


def collect(workdir):
    """{command: {"exit", "outputs", "notes"}} of the commands, each
    writing into its own directory under workdir."""
    result = {}
    for name, argv in COMMANDS.items():
        outdir = os.path.join(workdir, name)
        if name in CONFIGS:
            ini = os.path.join(workdir, f"{name}.ini")
            with open(ini, "w", encoding="utf-8") as fh:
                fh.write(CONFIGS[name])
            argv = argv + ["--config", ini]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
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
        result[name] = entry
    return result


def main():
    for key in [k for k in os.environ if k.startswith("MAGSQUEEZE_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as workdir:
        golden = collect(workdir)
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n = sum(len(entry["outputs"]) for entry in golden.values())
    print(f"{GOLDEN_PATH}: {n} outputs of {len(golden)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
