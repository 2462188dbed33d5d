"""The twelve default commands and the 5 ns full-model squeeze reproduce
tests/golden.json byte for byte (golden_outputs.py runs them and rewrites
the file)."""

import json
import os

from golden_outputs import GOLDEN_PATH, collect


def test_default_commands_match_the_golden_outputs(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("MAGSQUEEZE_")]:
        monkeypatch.delenv(key)
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = collect(str(tmp_path))
    assert sorted(got) == sorted(golden)
    moved = [f"{name}: {what}" for name, entry in golden.items()
             for what in ("exit", "notes") if got[name][what] != entry[what]]
    moved += [f"{name}/{fname}" for name, entry in golden.items()
              for fname in sorted(set(entry["outputs"]) | set(got[name]["outputs"]))
              if got[name]["outputs"].get(fname) != entry["outputs"].get(fname)]
    assert not moved, f"outputs differ from {GOLDEN_PATH}: {moved}"
