"""BENCHMARK.json agrees with the code; rounds are drawn from the seed."""

import json
import os
import random

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_reported_metrics():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _round_texts(name, seed, rounds=3):
    rng = random.Random(seed)
    return [[workloads.ini_text(op.ini) for op in workloads.WORKLOADS[name](rng)]
            for _ in range(rounds)]


def test_rounds_repeat_for_a_seed_and_differ_between_seeds():
    for name in workloads.WORKLOADS:
        assert _round_texts(name, 7) == _round_texts(name, 7)
        assert _round_texts(name, 7) != _round_texts(name, 8)


def test_fault_operations_use_fixed_inputs():
    for name in workloads.WORKLOADS:
        per_seed = []
        for seed in (1, 2):
            rng = random.Random(seed)
            ops = workloads.WORKLOADS[name](rng)
            per_seed.append([workloads.ini_text(op.ini) for op in ops if op.fault])
        assert per_seed[0] == per_seed[1]
    faults = {name: sum(op.fault is not None for op in fn(random.Random(0)))
              for name, fn in workloads.WORKLOADS.items()}
    assert faults == {"sector_sweep": 1, "full_model": 0, "superposition": 1,
                      "coupling_maps": 0}


def test_detuning_draws_stay_above_the_instability_threshold():
    assert workloads.DETUNING_MHZ[0] > 7.495
