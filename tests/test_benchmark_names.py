"""The benchmark traces the package by replacing names in module namespaces
(benchmark/spans.py, PATCHES).  A rename or a dropped import in the package
would break every traced benchmark run, so each entry must still resolve.
Likewise every config the benchmark writes (benchmark/workloads.py) must
still load: a dropped config key would fail every operation with exit 2.
"""

import importlib.util
import os
import random
import sys

import pytest

from magsqueeze.config import load_config
from magsqueeze.scenarios import ScenarioConfig

BENCHMARK_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark"
)


def load_benchmark_module(name):
    # workloads.py imports its sibling checks.py by plain name
    if BENCHMARK_DIR not in sys.path:
        sys.path.insert(0, BENCHMARK_DIR)
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", os.path.join(BENCHMARK_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_benchmark_module("spans")
WORKLOADS = load_benchmark_module("workloads")


@pytest.mark.parametrize("owner_path, attr", [(p[0], p[1]) for p in SPANS.PATCHES])
def test_traced_name_resolves(owner_path, attr):
    owner = SPANS._resolve(owner_path)
    # Tracer.install reads the name from the owner's own namespace
    assert attr in vars(owner), f"{owner_path}.{attr} is gone"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_workload_configs_load(workload, tmp_path):
    for seed in (7, 8):
        for op in WORKLOADS.WORKLOADS[workload](random.Random(seed)):
            path = tmp_path / f"{op.label}_{seed}.ini"
            path.write_text(WORKLOADS.ini_text(op.ini), encoding="utf-8")
            cfg = load_config(str(path), env={})
            ScenarioConfig.from_config(cfg)
