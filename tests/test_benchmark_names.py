"""The benchmark traces the package by replacing names in module namespaces
(benchmark/spans.py, PATCHES).  A rename or a dropped import in the package
would break every traced benchmark run, so each entry must still resolve,
and the span counters must still find the result fields they read.
Likewise every config the benchmark writes (benchmark/workloads.py) must
still load: a dropped config key would fail every operation with exit 2.
"""

import importlib.util
import os
import random
import sys

import numpy as np
import pytest

from magsqueeze.config import load_config
from magsqueeze.dynamics import SolverConfig, evolve_master, magnon_thermal_dissipators
from magsqueeze.model import PhysicalParams
from magsqueeze.observables import wigner
from magsqueeze.qops import StateDensity
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


def test_span_counters_read_real_results():
    # a counter that reads a renamed field would record zero, not fail
    rho0 = np.zeros((6, 6), dtype=complex)
    rho0[1, 1] = 1.0
    result = evolve_master(None, magnon_thermal_dissipators(PhysicalParams(), 6),
                           StateDensity(rho0), solver=SolverConfig(sample_times=[0.0, 1.0, 2.0]))
    counts = SPANS._evolve_counts((), {}, result)
    assert counts == {"rhs_evals": result.metadata["n_rhs_evals"], "samples": 3}
    assert counts["rhs_evals"] > 0

    ket = np.zeros(8, dtype=complex)
    ket[0] = 1.0
    axis = np.linspace(-6.0, 6.0, 5)
    grid = wigner(ket, axis, axis)
    counts = SPANS._wigner_counts((), {}, grid)
    assert counts == {"points": 25, "rank_points": 25 * grid.meta["rank"]}
    assert grid.meta["rank"] > 0


@pytest.mark.parametrize("argv, ini, code, want", [
    # the benchmark's below-threshold custom run: refused from the covariance
    (["sweep", "--scenario", "custom"],
     "[run]\nfock_dim = 60\ntime_max = 45 ns\ndelta_eff = 2 MHz\n", 3, (1, 0)),
    # squeeze_compare: one effective leg, one full-model run
    (["squeeze"], "[run]\nfock_dim = 40\ntime_max = 5 ns\n", 0, (1, 1)),
], ids=["custom_refusal", "squeeze_compare"])
def test_spans_name_what_runs(tmp_path, argv, ini, code, want):
    # the span of each effective leg is the covariance call, and the
    # conditional_squeezing_run span counts full-model runs only
    from magsqueeze import cli

    path = tmp_path / "run.ini"
    path.write_text(ini, encoding="utf-8")
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        got = cli.main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert got == code
    assert (names.count("dynamics.sector_covariance_squeezing"),
            names.count("dynamics.conditional_squeezing_run")) == want
