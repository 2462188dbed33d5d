"""The benchmark traces the package by replacing names in module namespaces
(benchmark/spans.py, PATCHES).  A rename or a dropped import in the package
would break every traced benchmark run, so each entry must still resolve.
"""

import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "spans.py"
)


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("owner_path, attr", [(p[0], p[1]) for p in SPANS.PATCHES])
def test_traced_name_resolves(owner_path, attr):
    owner = SPANS._resolve(owner_path)
    # Tracer.install reads the name from the owner's own namespace
    assert attr in vars(owner), f"{owner_path}.{attr} is gone"
    assert callable(vars(owner)[attr])
