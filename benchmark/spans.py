"""Spans recorded from outside the package.

A span is recorded around each call from one module into another's
public function.  The wrapper replaces the name in the *calling*
module's namespace: ``dynamics`` imports ``min_quadrature_variance`` by
name, so only ``dynamics.min_quadrature_variance`` sees its calls.
Spans stay in memory; ``Tracer.dump`` writes them out at the end.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans in an operation therefore add up to
the duration of the operation's root span.
"""

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    op: int              # operation id shared by the spans of one call tree
    counts: dict


def _evolve_counts(args, kwargs, result):
    return {"rhs_evals": result.metadata.get("n_rhs_evals") or 0,
            "samples": len(result.times)}


def _wigner_counts(args, kwargs, result):
    points = int(result.values.size)
    return {"points": points, "rank_points": points * int(result.meta["rank"])}


# (module attribute path, attribute, span name, counter)
PATCHES = (
    ("magsqueeze.cli", "load_config", "config.load_config", None),
    ("magsqueeze.scenarios", "run", "scenarios.run", None),
    ("magsqueeze.scenarios", "write_csv", "scenarios.write_csv", None),
    ("magsqueeze.scenarios", "conditional_squeezing_run",
     "dynamics.conditional_squeezing_run", None),
    ("magsqueeze.scenarios", "conditional_superposition_run",
     "dynamics.conditional_superposition_run", None),
    ("magsqueeze.scenarios", "ideal_superposition_targets",
     "dynamics.ideal_superposition_targets", None),
    ("magsqueeze.scenarios", "sector_covariance_squeezing",
     "dynamics.sector_covariance_squeezing", None),
    ("magsqueeze.scenarios", "wigner", "observables.wigner", _wigner_counts),
    ("magsqueeze.scenarios", "superposition_pm", "states.superposition_pm", None),
    ("magsqueeze.scenarios", "coupling_map", "coupling.coupling_map", None),
    ("magsqueeze.dynamics", "evolve_master", "dynamics.evolve_master", _evolve_counts),
    ("magsqueeze.dynamics", "postselect_qubit", "dynamics.postselect_qubit", None),
    ("magsqueeze.dynamics", "build_H_cs", "model.build_H_cs", None),
    ("magsqueeze.dynamics", "build_H_rot", "model.build_H_rot", None),
    ("magsqueeze.dynamics", "frame_transform", "model.frame_transform", None),
    ("magsqueeze.dynamics", "min_quadrature_variance",
     "observables.min_quadrature_variance", None),
    ("magsqueeze.dynamics", "herm_eig", "qops.herm_eig", None),
    ("magsqueeze.observables", "herm_eig", "qops.herm_eig", None),
    ("magsqueeze.observables.WignerGrid", "to_csv", "observables.WignerGrid.to_csv", None),
    ("magsqueeze.coupling", "volume_avg_field", "coupling.volume_avg_field", None),
)


def _resolve(path):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._op = -1
        self._saved = []

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if parent == -1:
                tracer._op += 1
            idx = len(tracer.spans)
            tracer.spans.append(Span(name, tracer.clock(), 0.0, parent, tracer._op, {}))
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx].end = tracer.clock()
            if counter is not None:
                tracer.spans[idx].counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self, patches=PATCHES):
        for owner_path, attr, name, counter in patches:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([vars(s) for s in self.spans], fh)


def self_times(spans):
    """Duration minus the durations of direct children, per span."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans):
    """name -> {"calls", "busy_s", "self_s", counter...} summed over spans."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += s.end - s.start
        t["self_s"] += own
        for key, val in s.counts.items():
            t[key] = t.get(key, 0) + val
    return totals
