"""Benchmark for magsqueeze: run one workload for a fixed time and report.

    python3 benchmark/run.py --workload sector_sweep --seed 1 --seconds 12 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 12

Run it from the root of a checkout: the package is imported from ./src.
Each operation is one ``magsqueeze.cli.main([...])`` call in this process
on a config generated from the seed (see workloads.py).  Rounds of
operations repeat until the next round would overrun ``--seconds``; a run
always completes at least one whole round.  Every output is checked
(checks.py) outside the timed stretch.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from spans recorded around the
package's cross-module calls (spans.py).  ``--workload all`` runs every
workload both ways in child processes and prints one table.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import workloads

OUT_ROOT = ".bench_out"
# set-up is timed SETUP_BEFORE times before the rounds and SETUP_AFTER times
# after them, so one burst of machine load does not hit every sample
SETUP_BEFORE, SETUP_AFTER = 2, 1

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# span name -> per-layer fields reported for it, with units
_LAYER_FIELDS = (
    ("cli.main", (("calls", "count"), ("busy_s", "s"))),
    ("config.load_config", (("busy_s", "s"),)),
    ("scenarios.run", (("calls", "count"), ("self_s", "s"))),
    ("scenarios.write_csv", (("busy_s", "s"),)),
    ("dynamics.evolve_master", (("calls", "count"), ("self_s", "s"),
                                ("rhs_evals", "count"), ("samples", "count"))),
    ("dynamics.conditional_squeezing_run", (("calls", "count"), ("self_s", "s"))),
    ("dynamics.conditional_superposition_run", (("calls", "count"), ("self_s", "s"))),
    ("dynamics.postselect_qubit", (("calls", "count"), ("busy_s", "s"))),
    ("dynamics.sector_covariance_squeezing", (("calls", "count"), ("busy_s", "s"))),
    ("dynamics.ideal_superposition_targets", (("busy_s", "s"),)),
    ("model.build_H_cs", (("calls", "count"), ("busy_s", "s"))),
    ("model.build_H_rot", (("busy_s", "s"),)),
    ("model.frame_transform", (("calls", "count"), ("busy_s", "s"))),
    ("observables.min_quadrature_variance", (("calls", "count"), ("busy_s", "s"))),
    ("observables.wigner", (("calls", "count"), ("self_s", "s"),
                            ("points", "count"), ("rank_points", "count"))),
    ("observables.WignerGrid.to_csv", (("busy_s", "s"),)),
    ("states.superposition_pm", (("calls", "count"), ("busy_s", "s"))),
    ("qops.herm_eig", (("calls", "count"), ("busy_s", "s"))),
    ("coupling.coupling_map", (("busy_s", "s"),)),
    ("coupling.volume_avg_field", (("calls", "count"), ("busy_s", "s"))),
)

PER_LAYER = tuple(
    (f"{span}.{field}", unit) for span, fields in _LAYER_FIELDS for field, unit in fields
) + (
    ("scenarios.output_bytes", "bytes"),
    ("scenarios.warnings", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
)

# fresh interpreter -> import magsqueeze -> config loaded -> first operation ready
_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import magsqueeze.cli
from magsqueeze.config import load_config
from magsqueeze.scenarios import ScenarioConfig
ScenarioConfig.from_config(load_config(sys.argv[2]), scenario=sys.argv[3])
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(src, ini_path, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, src, ini_path, "custom"],
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, work_dir, tracer=None):
        from magsqueeze import cli

        self.work_dir = work_dir
        self.main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.output_bytes = 0
        self.warnings = 0
        self.report = []

    def run(self, op, index):
        """Run one operation; return its (wall, cpu) seconds."""
        from magsqueeze.config import load_config

        ini_path = os.path.join(self.work_dir, "cfg", f"{index}_{op.label}.ini")
        out_dir = os.path.join(self.work_dir, "out", op.label)
        workloads.write_ini(op, ini_path)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = op.argv + ["--config", ini_path, "--out", out_dir]

        sink = io.StringIO()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            warnings.simplefilter("always")
            try:
                code = self.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0

        self.attempted += 1
        self.warnings += len(caught)
        manifest = os.path.join(out_dir, "manifest.json")
        if os.path.exists(manifest):
            with open(manifest) as fh:
                self.output_bytes += sum(o["bytes"] for o in json.load(fh)["outputs"])
        self._judge(op, code, out_dir, load_config(ini_path))
        return wall, cpu

    def _judge(self, op, code, out_dir, cfg):
        if code != 0 and op.fault is None:
            self.failed += 1
            self.report.append(f"FAILED {op.label} {op.draws}: exit {code}")
            return
        try:
            clauses = op.check(op, code, out_dir, cfg)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.correct = False
            self.report.append(f"WRONG {op.label} {op.draws}: output unreadable ({exc})")
            return
        for c in clauses:
            if not c.ok and not c.fault:
                self.correct = False
                self.report.append(f"WRONG {op.label} {op.draws}: {c.name}: {c.detail}")
        faults = [c for c in clauses if not c.ok and c.fault]
        if faults:
            self.failed += 1
            detail = "; ".join(f"{c.name}: {c.detail}" for c in faults)
            self.report.append(f"FAILED {op.label} (known fault: {op.fault}): {detail}")


def run_workload(name, seed, seconds, trace):
    root = os.getcwd()
    src = os.path.join(root, "src")
    work_dir = os.path.join(root, OUT_ROOT, name, f"seed{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    rng = random.Random(seed)
    make_round = workloads.WORKLOADS[name]

    ops = make_round(rng)
    first_ini = os.path.join(work_dir, "cfg", "setup.ini")
    workloads.write_ini(ops[0], first_ini)
    setup_times = [] if trace else measure_setup(src, first_ini, SETUP_BEFORE)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(work_dir, tracer)
    rounds = []            # (op wall, op cpu) per round
    longest = 0.0
    start = time.perf_counter()
    try:
        while True:
            r0 = time.perf_counter()
            costs = [runner.run(op, len(rounds)) for op in ops]
            rounds.append((sum(w for w, _ in costs), sum(c for _, c in costs)))
            runner.report.append(f"round {len(rounds)}: operations wall {rounds[-1][0]:.3f} s, "
                                 f"cpu {rounds[-1][1]:.3f} s")
            longest = max(longest, time.perf_counter() - r0)
            if time.perf_counter() - start + longest > seconds:
                break
            ops = make_round(rng)
    finally:
        if tracer is not None:
            tracer.uninstall()

    n = len(rounds)
    if trace:
        from spans import layer_totals, self_times

        tracer.dump(os.path.join(work_dir, "trace.json"))
        totals = layer_totals(tracer.spans)
        metrics = {}
        for span, fields in _LAYER_FIELDS:
            for field, unit in fields:
                metrics[f"{span}.{field}"] = (totals.get(span, {}).get(field, 0) / n, unit)
        metrics["scenarios.output_bytes"] = (runner.output_bytes / n, "bytes")
        metrics["scenarios.warnings"] = (runner.warnings / n, "count")
        metrics["trace.wall_s"] = (sum(w for w, _ in rounds) / n, "s")
        metrics["trace.self_sum_s"] = (sum(self_times(tracer.spans)) / n, "s")
    else:
        setup_times += measure_setup(src, first_ini, SETUP_AFTER)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(w for w, _ in rounds), "s"),
            "cpu_s": (statistics.median(c for _, c in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    for line in runner.report:
        print(line)
    print(f"{name} seed {seed}: {n} round(s), attempted {runner.attempted}, "
          f"failed {runner.failed}, correct {runner.correct}")
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload untraced then traced, in child processes; one table."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results.setdefault(name, {})[trace] = json.loads(lines[-1])
    names = list(results)
    print(f"\n{'metric':44s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        for metric, unit in table:
            vals = [results[n][trace]["metrics"][metric]["value"] for n in names]
            print(f"{metric:44s} {unit:6s} " + " ".join(f"{v:14.6g}" for v in vals))
    overhead = [results[n][1]["metrics"]["trace.wall_s"]["value"]
                - results[n][0]["metrics"]["wall_s"]["value"] for n in names]
    print(f"{'tracing overhead (traced - untraced wall)':44s} {'s':6s} "
          + " ".join(f"{v:14.6g}" for v in overhead))
    for key in ("attempted", "failed"):
        print(f"{key:44s} {'count':6s} "
              + " ".join(f"{results[n][0][key]:14d}" for n in names))
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "magsqueeze", "cli.py")):
        print(f"no magsqueeze package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
