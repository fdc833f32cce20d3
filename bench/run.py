"""fuzzyfp benchmark: drives the public CLI in-process and reports metrics.

    python3 bench/run.py --workload suite-pair --seed 1 --seconds 30 --trace 0

One process, no extra threads, a closed loop with one client: each
`fuzzyfp.cli.main([...])` call starts when the previous one returns.  The
workload seed generates every config and point; the program sees only
those generated inputs.  Round r runs input block r mod BLOCKS.

--trace 0 measures the end-to-end metrics with tracing off for --seconds,
plus set-up time and peak memory in fresh processes; timings are scaled to
a reference host speed.  --trace 1 runs a fixed number of blocks untraced,
then traced, then under tracemalloc, and reports the per-layer metrics.
Either way every invocation's artifacts are hashed and checked, and the
last line of stdout is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402
import workloads as W  # noqa: E402

ROOT = program.ROOT
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
FRESH_PROCESSES = 3
TRACE_BLOCKS = 2
# Times of host_slowdown()'s two loops at the reference host speed, to which
# the end-to-end timings are scaled; see "Host speed" in README.md.
REFERENCE_PYTHON_S = 0.007
REFERENCE_NUMPY_S = 0.008

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RATIONALE = {w["name"]: w["why"] for w in DECLARED["workloads"]}
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

# What each metric is, and for per-layer metrics which end-to-end metric on
# which workload a change at that layer should move.
END_TO_END = {
    "instances_per_s": "suite instances, or `hypotheses` calls, per second at reference host speed; median over rounds",
    "cells_per_s": "estimator cells (evaluated + skipped) per second at reference host speed; median over rounds",
    "setup_s": "fresh interpreter: import, load and validate configs, build specs/samples; scaled like the rates; median",
    "peak_rss_mb": "max resident set size of a fresh process running one round; median",
}
SUITE_PAIR = "instances_per_s on suite-pair, barely suite-quad-slow, not hypotheses-wide"
SOLVER = "instances_per_s, mostly suite-quad-slow, partly suite-pair, not hypotheses-wide"
ESTIMATOR = "cells_per_s, peak_rss_mb on hypotheses-wide; partly suite-pair; barely suite-quad-slow"
KERNEL = "shared kernel: a gain splits across all three workloads"
SETUP = "setup_s, plus a small share of every workload"
PER_LAYER = {
    "axioms.triples": SUITE_PAIR,
    "axioms.busy_s": SUITE_PAIR,
    "axioms.us_per_triple": SUITE_PAIR,
    "rng.draws": SUITE_PAIR,
    "spaces.sample_points": SUITE_PAIR,
    "solver.solve_calls": SOLVER,
    "solver.iterations": SOLVER,
    "solver.busy_s": SOLVER,
    "solver.us_per_iter": SOLVER,
    "solver.probe_busy_s": SOLVER,
    "solver.probe_self_s": SOLVER,
    "mappings.calls": SOLVER,
    "hypotheses.calls": ESTIMATOR,
    "hypotheses.cells": ESTIMATOR,
    "hypotheses.admitted_share": ESTIMATOR,
    "hypotheses.busy_s": ESTIMATOR,
    "hypotheses.peak_mb": ESTIMATOR,
    "hypotheses.fp_warnings": ESTIMATOR,
    "spaces.distance_calls": ESTIMATOR,
    "metrics.mu_grid_calls": KERNEL,
    "metrics.pairwise_calls": KERNEL,
    "metrics.cells": KERNEL,
    "metrics.busy_s": KERNEL,
    "harness.gen_instance_busy_s": SETUP,
    "harness.self_s": SETUP,
    "config.busy_s": SETUP,
    "cli.self_s": SETUP,
    "trace.overhead_s": "traced minus untraced wall time of the same blocks; not a program metric",
    "trace.spans": "spans recorded in the traced pass; not a program metric",
}
UNMEASURED = "sequences and tnorms get almost no work from any CLI path; they are not measured"


class Gate:
    """Correctness of every invocation.

    An operation (one CLI invocation) fails if it raises, exits with a code
    other than 0 or 1, or differs from its reference in exit code or in any
    artifact's SHA-256.  The reference is the stored one (reference.json,
    written for the default seed) or else the first run of that input in
    this process.  Independently, every suite row must be converged and pass
    its conclusions and uniqueness; a suite that breaks this is a violation.
    """

    def __init__(self, stored: dict):
        self.stored = stored
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.violations = 0
        self.digests = {}  # pass name -> {input fingerprint: {"exit", "sha256"}}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.violations == 0

    def check(self, inv, code, error, digests, files=None, pass_name="timed") -> bool:
        """Record one invocation; returns False if the operation failed."""
        self.attempted += 1
        record = {"exit": code, "sha256": digests}
        fp = inv.fingerprint()
        self.digests.setdefault(pass_name, {})[fp] = record
        ref = self.stored.get(fp) or self.first.setdefault(fp, record)
        problems = []
        if error is not None:
            problems.append(f"raised:\n{error}")
        elif code not in (0, 1):
            problems.append(f"exit code {code}")
        if {"exit": ref["exit"], "sha256": ref["sha256"]} != record:
            problems.append(f"differs from reference (exit {ref['exit']} -> {code})")
        if problems:
            self.failed += 1
            print(f"FAILED {inv.command} {inv.name} [{pass_name}]: {'; '.join(problems)}", file=sys.stderr)
        if inv.command == "suite" and files is not None:
            violations = suite_problems(code, files)
            if violations:
                self.violations += 1
                print(f"VIOLATION suite {inv.flags} [{pass_name}]: {'; '.join(violations)}", file=sys.stderr)
        return not problems


def suite_problems(code, files) -> list[str]:
    """Rows that are not converged, conclusive and unique, and a suite exit
    code other than 0."""
    if "suite_verdict.json" not in files:
        return ["no suite_verdict.json"]
    rows = json.loads(files["suite_verdict.json"])["rows"]
    bad = [
        f"{r['index']} (seed {r['seed']}: status {r['status']}, conclusions {r['conclusions_passed']}, "
        f"uniqueness {r['uniqueness_passed']})"
        for r in rows
        if r["status"] != "converged" or r["conclusions_passed"] is not True or r["uniqueness_passed"] is not True
    ]
    problems = [f"rows {', '.join(bad[:5])}"] if bad else []
    if code != 0:
        problems.append(f"suite exit code {code}, expected 0")
    return problems


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["invocations"]


def run_sample_sizes(harness) -> dict:
    """run_suite's default hypothesis sample sizes, read from its signature."""
    params = inspect.signature(harness.run_suite).parameters
    return {k: params[k].default for k in ("n_traj", "n_rand", "quad_n_traj", "quad_n_rand")}


class Runner:
    """Runs blocks of one workload through the CLI and checks each call."""

    def __init__(self, cli, workload, seed, size, workdir, gate):
        from fuzzyfp import harness

        self.cli, self.workload, self.seed, self.size = cli, workload, seed, size
        self.workdir, self.gate = workdir, gate
        self.out_dir = os.path.join(workdir, "out")
        self.sample_sizes = run_sample_sizes(harness)
        self.written = set()

    def block(self, index):
        blk = W.block(self.workload, self.seed, index, self.size)
        if blk.index not in self.written:
            W.write_configs(blk, self.workdir)
            self.written.add(blk.index)
        return blk

    def cells(self, inv, files) -> int:
        if inv.command == "suite":
            return W.suite_cells(json.loads(files["suite_verdict.json"]), self.sample_sizes)
        report = json.loads(files["hypotheses_report.json"])
        return sum(r["evaluated_count"] + r["skipped_count"] for r in report["reports"])

    def round(self, index, pass_name="timed"):
        """Run one block; returns (wall seconds, instances, cells)."""
        blk = self.block(index)
        wall = cells = 0
        for inv in blk.invocations:
            path = W.config_path(self.workdir, blk, inv)
            out = program.invoke(self.cli, inv.argv(path, self.out_dir), self.out_dir)
            wall += out.wall_s
            if self.gate.check(inv, out.code, out.error, out.digests, out.files, pass_name):
                cells += self.cells(inv, out.files)
        return wall, blk.instances, cells


def _python_loop():
    acc = 0
    for i in range(100_000):
        acc += i * i


def _numpy_loop():
    ts = np.linspace(0.01, 100.0, 17)
    acc = 0.0
    for i in range(1500):
        acc += float(np.min(ts / (ts + (i % 13) * 0.37)))


def host_slowdown() -> float:
    """How much slower the host runs now than at the reference speed.

    Times two fixed loops that run no fuzzyfp code, one of plain Python and
    one of small numpy calls like those the solver makes, five times each.
    Each median is divided by its reference time, and the two are averaged.
    """
    ratios = []
    for loop, reference in ((_python_loop, REFERENCE_PYTHON_S), (_numpy_loop, REFERENCE_NUMPY_S)):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        ratios.append(statistics.median(times) / reference)
    return sum(ratios) / len(ratios)


class HostSpeed:
    """Host slowdown for each of a sequence of timed steps.

    A step's slowdown is the mean of the calibrations just before and just
    after it, smoothed by a median over the steps around it: host speed
    drifts over tens of seconds, while one calibration is noisy."""

    WINDOW = 5

    def __init__(self):
        self.marks = [host_slowdown()]

    def mark(self):
        """Call after each timed step."""
        self.marks.append(host_slowdown())

    def slowdowns(self) -> list[float]:
        steps = [(a + b) / 2 for a, b in zip(self.marks, self.marks[1:])]
        half = self.WINDOW // 2
        return [statistics.median(steps[max(0, i - half) : i + half + 1]) for i in range(len(steps))]


def fresh_processes(workload, seed, size, workdir, gate, count):
    """Set-up time and peak RSS, each from its own fresh interpreter.
    Returns (scaled set-up times, raw set-up times, peak RSS values)."""
    blk = W.block(workload, seed, 0, size)
    W.write_configs(blk, workdir)
    raw, rss = [], []
    host = HostSpeed()
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "fresh.py"), workload, str(seed), size, workdir],
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
        )
        host.mark()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: fresh process failed with exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(result["setup_s"])
        rss.append(result["peak_rss_mb"])
        for inv, o in zip(blk.invocations, result["outcomes"]):
            gate.check(inv, o["code"], o["error"], o["sha256"], pass_name="fresh")
    setup = [t / slowdown for t, slowdown in zip(raw, host.slowdowns())]
    return setup, raw, rss


def measure_end_to_end(runner, seconds, fresh):
    """End-to-end metrics as {name: (value, samples)}, and the same medians
    before scaling to the reference host speed."""
    setup, raw_setup, rss = fresh_processes(
        runner.workload, runner.seed, runner.size, runner.workdir, runner.gate, fresh
    )
    raw_inst, raw_cells = [], []
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        wall, n_inst, n_cells = runner.round(index)
        host.mark()
        raw_inst.append(n_inst / wall)
        raw_cells.append(n_cells / wall)
        index += 1
        if time.perf_counter() >= deadline:
            break
    slowdowns = host.slowdowns()
    inst = [rate * slowdown for rate, slowdown in zip(raw_inst, slowdowns)]
    cells = [rate * slowdown for rate, slowdown in zip(raw_cells, slowdowns)]
    med = statistics.median
    metrics = {
        "instances_per_s": (med(inst), len(inst)),
        "cells_per_s": (med(cells), len(cells)),
        "setup_s": (med(setup), len(setup)),
        "peak_rss_mb": (med(rss), len(rss)),
    }
    raw = {
        "instances_per_s": med(raw_inst),
        "cells_per_s": med(raw_cells),
        "setup_s": med(raw_setup),
        "host_slowdown": med(slowdowns),
    }
    return metrics, raw


def measure_per_layer(runner, blocks):
    from tracing import MemoryProbe, Tracer

    runner.round(0, "warmup")  # first calls pay one-off costs that would skew the overhead
    untraced = sum(runner.round(b, "untraced")[0] for b in range(blocks))

    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(runner.round(b, "traced")[0] for b in range(blocks))
    finally:
        tracer.uninstall()

    probe = MemoryProbe()
    probe.install()
    try:
        runner.round(0, "memory")
    finally:
        probe.uninstall()

    trace_path = WORK / f"trace-{runner.workload}-seed{runner.seed}.csv.gz"
    tracer.write(str(trace_path))
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return layer_metrics(tracer, probe, traced - untraced), blocks


def layer_metrics(tracer, probe, overhead_s) -> dict:
    s = tracer.summary()
    c = tracer.counts
    busy, own, names = s["busy"], s["self"], s["names"]

    def name_time(name, column=1):
        return names.get(name, (0, 0.0, 0.0))[column]

    def per(total, count, scale=1e6):
        return total / count * scale if count else 0.0

    triples = c["axioms.triples"]
    return {
        "axioms.triples": triples,
        "axioms.busy_s": busy.get("axioms", 0.0),
        "axioms.us_per_triple": per(busy.get("axioms", 0.0), triples),
        "rng.draws": c["rng.draws"],
        "spaces.sample_points": c["spaces.sample_points"],
        "solver.solve_calls": names.get("solver.solve", (0,))[0],
        "solver.iterations": c["solver.iterations"],
        "solver.busy_s": busy.get("solver", 0.0),
        "solver.us_per_iter": per(name_time("solver.solve"), c["solver.iterations"]),
        "solver.probe_busy_s": name_time("solver.uniqueness_probe"),
        "solver.probe_self_s": name_time("solver.uniqueness_probe", 2),
        "mappings.calls": c["mappings.calls"],
        "hypotheses.calls": c["hypotheses.calls"],
        "hypotheses.cells": c["hypotheses.cells"],
        "hypotheses.admitted_share": per(c["hypotheses.evaluated"], c["hypotheses.cells"], 1.0),
        "hypotheses.busy_s": busy.get("hypotheses", 0.0),
        "hypotheses.peak_mb": max(probe.peaks, default=0) / 2**20,
        "hypotheses.fp_warnings": c["hypotheses.fp_warnings"],
        "spaces.distance_calls": c["spaces.distance_calls"],
        "metrics.mu_grid_calls": names.get("metrics.mu_grid", (0,))[0],
        "metrics.pairwise_calls": names.get("metrics.pairwise", (0,))[0],
        "metrics.cells": c["metrics.cells"],
        "metrics.busy_s": busy.get("metrics", 0.0),
        "harness.gen_instance_busy_s": name_time("harness.gen_instance"),
        "harness.self_s": own.get("harness", 0.0),
        "config.busy_s": busy.get("config", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.spans),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(workload, seed) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload,
        "why": RATIONALE[workload],
    }


def measure(workload, seed, seconds, trace, size="full", fresh=FRESH_PROCESSES, blocks=TRACE_BLOCKS):
    """One benchmark run.  Returns the result dict printed by main()."""
    cli = program.import_cli()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    gate = Gate(load_reference())
    raw = {}
    try:
        runner = Runner(cli, workload, seed, size, str(workdir), gate)
        if trace:
            values, samples = measure_per_layer(runner, blocks)
            metrics = {k: (values[k], samples) for k in PER_LAYER}
            table = PER_LAYER
        else:
            metrics, raw = measure_end_to_end(runner, seconds, fresh)
            table = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "environment": environment(workload, seed),
        "metrics": {k: {"value": v, "unit": UNITS[k], "samples": n} for k, (v, n) in metrics.items()},
        "notes": {k: table[k] for k in metrics},
        "unscaled": raw,
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "violations": gate.violations,
        "digests": gate.digests,
    }


def print_report(result):
    env = result["environment"]
    print(
        f"# fuzzyfp benchmark: workload={env['workload']} seed={env['seed']} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} git={env['git_sha']}"
    )
    print(f"# why: {env['why']}")
    print("# loop: closed, one client, in-process fuzzyfp.cli.main, no extra threads")
    print(f"# {UNMEASURED}")
    print(f"{'metric':30} {'value':>16} {'unit':>6} {'samples':>7}  meaning / moved by")
    for name, m in result["metrics"].items():
        print(f"{name:30} {m['value']:16.6g} {m['unit']:>6} {m['samples']:7d}  {result['notes'][name]}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':30} {share:16.6g} {'ratio':>6} {result['attempted']:7d}  failed / attempted CLI invocations")
    print(f"{'suite_violations':30} {result['violations']:16d} {'count':>6} {result['attempted']:7d}  suites with a row not converged, conclusive and unique")
    if result["unscaled"]:
        print("# unscaled wall-clock medians: " + " ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print_report(result)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
