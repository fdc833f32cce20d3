"""Configuration-driven command line entry point.

Subcommands: axioms, hypotheses, solve, suite.  Exit code contract:
0 = all checks passed; 1 = checks ran and some property failed
(informational, not an error); 2 = configuration or IO failure.  Summary
files embed the grid, seeds, tolerances and generator name so they are
self-contained; nothing in them depends on wall-clock time, so fixed seeds
reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import operator
import os
import sys

import numpy as np

from . import config as cfgmod
from .axioms import check_fm_axioms, check_tnorm_axioms
from .errors import CodomainError, ConfigError, EmptySampleError
from .harness import InstanceVerdict, run_suite
from .hypotheses import estimate_k
from .metrics import TGrid
from .rng import GENERATOR_NAME
from .solver import solve

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2

# Rows of the ratio dump formatted at once; their strings stay a few MB.
_RATIO_ROWS = 1 << 14


def _jsonable(obj):
    """json's default hook: what json cannot write itself, as what it can."""
    if isinstance(obj, (TGrid, np.ndarray, np.generic)):
        return (obj.values if isinstance(obj, TGrid) else obj).tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: str, obj) -> None:
    """obj as indented JSON in one write: json.dump would make thousands of small ones."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, default=_jsonable, indent=2, sort_keys=True) + "\n")


def cmd_axioms(doc: dict, args) -> int:
    grid = cfgmod.build_grid(doc, args.t_max)
    op = cfgmod.build_tnorm(doc)
    carrier_x, carrier_y, mu, nu = cfgmod.build_spaces(doc, grid)
    params = cfgmod.build_axiom_params(doc, (carrier_x, carrier_y))
    seed = params["seed"] if args.seed is None else args.seed

    reports = [check_tnorm_axioms(op, params["tnorm_samples"], seed)]
    reports.append(
        check_fm_axioms(mu, op, params["fm_triples"], grid, seed + 1, params["window"])
    )
    if nu is not mu:
        reports.append(
            check_fm_axioms(nu, op, params["fm_triples"], grid, seed + 2, params["window"])
        )

    payload = {
        "generator": GENERATOR_NAME,
        "grid": grid.values,
        "tnorm": op.kind,
        "seed": seed,
        "reports": [{**_jsonable(r), "passed": r.passed} for r in reports],
    }
    _write_json(os.path.join(args.out, "axioms_report.json"), payload)
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"axioms {r.subject}: {r.violation_count} violation(s) in {r.checks} checks")
    return EXIT_OK if ok else EXIT_FAILED


def _ratio_rows(fh, grid):
    """A dump for estimate_k that writes hypotheses_ratios.csv to fh, byte
    for byte as csv.writer would: one row per admitted cell with the label,
    the sample indices joined by ';', t and the ratio, floats in repr.  A
    block is formatted _RATIO_ROWS rows at a time, and its indices once per
    run of rows that share them, since the grid index varies fastest."""
    fh.write("label,indices,t,ratio\r\n")
    t_text = np.array([f"{t!r}," for t in grid.values.tolist()], dtype=object)

    def dump(label, cells, ratios):
        for lo in range(0, len(ratios), _RATIO_ROWS):
            hi = lo + _RATIO_ROWS
            lead, t_index = cells[lo:hi, :-1], cells[lo:hi, -1]
            starts = np.flatnonzero(np.r_[True, (lead[1:] != lead[:-1]).any(axis=1)])
            heads = np.array([f"{label},{';'.join(map(str, c))}," for c in lead[starts].tolist()], dtype=object)
            columns = (
                np.repeat(heads, np.diff(starts, append=len(lead))).tolist(),
                t_text[t_index].tolist(),
                map(repr, ratios[lo:hi].tolist()),
                itertools.repeat("\r\n"),
            )
            fh.write("".join(itertools.chain.from_iterable(zip(*columns))))

    return dump


def cmd_hypotheses(doc: dict, args) -> int:
    grid = cfgmod.build_grid(doc, args.t_max)
    carrier_x, carrier_y, mu, nu = cfgmod.build_spaces(doc, grid)
    scheme, problem = cfgmod.build_problem(doc, carrier_x, carrier_y)
    samples = cfgmod.build_samples(
        doc, grid, carrier_x, carrier_y, include_diagonal=args.include_diagonal
    )
    dump_csv = args.format in ("csv", "both")
    path = os.path.join(args.out, "hypotheses_ratios.csv")

    reports = []
    note = None
    with open(path, "w", newline="", encoding="utf-8") if dump_csv else contextlib.nullcontext() as fh:
        dump = None if fh is None else _ratio_rows(fh, grid)
        try:
            for report in estimate_k(scheme, problem, mu, nu, samples, dump):
                reports.append(report)
        except (EmptySampleError, CodomainError) as exc:
            note = str(exc)

    payload = {
        "generator": GENERATOR_NAME,
        "scheme": scheme,
        "grid": grid.values,
        "note": note,
        "reports": [{**_jsonable(r), "holds": r.holds} for r in reports],
    }
    _write_json(os.path.join(args.out, "hypotheses_report.json"), payload)

    if note is not None:
        print(f"hypotheses: {note}")
        return EXIT_FAILED
    for r in reports:
        k_txt = "n/a" if r.k_hat is None else f"{r.k_hat:.6g}"
        print(
            f"hypotheses {r.label}: k_hat={k_txt} holds={r.holds} "
            f"evaluated={r.evaluated_count} skipped={r.skipped_count}"
        )
    ks = [r.k_hat for r in reports if r.k_hat is not None]
    ok = bool(ks) and all(k < 1.0 for k in ks)
    return EXIT_OK if ok else EXIT_FAILED


def _coord_labels(prefix: str, point) -> list[str]:
    if np.ndim(point) == 0:
        return [prefix]
    return [f"{prefix}_{i}" for i in range(len(point))]


def _coords(point) -> list:
    if np.ndim(point) == 0:
        return [int(point)]
    return [float(v) for v in point]


def cmd_solve(doc: dict, args) -> int:
    grid = cfgmod.build_grid(doc, args.t_max)
    carrier_x, carrier_y, mu, nu = cfgmod.build_spaces(doc, grid)
    scheme, problem = cfgmod.build_problem(doc, carrier_x, carrier_y)
    cfg, x0 = cfgmod.build_solve(doc, grid, carrier_x)
    if x0 is None:
        raise ConfigError("solve requires solve.x0")

    result = solve(problem, mu, nu, x0, cfg)

    payload = {
        "generator": GENERATOR_NAME,
        "scheme": scheme,
        "grid": grid.values,
        "eps": cfg.eps,
        "max_iter": cfg.max_iter,
        "stall_window": cfg.stall_window,
        "p_max": cfg.p_max,
        "verify_tol": cfg.verify_tol,
        "status": result.status,
        "iterations": result.iterations,
        "z": result.z,
        "w": result.w,
        "conclusion_checks": result.conclusion_checks,
    }
    _write_json(os.path.join(args.out, "solve_summary.json"), payload)

    trace_path = os.path.join(args.out, "solve_trace.csv")
    ts = grid.values
    xs = result.trace_x.points
    ys = result.trace_y.points
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["n", "t", "mu_step_x", "nu_step_y"]
        header += _coord_labels("x", xs[0])
        header += _coord_labels("y", xs[0] if not ys else ys[0])
        writer.writerow(header)
        for n in range(1, len(xs)):
            x_row = result.trace_x.nearness[n - 1]
            y_row = result.trace_y.nearness[n - 2] if n >= 2 and len(ys) >= n else None
            y_pt = ys[n - 1] if len(ys) >= n else None
            for k, t in enumerate(ts):
                row = [n, float(t), float(x_row[k])]
                row.append("" if y_row is None else float(y_row[k]))
                row += _coords(xs[n])
                row += [""] * len(_coord_labels("y", xs[0])) if y_pt is None else _coords(y_pt)
                writer.writerow(row)

    print(
        f"solve: status={result.status} stop_reason={result.stop_reason} iterations={result.iterations} "
        f"conclusions_passed={result.conclusions_passed}"
    )
    ok = result.converged and result.conclusions_passed
    return EXIT_OK if ok else EXIT_FAILED


def cmd_suite(doc: dict, args) -> int:
    grid = cfgmod.build_grid(doc, args.t_max)
    cfg, _ = cfgmod.build_solve(doc, grid, want_x0=False)
    specs, starts = cfgmod.build_suite_specs(doc, grid, args.seed)
    verdict = run_suite(specs, cfg, starts=starts)

    if args.format in ("json", "both"):
        _write_json(os.path.join(args.out, "suite_verdict.json"), verdict)
    if args.format in ("csv", "both"):
        path = os.path.join(args.out, "suite_rows.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            names = [field.name for field in dataclasses.fields(InstanceVerdict)]
            writer.writerow(names)
            fields = operator.attrgetter(*names)  # astuple would deep-copy every row
            for r in verdict.rows:
                writer.writerow("" if v is None else v for v in fields(r))

    agg = verdict.aggregates
    print(
        "suite: instances={instances} converged={converged} "
        "conclusions_passed={conclusions_passed} uniqueness_passed={uniqueness_passed} "
        "axiom_violations_total={axiom_violations_total}".format(
            **agg
        )
    )
    ok = (
        agg["converged"] == agg["instances"]
        and agg["conclusions_passed"] == agg["instances"]
        and agg["uniqueness_passed"] == agg["instances"]
        and agg["axiom_violations_total"] == 0
    )
    return EXIT_OK if ok else EXIT_FAILED


_COMMANDS = {
    "axioms": cmd_axioms,
    "hypotheses": cmd_hypotheses,
    "solve": cmd_solve,
    "suite": cmd_suite,
}

# Every flag, and each subcommand's help and the optional flags it reads; the
# rest are not registered on it, so argparse rejects them with a usage error.
_FLAGS = {
    "--config": dict(required=True, help="path to the JSON run config"),
    "--out": dict(default="./out", help="output directory (default ./out)"),
    "--seed": dict(type=int, help="override the config seed"),
    "--format": dict(choices=("json", "csv", "both"), default="json", help="artifacts to write (default json)"),
    "--include-diagonal": dict(action="store_true", help="diagnostic: keep x = x' tuples in hypothesis estimation"),
    "--t-max": dict(type=float, help="override the grid t_max"),
}
_SUBCOMMANDS = {
    "axioms": ("check t-norm and nearness axioms by sampling", ("--seed", "--t-max")),
    "hypotheses": ("estimate the best contraction constant on a sample", ("--format", "--include-diagonal", "--t-max")),
    "solve": ("run the coupled iteration scheme and verify conclusions", ("--t-max",)),
    "suite": ("generate seeded instances and run the full property suite", ("--seed", "--format", "--t-max")),
}


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyfp",
        description="Fuzzy-nearness fixed point toolkit: axiom checks, "
        "contraction estimates, coupled iteration, and a seeded suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("--config", "--out", *flags):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = cfgmod.load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](doc, args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
