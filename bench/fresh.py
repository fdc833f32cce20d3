"""Fresh-process probe: set-up time and peak resident memory of one round.

    python3 bench/fresh.py WORKLOAD SEED SIZE WORKDIR

The configs of the workload's block 0 must already sit in WORKDIR.  The
clock starts before fuzzyfp is imported and stops after every config is
loaded, validated and turned into specs or samples, before the first
compute call.  The process then runs the round through the CLI and reports
its maximum resident set size.  Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import program
import workloads as W


def build_inputs(config, inv, path):
    """Everything the CLI builds before its first compute call."""
    doc = config.load_config(path)
    grid = config.build_grid(doc)
    if inv.command == "suite":
        config.build_solve(doc, grid, want_x0=False)
        seed = int(inv.flags[inv.flags.index("--seed") + 1])
        return config.build_suite_specs(doc, grid, seed)
    carrier_x, carrier_y, _, _ = config.build_spaces(doc, grid)
    config.build_problem(doc, carrier_x, carrier_y)
    return config.build_samples(doc, grid, carrier_x, carrier_y)


def main(argv):
    workload, seed, size, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    blk = W.block(workload, seed, 0, size)
    paths = [W.config_path(workdir, blk, inv) for inv in blk.invocations]

    start = time.perf_counter()
    cli = program.import_cli()
    from fuzzyfp import config

    for inv, path in zip(blk.invocations, paths):
        build_inputs(config, inv, path)
    setup_s = time.perf_counter() - start

    out_dir = os.path.join(workdir, f"fresh-{os.getpid()}")
    outcomes = []
    for inv, path in zip(blk.invocations, paths):
        out = program.invoke(cli, inv.argv(path, out_dir), out_dir)
        outcomes.append({"code": out.code, "error": out.error, "sha256": out.digests})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    os.rmdir(out_dir)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kib / 1024.0, "outcomes": outcomes}))


if __name__ == "__main__":
    main(sys.argv[1:])
