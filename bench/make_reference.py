"""Regenerate bench/reference.json.

    python3 bench/make_reference.py

Records the exit code and the SHA-256 of every artifact of every input
block of every workload at the default seed, at both the full and the tiny
(test) sizes.  The benchmark counts each difference from this file as a
failed operation, so regenerate it only for a change that is meant to alter
fuzzyfp's output, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import program
import run
import workloads as W


def main():
    cli = program.import_cli()
    workdir = run.WORK / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out_dir = str(workdir / "out")
    entries = {}
    try:
        for workload in W.WORKLOADS:
            for size in sorted(W.SIZES):
                for index in range(W.BLOCKS):
                    blk = W.block(workload, run.DEFAULT_SEED, index, size)
                    for inv, path in zip(blk.invocations, W.write_configs(blk, str(workdir))):
                        out = program.invoke(cli, inv.argv(path, out_dir), out_dir)
                        problems = [] if out.error is None else [out.error]
                        if out.code not in (0, 1):
                            problems.append(f"exit code {out.code}")
                        if inv.command == "suite":
                            problems += run.suite_problems(out.code, out.files)
                        if problems:
                            raise SystemExit(f"{workload}/{size}/{index}/{inv.name}: {problems}")
                        entries[inv.fingerprint()] = {
                            "workload": workload,
                            "size": size,
                            "block": index,
                            "invocation": inv.name,
                            "exit": out.code,
                            "sha256": out.digests,
                        }
                    print(f"{workload} {size} block {index}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"seed": run.DEFAULT_SEED, "blocks": W.BLOCKS, "invocations": entries}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
