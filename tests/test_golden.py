"""Golden digests: every artifact the four subcommands write on the stock
configs, plus one small quadruple and one small self-quadruple suite on the
exponential form and `hypotheses --format both` on a pair with a dual
sample, a two-space exponential quadruple and a self-quadruple, must stay
byte-identical; every `hypotheses` case must write its report with the
same bytes under `--format json`, which takes no ratio dump.  Two more
`hypotheses` cases, a 160-point pair and a 5 + 12 point quadruple, are
large enough that the estimators evaluate them in several blocks of the
leading sample index.  One expansive pair suite overflows in its x0
solves, so its k_hat samples escape and its rows carry no k_hat.  One mixed-family pair suite has constant maps, whose fixed
points agree exactly (uniqueness distance 0.0) and whose runs are shorter
than the trajectory sample, so its k_hat samples come in several sizes.
Two `solve` cases keep whole traces: a slow exponential-form quadruple that
converges after 644 iterations, over several chunks of 64 cycles, and a 2-D
pair that escapes its box after 47 iterations, inside a chunk.

The expected exit codes and SHA-256 digests live in tests/golden/digests.json.
Regenerate them only when output is meant to change, and say why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fuzzyfp.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

COMMANDS = ("axioms", "hypotheses", "solve", "suite")
CONFIGS = sorted((ROOT / "configs").glob("*.json")) + sorted(GOLDEN.glob("*_*.json"))
CASES = [
    (f"{path.stem}:{command}", path, command)
    for path in CONFIGS
    for command in COMMANDS
    # a golden config carries only the sections of the command its name starts with
    if path.parent == ROOT / "configs" or path.stem.startswith(f"{command}_")
]


def run_case(path: Path, command: str, out: str, fmt: str = "both") -> dict:
    """Exit code and the digest of every file the command wrote; the two
    commands that read --format write every artifact they can, unless fmt
    says otherwise."""
    flags = ["--format", fmt] if command in ("hypotheses", "suite") else []
    code = main([command, "--config", str(path), "--out", out, *flags])
    artifacts = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            artifacts[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "artifacts": artifacts}


@pytest.fixture(scope="module")
def expected():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_cases_match_digest_file(expected):
    assert sorted(expected) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name,path,command", CASES, ids=[c[0] for c in CASES])
def test_artifacts_byte_identical(name, path, command, expected, tmp_path):
    assert run_case(path, command, str(tmp_path)) == expected[name]


HYPOTHESES = [case for case in CASES if case[2] == "hypotheses"]


@pytest.mark.parametrize("name,path,command", HYPOTHESES, ids=[c[0] for c in HYPOTHESES])
def test_hypotheses_report_without_the_ratio_dump(name, path, command, expected, tmp_path):
    """`--format json` takes no ratio dump, so a standard pair (and its
    dual) takes the end-scale path of the estimator, as the suites and the
    hypotheses-wide benchmark do; its report has the bytes recorded for
    `--format both`, whose dump takes every cell on the whole grid."""
    report = {k: v for k, v in expected[name]["artifacts"].items() if k == "hypotheses_report.json"}
    assert run_case(path, command, str(tmp_path), "json") == {"exit": expected[name]["exit"], "artifacts": report}


if __name__ == "__main__":
    digests = {}
    for name, path, command in CASES:
        with tempfile.TemporaryDirectory() as out:
            digests[name] = run_case(path, command, out)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} cases to {DIGESTS}", file=sys.stderr)
