"""The program under test: importing it from this checkout and invoking its CLI.

Standard library only at import time, so a fresh process can start its
set-up clock before fuzzyfp (and numpy) load.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """Import fuzzyfp.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "fuzzyfp" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no fuzzyfp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fuzzyfp import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"benchmark: imported fuzzyfp from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    """What one CLI invocation did: exit code or error, wall time, artifacts."""

    code: int | None
    error: str | None
    wall_s: float
    files: dict = field(default_factory=dict)

    @property
    def digests(self) -> dict:
        return {name: hashlib.sha256(data).hexdigest() for name, data in self.files.items()}


def invoke(cli, argv: list[str], out_dir: str) -> Outcome:
    """Run `fuzzyfp <argv>` in-process into an emptied out_dir.

    Only the call itself is timed.  The CLI's stdout summary lines are
    captured and dropped so the benchmark's own output stays parseable.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    code = error = None
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, recorded and counted
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return Outcome(code=code, error=error, wall_s=wall, files=files)
