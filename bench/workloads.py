"""Workload definitions: generated inputs, CLI invocations and work counts.

Everything here is standard library only, so the fresh set-up process can
import it before it starts its clock and imports fuzzyfp.  Inputs come from
Python's own seeded generator, never from fuzzyfp's, so a change to the
program's RNG cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# Rounds cycle through this many distinct input blocks per workload seed.
BLOCKS = 16

GRID = {"t_min": 0.01, "t_max": 100.0, "points": 17}
SOLVE = {"eps": 1e-9, "max_iter": 10000, "stall_window": 50, "p_max": 8, "verify_tol": 1e-6}
HALFWIDTH = 10.0

# Instances per suite invocation, and hypothesis sample sizes, per size.
SIZES = {
    "full": {
        "suite-pair": 50,
        "suite-quad-slow": 4,
        "hypotheses-wide": {"pair": 192, "quadruple": 18, "self-quadruple": 96},
    },
    "tiny": {
        "suite-pair": 3,
        "suite-quad-slow": 1,
        "hypotheses-wide": {"pair": 12, "quadruple": 4, "self-quadruple": 8},
    },
}

WORKLOADS = tuple(SIZES["full"])


@dataclass(frozen=True)
class Invocation:
    """One `fuzzyfp` CLI call on a generated config."""

    name: str
    command: str
    config: dict
    flags: tuple = ()
    instances: int = 1

    def fingerprint(self) -> str:
        """Identity of the inputs, independent of where files are written."""
        blob = json.dumps([self.command, list(self.flags), self.config], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, *self.flags]


@dataclass(frozen=True)
class Block:
    index: int
    invocations: tuple

    @property
    def instances(self) -> int:
        return sum(inv.instances for inv in self.invocations)


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def _suite(rng, count, scheme, dim, factor, metric_form) -> Invocation:
    seed = rng.randrange(1, 2**31)
    doc = {
        "grid": dict(GRID),
        "solve": dict(SOLVE),
        "suite": {
            "count": count,
            "scheme": scheme,
            "dim": dim,
            "family": "affine",
            "factor": list(factor),
            "metric_form": metric_form,
            "seed": 0,
            "halfwidth": HALFWIDTH,
            "expansive": False,
            "starts": 4,
        },
    }
    # the instance seeds reach the program through the CLI's --seed flag
    return Invocation(
        name="suite",
        command="suite",
        config=doc,
        flags=("--seed", str(seed), "--format", "both"),
        instances=count,
    )


def _point(rng, dim, radius=HALFWIDTH):
    return [rng.uniform(-radius, radius) for _ in range(dim)]


def _matrix(rng, dim, factor):
    """Random matrix rescaled so its max-row-sum operator norm is `factor`."""
    m = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)]
    norm = max(sum(abs(v) for v in row) for row in m)
    return [[v * factor / norm for v in row] for row in m]


def _into_box(rng, dim):
    """Contractive affine map of the centered box into itself."""
    factor = rng.uniform(0.3, 0.9)
    m = _matrix(rng, dim, factor)
    return {"form": "affine", "matrix": m, "offset": _point(rng, dim, (1.0 - factor) * HALFWIDTH)}


def _anchored(rng, dim, factor, src, dst):
    """Affine map sending src to dst; maps the box into itself when
    |src|, |dst| <= HALFWIDTH (1 - factor) / (1 + factor)."""
    m = _matrix(rng, dim, factor)
    offset = [dst[i] - sum(m[i][j] * src[j] for j in range(dim)) for i in range(dim)]
    return {"form": "affine", "matrix": m, "offset": offset}


def _box(dim):
    return {"kind": "box", "lo": [-HALFWIDTH] * dim, "hi": [HALFWIDTH] * dim}


def _quad_maps(rng, dim):
    factors = [rng.uniform(0.3, 0.9) for _ in range(4)]
    radius = HALFWIDTH * (1.0 - max(factors)) / (1.0 + max(factors))
    z0, w0 = _point(rng, dim, radius), _point(rng, dim, radius)
    return {
        "A": _anchored(rng, dim, factors[0], z0, w0),
        "B": _anchored(rng, dim, factors[1], z0, w0),
        "S": _anchored(rng, dim, factors[2], w0, z0),
        "T": _anchored(rng, dim, factors[3], w0, z0),
    }


def _hypotheses(rng, scheme, n) -> Invocation:
    dim = 2
    doc = {"carrier": _box(dim), "metric": {"form": "standard"}, "grid": dict(GRID)}
    points = {"points_x": [_point(rng, dim) for _ in range(n)]}
    if scheme == "pair":
        doc["maps"] = {"scheme": "pair", "T": _into_box(rng, dim), "S": _into_box(rng, dim)}
    else:
        doc["maps"] = {"scheme": scheme, **_quad_maps(rng, dim)}
    if scheme == "quadruple":
        doc["carrier_y"] = _box(dim)
        points["points_y"] = [_point(rng, dim) for _ in range(n)]
    doc["hypotheses"] = points
    return Invocation(name=scheme, command="hypotheses", config=doc, flags=("--format", "json"))


def block(workload: str, seed: int, index: int, size: str = "full") -> Block:
    """The inputs of round `index` (taken modulo BLOCKS) for a workload seed."""
    index %= BLOCKS
    rng = _rng(workload, seed, index)
    n = SIZES[size][workload]
    if workload == "suite-pair":
        invs = (_suite(rng, n, "pair", 2, (0.3, 0.9), "standard"),)
    elif workload == "suite-quad-slow":
        invs = (_suite(rng, n, "quadruple", 1, (0.97, 0.995), "exponential"),)
    elif workload == "hypotheses-wide":
        invs = tuple(_hypotheses(rng, scheme, n[scheme]) for scheme in n)
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return Block(index=index, invocations=invs)


def config_path(directory: str, blk: Block, inv: Invocation) -> str:
    return os.path.join(directory, f"block{blk.index}-{inv.name}.json")


def write_configs(blk: Block, directory: str) -> list[str]:
    """Write each invocation's config to `directory`; returns their paths."""
    paths = []
    for inv in blk.invocations:
        path = config_path(directory, blk, inv)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh)
        paths.append(path)
    return paths


def suite_cells(verdict: dict, sample_sizes: dict) -> int:
    """Estimator tuple-scale cells (evaluated + skipped) of a suite run.

    The suite artifacts do not carry the counts, so they are rebuilt from
    each row's iteration count and run_suite's sample sizes: trajectory
    points (at most n_traj, from x_0.. and y_1..) plus n_rand random points
    per space.  Rows without k_hat ran no estimator to completion.
    """
    nt = len(verdict["grid"])
    cells = 0
    for row in verdict["rows"]:
        if row["k_hat"] is None:
            continue
        it = row["iterations"]
        if row["scheme"] == "pair":
            nx = min(it + 1, sample_sizes["n_traj"]) + sample_sizes["n_rand"]
            cells += nx * nx * nt
        else:
            nx = min(it + 1, sample_sizes["quad_n_traj"]) + sample_sizes["quad_n_rand"]
            ny = min(it, sample_sizes["quad_n_traj"]) + sample_sizes["quad_n_rand"]
            cells += 2 * nx * nx * ny * ny * nt
    return cells
