"""Acceptance suite: one test per criterion, each printing a verdict line.

All tolerances are pinned here, not configurable: fixed-point coordinates to
1e-6, conclusion residuals to 1 - 1e-6, uniqueness agreement to 1e-6, the
closed-form solve under 1 second and the 200-instance suite under 30.
"""

import json
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    FiniteSpace,
    InstanceSpec,
    MapPair,
    SampleSet,
    TableFuzzyMetric,
    TGrid,
    check_fm_axioms,
    check_recurrence_pair,
    estimate_k_pair,
    induced_exponential,
    induced_standard,
    run_suite,
    solve,
)
from fuzzyfp.cli import main
from fuzzyfp.tnorms import LUKASIEWICZ, MINIMUM, PRODUCT

LINE = BoxSpace([-np.inf], [np.inf])
MU = induced_standard(LINE)
NU = induced_standard(LINE)


def linear_pair():
    return MapPair(
        T=AffineMap([[0.5]], [1.0], LINE),
        S=AffineMap([[1.0 / 3.0]], [1.0], LINE),
    )


def _verdict(num, label, ok):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_closed_form_regression():
    start = time.perf_counter()
    res = solve(linear_pair(), MU, NU, np.array([0.0]))
    elapsed = time.perf_counter() - start

    ok = (
        res.converged
        and res.iterations <= 60
        and abs(res.z[0] - 1.6) <= 1e-6
        and abs(res.w[0] - 1.8) <= 1e-6
        and len(res.conclusion_checks) == 4
        and all(c.residual >= 1.0 - 1e-6 for c in res.conclusion_checks)
        and elapsed < 1.0
    )
    _verdict(1, f"closed-form pair z={res.z[0]:.9f} w={res.w[0]:.9f} "
                f"iters={res.iterations} runtime={elapsed:.3f}s", ok)


def test_criterion_2_suite_soundness():
    specs = [InstanceSpec(scheme="pair", dim=2, seed=i) for i in range(100)]
    specs += [InstanceSpec(scheme="quadruple", dim=2, seed=1000 + i) for i in range(100)]
    start = time.perf_counter()
    verdict = run_suite(specs)
    elapsed = time.perf_counter() - start

    agg = verdict.aggregates
    rows_ok = all(
        r.status == "converged"
        and r.conclusions_passed
        and r.min_residual >= 1.0 - 1e-6
        and r.uniqueness_passed is True
        and r.uniqueness_max_distance <= 1e-6
        for r in verdict.rows
    )
    ok = agg["instances"] == 200 and agg["converged"] == 200 and rows_ok and elapsed < 30.0
    _verdict(2, f"suite 200 instances converged={agg['converged']}/200 "
                f"runtime={elapsed:.1f}s", ok)


def test_criterion_3_negative_controls():
    specs = [
        InstanceSpec(
            scheme="pair", dim=2, seed=i, factor_lo=1.1, factor_hi=1.9, expansive=True
        )
        for i in range(10)
    ]
    verdict = run_suite(specs)
    diverging = verdict.aggregates["diverging"]

    expansive = MapPair(
        T=AffineMap([[2.0]], [0.0], LINE), S=AffineMap([[2.0]], [0.0], LINE)
    )
    samples = SampleSet(
        points_x=(np.array([0.0]), np.array([0.5])), grid=TGrid([2.0])
    )
    rep = estimate_k_pair(expansive, MU, NU, samples)
    wx, wx2, wt = rep.witness
    witness_ok = (float(wx[0]), float(wx2[0]), wt) == (0.0, 0.5, 2.0)
    # term-by-term: min{0.8, 1, 4/7, 2/3} / 0.5 = 8/7 ~ 1.143
    ratio_ok = rep.k_hat == pytest.approx(8.0 / 7.0, abs=1e-12) and rep.k_hat > 1.0

    ok = diverging == 10 and witness_ok and ratio_ok
    _verdict(3, f"expansive {diverging}/10 diverging; k_hat={rep.k_hat:.6f} "
                f"witness=(0, 0.5, 2)", ok)


def test_criterion_4_axiom_suites():
    grid = TGrid.default()
    box = BoxSpace([-10.0], [10.0])
    violations = 0
    for make in (induced_standard, induced_exponential):
        for op in (MINIMUM, PRODUCT, LUKASIEWICZ):
            report = check_fm_axioms(make(box), op, 1000, grid, seed=42)
            violations += report.violation_count

    fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
    vals = np.ones((2, 2, len(grid)))
    vals[0, 1, :] = vals[1, 0, :] = 0.5
    vals[0, 0, :] = 0.9  # planted identity break: mu(x, x, t) = 0.9 at point 0
    broken = TableFuzzyMetric(fs, grid, vals)
    broken_report = check_fm_axioms(broken, PRODUCT, 1000, grid, seed=42)
    planted_only = (
        broken_report.violation_count > 0
        and broken_report.axiom_ids() == {"identity"}
        and all(v.witness[0] == 0 for v in broken_report.violations)
    )

    ok = violations == 0 and planted_only
    _verdict(4, f"stock axiom suites clean ({violations} violations); broken table "
                f"yields only the planted identity violation", ok)


def test_criterion_5_vacuity_demonstration():
    pair = linear_pair()
    points = [0.0, 0.5, 1.0, 1.5, 2.0]
    sample_pts = tuple(np.array([v]) for v in points)

    def oracle_k(grid):
        """Exhaustive exact-rational enumeration on the float grid values."""
        st = lambda x: x / 6 + Fr(4, 3)
        tm = lambda x: x / 2 + 1
        fr_pts = [Fr(v) for v in points]
        best = None
        for x in fr_pts:
            for x2 in fr_pts:
                if x == x2:
                    continue
                for t_float in grid.values:
                    t = Fr(float(t_float))
                    lhs = t / (t + abs(st(x) - st(x2)))
                    rhs = min(
                        t / (t + abs(x - x2)),
                        t / (t + abs(x - st(x))),
                        t / (t + abs(x2 - st(x2))),
                        t / (t + abs(tm(x) - tm(x2))),
                    )
                    r = rhs / lhs
                    best = r if best is None or r > best else best
        return best

    k_hats = []
    for t_max in (1e2, 1e3, 1e4):
        grid = TGrid.default().with_t_max(t_max)
        rep = estimate_k_pair(pair, MU, NU, SampleSet(points_x=sample_pts, grid=grid))
        assert rep.grid.t_max == pytest.approx(t_max)  # provenance recorded
        assert rep.k_hat == pytest.approx(float(oracle_k(grid)), abs=1e-12)
        k_hats.append(rep.k_hat)

    # analytic form of the dominating ratio: (t + d/6) / (t + d) -> 1
    t, d = 1e4, 0.5
    assert k_hats[-1] >= (t + d / 6) / (t + d) - 1e-12

    ok = k_hats[0] <= k_hats[1] <= k_hats[2] and k_hats[2] > 0.99
    _verdict(5, "k_hat vs t_max " + " <= ".join(f"{k:.6f}" for k in k_hats)
                + " (exceeds 0.99 at t_max=1e4)", ok)


def test_criterion_6_recurrence_validation():
    pair = linear_pair()
    res = solve(pair, MU, NU, np.array([0.0]))
    grid = res.trace_x.grid
    samples = SampleSet(
        points_x=res.trace_x.points, grid=grid, exclude_diagonal=False
    )
    k_hat = estimate_k_pair(pair, MU, NU, samples).k_hat

    clean = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, k_hat, grid)
    halved = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, k_hat / 2, grid)
    halved_again = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, k_hat / 2, grid)

    ok = (
        k_hat < 1.0
        and clean.violation_count == 0
        and halved.violation_count >= 1
        and halved.worst_witness is not None
        and halved_again.worst_witness == halved.worst_witness
        and halved_again.worst_margin == halved.worst_margin
    )
    _verdict(6, f"recurrences: k_hat={k_hat:.12f} -> 0 violations; k_hat/2 -> "
                f"{halved.violation_count} violation(s), witness {halved.worst_witness}", ok)


def test_criterion_7_suite_determinism(tmp_path):
    doc = {
        "carrier": {"kind": "box", "lo": [None], "hi": [None]},
        "metric": {"form": "standard"},
        "grid": {"t_min": 0.01, "t_max": 100.0, "points": 17},
        "suite": {"count": 100, "scheme": "pair", "dim": 2, "seed": 424242},
    }
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(doc))

    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    code1 = main(["suite", "--config", str(cfg), "--out", out1, "--format", "both"])
    code2 = main(["suite", "--config", str(cfg), "--out", out2, "--format", "both"])

    verdict1 = open(f"{out1}/suite_verdict.json", "rb").read()
    verdict2 = open(f"{out2}/suite_verdict.json", "rb").read()
    rows1 = open(f"{out1}/suite_rows.csv", "rb").read()
    rows2 = open(f"{out2}/suite_rows.csv", "rb").read()
    n_rows = len(json.loads(verdict1)["rows"])

    ok = (
        code1 == 0
        and code2 == 0
        and verdict1 == verdict2
        and rows1 == rows2
        and n_rows == 100
    )
    _verdict(7, f"suite rerun byte-identical ({len(verdict1)} bytes, {n_rows} rows)", ok)
