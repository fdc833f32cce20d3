import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oracles
from fuzzyfp import cli, config
from fuzzyfp.cli import _ratio_rows, main
from fuzzyfp.metrics import TGrid


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def pair_config(**extra):
    doc = {
        "carrier": {"kind": "box", "lo": [None], "hi": [None]},
        "metric": {"form": "standard"},
        "grid": {"t_min": 0.01, "t_max": 100.0, "points": 17},
        "maps": {
            "scheme": "pair",
            "T": {"form": "affine", "matrix": [[0.5]], "offset": [1.0]},
            "S": {"form": "affine", "matrix": [[1.0 / 3.0]], "offset": [1.0]},
        },
        "solve": {"x0": [0.0]},
        "hypotheses": {"points_x": [[0.0], [0.5], [1.0], [1.5], [2.0]]},
        "axioms": {"tnorm_samples": 200, "fm_triples": 100, "seed": 4, "window": [[-10.0], [10.0]]},
        "suite": {"count": 5, "scheme": "pair", "dim": 2, "seed": 7},
    }
    doc.update(extra)
    return doc


def affine(a, offset=0.0):
    return {"form": "affine", "matrix": [[a]], "offset": [offset]}


def composed(inner, outer, via_lo=None, via_hi=None):
    via = {"kind": "box", "lo": [via_lo], "hi": [via_hi]}
    return {"form": "composed", "via": via, "inner": inner, "outer": outer}


def escape(scheme, maps, xs, ys, value, id):
    note = f"AffineMap output array([{value}]) escaped its codomain"
    return pytest.param(scheme, maps, xs, ys, note, id=id)


# hypotheses samples whose images leave the box [-10, 10]: the maps that
# replace the halving ones, points_x, points_y, and the escaping output that
# the point-by-point construction of the image lists named in the note
ESCAPES = [
    # T(3) = 12 and T(4) = 16 escape; the first escaping point is not the first point
    escape("pair", {"T": affine(4.0)}, [0.0, 0.5, 3.0, 4.0], [], "12.", "pair-T"),
    # S(T(3)) = 18 escapes before T(6) = 12 does
    escape("pair", {"T": affine(2.0), "S": affine(3.0)}, [0.0, 3.0, 6.0], [], "18.", "pair-S"),
    # A's images are built before B's
    escape("quadruple", {"A": affine(4.0), "B": affine(5.0)}, [0.0, 2.6], [0.0], "10.4", "quadruple-A"),
    escape("quadruple", {"B": affine(5.0)}, [0.0, 1.0, 2.6], [0.0], "13.", "quadruple-B"),
    escape("quadruple", {"S": affine(4.0)}, [0.0, 3.0], [0.0, 2.6], "10.4", "quadruple-S"),
    escape("quadruple", {"T": affine(4.0)}, [0.0, 3.0], [0.0, 1.0, 2.7], "10.8", "quadruple-T"),
    escape("self-quadruple", {"T": affine(4.0)}, [0.0, 1.0, 3.0], [], "12.", "self-quadruple-T"),
    escape("pair", {"T": composed(affine(4.0), affine(0.5), -10.0, 10.0)}, [0.0, 3.0], [], "12.", "pair-T.inner"),
    escape("pair", {"T": composed(affine(0.5, 0.25), affine(8.0))}, [0.0, 3.0], [], "14.", "pair-T.outer"),
]


class TestSolveCommand:
    def test_linear_pair_summary_and_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0

        summary = json.load(open(os.path.join(out, "solve_summary.json")))
        assert summary["status"] == "converged"
        assert summary["z"][0] == pytest.approx(1.6, abs=1e-6)
        assert summary["w"][0] == pytest.approx(1.8, abs=1e-6)
        assert len(summary["grid"]) == 17
        assert summary["eps"] == 1e-9

        with open(os.path.join(out, "solve_trace.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "t", "mu_step_x", "nu_step_y", "x_0", "y_0"]
        assert len(rows) - 1 == summary["iterations"] * 17
        # first row: n = 1, t = t_min, no y-step yet, x_1 = 4/3, y_1 = 1
        assert rows[1][0] == "1"
        assert float(rows[1][1]) == pytest.approx(0.01)
        assert rows[1][3] == ""
        assert float(rows[1][4]) == pytest.approx(4.0 / 3.0)
        assert float(rows[1][5]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "name,code,line",
        [
            ("pair_linear", 0, "solve: status=converged stop_reason=eps-reached iterations=16 conclusions_passed=True"),
            ("pair_expansive", 1, "solve: status=diverging stop_reason=stall iterations=51 conclusions_passed=False"),
        ],
    )
    def test_summary_line_says_why_the_run_stopped(self, tmp_path, capsys, name, code, line):
        config = str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", config, "--out", out]) == code
        assert capsys.readouterr().out.splitlines() == [line]
        summary = json.load(open(os.path.join(out, "solve_summary.json")))
        assert "stop_reason" not in summary  # the artifact is unchanged

    def test_expansive_solve_exits_one(self, tmp_path):
        doc = pair_config()
        doc["maps"]["T"] = {"form": "affine", "matrix": [[2.0]], "offset": [0.0]}
        doc["maps"]["S"] = {"form": "affine", "matrix": [[2.0]], "offset": [0.0]}
        doc["solve"] = {"x0": [1.0]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 1
        summary = json.load(open(os.path.join(out, "solve_summary.json")))
        assert summary["status"] == "diverging"

    @pytest.mark.parametrize(
        "scheme,grows", [("pair", m) for m in "TS"] + [("quadruple", m) for m in "ASBT"]
    )
    def test_codomain_escape_fails_conclusions_without_traceback(
        self, scheme, grows, tmp_path, capsys
    ):
        # the other maps halve, so each cycle doubles the growing map's output,
        # the largest iterate of its cycle: that map is the first to leave
        # [-10, 10].  From x0 = 0.5 it does so only after a full cycle, so
        # the run has a y at which the conclusions are checked.
        names = ("T", "S") if scheme == "pair" else ("A", "B", "S", "T")
        factors = dict.fromkeys(names, 0.5) | {grows: 2.0 ** len(names)}
        doc = pair_config()
        doc["carrier"] = {"kind": "box", "lo": [-10.0], "hi": [10.0]}
        doc["maps"] = {"scheme": scheme} | {
            name: {"form": "affine", "matrix": [[a]], "offset": [0.0]} for name, a in factors.items()
        }
        doc["solve"] = {"x0": [0.5]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 1
        assert "Traceback" not in capsys.readouterr().err
        summary = json.load(open(os.path.join(out, "solve_summary.json")))
        assert summary["status"] == "diverging"
        checks = summary["conclusion_checks"]
        assert len(checks) == (4 if scheme == "pair" else 8)
        assert not all(c["passed"] for c in checks)
        # the conclusions whose maps escape the box fail with residual 0
        assert any(c["residual"] == 0.0 and not c["passed"] for c in checks)


class TestHypothesesCommand:
    def test_contractive_pair_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out = str(tmp_path / "out")
        assert main(["hypotheses", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "hypotheses_report.json")))
        primal = report["reports"][0]
        assert primal["k_hat"] < 1.0
        assert primal["holds"] is True
        assert len(primal["grid"]) == 17

    def test_expansive_pair_exit_one(self, tmp_path):
        doc = pair_config()
        doc["maps"]["T"] = {"form": "affine", "matrix": [[2.0]], "offset": [0.0]}
        doc["maps"]["S"] = {"form": "affine", "matrix": [[2.0]], "offset": [0.0]}
        doc["hypotheses"] = {"points_x": [[0.0], [0.5]]}
        doc["grid"] = {"values": [2.0]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["hypotheses", "--config", cfg, "--out", out]) == 1
        report = json.load(open(os.path.join(out, "hypotheses_report.json")))
        primal = report["reports"][0]
        assert primal["k_hat"] == pytest.approx(8.0 / 7.0, abs=1e-12)
        assert [primal["witness"][0][0], primal["witness"][1][0], primal["witness"][2]] == [
            0.0,
            0.5,
            2.0,
        ]

    def test_images_far_from_their_points_give_a_tiny_positive_k_hat(self, tmp_path):
        """T x = x / 2 + 1e308 and S y = y / 3 + 1 put every ST image at
        D = 1e308 / 3 + 1 from its point, whose square overflows.  The
        distance is still D, so no RuntimeWarning is shown and k_hat is the
        nearness t / (t + D) at t = 100, where it read 0 while D was inf."""
        doc = pair_config()
        doc["maps"]["T"]["offset"] = [1e308]
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["hypotheses", "--config", cfg, "--out", out]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        primal = json.load(open(os.path.join(out, "hypotheses_report.json")))["reports"][0]
        assert primal["k_hat"] == 100.0 / (100.0 + ((1.0 / 3.0) * 1e308 + 1.0)) > 0.0
        assert primal["witness"][2] == 100.0

    @pytest.mark.parametrize("scheme,maps,xs,ys,note", ESCAPES)
    def test_sample_image_escaping_codomain_exits_one(
        self, scheme, maps, xs, ys, note, tmp_path, capsys
    ):
        """The first escape, in the order the image lists were built point by
        point, names the note, although the images are mapped in batches."""
        doc = pair_config()
        doc["carrier"] = {"kind": "box", "lo": [-10.0], "hi": [10.0]}
        names = ("T", "S") if scheme == "pair" else ("A", "B", "S", "T")
        doc["maps"] = {"scheme": scheme} | {name: affine(0.5) for name in names} | maps
        doc["hypotheses"] = {"points_x": [[x] for x in xs], "points_y": [[y] for y in ys]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["hypotheses", "--config", cfg, "--out", out, "--format", "both"]) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.load(open(os.path.join(out, "hypotheses_report.json")))
        assert report["note"] == note
        assert report["reports"] == []
        with open(os.path.join(out, "hypotheses_ratios.csv"), newline="") as fh:
            assert fh.read() == "label,indices,t,ratio\r\n"

    def test_a_dual_that_raises_keeps_the_pair_report(self, tmp_path, capsys):
        """A single points_y point makes every dual tuple diagonal, so the
        dual raises; the pair report computed before it stays beside the
        note, and the ratio dump holds its rows and no others."""
        doc = pair_config()
        doc["hypotheses"]["points_y"] = [[1.0]]
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["hypotheses", "--config", cfg, "--out", out, "--format", "both"]) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.load(open(os.path.join(out, "hypotheses_report.json")))
        assert report["note"] == "every tuple of the sample was skipped"
        assert [r["label"] for r in report["reports"]] == ["pair"]
        assert report["reports"][0]["k_hat"] < 1.0
        with open(os.path.join(out, "hypotheses_ratios.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "indices", "t", "ratio"]
        assert [row[0] for row in rows[1:]] == ["pair"] * report["reports"][0]["evaluated_count"]

    def test_ratio_rows_write_what_csv_writer_writes(self):
        """The block formatter of the ratio dump writes the bytes csv.writer
        writes for the same rows, special floats included, in row chunks of
        any size and across blocks, and nothing for an empty block."""
        grid = TGrid([0.01, 0.5, 100.0])
        cells = np.array([[0, 1, 0], [0, 1, 2], [0, 2, 1], [3, 0, 0], [3, 0, 1], [12, 7, 2]])
        ratios = np.array([np.nan, np.inf, -0.0, 5e-324, 1e300, 1.0 / 3.0])
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["label", "indices", "t", "ratio"])
        for c, r in zip(cells.tolist(), ratios.tolist()):
            writer.writerow(["quad-dual", ";".join(map(str, c[:-1])), grid.values.tolist()[c[-1]], r])
        for rows in (1, 2, 4, 1 << 14):
            got = io.StringIO(newline="")
            with mock.patch.object(cli, "_RATIO_ROWS", rows):
                dump = _ratio_rows(got, grid)
                for lo, hi in ((0, 2), (2, 2), (2, 6)):
                    dump("quad-dual", cells[lo:hi], ratios[lo:hi])
            assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("hypotheses_*.json")))
    def test_csv_format_writes_the_ratios_of_both(self, name, tmp_path):
        """--format csv writes the ratio dump of --format both byte for byte
        beside the same report; --format json writes the report alone."""
        cfg = str(GOLDEN / f"{name}.json")
        written = {}
        for fmt in ("json", "csv", "both"):
            out = tmp_path / fmt
            main(["hypotheses", "--config", cfg, "--out", str(out), "--format", fmt])
            written[fmt] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(written["json"]) == ["hypotheses_report.json"]
        assert written["csv"] == written["both"]
        assert written["csv"]["hypotheses_report.json"] == written["json"]["hypotheses_report.json"]

    def test_include_diagonal_changes_skip_counts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        main(["hypotheses", "--config", cfg, "--out", out1])
        main(["hypotheses", "--config", cfg, "--out", out2, "--include-diagonal"])
        r1 = json.load(open(os.path.join(out1, "hypotheses_report.json")))["reports"][0]
        r2 = json.load(open(os.path.join(out2, "hypotheses_report.json")))["reports"][0]
        assert r1["skipped_count"] > 0
        assert r2["skipped_count"] == 0
        assert r2["evaluated_count"] > r1["evaluated_count"]

    def test_t_max_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out = str(tmp_path / "out")
        main(["hypotheses", "--config", cfg, "--out", out, "--t-max", "1000.0"])
        report = json.load(open(os.path.join(out, "hypotheses_report.json")))
        assert report["reports"][0]["grid"][-1] == pytest.approx(1000.0)

    @pytest.mark.parametrize(
        "grid", [None, {"t_min": 0.5, "t_max": 2.0, "points": 1}], ids=["pair_expansive", "one_logspace_point"]
    )
    def test_t_max_override_of_a_one_point_grid_exits_two(self, tmp_path, capsys, grid):
        # a one-point grid has no t_max to move, so the override used to be dropped
        config = Path(__file__).resolve().parent.parent / "configs" / "pair_expansive.json"
        doc = json.load(open(config))
        if grid is not None:
            doc["grid"] = grid
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["hypotheses", "--config", cfg, "--out", str(tmp_path / "out"), "--t-max", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --t-max: ")
        assert "Traceback" not in err


class TestAxiomsCommand:
    def test_stock_config_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out = str(tmp_path / "out")
        assert main(["axioms", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "axioms_report.json")))
        assert all(r["passed"] for r in report["reports"])

    def test_broken_table_exits_one_with_witness(self, tmp_path):
        grid_values = list(TGrid([1.0, 10.0]).values)
        ident = [[1.0, 1.0], [1.0, 1.0]]
        broken = [
            [[0.9, 0.9], [0.5, 0.5]],
            [[0.5, 0.5], [1.0, 1.0]],
        ]
        doc = {
            "carrier": {"kind": "finite", "distances": [[0.0, 1.0], [1.0, 0.0]]},
            "metric": {"form": "table", "values": broken},
            "grid": {"values": grid_values},
            "axioms": {"tnorm_samples": 100, "fm_triples": 100, "seed": 1},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["axioms", "--config", cfg, "--out", out]) == 1
        report = json.load(open(os.path.join(out, "axioms_report.json")))
        fm_report = report["reports"][1]
        assert not fm_report["passed"]
        assert {v["axiom"] for v in fm_report["violations"]} == {"identity"}

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["axioms", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["axioms", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = pair_config()
        doc["unexpected_section"] = {}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["axioms", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config: unknown keys: unexpected_section\n"

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = pair_config()
        doc["solve"]["tolerance"] = 1e-3
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def finite_config():
    """A pair of table maps on a three-point carrier; solve converges to z = w = 1."""
    return {
        "carrier": {"kind": "finite", "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "metric": {"form": "standard"},
        "maps": {
            "scheme": "pair",
            "T": {"form": "table", "targets": [1, 1, 1]},
            "S": {"form": "table", "targets": [0, 1, 2]},
        },
        "solve": {"x0": 0},
    }


def set_path(doc, path, value):
    """Set the value at a key path of any depth; None drops the key."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is None:
        doc.pop(last, None)
    else:
        doc[last] = value


NAN = float("nan")

# (command, key path, value) mutations of pair_config()
MALFORMED = [
    ("axioms", ("axioms", "fm_triples"), "abc"),
    ("axioms", ("axioms", "fm_triples"), 0),
    ("solve", ("grid", "points"), "x"),
    ("suite", ("suite", "starts"), 1),
    ("axioms", ("axioms", "window"), None),  # unbounded carrier needs a window
    ("axioms", ("axioms", "window"), [[-1.0, -1.0], [1.0, 1.0]]),  # wrong dimension
    ("axioms", ("carrier",), 3),
    ("axioms", ("metric",), 3),
    ("axioms", ("carrier", "lo"), ["a"]),
    ("hypotheses", ("hypotheses", "points_x"), 5),
    ("axioms", ("axioms", "window"), [[NAN], [1.0]]),
    ("suite", ("suite", "halfwidth"), NAN),
    ("suite", ("suite", "halfwidth"), 1e308),  # 2 * halfwidth overflows the x0 draw
    ("solve", ("maps", "T", "matrix"), [[0.5, 0.5]]),  # two columns on a 1-D carrier
    ("solve", ("grid", "t_min"), -1),
    ("axioms", ("grid", "t_max"), 1e308),  # the triangle axiom evaluates t + s
    # used to be accepted: dim 2.7 ran as dim 2
    ("suite", ("suite", "dim"), 2.7),
    ("solve", ("solve", "max_iter"), 2.5),
    ("suite", ("suite", "count"), "2"),
    ("suite", ("suite", "factor"), ["0.3", "0.9"]),
    ("hypotheses", ("hypotheses", "dump_ratios"), "no"),  # a removed key is an unknown one
    # sections that the subcommand does not build used to go unchecked
    ("solve", ("hypotheses", "bogus"), 1),
    ("solve", ("suite", "dim"), "x"),
    ("solve", ("tnorm",), "nope"),
    ("hypotheses", ("axioms", "seed"), 1.5),
    ("axioms", ("maps", "T", "form"), "nope"),
    ("axioms", ("maps", "S", "offset"), "1"),
    ("suite", ("carrier", "crisp_metric"), 3),
    ("suite", ("metric", "values"), [1.0]),
]
# (command, key path, value) mutations of finite_config()
MALFORMED_FINITE = [
    ("solve", ("maps", "T", "targets"), [1, 1]),  # fewer targets than domain points
    ("solve", ("solve", "x0"), True),  # used to be accepted as point 1
]
MALFORMED_CASES = [(pair_config, *row) for row in MALFORMED] + [
    (finite_config, *row) for row in MALFORMED_FINITE
]


def test_finite_config_solves(tmp_path):
    cfg = write_config(tmp_path / "c.json", finite_config())
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "base,command,path,value",
    MALFORMED_CASES,
    ids=[
        ("finite:" if b is finite_config else "") + f"{'.'.join(k)}={v!r}"
        for b, _, k, v in MALFORMED_CASES
    ],
)
def test_malformed_config_exits_two_without_traceback(base, command, path, value, tmp_path, capsys):
    doc = base()
    set_path(doc, path, value)
    cfg = write_config(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path[0]}")  # the message starts with the section at fault
    if path == ("tnorm",):  # the message of TNorm's own check, at its JSON path
        assert err.startswith("error: tnorm: unknown t-norm kind 'nope'")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["axioms", "hypotheses", "solve", "suite"])
@pytest.mark.parametrize("path,value", [(("suite", "factor"), ["a", "b"]), (("carrier", "lo"), ["a"])], ids=["factor", "lo"])
def test_malformed_list_elements_exit_two_on_every_subcommand(path, value, command, tmp_path, capsys):
    """List elements that only another subcommand's builder checked used to
    pass: solve ran with suite.factor = ["a", "b"], suite with carrier.lo = ["a"]."""
    test_malformed_config_exits_two_without_traceback(pair_config, command, path, value, tmp_path, capsys)


def composed_finite_config():
    """finite_config with T routed through a two-point finite carrier, and
    the hypotheses, axioms and suite sections that the other builders read."""
    doc = finite_config()
    doc["maps"]["T"] = {
        "form": "composed",
        "via": {"kind": "finite", "distances": [[0, 1], [1, 0]]},
        "inner": {"form": "table", "targets": [1, 1, 1]},
        "outer": {"form": "table", "targets": [1, 1]},
    }
    doc["hypotheses"] = {"points_x": [0, 1, 2], "points_y": [1]}
    doc["axioms"] = {"fm_triples": 10}
    doc["suite"] = {"scheme": "self-quadruple", "count": 2}
    return doc


@pytest.mark.parametrize("name", ["pair_linear", "suite_default", "composed_finite"])
def test_builders_read_the_checked_fields_without_checking_them_again(name, tmp_path):
    """load_config checks every section; each builder that cli.py and
    bench/fresh.py call then succeeds with the section checks made to fail,
    and leaves the document as load_config returned it."""
    if name == "composed_finite":
        path = write_config(tmp_path / "c.json", composed_finite_config())
    else:
        path = ROOT / "configs" / f"{name}.json"
    doc = config.load_config(path)

    def fail(*args, **kwargs):
        raise AssertionError(f"a builder checked {args[1]!r} again")

    with mock.patch.object(config, "_fields", fail), mock.patch.object(config, "_tagged", fail):
        grid = config.build_grid(doc)
        config.build_grid(doc, 50.0)
        config.build_tnorm(doc)
        config.build_solve(doc, grid, want_x0=False)
        if "carrier" in doc:
            carrier_x, carrier_y, _, _ = config.build_spaces(doc, grid)
            config.build_problem(doc, carrier_x, carrier_y)
            assert config.build_solve(doc, grid, carrier_x)[1] is not None
            config.build_samples(doc, grid, carrier_x, carrier_y, include_diagonal=True)
            config.build_axiom_params(doc, (carrier_x, carrier_y))
        if "suite" in doc:
            assert len(config.build_suite_specs(doc, grid, 5)[0]) == doc["suite"]["count"]
    assert doc == config.load_config(path)


@pytest.mark.parametrize("command", ["axioms", "hypotheses", "solve", "suite"])
def test_each_section_is_checked_once_per_run(command, tmp_path):
    """Every JSON path, the document's own ("") and a composed map's parts
    included, reaches the key and kind check exactly once."""
    doc = pair_config()
    doc["maps"]["T"] = composed(affine(1.0, 1.0), affine(0.5, 0.5))
    cfg = write_config(tmp_path / "c.json", doc)
    check, checked = config._fields, []

    def fields(section, where, *args, **kwargs):
        checked.append(where)
        return check(section, where, *args, **kwargs)

    with mock.patch.object(config, "_fields", fields):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    expected = ["", *doc, "maps.T", "maps.T.via", "maps.T.inner", "maps.T.outer", "maps.S"]
    assert sorted(checked) == sorted(expected)


def test_first_of_several_faults_does_not_depend_on_the_hash_seed(tmp_path):
    """Sections are checked in a fixed order, not in the order of a set's
    keys, so the hypotheses fault is reported before the suite fault in
    every process, although suite comes first in the file."""
    doc = pair_config()
    doc["hypotheses"]["exclude_diagonal"] = "no"
    doc["suite"]["dim"] = "x"
    cfg = write_config(tmp_path / "c.json", {"suite": doc.pop("suite"), **doc})
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}
        argv = [sys.executable, "-m", "fuzzyfp", "solve", "--config", cfg, "--out", str(tmp_path / "out")]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr == "error: hypotheses.exclude_diagonal must be true or false, got 'no'\n"


# (subcommand, flag) pairs where the subcommand does not read the flag
UNREAD_FLAGS = [
    ("axioms", ("--format", "csv")),
    ("axioms", ("--include-diagonal",)),
    ("hypotheses", ("--seed", "3")),
    ("solve", ("--seed", "3")),
    ("solve", ("--format", "csv")),
    ("solve", ("--include-diagonal",)),
    ("suite", ("--include-diagonal",)),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS, ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", pair_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fuzzyfp")
    assert f"error: unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestSuiteCommand:
    def test_small_suite_exit_zero_and_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out = str(tmp_path / "out")
        assert main(["suite", "--config", cfg, "--out", out, "--format", "both"]) == 0
        verdict = json.load(open(os.path.join(out, "suite_verdict.json")))
        assert verdict["aggregates"]["instances"] == 5
        assert len(verdict["rows"]) == 5
        assert verdict["generator"] == "splitmix64"
        with open(os.path.join(out, "suite_rows.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        main(["suite", "--config", cfg, "--out", out1, "--format", "both"])
        main(["suite", "--config", cfg, "--out", out2, "--format", "both"])
        for name in ("suite_verdict.json", "suite_rows.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        main(["suite", "--config", cfg, "--out", out1])
        main(["suite", "--config", cfg, "--out", out2, "--seed", "999"])
        a = json.load(open(os.path.join(out1, "suite_verdict.json")))
        b = json.load(open(os.path.join(out2, "suite_verdict.json")))
        assert a["rows"][0]["seed"] == 7
        assert b["rows"][0]["seed"] == 999

    @pytest.mark.parametrize("scheme", ["pair", "quadruple"])
    @pytest.mark.parametrize("seed", [-5, 2**70])
    def test_seeds_outside_64_bits_run(self, tmp_path, scheme, seed):
        """Suite seeds are masked to 64 bits before any array draw, so a
        negative seed or one of 2**64 or more runs like any other."""
        cfg = write_config(tmp_path / "c.json", {"suite": {"count": 3, "scheme": scheme, "dim": 2}})
        out = str(tmp_path / "out")
        assert main(["suite", "--config", cfg, "--out", out, "--seed", str(seed)]) == 0
        rows = json.load(open(os.path.join(out, "suite_verdict.json")))["rows"]
        assert [r["seed"] for r in rows] == [seed, seed + 1, seed + 2]

    def test_a_second_call_does_not_keep_the_first_calls_options(self, tmp_path):
        """The parser is built once per process; each call still gets its
        own options, so a --seed given once is gone from the next call."""
        cfg = write_config(tmp_path / "c.json", pair_config())
        seen = []
        with mock.patch.dict(cli._COMMANDS, suite=lambda doc, args: seen.append(args.seed) or 0):
            main(["suite", "--config", cfg, "--out", str(tmp_path / "o1"), "--seed", "999"])
            main(["suite", "--config", cfg, "--out", str(tmp_path / "o2")])
        assert seen == [999, None]

    def test_escaping_k_hat_sample_leaves_k_hat_empty(self, tmp_path, capsys):
        """The x0 solves of these expansive pairs overflow and escape; the k_hat
        sample holds their last iterates, whose images escape again.  Each row
        records no k_hat, as for an empty sample, and the run ends normally."""
        doc = {
            "solve": {"max_iter": 60},
            "suite": {
                "count": 4, "scheme": "pair", "dim": 3, "factor": [1.5, 1e8], "seed": 7, "expansive": True
            },
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "out")
        assert main(["suite", "--config", cfg, "--out", out]) == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = json.load(open(os.path.join(out, "suite_verdict.json")))["rows"]
        assert [(r["status"], r["k_hat"]) for r in rows] == [("diverging", None)] * 4

    def test_unwritable_out_dir_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", pair_config())
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        out = str(blocker / "sub")
        assert main(["suite", "--config", cfg, "--out", out]) == 2


@dataclasses.dataclass(frozen=True)
class _Witness:
    point: np.ndarray
    t: np.float64


@dataclasses.dataclass(frozen=True)
class _Report:
    holds: np.bool_
    count: np.int64
    witness: _Witness | None
    grid: TGrid
    extremes: tuple


def test_write_json_writes_what_the_full_walk_writes(tmp_path):
    """_write_json, which hands json only what it cannot write itself, writes
    the text of json.dumps over oracles.jsonable's recursive walk: numpy
    scalars, NaN and +-inf, None, tuples, nested dataclasses, a TGrid and a
    read-only array.  What json cannot write raises TypeError, never str()."""
    point = np.array([[1.5, -0.0], [np.inf, 5e-324]])
    point.setflags(write=False)
    reports = [
        _Report(np.bool_(True), np.int64(7), _Witness(point, np.float64(np.nan)), TGrid([0.5, 2.0]), (np.float64(-np.inf), np.inf, None)),
        _Report(np.bool_(False), np.int64(-1), None, TGrid([1.0]), ()),
    ]
    payload = {"reports": reports, "note": None, "k": np.float64(1 / 3), "pair": (np.int32(2), np.float32(0.1), np.uint64(2**64 - 1))}
    path = tmp_path / "report.json"
    cli._write_json(str(path), payload)
    assert path.read_text() == json.dumps(oracles.jsonable(payload), indent=2, sort_keys=True) + "\n"
    assert {**cli._jsonable(reports[1]), "holds": True}["count"] == -1
    for bad in ({1, 2}, object(), np.complex128(1j), np.datetime64("2020-01-01")):
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"bad": [bad]})


def test_help_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_composed_map_in_config(tmp_path):
    # T = outer(inner(x)) routed through an explicit intermediate carrier
    doc = pair_config()
    doc["maps"]["T"] = {
        "form": "composed",
        "via": {"kind": "box", "lo": [None], "hi": [None]},
        "inner": {"form": "affine", "matrix": [[1.0]], "offset": [1.0]},
        "outer": {"form": "affine", "matrix": [[0.5]], "offset": [0.5]},
    }
    # outer(inner(x)) = (x + 1)/2 + 1/2 = x/2 + 1, same pair as before
    cfg = write_config(tmp_path / "c.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "solve_summary.json")))
    assert summary["z"][0] == pytest.approx(1.6, abs=1e-6)


def test_quadruple_scheme_config(tmp_path):
    doc = {
        "carrier": {"kind": "box", "lo": [None], "hi": [None]},
        "metric": {"form": "standard"},
        "grid": {"t_min": 0.01, "t_max": 100.0, "points": 17},
        "maps": {
            "scheme": "quadruple",
            "A": {"form": "affine", "matrix": [[0.5]], "offset": [1.0]},
            "B": {"form": "affine", "matrix": [[0.5]], "offset": [1.0]},
            "S": {"form": "affine", "matrix": [[1.0 / 3.0]], "offset": [1.0]},
            "T": {"form": "affine", "matrix": [[1.0 / 3.0]], "offset": [1.0]},
        },
        "solve": {"x0": [0.0]},
        "hypotheses": {"points_x": [[0.0], [1.0], [2.0]], "points_y": [[0.0], [1.0]]},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "solve_summary.json")))
    # SA x = (x/2 + 1)/3 + 1 = x/6 + 4/3, same composite as the linear pair
    assert summary["z"][0] == pytest.approx(1.6, abs=1e-6)
    assert main(["hypotheses", "--config", cfg, "--out", out]) in (0, 1)
    report = json.load(open(os.path.join(out, "hypotheses_report.json")))
    assert [r["label"] for r in report["reports"]] == ["quad-primal", "quad-dual"]


def test_self_quadruple_scheme_config(tmp_path):
    doc = {
        "carrier": {"kind": "box", "lo": [None], "hi": [None]},
        "metric": {"form": "standard"},
        "grid": {"t_min": 0.01, "t_max": 100.0, "points": 5},
        "maps": {
            "scheme": "self-quadruple",
            "A": {"form": "affine", "matrix": [[0.5]], "offset": [1.0]},
            "B": {"form": "affine", "matrix": [[0.5]], "offset": [1.0]},
            "S": {"form": "affine", "matrix": [[0.25]], "offset": [1.0]},
            "T": {"form": "affine", "matrix": [[0.25]], "offset": [1.0]},
        },
        "solve": {"x0": [0.0]},
        "hypotheses": {"points_x": [[0.0], [1.0], [3.0]]},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["hypotheses", "--config", cfg, "--out", out]) in (0, 1)
    report = json.load(open(os.path.join(out, "hypotheses_report.json")))
    assert [r["label"] for r in report["reports"]] == [
        "self-quad-primal",
        "self-quad-dual",
    ]


def test_readme_quick_start_runs_as_a_module(tmp_path):
    """README's four quick-start commands, run as `python -m fuzzyfp` from a
    checkout with src on the path, each exit 0."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("fuzzyfp ")]
    assert [c[0] for c in commands] == ["axioms", "hypotheses", "solve", "suite"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for argv in commands:
        argv = [str(tmp_path / "out") if a == "./out" else a for a in argv]
        done = subprocess.run([sys.executable, "-m", "fuzzyfp", *argv], cwd=root, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
        assert "Traceback" not in done.stderr
