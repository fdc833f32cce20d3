"""Malformed configs never produce a traceback.

Each example mutates one leaf or section of a small valid config: it
replaces the value with one from a fixed adversarial set, drops the key, or
adds an unknown key.  Every subcommand must then exit 0, 1 or 2 without an
uncaught exception, and exit 2 wherever the mutation makes the config
invalid by construction.  Huge JSON integers are left out of the set on
purpose: a huge count or dimension is a long run, not a broken contract.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyfp.cli import main
from test_cli import finite_config, pair_config

COMMANDS = ("axioms", "hypotheses", "solve", "suite")
ADVERSARIAL = ("x", True, None, [], {}, 0, -1, 2.5, math.nan, math.inf, 1e308)
# The scalar fields that README's schema table types as an integer or a
# finite number, and the JSON kinds that none of them accepts.
NUMERIC = {
    "grid": {"t_min", "t_max", "points"},
    "solve": {"eps", "verify_tol", "max_iter", "stall_window", "p_max"},
    "axioms": {"tnorm_samples", "fm_triples", "seed"},
    "suite": {"count", "dim", "seed", "halfwidth", "starts"},
}
NOT_NUMBERS = (str, bool, type(None), list, dict)


def quadruple_config():
    """A z = B z = w and S w = T w = z at z = 0, w = 1; B is composed through a via carrier."""
    doc = pair_config()
    doc["carrier_y"] = {"kind": "box", "lo": [-10.0], "hi": [10.0]}
    doc["maps"] = {
        "scheme": "quadruple",
        "A": {"form": "constant", "value": [1.0]},
        "B": {
            "form": "composed",
            "via": {"kind": "box", "lo": [None], "hi": [None]},
            "inner": {"form": "affine", "matrix": [[0.5]], "offset": [0.0]},
            "outer": {"form": "affine", "matrix": [[0.5]], "offset": [1.0]},
        },
        "S": {"form": "affine", "matrix": [[0.5]], "offset": [-0.5]},
        "T": {"form": "affine", "matrix": [[0.25]], "offset": [-0.25]},
    }
    doc["hypotheses"]["points_y"] = [[0.0], [1.0]]
    return doc


def finite_all():
    doc = finite_config()
    doc["hypotheses"] = {"points_x": [0, 1, 2], "points_y": [1], "dump_ratios": True}
    doc["axioms"] = {}
    doc["suite"] = {"scheme": "self-quadruple"}
    return doc


def small(doc):
    """Short runs: a mutation that breaks convergence stops after max_iter cycles."""
    doc["solve"]["max_iter"] = 200
    doc["suite"] |= {"count": 2, "dim": 1, "starts": 2}
    doc["axioms"] |= {"tnorm_samples": 20, "fm_triples": 10}
    return doc


BASES = (small(pair_config()), small(quadruple_config()), small(finite_all()))


def sites(node, path=()):
    """(key path, value) of node and of every section, list item and leaf below it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from sites(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutations():
    """(base index, key path, action, value): set a value from ADVERSARIAL,
    drop a key, or add an unknown key."""
    for b, base in enumerate(BASES):
        for path, node in sites(base):
            if path:
                for value in ADVERSARIAL:
                    yield b, path, "set", value
            if path and isinstance(path[-1], str):
                yield b, path, "drop", None
            if isinstance(node, dict):
                yield b, path, "add", None


CASES = list(mutations())


def invalid(base, path, action, value):
    """True if the mutation makes any config invalid: an unknown key, or a
    value of another JSON kind in a numeric scalar field."""
    if action == "add":
        return True
    numeric = len(path) == 2 and path[1] in NUMERIC.get(path[0], ())
    return action == "set" and numeric and type(value) in NOT_NUMBERS


def mutated(base, path, action, value):
    doc = copy.deepcopy(BASES[base])
    if action == "add":
        _at(doc, path)["unexpected"] = 1
        return doc
    parent = _at(doc, path[:-1])
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    suite = doc.get("suite")
    if isinstance(suite, dict):
        suite.setdefault("count", 2)  # the default count is a long run
    return doc


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(st.sampled_from(CASES))
def test_mutated_config_never_raises(case):
    doc = mutated(*case)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
            assert code in (0, 1, 2), (command, case)
            assert "Traceback" not in err.getvalue()


def test_every_invalid_mutation_exits_two(tmp_path):
    """Every mutation that makes the config invalid by construction, not a
    sample of them, exits 2 on every subcommand without a traceback."""
    path = str(tmp_path / "c.json")
    for case in filter(lambda c: invalid(*c), CASES):
        with open(path, "w") as fh:
            json.dump(mutated(*case), fh)
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", path, "--out", str(tmp_path / "out")])
            assert code == 2 and "Traceback" not in err.getvalue(), (command, case)


def test_far_sample_point_shows_no_runtime_warning(tmp_path):
    """A pair sample point at 1e308 squared its distances to inf, so nearness
    read 0 and the pair ratio printed numpy's 0/0 warning; the distances are
    finite now, and far-apart cells, which are inf or NaN by design, show no
    RuntimeWarning either."""
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        json.dump(mutated(0, ("hypotheses", "points_x", 0), "set", 1e308), fh)
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        assert main(["hypotheses", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
