"""Declarative JSON run configuration: validation and object construction.

One JSON document with sections {carrier, carrier_y, metric, metric_y,
tnorm, grid, maps, solve, hypotheses, axioms, suite}.  load_config checks
each section once against one {key: kind} table: unknown keys, missing
required keys and values of the wrong JSON kind are rejected with their JSON
path before any computation runs, and the build_* functions read the checked
fields.  Only the keys present are passed on, so defaults and range checks
live in the objects built (TGrid, SolveConfig, SampleSet, InstanceSpec).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError
from .harness import InstanceSpec
from .hypotheses import SampleSet
from .mappings import AffineMap, ComposedMap, ConstantMap, MapPair, MapQuadruple, TableMap
from .metrics import INDUCED_FORMS, TableFuzzyMetric, TGrid
from .solver import SolveConfig
from .spaces import BoxSpace, FiniteSpace, validate_points
from .tnorms import TNorm

# A field's JSON kind is one of these types; (kind, minimum) bounds it below
# and (list, rule) checks its elements.  Carriers check _POINT fields later.
_POINT = object
_KIND_NAMES = {
    int: "an integer", float: "a finite number", bool: "true or false",
    str: "a string", list: "a list", dict: "an object",
}


def _factor(value: list, where: str) -> list:
    if len(value) != 2:
        raise ConfigError(f"{where} must be [lo, hi]")
    return [_checked(v, float, f"{where}[{i}]") for i, v in enumerate(value)]


def _numbers(value: list, where: str) -> list:
    for i, v in enumerate(value):  # each element a number or a nested list of numbers
        _only_numbers(v, f"{where}[{i}]")
    return value


def _bounds(value: list, where: str) -> list:
    _array([0.0 if v is None else v for v in value], where)  # null is an unbounded coordinate
    return value


_GRID = {"t_min": float, "t_max": float, "points": int, "values": list}
_CARRIERS = {"box": {"lo": (list, _bounds), "hi": (list, _bounds), "crisp_metric": str}, "finite": {"distances": list}}
_METRICS = dict.fromkeys(INDUCED_FORMS, {}) | {"table": {"values": list}}
_MAPS = {
    "affine": {"matrix": (list, _numbers), "offset": (list, _numbers)},
    "constant": {"value": _POINT},
    "table": {"targets": list},
    "composed": {"via": dict, "inner": dict, "outer": dict},
}
_SCHEMES = {
    "pair": dict.fromkeys("TS", dict),
    "quadruple": dict.fromkeys("ABST", dict),
    "self-quadruple": dict.fromkeys("ABST", dict),
}
_SOLVE = {
    "eps": float, "max_iter": int, "stall_window": int, "p_max": int, "verify_tol": float,
    "x0": _POINT,
}
_HYPOTHESES = {"points_x": (list, _numbers), "points_y": (list, _numbers), "exclude_diagonal": bool}
_AXIOMS = {"tnorm_samples": (int, 1), "fm_triples": (int, 1), "seed": int, "window": (list, _numbers)}
_SUITE = {
    # the uniqueness probe compares the fixed points of at least two starts
    "count": (int, 1), "starts": (int, 2), "seed": int, "dim": int, "halfwidth": float,
    "scheme": str, "family": str, "metric_form": str, "factor": (list, _factor), "expansive": bool,
}
# The sections in the order load_config checks them; the tag of a tagged one
# names its key table, whose keys are all required except _OPTIONAL ones.
_PLAIN = {"grid": _GRID, "solve": _SOLVE, "hypotheses": _HYPOTHESES, "axioms": _AXIOMS, "suite": _SUITE}
_TAGGED = {
    "carrier": ("kind", _CARRIERS), "carrier_y": ("kind", _CARRIERS),
    "metric": ("form", _METRICS), "metric_y": ("form", _METRICS), "maps": ("scheme", _SCHEMES),
}
_OPTIONAL = {"crisp_metric"}
_TOP = {"tnorm": str} | dict.fromkeys([*_PLAIN, *_TAGGED], dict)


def _checked(value, kind, where: str, rule=None):
    """value if it has the JSON kind (a number as a float) and its rule holds, else ConfigError."""
    ok = kind is _POINT or type(value) is kind or (kind is float and type(value) is int)
    if ok and kind is float:
        try:
            ok = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
    if not ok:  # type(True) is bool, so true is no integer
        raise ConfigError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")
    if callable(rule):
        return rule(value, where)
    if rule is not None and value < rule:
        raise ConfigError(f"{where} must be >= {rule}, got {value!r}")
    return float(value) if kind is float else value


def _fields(section, where: str, kinds: dict, required=()) -> dict:
    """The keys present in section, each checked against its kind in kinds.
    where is the section's JSON path, empty for the document itself."""
    if type(section) is not dict:
        raise ConfigError(f"{where or 'config'} must be an object, got {section!r}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where or 'config'} requires key {key!r}")
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown keys: {', '.join(unknown)}")
    out = {}
    for key, value in section.items():
        kind = kinds[key] if isinstance(kinds[key], tuple) else (kinds[key],)
        out[key] = _checked(value, kind[0], f"{where}.{key}" if where else key, *kind[1:])
    return out


def _tagged(section, where: str, tag: str, tables: dict) -> dict:
    """The checked fields, tag included, of a section whose tag key (kind,
    form or scheme) names its key table."""
    kinds = {}  # until the tag is known, _fields reports a non-object or a missing tag
    if type(section) is dict and tag in section:
        name = _checked(section[tag], str, f"{where}.{tag}")
        if name not in tables:
            raise ConfigError(f"{where}: unknown {tag} {name!r}")
        kinds = tables[name]
    required = [tag] + [k for k in kinds if k not in _OPTIONAL]
    return _fields(section, where, {tag: str, **kinds}, required)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config requires key {key!r}")
    return doc[key]


def _only_numbers(value, where: str) -> None:
    stack = [value]
    while stack:
        v = stack.pop()
        if type(v) is list:
            stack += v
        elif type(v) is not float and type(v) is not int:
            raise ConfigError(f"{where} must hold numbers only, got {v!r}")


def _array(value, where: str) -> np.ndarray:
    """A number or a nested list of numbers as a float array."""
    _only_numbers(value, where)
    return _floats(value, where)


def _floats(value, where: str) -> np.ndarray:
    """_array of a value whose numbers load_config checked (a _numbers field)."""
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@contextmanager
def _building(where: str):
    """A ValueError (DomainError, ConfigError) of a constructor, as a ConfigError at where."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> dict:
    """The document at path, each section present replaced by its checked
    fields, also one that the subcommand does not build.  The sections are
    checked in a fixed order, so of several faults the same one is reported."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    doc = _fields(doc, "", _TOP)
    build_tnorm(doc)
    for key, kinds in _PLAIN.items():
        if key in doc:
            doc[key] = _fields(doc[key], key, kinds)
    for key, (tag, tables) in _TAGGED.items():
        if key in doc:
            doc[key] = _tagged(doc[key], key, tag, tables)
    for name, section in doc.get("maps", {}).items():  # in document order
        if name != "scheme":
            doc["maps"][name] = _map(section, f"maps.{name}")
    return doc


def _map(section, where: str) -> dict:
    fields = _tagged(section, where, "form", _MAPS)
    if fields["form"] == "composed":
        fields["via"] = _tagged(fields["via"], f"{where}.via", "kind", _CARRIERS)
        for part in ("inner", "outer"):
            fields[part] = _map(fields[part], f"{where}.{part}")
    return fields


def build_grid(doc: dict, t_max_override: float | None = None) -> TGrid:
    fields = dict(doc.get("grid", {}))
    if "values" in fields:
        if len(fields) > 1:
            raise ConfigError("grid: give either values or t_min/t_max/points")
        values = _array(fields["values"], "grid.values")
    elif "points" in fields:
        fields["count"] = fields.pop("points")
    with _building("grid"):
        grid = TGrid(values) if "values" in fields else TGrid.logspace(**fields)
    if t_max_override is None:
        return grid
    with _building("--t-max"):
        return grid.with_t_max(t_max_override)


def build_carrier(section: dict, where: str = "carrier"):
    fields = dict(section)
    if fields.pop("kind") == "box":
        # null stands for an unbounded coordinate (JSON has no infinity literal)
        lo = np.array([-math.inf if v is None else v for v in fields.pop("lo")], dtype=float)
        hi = np.array([math.inf if v is None else v for v in fields.pop("hi")], dtype=float)
        with _building(where):
            return BoxSpace(lo, hi, **fields)
    distances = _array(fields["distances"], f"{where}.distances")
    with _building(where):
        return FiniteSpace(distances)


def build_metric(section: dict, carrier, grid: TGrid, where: str = "metric"):
    if section["form"] in INDUCED_FORMS:
        return INDUCED_FORMS[section["form"]](carrier)
    values = _array(section["values"], f"{where}.values")
    with _building(where):
        return TableFuzzyMetric(carrier, grid, values)


def build_tnorm(doc: dict) -> TNorm:
    with _building("tnorm"):
        return TNorm(doc.get("tnorm", "product"))


def build_map(section: dict, domain, codomain, where: str):
    """A map from domain into codomain; its shape is checked against both."""
    form = section["form"]
    if form == "composed":
        # outer(inner(x)), routed through an explicit intermediate carrier
        via = build_carrier(section["via"], f"{where}.via")
        inner = build_map(section["inner"], domain, via, f"{where}.inner")
        outer = build_map(section["outer"], via, codomain, f"{where}.outer")
        return ComposedMap(outer, inner)
    if form == "constant":
        value = _as_point(section["value"], codomain, f"{where}.value")
        return ConstantMap(value, codomain)
    if form == "affine":
        matrix = _floats(section["matrix"], f"{where}.matrix")
        offset = _floats(section["offset"], f"{where}.offset")
        with _building(where):
            if not isinstance(domain, BoxSpace):
                raise ConfigError("affine maps require a box domain")
            if matrix.shape[-1:] != (domain.dimension,):
                raise ConfigError(f"matrix needs {domain.dimension} column(s), one per coordinate")
            return AffineMap(matrix, offset, codomain)
    targets = section["targets"]
    if not isinstance(domain, FiniteSpace) or len(targets) != domain.size:
        raise ConfigError(f"{where}: table maps need one target per point of a finite domain")
    targets = [_as_point(t, codomain, f"{where}.targets[{i}]") for i, t in enumerate(targets)]
    with _building(where):
        return TableMap(targets, codomain)


def build_spaces(doc: dict, grid: TGrid):
    """Carriers and nearness functions for both spaces.

    carrier_y / metric_y default to the X-side sections; self-quadruple
    problems live on the X space alone.
    """
    carrier_x = build_carrier(_require(doc, "carrier"), "carrier")
    metric_section = _require(doc, "metric")
    mu = build_metric(metric_section, carrier_x, grid, "metric")
    if "carrier_y" in doc:
        carrier_y = build_carrier(doc["carrier_y"], "carrier_y")
    else:
        carrier_y = carrier_x
    if "metric_y" in doc:
        nu = build_metric(doc["metric_y"], carrier_y, grid, "metric_y")
    elif carrier_y is carrier_x:
        nu = mu
    else:
        nu = build_metric(metric_section, carrier_y, grid, "metric_y(defaulted)")
    return carrier_x, carrier_y, mu, nu


def build_problem(doc: dict, carrier_x, carrier_y):
    scheme = _require(doc, "maps")["scheme"]
    x, y = carrier_x, carrier_x if scheme == "self-quadruple" else carrier_y
    # T of a pair and A, B of a quadruple map X into Y; the other maps map Y into X
    into_y = ("T",) if scheme == "pair" else ("A", "B")
    maps = {}
    for name in _SCHEMES[scheme]:
        domain, codomain = (x, y) if name in into_y else (y, x)
        maps[name] = build_map(doc["maps"][name], domain, codomain, f"maps.{name}")
    return scheme, MapPair(**maps) if scheme == "pair" else MapQuadruple(**maps)


def _as_point(value, carrier, where: str):
    if isinstance(carrier, FiniteSpace):
        value = _checked(value, int, where)
    else:
        value = _array(value, where)
    try:  # a plain try, not _building: samples build points by the hundred
        return carrier.validate_point(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _as_points(values: list, carrier, where: str) -> tuple:
    """_as_point of each value, checked as one array; where the array check
    fails, point by point, so the first bad point raises its own error."""
    try:
        if not isinstance(carrier, FiniteSpace):
            return tuple(validate_points(carrier, _floats(values, where)))
        if all(type(v) is int for v in values):
            return tuple(validate_points(carrier, values).tolist())
    except ValueError:  # a ConfigError or DomainError that names no point
        pass
    return tuple(_as_point(v, carrier, f"{where}[{i}]") for i, v in enumerate(values))


def build_solve(doc: dict, grid: TGrid, carrier_x=None, want_x0: bool = True):
    fields = dict(doc.get("solve", {}))
    given = "x0" in fields
    x0 = fields.pop("x0", None)
    with _building("solve"):
        cfg = SolveConfig(grid=grid, **fields)
    if not (want_x0 and given):
        return cfg, None
    if carrier_x is None:
        raise ConfigError("solve.x0 given without a carrier")
    return cfg, _as_point(x0, carrier_x, "solve.x0")


def build_samples(doc: dict, grid: TGrid, carrier_x, carrier_y, include_diagonal=False):
    fields = dict(_require(doc, "hypotheses"))
    if "points_x" not in fields:
        raise ConfigError("hypotheses requires key 'points_x'")
    for key, carrier in (("points_x", carrier_x), ("points_y", carrier_y)):
        if key in fields:
            fields[key] = _as_points(fields[key], carrier, f"hypotheses.{key}")
    if include_diagonal:
        fields["exclude_diagonal"] = False
    return SampleSet(grid=grid, **fields)


def _window(window, carriers):
    if len(window) != 2:
        raise ConfigError("axioms.window must be [lo, hi] coordinate lists")
    window = tuple(_floats(w, f"axioms.window[{i}]") for i, w in enumerate(window))
    if not all(np.isfinite(w).all() for w in window):
        raise ConfigError("axioms.window must be finite")
    if any(w.shape != c.lo.shape for c in carriers for w in window):
        raise ConfigError("axioms.window must match the carrier dimension")
    return window


def build_axiom_params(doc: dict, carriers):
    """Axiom-check parameters; the window is checked against the carriers."""
    params = {"tnorm_samples": 1000, "fm_triples": 1000, "seed": 0, "window": None} | doc.get("axioms", {})
    boxes = [c for c in carriers if isinstance(c, BoxSpace)]
    if params["window"] is not None:
        params["window"] = _window(params["window"], boxes)
    elif any(not c.is_bounded for c in boxes):
        raise ConfigError("axioms.window is required for an unbounded carrier")
    return params


def build_suite_specs(doc: dict, grid: TGrid, seed_override: int | None = None):
    fields = dict(_require(doc, "suite"))
    count = fields.pop("count", 100)
    starts = fields.pop("starts", 4)
    if "factor" in fields:
        fields["factor_lo"], fields["factor_hi"] = fields.pop("factor")
    seed = fields.pop("seed", InstanceSpec.seed)
    if seed_override is not None:
        seed = seed_override
    with _building("suite"):
        specs = [InstanceSpec(grid=grid, seed=seed + i, **fields) for i in range(count)]
    return specs, starts
