"""Declarative JSON run configuration: validation and object construction.

One JSON document with sections {carrier, carrier_y, metric, metric_y,
tnorm, grid, maps, solve, hypotheses, axioms, suite}.  Validation is
strict: unknown keys are rejected anywhere in the document, before any
computation runs.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .harness import InstanceSpec
from .hypotheses import SampleSet
from .mappings import (
    AffineMap,
    ComposedMap,
    ConstantMap,
    MapPair,
    MapQuadruple,
    TableMap,
)
from .metrics import (
    DEFAULT_T_COUNT,
    DEFAULT_T_MAX,
    DEFAULT_T_MIN,
    TableFuzzyMetric,
    TGrid,
    induced_exponential,
    induced_standard,
)
from .solver import SolveConfig
from .spaces import BoxSpace, FiniteSpace
from .tnorms import TNORM_KINDS, TNorm

TOP_KEYS = (
    "carrier",
    "carrier_y",
    "metric",
    "metric_y",
    "tnorm",
    "grid",
    "maps",
    "solve",
    "hypotheses",
    "axioms",
    "suite",
)


def _check_keys(section: dict, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where} requires key {key!r}")
    return section[key]


def _number(value, kind, where: str, minimum=None):
    """value converted by kind (int or float), at least minimum if given."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc
    if minimum is not None and not number >= minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value!r}")
    return number


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(doc, TOP_KEYS, "config")
    return doc


def build_grid(doc: dict, t_max_override: float | None = None) -> TGrid:
    section = doc.get("grid", {})
    _check_keys(section, ("t_min", "t_max", "points", "values"), "grid")
    if "values" in section:
        if any(k in section for k in ("t_min", "t_max", "points")):
            raise ConfigError("grid: give either values or t_min/t_max/points")
        try:
            grid = TGrid(section["values"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid: {exc}") from exc
        if t_max_override is not None:
            grid = grid.with_t_max(float(t_max_override))
        return grid
    t_min = _number(section.get("t_min", DEFAULT_T_MIN), float, "grid.t_min")
    t_max = _number(section.get("t_max", DEFAULT_T_MAX), float, "grid.t_max")
    points = _number(section.get("points", DEFAULT_T_COUNT), int, "grid.points")
    if t_max_override is not None:
        t_max = float(t_max_override)
    try:
        return TGrid.logspace(t_min, t_max, points)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _bound(values, sign: float, where: str):
    # null stands for an unbounded coordinate (JSON has no infinity literal)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a coordinate list")
    return [sign * float("inf") if v is None else float(v) for v in values]


def build_carrier(section: dict, where: str = "carrier"):
    kind = _require(section, "kind", where)
    if kind == "box":
        _check_keys(section, ("kind", "lo", "hi", "crisp_metric"), where)
        lo = _bound(_require(section, "lo", where), -1.0, f"{where}.lo")
        hi = _bound(_require(section, "hi", where), +1.0, f"{where}.hi")
        try:
            return BoxSpace(lo, hi, section.get("crisp_metric", "euclidean"))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "finite":
        _check_keys(section, ("kind", "distances"), where)
        try:
            return FiniteSpace(_require(section, "distances", where))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown carrier kind {kind!r}")


def build_metric(section: dict, carrier, grid: TGrid, where: str = "metric"):
    form = _require(section, "form", where)
    if form == "standard":
        _check_keys(section, ("form",), where)
        return induced_standard(carrier)
    if form == "exponential":
        _check_keys(section, ("form",), where)
        return induced_exponential(carrier)
    if form == "table":
        _check_keys(section, ("form", "values"), where)
        try:
            return TableFuzzyMetric(carrier, grid, _require(section, "values", where))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown metric form {form!r}")


def build_tnorm(doc: dict) -> TNorm:
    name = doc.get("tnorm", "product")
    if name not in TNORM_KINDS:
        raise ConfigError(f"tnorm must be one of {TNORM_KINDS}, got {name!r}")
    return TNorm(name)


def build_map(section: dict, codomain, where: str):
    form = _require(section, "form", where)
    try:
        if form == "affine":
            _check_keys(section, ("form", "matrix", "offset"), where)
            return AffineMap(
                _require(section, "matrix", where),
                _require(section, "offset", where),
                codomain,
            )
        if form == "constant":
            _check_keys(section, ("form", "value"), where)
            return ConstantMap(_require(section, "value", where), codomain)
        if form == "table":
            _check_keys(section, ("form", "targets"), where)
            return TableMap(_require(section, "targets", where), codomain)
        if form == "composed":
            # outer(inner(x)), routed through an explicit intermediate carrier
            _check_keys(section, ("form", "via", "inner", "outer"), where)
            via = build_carrier(_require(section, "via", where), f"{where}.via")
            inner = build_map(_require(section, "inner", where), via, f"{where}.inner")
            outer = build_map(_require(section, "outer", where), codomain, f"{where}.outer")
            return ComposedMap(outer, inner)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown map form {form!r}")


def build_spaces(doc: dict, grid: TGrid):
    """Carriers and nearness functions for both spaces.

    carrier_y / metric_y default to the X-side sections; self-quadruple
    problems live on the X space alone.
    """
    carrier_x = build_carrier(_require(doc, "carrier", "config"), "carrier")
    metric_section = _require(doc, "metric", "config")
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
    section = _require(doc, "maps", "config")
    scheme = _require(section, "scheme", "maps")
    if scheme == "pair":
        _check_keys(section, ("scheme", "T", "S"), "maps")
        t_map = build_map(_require(section, "T", "maps"), carrier_y, "maps.T")
        s_map = build_map(_require(section, "S", "maps"), carrier_x, "maps.S")
        return scheme, MapPair(T=t_map, S=s_map)
    if scheme in ("quadruple", "self-quadruple"):
        _check_keys(section, ("scheme", "A", "B", "S", "T"), "maps")
        cy = carrier_x if scheme == "self-quadruple" else carrier_y
        a_map = build_map(_require(section, "A", "maps"), cy, "maps.A")
        b_map = build_map(_require(section, "B", "maps"), cy, "maps.B")
        s_map = build_map(_require(section, "S", "maps"), carrier_x, "maps.S")
        t_map = build_map(_require(section, "T", "maps"), carrier_x, "maps.T")
        return scheme, MapQuadruple(A=a_map, B=b_map, S=s_map, T=t_map)
    raise ConfigError(f"maps: unknown scheme {scheme!r}")


def _as_point(value, carrier, where: str):
    try:
        if isinstance(carrier, FiniteSpace):
            return carrier.validate_point(value)
        return carrier.validate_point(np.asarray(value, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_solve(doc: dict, grid: TGrid, carrier_x=None, want_x0: bool = True):
    section = doc.get("solve", {})
    _check_keys(
        section,
        ("eps", "max_iter", "stall_window", "p_max", "verify_tol", "x0"),
        "solve",
    )
    try:
        cfg = SolveConfig(
            eps=_number(section.get("eps", 1e-9), float, "solve.eps"),
            max_iter=_number(section.get("max_iter", 10000), int, "solve.max_iter"),
            grid=grid,
            stall_window=_number(section.get("stall_window", 50), int, "solve.stall_window"),
            p_max=_number(section.get("p_max", 8), int, "solve.p_max"),
            verify_tol=_number(section.get("verify_tol", 1e-6), float, "solve.verify_tol"),
        )
    except ValueError as exc:
        raise ConfigError(f"solve: {exc}") from exc
    x0 = None
    if want_x0 and "x0" in section:
        if carrier_x is None:
            raise ConfigError("solve.x0 given without a carrier")
        x0 = _as_point(section["x0"], carrier_x, "solve.x0")
    return cfg, x0


def build_samples(doc: dict, grid: TGrid, carrier_x, carrier_y, include_diagonal=False):
    section = _require(doc, "hypotheses", "config")
    _check_keys(
        section, ("points_x", "points_y", "exclude_diagonal", "dump_ratios"), "hypotheses"
    )
    pts_x = tuple(
        _as_point(p, carrier_x, "hypotheses.points_x")
        for p in _require(section, "points_x", "hypotheses")
    )
    pts_y = tuple(
        _as_point(p, carrier_y, "hypotheses.points_y")
        for p in section.get("points_y", [])
    )
    exclude = bool(section.get("exclude_diagonal", True))
    if include_diagonal:
        exclude = False
    dump = bool(section.get("dump_ratios", False))
    return SampleSet(points_x=pts_x, grid=grid, points_y=pts_y, exclude_diagonal=exclude), dump


def build_axiom_params(doc: dict, carriers):
    """Axiom-check parameters; the window is checked against the carriers."""
    section = doc.get("axioms", {})
    _check_keys(section, ("tnorm_samples", "fm_triples", "seed", "window"), "axioms")
    window = section.get("window")
    if window is not None:
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ConfigError("axioms.window must be [lo, hi] coordinate lists")
        try:
            window = (np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"axioms.window: {exc}") from exc
    boxes = [c for c in carriers if isinstance(c, BoxSpace)]
    if window is None and any(not c.is_bounded for c in boxes):
        raise ConfigError("axioms.window is required for an unbounded carrier")
    if window is not None and any(w.shape != c.lo.shape for c in boxes for w in window):
        raise ConfigError("axioms.window must match the carrier dimension")
    get = section.get
    return {
        "tnorm_samples": _number(get("tnorm_samples", 1000), int, "axioms.tnorm_samples", 1),
        "fm_triples": _number(get("fm_triples", 1000), int, "axioms.fm_triples", 1),
        "seed": _number(get("seed", 0), int, "axioms.seed"),
        "window": window,
    }


def build_suite_specs(doc: dict, grid: TGrid, seed_override: int | None = None):
    section = _require(doc, "suite", "config")
    _check_keys(
        section,
        (
            "count",
            "scheme",
            "dim",
            "family",
            "factor",
            "metric_form",
            "seed",
            "halfwidth",
            "expansive",
            "starts",
        ),
        "suite",
    )
    count = _number(section.get("count", 100), int, "suite.count", 1)
    factor = section.get("factor", [0.3, 0.9])
    if not (isinstance(factor, (list, tuple)) and len(factor) == 2):
        raise ConfigError("suite.factor must be [lo, hi]")
    factor_lo = _number(factor[0], float, "suite.factor[0]")
    factor_hi = _number(factor[1], float, "suite.factor[1]")
    seed = _number(section.get("seed", 0), int, "suite.seed")
    if seed_override is not None:
        seed = int(seed_override)
    # the uniqueness probe compares the fixed points of at least two starts
    starts = _number(section.get("starts", 4), int, "suite.starts", 2)
    dim = _number(section.get("dim", 2), int, "suite.dim")
    halfwidth = _number(section.get("halfwidth", 10.0), float, "suite.halfwidth")
    try:
        specs = [
            InstanceSpec(
                scheme=section.get("scheme", "pair"),
                dim=dim,
                family=section.get("family", "affine"),
                factor_lo=factor_lo,
                factor_hi=factor_hi,
                metric_form=section.get("metric_form", "standard"),
                grid=grid,
                seed=seed + i,
                halfwidth=halfwidth,
                expansive=bool(section.get("expansive", False)),
            )
            for i in range(count)
        ]
    except ValueError as exc:
        raise ConfigError(f"suite: {exc}") from exc
    return specs, starts
