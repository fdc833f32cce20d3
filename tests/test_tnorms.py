import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fuzzyfp import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    DomainError,
    TNorm,
    check_tnorm_axioms,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_minimum_value():
    assert MINIMUM(0.3, 0.7) == 0.3


def test_product_unit_law():
    assert PRODUCT(0.6, 1.0) == 0.6


def test_lukasiewicz_hand_value():
    # max(a + b - 1, 0) evaluated by hand at (0.9, 0.9)
    assert LUKASIEWICZ(0.9, 0.9) == pytest.approx(0.8, abs=1e-12)
    assert LUKASIEWICZ(0.2, 0.3) == 0.0


def test_out_of_range_inputs_rejected():
    with pytest.raises(DomainError):
        PRODUCT(-0.1, 0.5)
    with pytest.raises(DomainError):
        MINIMUM(0.5, 1.1)


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        TNorm("drastic")


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
def test_stock_tnorms_pass_axiom_checker(op):
    report = check_tnorm_axioms(op, 1000, seed=42)
    assert report.passed
    assert report.violation_count == 0


def test_fake_operator_fails_unit_law_at_b_one():
    def fake(a, b):
        return min(a * b + 0.1, 1.0)

    report = check_tnorm_axioms(fake, 200, seed=42)
    assert not report.passed
    unit_violations = [v for v in report.violations if v.axiom == "unit"]
    assert unit_violations
    # witnessed at b = 1 with magnitude ~ 0.1
    a, b = unit_violations[0].witness
    assert b == 1.0
    assert unit_violations[0].magnitude == pytest.approx(0.1, abs=1e-9)


def test_checker_is_deterministic():
    r1 = check_tnorm_axioms(PRODUCT, 500, seed=7)
    r2 = check_tnorm_axioms(PRODUCT, 500, seed=7)
    assert r1.checks == r2.checks and r1.violation_count == r2.violation_count


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@given(a=unit, b=unit)
def test_commutativity(op, a, b):
    assert abs(op(a, b) - op(b, a)) <= 1e-12


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@given(a=unit, b=unit, c=unit)
def test_associativity(op, a, b, c):
    assert abs(op(a, op(b, c)) - op(op(a, b), c)) <= 1e-12


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@given(a=unit)
def test_unit_law_exact(op, a):
    assert op(a, 1.0) == a


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@given(a=unit, b=unit, c=unit, d=unit)
def test_monotonicity(op, a, b, c, d):
    lo_a, hi_a = min(a, c), max(a, c)
    lo_b, hi_b = min(b, d), max(b, d)
    assert op(lo_a, lo_b) <= op(hi_a, hi_b) + 1e-12


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@given(a=unit, b=unit)
def test_range(op, a, b):
    v = op(a, b)
    assert 0.0 <= v <= 1.0


def test_apply_array_matches_scalar():
    vals = np.linspace(0.0, 1.0, 11)
    for op in (MINIMUM, PRODUCT, LUKASIEWICZ):
        arr = op.apply_array(vals[:, None], vals[None, :])
        scalar = oracles.TNORMS[op.kind]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                assert arr[i, j] == scalar(float(a), float(b))
                assert op(float(a), float(b)) == arr[i, j]


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ], ids=lambda op: op.kind)
def test_apply_array_into_out_gives_the_fresh_bits(op):
    """Written into out, over broadcast operands, the values are the fresh
    result's bits, and the unit law a * 1 = a stays exact."""
    vals = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 1.0], np.random.default_rng(3).random(40)])
    a, b = vals[:, None], vals[None, :]
    out = np.full((vals.size, vals.size), np.nan)
    got = op.apply_array(a, b, out)
    assert got is out
    assert out.tobytes() == op.apply_array(a, b).tobytes()
    for ones in (np.ones_like(b), np.ones_like(a)):
        assert (op.apply_array(a, ones, out) == a).all()
        assert (op.apply_array(ones, a, out) == a).all()
