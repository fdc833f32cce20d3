import numpy as np
import pytest

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    CodomainError,
    ComposedMap,
    ConstantMap,
    DomainError,
    FiniteSpace,
    TableMap,
)


class TestAffineMap:
    def test_apply(self):
        box = BoxSpace([-10.0, -10.0], [10.0, 10.0])
        m = AffineMap([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0], box)
        out = m(np.array([2.0, 3.0]))
        assert np.array_equal(out, np.array([4.0, 1.0]))

    def test_codomain_escape_raises(self):
        box = BoxSpace([-1.0], [1.0])
        m = AffineMap([[2.0]], [0.0], box)
        assert np.array_equal(m(np.array([0.4])), np.array([0.8]))
        assert np.array_equal(m(0.4), np.array([0.8]))  # a 1-D point given as a scalar
        with pytest.raises(CodomainError):
            m(np.array([0.9]))

    def test_shape_validation(self):
        box = BoxSpace([-1.0], [1.0])
        with pytest.raises(DomainError):
            AffineMap([[1.0, 0.0]], [0.0, 0.0], box)
        with pytest.raises(DomainError):
            AffineMap([[1.0], [1.0]], [0.0, 0.0], box)


class TestConstantMap:
    def test_value_validated(self):
        box = BoxSpace([0.0], [1.0])
        with pytest.raises(DomainError):
            ConstantMap([2.0], box)
        c = ConstantMap([0.5], box)
        assert c(np.array([0.1]))[0] == 0.5


class TestTableMap:
    def test_lookup(self):
        fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
        m = TableMap([1, 0], fs)
        assert m(0) == 1 and m(1) == 0

    def test_targets_validated(self):
        fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            TableMap([1, 2], fs)

    @pytest.mark.parametrize("index", [2, -1])
    def test_lookup_outside_the_domain(self, index):
        m = TableMap([1, 0], FiniteSpace([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DomainError, match=f"^index {index} lies outside the table map domain of size 2$"):
            m(index)

    def test_rows_map_indices_outside_the_domain_harmlessly(self):
        """A solver row past its escape may hold any index; rows clip it."""
        m = TableMap([1, 0], FiniteSpace([[0.0, 1.0], [1.0, 0.0]]))
        out, escaped = m.rows(np.array([0, 7, -3]))
        assert out.tolist() == [1, 0, 1] and escaped is None


def test_composed_map_checks_both_codomains():
    small = BoxSpace([-1.0], [1.0])
    big = BoxSpace([-10.0], [10.0])
    inner = AffineMap([[3.0]], [0.0], small)  # escapes small for |x| > 1/3
    outer = AffineMap([[1.0]], [0.0], big)
    comp = ComposedMap(outer, inner)
    assert comp(np.array([0.2]))[0] == pytest.approx(0.6)
    with pytest.raises(CodomainError):
        comp(np.array([0.5]))


def test_pair_composites(linear_pair):
    x = np.array([0.0])
    # ST(0) = S(T(0)) = S(1) = 4/3
    assert ComposedMap(linear_pair.S, linear_pair.T)(x)[0] == pytest.approx(4.0 / 3.0, abs=1e-15)
    # TS(0) = T(S(0)) = T(1) = 3/2
    assert ComposedMap(linear_pair.T, linear_pair.S)(x)[0] == pytest.approx(1.5, abs=1e-15)


def test_quadruple_composites(mixed_quad):
    x = np.array([1.0])
    A, B, S, T = mixed_quad.A, mixed_quad.B, mixed_quad.S, mixed_quad.T
    assert ComposedMap(S, A)(x)[0] == pytest.approx(1.5 / 4.0 + 1.0)  # S(A(1)) = S(1.5)
    assert ComposedMap(T, B)(x)[0] == pytest.approx((4.0 / 3.0) / 5.0 + 1.0)
    assert ComposedMap(B, S)(x)[0] == pytest.approx(1.25 / 3.0 + 1.0)
    assert ComposedMap(A, T)(x)[0] == pytest.approx(1.2 / 2.0 + 1.0)
