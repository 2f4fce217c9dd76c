from fractions import Fraction

import pytest

from shufflesc import SizeGuardError, TruncatedSeries, enumeration, series_closed, series_direct
from shufflesc.cli import main


def F(*args):
    return Fraction(*args)


class TestTruncatedSeries:
    def test_constructor_keeps_the_box(self):
        s = TruncatedSeries(
            2, 1, {(0, 0): F(1), (1, 1): F(0), (3, 0): F(5), (1, 2): F(7), (2, 1): 3}
        )
        # the zero, the term beyond max_x and the term beyond max_y are dropped
        assert s.coeffs == {(0, 0): F(1), (2, 1): F(3)}
        assert s.coefficient(1, 1) == Fraction(0)
        assert s.coefficient(3, 0) == Fraction(0)
        assert s == TruncatedSeries(2, 1, {(0, 0): 1, (2, 1): F(3)})

    def test_floats_refused(self):
        with pytest.raises(TypeError, match="float"):
            TruncatedSeries(1, 1, {(0, 0): 0.1})


class TestGeneratingFunction:
    def test_low_order_blocks(self):
        s = series_direct(3)
        # 1 + x(1+x) y + x^2 (x+4)(1+x) y^2 / 2 + ...
        assert s.y_block(0)[:3] == [F(1), F(0), F(0)]
        assert s.y_block(1)[:4] == [F(0), F(1), F(1), F(0)]
        assert s.y_block(2)[:6] == [F(0), F(0), F(2), F(5, 2), F(1, 2), F(0)]
        assert s.y_block(3)[3:7] == [F(27, 6), F(37, 6), F(12, 6), F(1, 6)]

    def test_direct_equals_closed(self):
        for d in [*range(1, 13), 40, 64]:
            assert series_direct(d) == series_closed(d)

    def test_closed_route_is_independent(self, monkeypatch):
        expected = series_direct(7)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed route used the direct one")

        monkeypatch.setattr(enumeration, "r_stirling2", forbidden)
        monkeypatch.setattr(enumeration, "_r_stirling_row", forbidden)
        monkeypatch.setattr(enumeration, "series_direct", forbidden)
        assert series_closed(7) == expected

    def test_nonintegral_input_is_an_internal_fault(self, monkeypatch):
        exact = enumeration._lambert_w_xy

        def skewed(d):
            coeffs = exact(d)
            coeffs[2] = F(1, 2 * 2)  # 2! times it is 1/2
            return coeffs

        monkeypatch.setattr(enumeration, "_lambert_w_xy", skewed)
        result = None
        with pytest.raises(RuntimeError, match="not integral"):
            result = series_closed(3)
        assert result is None
        # not reported as bad input (exit 1): the fault propagates
        with pytest.raises(RuntimeError, match="not integral"):
            main(["series", "3"])

    def test_y4_block(self):
        s = series_closed(4)
        expected = [F(c, 24) for c in (256, 369, 151, 22, 1)]
        assert s.y_block(4)[4:9] == expected

    def test_x1y1_coefficient(self):
        assert series_direct(2).coefficient(1, 1) == 1
        assert series_closed(2).coefficient(1, 1) == 1

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            series_direct(100)
        with pytest.raises(SizeGuardError):
            series_closed(100)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            series_direct(0)
