from fractions import Fraction

import pytest

from shufflesc import SizeGuardError, TruncatedSeries, enumeration, series_closed, series_direct
from shufflesc.cli import main


def F(*args):
    return Fraction(*args)


class TestTruncatedSeries:
    def test_mul_truncates(self):
        a = TruncatedSeries(2, 2, {(1, 1): F(1)})
        sq = a * a
        assert sq.coefficient(2, 2) == 1
        assert (sq * a).coeffs == {}  # x^3 y^3 falls outside the box

    def test_scalar_and_add(self):
        a = TruncatedSeries(2, 1, {(0, 0): F(1), (1, 1): F(2)})
        b = a * F(1, 2) + a
        assert b.coefficient(1, 1) == F(3)
        assert b.coefficient(0, 0) == F(3, 2)

    def test_exp_requires_positive_y_degree(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 2, {(1, 0): F(1)}).exp()

    def test_exp_matches_expansion(self):
        u = TruncatedSeries(8, 4, {(2, 1): F(1)})
        e = u.exp()
        # exp(x^2 y) = sum (x^2 y)^t / t!
        assert e.coefficient(0, 0) == 1
        assert e.coefficient(2, 1) == 1
        assert e.coefficient(4, 2) == F(1, 2)
        assert e.coefficient(6, 3) == F(1, 6)

    def test_box_mismatch(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 2) + TruncatedSeries(3, 2)

    def test_floats_refused(self):
        with pytest.raises(TypeError, match="float"):
            TruncatedSeries(1, 1, {(0, 0): 0.1})
        a = TruncatedSeries(1, 1, {(0, 0): F(1)})
        with pytest.raises(TypeError, match="float"):
            a * 0.1
        with pytest.raises(TypeError, match="float"):
            0.5 * a
        assert (a * 2).coefficient(0, 0) == 2


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
        monkeypatch.setattr(TruncatedSeries, "exp", forbidden)
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
