from fractions import Fraction

import pytest

from shufflesc import SizeGuardError, enumeration, series_closed, series_direct


def F(*args):
    return Fraction(*args)


class TestGeneratingFunction:
    def test_low_order_blocks(self):
        s = series_direct(3)
        # 1 + x(1+x) y + x^2 (x+4)(1+x) y^2 / 2 + ...
        assert s[0][:3] == [F(1), F(0), F(0)]
        assert s[1][:4] == [F(0), F(1), F(1), F(0)]
        assert s[2][:6] == [F(0), F(0), F(2), F(5, 2), F(1, 2), F(0)]
        assert s[3][3:7] == [F(27, 6), F(37, 6), F(12, 6), F(1, 6)]

    def test_blocks_shape(self):
        for route in (series_direct, series_closed):
            for d in (1, 5):
                blocks = route(d)
                assert len(blocks) == d + 1
                assert all(len(b) == 2 * d + 1 for b in blocks)
                assert all(type(c) is Fraction for b in blocks for c in b)

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

    def test_y4_block(self):
        s = series_closed(4)
        expected = [F(c, 24) for c in (256, 369, 151, 22, 1)]
        assert s[4][4:9] == expected

    def test_x1y1_coefficient(self):
        assert series_direct(2)[1][1] == 1
        assert series_closed(2)[1][1] == 1

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            series_direct(100)
        with pytest.raises(SizeGuardError):
            series_closed(100)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            series_direct(0)
