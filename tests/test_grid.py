from __future__ import annotations

import hashlib
import random
from decimal import ROUND_CEILING, Decimal, getcontext

import pytest

from burnkit.burning import simulate
from burnkit.errors import InputError
from burnkit.exact import exact_burning_number
from burnkit.graph import ball, build_grid
from burnkit.grid import (
    GridSpec,
    burn_grid_2approx,
    grid_lower_bound,
    max_burnable,
    subgrid_dims,
    upper_bound_formula,
)
from burnkit.intmath import ceil_cbrt, ceil_pow23, ceil_sqrt, floor_cbrt


def decimal_upper_bound(side: int) -> int:
    """Independent evaluation of ceil(2*s^(2/3) + 2*s^(1/3) + 1).

    Uses 80-digit decimal arithmetic; perfect cubes take the closed form
    2c^2 + 2c + 1 so the ceiling never sits on a representation edge.
    """
    c = floor_cbrt(side)
    if c * c * c == side:
        return 2 * c * c + 2 * c + 1
    getcontext().prec = 80
    s = Decimal(side)
    third = Decimal(1) / Decimal(3)
    value = 2 * s ** (2 * third) + 2 * s**third + 1
    return int(value.to_integral_value(rounding=ROUND_CEILING))


class TestIntMath:
    def test_exact_and_near_roots(self):
        assert [ceil_sqrt(x) for x in (0, 1, 2, 4, 5, 9, 10)] == [
            0, 1, 2, 2, 3, 3, 4,
        ]
        assert [floor_cbrt(x) for x in (1, 7, 8, 9, 26, 27)] == [
            1, 1, 2, 2, 2, 3,
        ]
        assert [ceil_cbrt(x) for x in (1, 2, 8, 9, 27, 28)] == [
            1, 2, 2, 3, 3, 4,
        ]

    def test_roots_avoid_float_cliffs(self):
        for base in (10**6, 10**9, 10**12):
            for delta in (-1, 0, 1):
                x = base + delta
                r = ceil_sqrt(x)
                assert (r - 1) ** 2 < x <= r**2
                c = ceil_cbrt(x)
                assert (c - 1) ** 3 < x <= c**3

    def test_ceil_pow23(self):
        for x in range(1, 2000):
            p = ceil_pow23(x)
            # smallest p with p^3 >= x^2
            assert p**3 >= x**2 > (p - 1) ** 3


class TestMaxBurnable:
    def test_frozen_values(self):
        assert [max_burnable(k) for k in (1, 2, 3, 4)] == [1, 5, 13, 25]

    def test_recurrence(self):
        # each extra round adds a Manhattan circle of 4*(k-1) vertices
        prev = max_burnable(1)
        for k in range(2, 40):
            cur = max_burnable(k)
            assert cur == prev + 4 * (k - 1)
            prev = cur

    def test_matches_interior_ball_sizes(self):
        # measured on a real grid big enough that nothing clips
        g = build_grid(21, 21)
        center = 10 * 21 + 10
        for k in range(1, 11):
            assert len(ball(g, (center,), k - 1)) == max_burnable(k)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            max_burnable(0)


class TestLowerBound:
    def test_frozen_values(self):
        assert grid_lower_bound(GridSpec(403, 403)) == 63
        assert grid_lower_bound(GridSpec(9, 9)) == 5
        assert grid_lower_bound(GridSpec(1, 1)) == 1

    def test_minimality_property(self):
        rng = random.Random(7)
        for _ in range(300):
            rows = rng.randint(1, 2000)
            cols = rng.randint(1, 2000)
            k = grid_lower_bound(GridSpec(rows, cols))
            n = rows * cols
            assert 2 * k**3 + k >= 3 * n
            if k > 1:
                j = k - 1
                assert 2 * j**3 + j < 3 * n

    def test_dominates_cube_root(self):
        rng = random.Random(8)
        for _ in range(300):
            rows = rng.randint(1, 3000)
            cols = rng.randint(1, 3000)
            assert grid_lower_bound(GridSpec(rows, cols)) >= ceil_cbrt(
                rows * cols
            )


class TestUpperBoundFormula:
    @pytest.mark.parametrize(
        "side,expected",
        [(1, 5), (8, 13), (403, 125), (410, 127), (425, 130), (450, 134)],
    )
    def test_frozen_values(self, side, expected):
        assert upper_bound_formula(side) == expected

    def test_against_decimal_oracle(self):
        sides = list(range(1, 600)) + [10**4, 10**6 - 1, 10**6, 10**6 + 1]
        for side in sides:
            assert upper_bound_formula(side) == decimal_upper_bound(side), side

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            upper_bound_formula(0)


class TestSubgridDims:
    def test_frozen_values(self):
        assert subgrid_dims(GridSpec(403, 403)) == (55, 55)
        assert subgrid_dims(GridSpec(450, 450)) == (59, 59)
        assert subgrid_dims(GridSpec(8, 8)) == (4, 4)
        assert subgrid_dims(GridSpec(403, 8)) == (55, 4)

    def test_defining_property(self):
        for side in range(1, 500):
            d, _ = subgrid_dims(GridSpec(side, side))
            assert d**3 >= side**2 > (d - 1) ** 3


class TestHeuristicBurner:
    @pytest.mark.parametrize("rows,cols", [
        (1, 1), (1, 7), (2, 2), (3, 3), (4, 9), (9, 9), (12, 5), (16, 16),
    ])
    def test_schedule_replays_on_real_grid(self, rows, cols):
        report = burn_grid_2approx(GridSpec(rows, cols))
        out = simulate(build_grid(rows, cols), report.schedule)
        assert out.complete
        assert out.rounds_used == report.rounds_used == len(report.schedule)

    def test_within_twice_the_lower_bound(self):
        rng = random.Random(11)
        specs = [GridSpec(rng.randint(1, 60), rng.randint(1, 60))
                 for _ in range(25)]
        specs += [GridSpec(s, s) for s in (30, 45, 64, 81, 100)]
        for spec in specs:
            report = burn_grid_2approx(spec)
            assert report.rounds_used <= 2 * report.lower_bound, spec
            assert report.ratio == report.rounds_used / report.lower_bound

    def test_square_grids_stay_within_twice_the_lower_bound(self):
        # the factor 2 is a square-grid claim; the worst side here is 11
        worst = max(burn_grid_2approx(GridSpec(s, s)).ratio
                    for s in range(1, 81))
        assert worst <= 2

    def test_square_reports_carry_upper_bound(self):
        report = burn_grid_2approx(GridSpec(9, 9))
        assert report.upper_bound == upper_bound_formula(9)
        assert report.rounds_used <= report.upper_bound

    def test_non_square_upper_bound_is_none(self):
        assert burn_grid_2approx(GridSpec(4, 7)).upper_bound is None

    # pinned schedules: a change to the planned centres, the swap rule or
    # the tie-break shows here.  On 4x11, whose schedule is 13 18 21 38
    # 42, the fourth and fifth block centres (35 and 40) are already
    # burnt and swapped for the farthest vertex, and the sixth is never
    # needed
    @pytest.mark.parametrize("rows,cols,rounds,digest", [
        (4, 11, 5, "f540ab29507916e9"),
        (7, 7, 6, "0bd8b1c818e18092"),
        (10, 13, 9, "df614db7fcd303a7"),
        (200, 200, 57, "a0a22573f09e3f80"),
        (250, 250, 69, "4fe226dc9905622c"),
        (1, 600, 26, "3b17ae146362f225"),
    ])
    def test_pinned_schedules(self, rows, cols, rounds, digest):
        report = burn_grid_2approx(GridSpec(rows, cols))
        text = " ".join(map(str, report.schedule))
        assert report.rounds_used == rounds
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_beats_exact_by_at_most_factor_two(self):
        for side in range(2, 7):
            spec = GridSpec(side, side)
            exact = exact_burning_number(build_grid(side, side)).k
            report = burn_grid_2approx(spec)
            assert grid_lower_bound(spec) <= exact
            assert exact <= report.rounds_used <= 2 * exact


class TestGridSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(InputError):
            GridSpec(0, 4)
        with pytest.raises(InputError):
            GridSpec(3, -1)

    def test_side_only_for_squares(self):
        assert GridSpec(5, 5).side == 5
        with pytest.raises(InputError):
            GridSpec(5, 6).side
