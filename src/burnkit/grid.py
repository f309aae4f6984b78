"""Bounds and a heuristic burner for rectangular grids.

The burner stays within a factor of 2 of the lower bound on square
grids, where the paper proves it; thin grids can exceed that factor
against grid_lower_bound.

Grid vertices use row-major ids, matching build_grid.  The heuristic
keeps each vertex's burn round in one numpy array.  On a grid a source
lit in round t caps each vertex's round at t plus its Manhattan
distance from the source, one whole-array step, so no round needs a
BFS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .burning import BurningSchedule, simulate
from .errors import InputError, InternalError
from .graph import build_grid
from .intmath import ceil_pow23


@dataclass(frozen=True)
class GridSpec:
    """A rows x cols grid, both sides at least 1."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise InputError(
                f"grid sides must be positive, got {self.rows}x{self.cols}"
            )

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def side(self) -> int:
        if not self.is_square:
            raise InputError(
                f"{self.rows}x{self.cols} grid has no single side length"
            )
        return self.rows


@dataclass(frozen=True)
class GridBurnReport:
    """Result of the heuristic burner, with the bounds it was judged by."""

    grid: GridSpec
    schedule: BurningSchedule
    rounds_used: int
    lower_bound: int
    upper_bound: int | None
    ratio: float


def max_burnable(rounds: int) -> int:
    """Most grid vertices one source can burn within the given rounds.

    The fire region is the radius-(rounds - 1) Manhattan ball, which
    holds 2*rounds*(rounds - 1) + 1 vertices when nothing is clipped by
    the boundary.
    """
    if rounds < 1:
        raise InputError(f"rounds must be positive, got {rounds}")
    return 2 * rounds * (rounds - 1) + 1


def grid_lower_bound(grid: GridSpec) -> int:
    """Smallest k whose k staggered Manhattan balls could cover the grid.

    Balls of radii k - 1, ..., 0 hold at most (2k**3 + k) / 3 vertices
    in total, so any k with 2k**3 + k < 3 * n is refuted.
    """
    n = grid.n
    k = 1
    while 2 * k * k * k + k < 3 * n:
        k += 1
    return k


def upper_bound_formula(side: int) -> int:
    """Proven burning-round ceiling for a square grid of the given side.

    Evaluates ceil(2 * side**(2/3) + 2 * side**(1/3) + 1) exactly: with
    c = M - 1, the bound M suffices iff (8*side + 6c + 4)**2 is at most
    (2c + 4)**2 * (2c + 1), an integer restatement obtained by isolating
    the cube root and cubing, so no floating-point ceiling is involved.
    """
    if side < 1:
        raise InputError(f"grid side must be positive, got {side}")

    def holds(m: int) -> bool:
        c = m - 1
        return (8 * side + 6 * c + 4) ** 2 <= (2 * c + 4) ** 2 * (2 * c + 1)

    m = max(1, int(2 * side ** (2 / 3) + 2 * side ** (1 / 3) + 1) - 3)
    while not holds(m):
        m += 1
    return m


def subgrid_dims(grid: GridSpec) -> tuple[int, int]:
    """Block dimensions used by the heuristic: ceil of each side^(2/3)."""
    return ceil_pow23(grid.rows), ceil_pow23(grid.cols)


def burn_grid_2approx(grid: GridSpec) -> GridBurnReport:
    """Burn a grid; on a square grid, in at most twice the lower bound.

    The factor 2 is proven for square grids only.  grid_lower_bound
    assumes unclipped balls, so on thin grids the ratio can pass 2:
    1x600 takes 26 rounds against a lower bound of 10.

    Phase one tiles the grid with blocks of roughly side^(2/3) per axis
    and ignites each block's center, one per round in row-major block
    order; a center the fire has already reached is swapped for the
    farthest unburnt vertex.  Phase two keeps igniting the farthest
    unburnt vertex until the fire covers everything.  The returned
    schedule is re-run through the generic simulator as a check.
    """
    import numpy as np

    rows, cols = grid.rows, grid.cols
    rr = np.arange(rows, dtype=np.int32)[:, None]
    cc = np.arange(cols, dtype=np.int32)[None, :]
    h, w = subgrid_dims(grid)
    planned = (
        (r0 + (min(h, rows - r0) - 1) // 2) * cols
        + c0 + (min(w, cols - c0) - 1) // 2
        for r0 in range(0, rows, h)
        for c0 in range(0, cols, w)
    )
    # burns_at[v] is the round in which v catches fire given the sources
    # so far; 2n + 2 is above every real burn time.  int32 halves the
    # memory traffic of the whole-array steps.
    burns_at = np.full(grid.n, 2 * grid.n + 2, dtype=np.int32)
    sources: list[int] = []
    while True:
        t = len(sources)
        far = int(burns_at.argmax())  # the first maximum: smallest id
        if burns_at[far] <= t:
            break
        x = next(planned, None)
        if x is None or burns_at[x] <= t:
            x = far
        sources.append(x)
        r, c = divmod(x, cols)
        reach = np.abs(rr - r) + (np.abs(cc - c) + (t + 1))
        np.minimum(burns_at, reach.ravel(), out=burns_at)
    schedule = BurningSchedule.of(sources)
    outcome = simulate(build_grid(rows, cols), schedule)
    if not (outcome.complete and outcome.rounds_used == len(schedule)):
        raise InternalError("grid schedule does not burn the whole grid")

    lower = grid_lower_bound(grid)
    upper = upper_bound_formula(grid.side) if grid.is_square else None
    return GridBurnReport(
        grid=grid,
        schedule=schedule,
        rounds_used=len(schedule),
        lower_bound=lower,
        upper_bound=upper,
        ratio=len(schedule) / lower,
    )
