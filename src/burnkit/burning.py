"""Burning process: round-by-round simulation and its cluster-union twin.

A schedule lists one new fire source per round.  In round t the source is
placed (it must still be unburnt at the start of the round) and the fire
spreads one hop from everything burnt in earlier rounds.  A schedule of
length k therefore gives the source of round i a final reach of k - i hops;
the graph is fully burnt after k rounds exactly when those k balls cover
the vertex set.  `simulate` implements the round form, `verify_schedule`
the ball-union form, and the two are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import InputError, InternalError, ScheduleError
from .graph import (
    Graph,
    ball,
    ball_distances,
    connected_components,
    radical_center,
)

if TYPE_CHECKING:
    import numpy as np

Cluster = frozenset[int]


@dataclass(frozen=True)
class BurningSchedule:
    """Ordered fire sources; round i places sources[i - 1]."""

    sources: tuple[int, ...]

    @classmethod
    def of(cls, sources: Iterable[int]) -> "BurningSchedule":
        return cls(tuple(sources))

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return iter(self.sources)


@dataclass(frozen=True)
class BurnOutcome:
    """Result of simulating a schedule.

    burn_round[v] is the round in which v caught fire, or None if it never
    did.  rounds_used equals the schedule length unless burn-to-completion
    mode appended extra spread-only rounds.
    """

    rounds_used: int
    complete: bool
    burn_round: tuple[int | None, ...]


def _coerce(schedule: BurningSchedule | Sequence[int]) -> tuple[int, ...]:
    if isinstance(schedule, BurningSchedule):
        return schedule.sources
    return tuple(schedule)


def _check_sources(g: Graph, sources: tuple[int, ...]) -> None:
    if not sources:
        raise ScheduleError("schedule is empty")
    for s in sources:
        if not 0 <= s < g.n:
            raise ScheduleError(f"source {s} out of range for n={g.n}")
    if len(set(sources)) != len(sources):
        raise ScheduleError("schedule repeats a source")


_SPREAD_ONLY = -1


def _walk_fire(
    g: Graph, choose: Callable[[int, list[int | None], int], int | None]
) -> tuple[list[int | None], int, int]:
    """The round kernel; returns burn_round, rounds run and burnt count.

    choose(t, burn_round, burnt) sees the state at the start of round t
    and returns its source, _SPREAD_ONLY, or None to stop.  The fire then
    spreads one hop and the source catches fire.  A spread-only round in
    which nothing new burns ends the walk and is not counted.
    """
    adj = g.adjacency
    burn_round: list[int | None] = [None] * g.n
    frontier: list[int] = []  # vertices that caught fire in the previous round
    burnt = 0
    t = 0
    while (src := choose(t + 1, burn_round, burnt)) is not None:
        new = []
        for u in frontier:
            for w in adj[u]:
                if burn_round[w] is None:
                    burn_round[w] = t + 1
                    new.append(w)
        if src == _SPREAD_ONLY:
            if not new:
                break
        elif burn_round[src] is None:
            burn_round[src] = t + 1
            new.append(src)
        t += 1
        frontier = new
        burnt += len(new)
    return burn_round, t, burnt


def simulate(
    g: Graph,
    schedule: BurningSchedule | Sequence[int],
    *,
    to_completion: bool = False,
) -> BurnOutcome:
    """Run the burning process round by round.

    Raises ScheduleError if any source is already burnt when its round
    starts.  With to_completion=True the fire keeps spreading after the
    last source until nothing changes, without placing further sources.
    """
    sources = _coerce(schedule)
    _check_sources(g, sources)

    def scheduled(t: int, burn_round: list[int | None], burnt: int):
        if t > len(sources):
            return _SPREAD_ONLY if to_completion else None
        src = sources[t - 1]
        if burn_round[src] is not None:
            raise ScheduleError(
                f"source {src} of round {t} already burnt in round "
                f"{burn_round[src]}"
            )
        return src

    burn_round, rounds_used, burnt = _walk_fire(g, scheduled)
    return BurnOutcome(
        rounds_used=rounds_used,
        complete=burnt == g.n,
        burn_round=tuple(burn_round),
    )


def clusters(
    g: Graph, schedule: BurningSchedule | Sequence[int]
) -> list[Cluster]:
    """Per-source coverage: round i of k reaches exactly k - i hops."""
    sources = _coerce(schedule)
    _check_sources(g, sources)
    k = len(sources)
    return [ball(g, (src,), k - i) for i, src in enumerate(sources, start=1)]


def verify_schedule(
    g: Graph, schedule: BurningSchedule | Sequence[int]
) -> bool:
    """Decide completeness through the ball-union identity.

    Shares the strict validity rules with simulate: a source that some
    earlier, shrunken ball already covers would have been burnt before its
    round, and the schedule is rejected.  The two deciders agree exactly.
    """
    sources = _coerce(schedule)
    _check_sources(g, sources)
    k = len(sources)
    dist_maps: list[dict[int, int]] = []
    for i, src in enumerate(sources, start=1):
        dist_maps.append(ball_distances(g, (src,), k - i))
    for t in range(2, k + 1):
        x = sources[t - 1]
        for i in range(1, t):
            d = dist_maps[i - 1].get(x)
            if d is not None and d <= (t - 1) - i:
                raise ScheduleError(
                    f"source {x} of round {t} already burnt in round "
                    f"{i + d}"
                )
    covered: set[int] = set()
    for dm in dist_maps:
        covered.update(dm)
    return len(covered) == g.n


def _farthest_first(
    n: int, relax: Callable[[int, np.ndarray], object], planned: list[int]
) -> BurningSchedule:
    """The farthest-first loop under greedy_burn and the grid burner.

    field[v] is v's distance to the fire, 0 once burnt.  A round steps
    it to max(field - 1, 0); relax(x, field) then lowers it in place to
    the distance from the lit source x wherever that is smaller.
    Planned sources go first, a burnt one swapped for the farthest
    vertex; then the farthest burns until the field is all zero.  The
    field starts at 2n + 2, above every real distance for n rounds, and
    vertices no source reaches stay tied there.  argmax returns the
    first maximum: the smallest id wins ties.
    """
    import numpy as np  # loaded only by the burners that need it

    # int32 halves the memory traffic of the whole-array update
    field = np.full(n, 2 * n + 2, dtype=np.int32)
    planned_left = iter(planned)
    sources = []
    while field.any():
        x = next(planned_left, None)
        if x is None or field[x] == 0:
            x = int(field.argmax())
        sources.append(x)
        np.subtract(field, 1, out=field)
        np.maximum(field, 0, out=field)
        relax(x, field)
    return BurningSchedule.of(sources)


def greedy_burn(g: Graph) -> BurningSchedule:
    """Farthest-first heuristic burn; returns a complete valid schedule.

    The first source is the radical center of the largest component, each
    later round picks the unburnt vertex farthest from everything burnt so
    far (unreached components count as infinitely far; smallest id breaks
    ties).  Each source runs a BFS that expands a vertex only where it
    lowers the field, so a round costs the region it takes over, not the
    graph.  The schedule is checked with simulate before it is returned.
    """
    largest = min(connected_components(g), key=lambda c: (-len(c), c[0]))
    return _greedy_from(g, radical_center(g, largest))


def _greedy_from(g: Graph, first: int) -> BurningSchedule:
    """greedy_burn's farthest-first run from a given first source."""
    adj = g.adjacency

    def relax(x: int, field: np.ndarray) -> None:
        # Not ball_distances, which stops at one radius: this BFS stops
        # per vertex, at w with d >= field[w].  That is exact because
        # the field is 1-Lipschitz along edges: every vertex on a
        # shortest path from x to a w it improves is improved too.
        near = field.tolist()
        near[x] = 0
        took, layer, d = [x], [x], 0
        while layer:
            d += 1
            grown = []
            for u in layer:
                for w in adj[u]:
                    if d < near[w]:
                        near[w] = d
                        grown.append(w)
            took += grown
            layer = grown
        field[took] = [near[w] for w in took]

    sched = _farthest_first(g.n, relax, [first])
    if not simulate(g, sched).complete:
        raise InternalError("greedy schedule does not burn the whole graph")
    return sched


def assert_agreement(
    g: Graph, schedule: BurningSchedule | Sequence[int]
) -> bool:
    """Run both deciders and insist they match; used by tests and the CLI.

    A schedule both reject raises verify_schedule's ScheduleError.
    """
    try:
        by_union = verify_schedule(g, schedule)
    except ScheduleError as exc:
        by_union, rejection = None, exc
    try:
        by_rounds = simulate(g, schedule).complete
    except ScheduleError:
        by_rounds = None
    if by_union != by_rounds:
        raise InternalError(
            f"deciders disagree on {tuple(_coerce(schedule))}: "
            f"union={by_union} rounds={by_rounds}"
        )
    if by_union is None:
        raise rejection
    return by_union


def write_schedule(schedule: BurningSchedule | Sequence[int]) -> str:
    return " ".join(str(v) for v in _coerce(schedule)) + "\n"


def read_schedule(text: str) -> BurningSchedule:
    sources = []
    for token in text.split():
        try:
            sources.append(int(token))
        except ValueError:
            raise InputError(f"bad schedule entry {token!r}") from None
    if not sources:
        raise InputError("schedule text is empty")
    return BurningSchedule.of(sources)
