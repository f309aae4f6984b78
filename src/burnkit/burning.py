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
from typing import Iterable, Sequence

from .errors import InputError, ScheduleError
from .graph import (
    Graph,
    UNREACHED,
    ball,
    ball_distances,
    bfs_distances,
    connected_components,
    radical_center,
)

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

    def burned_by_round(self, t: int) -> frozenset[int]:
        return frozenset(
            v
            for v, r in enumerate(self.burn_round)
            if r is not None and r <= t
        )


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
    burn_round: list[int | None] = [None] * g.n
    frontier: list[int] = []  # vertices that caught fire in the previous round
    adj = g.adjacency
    burnt = 0
    t = 0
    for t, src in enumerate(sources, start=1):
        spread = [
            w for u in frontier for w in adj[u] if burn_round[w] is None
        ]
        if burn_round[src] is not None:
            raise ScheduleError(
                f"source {src} of round {t} already burnt in round "
                f"{burn_round[src]}"
            )
        new = []
        for w in spread:
            if burn_round[w] is None:
                burn_round[w] = t
                new.append(w)
        if burn_round[src] is None:
            burn_round[src] = t
            new.append(src)
        frontier = new
        burnt += len(new)
    rounds_used = t
    if to_completion:
        while burnt < g.n and frontier:
            spread = [
                w for u in frontier for w in adj[u] if burn_round[w] is None
            ]
            if not spread:
                break
            rounds_used += 1
            new = []
            for w in spread:
                if burn_round[w] is None:
                    burn_round[w] = rounds_used
                    new.append(w)
            frontier = new
            burnt += len(new)
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


def greedy_burn(g: Graph) -> BurningSchedule:
    """Farthest-first heuristic burn; returns a complete valid schedule.

    The first source is the radical center of the largest component, each
    later round picks the unburnt vertex farthest from everything burnt so
    far (unreached components count as infinitely far; smallest id breaks
    ties).
    """
    comps = connected_components(g)
    comps.sort(key=lambda c: (-len(c), c[0]))
    first = radical_center(g, comps[0])
    sources = [first]
    burnt: set[int] = set()
    frontier = []
    adj = g.adjacency
    pick = first
    while True:
        spread = [w for u in frontier for w in adj[u] if w not in burnt]
        new = set(spread)
        new.add(pick)
        new -= burnt
        burnt |= new
        frontier = sorted(new)
        if len(burnt) == g.n:
            return BurningSchedule.of(sources)
        dist = bfs_distances(g, burnt)
        far = -2
        pick = -1
        for v in range(g.n):
            if v in burnt:
                continue
            d = dist[v] if dist[v] != UNREACHED else g.n + 1
            if d > far:
                far, pick = d, v
        sources.append(pick)


def assert_agreement(
    g: Graph, schedule: BurningSchedule | Sequence[int]
) -> bool:
    """Run both deciders and insist they match; used by tests and the CLI."""
    try:
        by_union = verify_schedule(g, schedule)
    except ScheduleError:
        by_union = None
    try:
        by_rounds = simulate(g, schedule).complete
    except ScheduleError:
        by_rounds = None
    if by_union != by_rounds:
        raise AssertionError(
            f"deciders disagree on {tuple(_coerce(schedule))}: "
            f"union={by_union} rounds={by_rounds}"
        )
    if by_union is None:
        raise ScheduleError("schedule rejected by both deciders")
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
