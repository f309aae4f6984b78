"""Burning process: round-by-round simulation and its cluster-union twin.

A schedule lists one new fire source per round.  In round t the source is
placed (it must still be unburnt at the start of the round) and the fire
spreads one hop from everything burnt in earlier rounds.  A schedule of
length k therefore gives the source of round i a final reach of k - i hops;
the graph is fully burnt after k rounds exactly when those k balls cover
the vertex set.  `simulate` alone implements the round form;
`verify_schedule` computes the ball-union form as a burn-time field, and
the two are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InputError, InternalError, ScheduleError
from .graph import (
    Graph,
    ball,
    center_and_diameter,
    connected_components,
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


def _ignite(adj: Sequence[Sequence[int]], burns_at: list[int],
            x: int, t: int) -> None:
    """Light x in round t and lower burns_at, layer by layer, wherever
    x's fire arrives sooner.

    The BFS stops per vertex, at w with at >= burns_at[w].  That is
    exact because burns_at is 1-Lipschitz along edges: every vertex on
    a shortest path from x to a w it improves is improved too.  So the
    field's start value bounds the BFS: started at k + 1, it stops at
    round k + 1, and no entry is lowered to a round past k.
    """
    burns_at[x] = at = t
    layer = [x]
    while layer:
        at += 1
        grown = []
        for u in layer:
            for w in adj[u]:
                if at < burns_at[w]:
                    burns_at[w] = at
                    grown.append(w)
        layer = grown


def verify_schedule(
    g: Graph, schedule: BurningSchedule | Sequence[int]
) -> bool:
    """Decide completeness through the ball-union identity, kept as the
    burn-time field of the sources placed so far (k + 1 where none
    reaches).  A source burnt before its round is rejected with
    simulate's message: the deciders agree on verdict and message.
    """
    sources = _coerce(schedule)
    _check_sources(g, sources)
    k = len(sources)
    burns_at = [k + 1] * g.n
    for t, x in enumerate(sources, start=1):
        if burns_at[x] < t:
            raise ScheduleError(
                f"source {x} of round {t} already burnt in round "
                f"{burns_at[x]}"
            )
        _ignite(g.adjacency, burns_at, x, t)
    return max(burns_at) <= k


def greedy_burn(g: Graph) -> BurningSchedule:
    """Farthest-first heuristic burn; returns a complete valid schedule.

    The first source is the radical center of the largest component, each
    later round picks the unburnt vertex farthest from everything burnt so
    far (unreached components count as infinitely far; smallest id breaks
    ties).  Each source widens verify_schedule's burn-time field, at the
    cost of the region it takes over.  simulate checks the result.
    """
    return _greedy_census(g)[0]


def _greedy_census(
    g: Graph,
) -> tuple[BurningSchedule, list[list[int]], list[int], int]:
    """greedy_burn(g), with the components, the largest one (the first
    of the most vertices) and its diameter, all found on the way.

    The largest component's centre is the first source.  burns_at[v] is
    the round in which v catches fire given the sources so far.  It
    starts at 2n + 2, above every real burn time, so the vertices no
    source reaches stay tied there.  Each later round lights the first
    vertex of latest burn time, the smallest id on ties, and the run
    ends once everything burns by the current round.

    That vertex comes from a cursor, not a scan of the whole field per
    round.  Burn times only go down and none sits above the latest one,
    `last`, so while `last` stays the latest the first id holding it
    never moves left: the search resumes at the cursor `at`.  Only when
    no id from `at` on holds `last` any more is the field scanned for
    the new latest time and its first id.
    """
    components = connected_components(g)
    largest = min(components, key=lambda c: (-len(c), c[0]))
    x, diameter = center_and_diameter(g, largest)
    last = 2 * g.n + 2
    burns_at = [last] * g.n
    sources = []
    at = t = 0
    while True:
        t += 1
        sources.append(x)
        _ignite(g.adjacency, burns_at, x, t)
        try:
            x = burns_at.index(last, at)
        except ValueError:
            last = max(burns_at)
            x = burns_at.index(last)
        if last <= t:
            break
        at = x
    sched = BurningSchedule.of(sources)
    if not simulate(g, sched).complete:
        raise InternalError("greedy schedule does not burn the whole graph")
    return sched, components, largest, diameter


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
