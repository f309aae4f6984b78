"""Exact burning number search.

The search works on the staggered-cover form of the problem: a graph
admits a complete k-round schedule iff centers can be assigned to the
distinct radii k - 1, ..., 0 so that the radius-r balls cover every
vertex.  Covers are easier to branch on than raw schedules because the
already-burnt rule disappears; any cover is turned back into a valid
schedule afterwards by walking the rounds and substituting the smallest
unburnt vertex wherever no live center is planned (a planned center the
fire already reached is covered by the front anyway, so nothing is
lost).

Branching follows the exact-cover pattern: take the smallest uncovered
vertex, and try every way of covering it, meaning every still-unused
radius r paired with every center whose radius-r ball reaches the
vertex.  Coverage state is a bitmask, so candidate gains are popcounts.
Three devices keep the tree small: a counting prune (the unused radii
can cover at most the sum of their largest balls, so a node whose
uncovered set is bigger is dead; on an n-vertex path this refutes
k**2 < n at the root), a dominance rule (a larger radius offering the
same restricted gain as a smaller one at the same center is never
tried: swapping the two radii between centers can only grow coverage),
and memoization of refuted (uncovered, unused-radii) states, which
collapses placements that merely permute each other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_

from .burning import BurningSchedule, _greedy_from, _walk_fire
from .errors import BudgetExceededError, InternalError
from .graph import Graph, center_and_diameter, connected_components
from .intmath import ceil_sqrt

DEFAULT_NODE_BUDGET = 2_000_000
_MEMO_CAP = 500_000
# _Profile's cap on n * n * (stored radii) mask bits, about 1 GiB
_MAX_MASK_BITS = 2**33


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search: the burning number and a witness."""

    k: int
    witness: BurningSchedule
    nodes_explored: int


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} nodes exhausted",
                nodes_explored=self.used,
            )


class _Profile:
    """Per-graph ball data shared by every attempted k.

    masks[v][r] is the radius-r ball around v as a bitmask, stored up to
    radius_cap or until the ball stops growing, at v's eccentricity,
    whichever comes first; balls only plateau beyond that, so the last
    entry stands in for any larger radius.  Mask bit positions are not
    vertex ids but ranks in a degree-then-id order, so that the search's
    pick-the-lowest-set-bit step lands on the most constrained uncovered
    vertex first.  Balls grow by union, ball_{r+1}(v) = ball_r(v) |
    ball_r(w) over neighbours w, so no BFS runs per vertex: each
    component's diameter comes from one graph.center_and_diameter call,
    the largest's from the greedy bound's.

    maxball[r], the largest radius-r ball, is exact through radius_cap + 1
    and past it overstated as the largest component.  caps[j], the most
    vertices balls of radii 0..j can cover, is kept through radius_cap,
    so the coverage bound reads radius_cap + 2 wherever it is larger.
    That is enough: exact_burning_number (radius_cap = ub - 2) reads radii
    below ub, and can_burn_in (radius_cap = k - 1) decides
    k < lower_bound() on exact values through radius k.

    Masks take up to n bits for each vertex and stored radius; a graph
    whose masks could pass _MAX_MASK_BITS is refused with
    BudgetExceededError before any is built.
    """

    __slots__ = ("graph", "order", "masks", "maxball", "largest", "caps",
                 "components", "comp_mask", "diameters")

    def __init__(self, g: Graph, components: list[list[int]],
                 largest: list[int], diameter: int, radius_cap: int) -> None:
        n = g.n
        adj = g.adjacency
        self.graph = g
        self.components = components
        self.largest = len(largest)
        self.diameters = [
            diameter if c is largest else center_and_diameter(g, c)[1]
            for c in components
        ]
        widest = max(self.diameters)  # no ball grows past this radius
        bits = n * n * (min(radius_cap, widest) + 1)
        if bits > _MAX_MASK_BITS:
            raise BudgetExceededError(
                f"ball masks of up to {bits} bits exceed the limit of "
                f"{_MAX_MASK_BITS}",
                nodes_explored=0,
            )
        self.order = sorted(range(n), key=lambda v: (g.degree(v), v))
        ball = [0] * n
        for i, v in enumerate(self.order):
            ball[v] = 1 << i
        self.comp_mask = [0] * n
        for comp in components:
            acc = reduce(or_, [ball[v] for v in comp])
            for v in comp:
                self.comp_mask[v] = acc
        self.masks = [[b] for b in ball]
        self.maxball = [1]
        for r in range(1, min(radius_cap + 1, widest) + 1):
            grown = [reduce(or_, [ball[w] for w in adj[v]], b)
                     for v, b in enumerate(ball)]
            if r <= radius_cap:
                for v, b in enumerate(grown):
                    if b != ball[v]:
                        self.masks[v].append(b)
            ball = grown
            self.maxball.append(max(map(int.bit_count, ball)))
        self.caps = list(accumulate(map(self.maxball_at,
                                        range(radius_cap + 1))))

    def maxball_at(self, radius: int) -> int:
        if radius < len(self.maxball):
            return self.maxball[radius]
        return self.largest

    def lower_bound(self) -> int:
        """Largest of the coverage, diameter, and component-count bounds."""
        # staggered balls laid along a diametral path cover at most
        # (2k - 1) + (2k - 3) + ... + 1 = k**2 of its diam + 1 vertices
        return max(len(self.components), ceil_sqrt(max(self.diameters) + 1),
                   bisect_left(self.caps, self.graph.n) + 1)


def _greedy_bound(
    g: Graph,
) -> tuple[BurningSchedule, list[list[int]], list[int], int]:
    """greedy_burn(g), with the components, the largest one and its
    diameter that it finds on the way."""
    components = connected_components(g)
    largest = min(components, key=lambda c: (-len(c), c[0]))
    centre, diameter = center_and_diameter(g, largest)
    return _greedy_from(g, centre), components, largest, diameter


def _realize(g: Graph, planned: list[int | None]) -> list[int]:
    """Turn a cover into a valid schedule of at most len(planned) rounds.

    Walks the process round by round placing each planned center; a
    round with no center, or whose center is already burnt, ignites the
    smallest unburnt vertex instead (the skipped ball burns regardless,
    the stand-in only adds).  Stops early if the fire completes sooner.
    """
    schedule: list[int] = []

    def planned_or_smallest(t: int, burn_round: list[int | None], burnt: int):
        if burnt == g.n or t > len(planned):
            return None
        src = planned[t - 1]
        if src is None or burn_round[src] is not None:
            src = burn_round.index(None)
        schedule.append(src)
        return src

    _, _, burnt = _walk_fire(g, planned_or_smallest)
    if burnt != g.n:
        raise InternalError("cover failed to burn out during realization")
    return schedule


def _search(
    profile: _Profile, k: int, budget: _Budget
) -> BurningSchedule | None:
    n = profile.graph.n
    order = profile.order
    rows = profile.masks
    mb = [profile.maxball_at(r) for r in range(k)]
    comp_mask = profile.comp_mask
    by_radius: list[int | None] = [None] * k
    failed: set[tuple[int, int]] = set()
    spend = budget.spend

    def dfs(uncovered: int, radii: int, cap: int, active: int) -> bool:
        spend()
        if not uncovered:
            return True
        count = uncovered.bit_count()
        if count > cap:
            return False
        key = (uncovered, radii)
        if key in failed:
            return False
        # stay inside the component just worked on while any of it is
        # uncovered; any target keeps the branching complete, and the
        # memo is target-independent, so this only steers the order
        pool = uncovered & active or uncovered
        tbit = pool & -pool
        target = order[tbit.bit_length() - 1]
        tcomp = comp_mask[target]
        available = []
        rest = radii
        while rest:
            low = rest & -rest
            available.append(low.bit_length() - 1)
            rest ^= low
        trow = rows[target]
        rmax = available[-1]
        reach = trow[rmax] if rmax < len(trow) else trow[-1]
        scored: list[tuple[int, int, int, int]] = []
        candidates = reach
        while candidates:
            low = candidates & -candidates
            v = order[low.bit_length() - 1]
            candidates ^= low
            vrow = rows[v]
            stored = len(vrow)
            last_gain = 0
            for r in available:
                mask = vrow[r] if r < stored else vrow[-1]
                if not mask & tbit:
                    continue
                gain = (mask & uncovered).bit_count()
                if gain > last_gain:
                    # a bigger radius with no extra gain is dominated:
                    # swapping the radii with its eventual user only helps
                    if gain + cap - mb[r] >= count:
                        scored.append((-gain, r, v, mask))
                    last_gain = gain
        scored.sort()
        for neg_gain, r, v, mask in scored:
            by_radius[r] = v
            if dfs(uncovered & ~mask, radii ^ (1 << r), cap - mb[r], tcomp):
                return True
            by_radius[r] = None
        if len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    if dfs((1 << n) - 1, (1 << k) - 1, profile.caps[k - 1], 0):
        # radius r acts in round k - r
        planned = [by_radius[k - t] for t in range(1, k + 1)]
        return BurningSchedule.of(_realize(profile.graph, planned))
    return None


def can_burn_in(
    g: Graph, k: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> BurningSchedule | None:
    """Return a complete schedule of length <= k, or None if impossible.

    Raises BudgetExceededError when the search exhausts node_budget
    before settling the question either way.
    """
    if k < 1:
        return None
    heuristic, *census = _greedy_bound(g)
    if len(heuristic) <= k:
        return heuristic
    profile = _Profile(g, *census, radius_cap=k - 1)
    if k < profile.lower_bound():
        return None
    return _search(profile, k, _Budget(node_budget))


def exact_burning_number(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Smallest k admitting a complete schedule, with a verified witness.

    A greedy run pins an upper bound; the search then climbs
    k = lower bound, lower bound + 1, ... under one shared node budget
    until a witness appears or the ladder meets the greedy bound.
    """
    heuristic, *census = _greedy_bound(g)
    ub = len(heuristic)
    profile = _Profile(g, *census, radius_cap=ub - 2)
    budget = _Budget(node_budget)
    for k in range(profile.lower_bound(), ub):
        witness = _search(profile, k, budget)
        if witness is not None:
            return ExactResult(
                k=len(witness), witness=witness, nodes_explored=budget.used
            )
    return ExactResult(k=ub, witness=heuristic, nodes_explored=budget.used)
