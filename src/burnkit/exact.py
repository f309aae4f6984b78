"""Exact burning number search.

Both searches work on the staggered-cover form of the problem: a graph
admits a complete k-round schedule iff centers can be assigned to the
distinct radii k - 1, ..., 0 so that the radius-r balls cover every
vertex.  Covers are easier to branch on than raw schedules because the
already-burnt rule disappears; any cover is turned back into a valid
schedule afterwards by walking the rounds and substituting the smallest
unburnt vertex wherever no live center is planned (a planned center the
fire already reached is covered by the front anyway, so nothing is
lost).

exact_burning_number and can_burn_in are one ladder, _ladder, over
k = low, ..., high: exact_burning_number climbs from 1 to the first k
that works, can_burn_in tries its k alone.  The ladder picks its search
once.  A path forest (every degree at most 2, no cycle) burns in
k rounds iff the odd sizes 1, 3, ..., 2k - 1 split into one group per
path, each group summing to at least the path's order: a radius-r ball
covers at most 2r + 1 vertices of a path, and balls laid end to end
along it cover exactly that.  So a path forest is decided by integer
bin covering on the path orders alone, with no ball masks.  A node
there gives the largest unassigned size to one path; paths with the same
unmet demand are interchangeable, so each distinct demand is tried
once, and a demand equal to the size is the only move tried (the path
that would have taken the size can take this path's later ones).

Every other graph, cycles included, takes the generic cover search,
after greedy: a greedy schedule that fits in the ladder's first k
answers at once, and otherwise caps the ladder below its length and
answers if no k works.  A node there places one radius at one centre.
Branching follows the exact-cover pattern: take the smallest uncovered
vertex, and try every way of covering it, meaning every still-unused
radius r paired with every center within distance r of the vertex.
Each vertex's centres are listed once, nearest first, so a node reads
them off by distance instead of testing balls for the vertex.  Coverage
state is a bitmask, so candidate gains are popcounts.

Both searches share one driver, _drive, and differ in their move rules.
The driver owns the explicit stack and backtracking, the node count
against the one budget of the whole ladder, and the memo of refuted
states, which collapses placements that merely permute each other.  Each
move rule prunes by counting (the sizes or radii left cover at most the
sum of their largest balls, so no move leaves more uncovered) and by
dominance (bin covering's exact fit; in the generic search, a larger
radius offering the same restricted gain as a smaller one at the same
center is never tried: swapping the two radii between centers can only
grow coverage).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate
from operator import or_

from .burning import BurningSchedule, _greedy_census, _walk_fire
from .errors import (DEFAULT_NODE_BUDGET, BudgetExceededError, InternalError,
                     check_node_budget)
from .graph import Graph, center_and_diameter, path_forest
from .intmath import ceil_sqrt

_MEMO_CAP = 500_000
# list slots _Profile.around keeps over a ladder: one per centre listed
# for a target and one per ball padded onto a short row; past it, lists
# are built per node and dropped
_NEAR_CAP = 1_000_000
# _Profile's cap on n * n * (stored radii) mask bits, about 1 GiB
_MAX_MASK_BITS = 2**33


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search: the burning number and a witness."""

    k: int
    witness: BurningSchedule
    nodes_explored: int


class _Profile:
    """Per-graph ball data shared by every attempted k.

    masks[v][r] is the radius-r ball around v as a bitmask, stored up to
    radius_cap or until the ball stops growing, at v's eccentricity,
    whichever comes first; balls only plateau beyond that, so the last
    entry stands in for any larger radius.  Mask bit positions are not
    vertex ids but ranks in a degree-then-id order, so that the search's
    pick-the-lowest-set-bit step lands on the most constrained uncovered
    vertex first.  Balls grow by union, ball_{r+1}(v) = ball_r(v) |
    ball_r(w) over neighbours w, so no BFS runs per vertex.  Only the
    widest diameter is read: the largest component's from greedy's
    census, then the others', by center_and_diameter, in falling order
    of reach = min(c - 1, inner + 1) for c vertices of which inner have
    degree >= 2, as a diametral path's inner vertices do, until one has
    reach <= widest: no later one is wider.  A connected graph searches
    no centre here.

    maxball[r], the largest radius-r ball, is exact through radius_cap + 1
    and past it overstated as the largest component.  caps[j], the most
    vertices balls of radii 0..j can cover, is kept through radius_cap,
    so the coverage bound reads radius_cap + 2 wherever it is larger.
    That is enough: the ladder up to k = high (radius_cap = high - 1)
    reads radii below high, and lower_bound() is exact wherever it is
    at most high.

    Masks take up to n bits for each vertex and stored radius; a graph
    whose masks could pass _MAX_MASK_BITS is refused with
    BudgetExceededError before any is built: checked with the widest so
    far, never too high, before each centre search and after the last.

    around(t) lists every centre in a search target t's stored balls,
    nearest first: ring j is masks[t][j] minus masks[t][j - 1].  Each
    centre comes with its row padded to radius_cap + 1 balls, so the
    search indexes it by radius alone.  A target's list is built whole
    on first use and kept for every later node and k of the ladder while
    the slots kept stay under _NEAR_CAP.
    """

    __slots__ = ("graph", "order", "masks", "maxball", "largest", "caps",
                 "components", "comp_mask", "widest", "width", "near",
                 "kept")

    def __init__(self, g: Graph, components: list[list[int]],
                 largest: list[int], diameter: int, radius_cap: int) -> None:
        n = g.n
        adj = g.adjacency
        self.graph = g
        self.components = len(components)
        self.largest = len(largest)
        widest = diameter  # no ball grows past this radius

        def reach(comp: list[int]) -> int:  # bounds comp's diameter
            return min(len(comp) - 1, sum(len(adj[v]) > 1 for v in comp) + 1)

        walk = iter(sorted((c for c in components if c is not largest),
                           key=reach, reverse=True))
        while True:
            bits = n * n * (min(radius_cap, widest) + 1)
            if bits > _MAX_MASK_BITS:
                raise BudgetExceededError(
                    f"ball masks of up to {bits} bits exceed the limit of "
                    f"{_MAX_MASK_BITS}",
                    nodes_explored=0,
                )
            comp = next(walk, ())  # () ends the walk
            if reach(comp) <= widest:  # and no later one is wider
                break
            widest = max(widest, center_and_diameter(g, comp)[1])
        self.widest = widest
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
        self.width = radius_cap + 1
        self.near: list[list | None] = [None] * n  # around's lists
        self.kept = 0

    def around(self, target: int) -> list[tuple[int, int, list[int]]]:
        """(d, centre, row) for every centre in target's stored balls,
        nearest first: d is the centre's distance and row its balls, the
        last repeated up to radius radius_cap where the row stops short."""
        near = self.near[target]
        if near is not None:
            return near
        order, masks, width = self.order, self.masks, self.width
        near, size, inner = [], 0, 0
        for d, ball in enumerate(masks[target]):
            ring, inner = ball ^ inner, ball
            while ring:
                low = ring & -ring
                ring ^= low
                v = order[low.bit_length() - 1]
                row = masks[v]
                if len(row) < width:
                    size += width - len(row)
                    row = row + [row[-1]] * (width - len(row))
                near.append((d, v, row))
        size += len(near)
        if self.kept + size <= _NEAR_CAP:
            self.kept += size
            self.near[target] = near
        return near

    def maxball_at(self, radius: int) -> int:
        if radius < len(self.maxball):
            return self.maxball[radius]
        return self.largest

    def lower_bound(self) -> int:
        """Largest of the coverage, diameter, and component-count bounds."""
        # staggered balls laid along a diametral path cover at most
        # (2k - 1) + (2k - 3) + ... + 1 = k**2 of its diam + 1 vertices
        return max(self.components, ceil_sqrt(self.widest + 1),
                   bisect_left(self.caps, self.graph.n) + 1)


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


def _drive(root: tuple, moves_of, child, used: int,
           limit: int) -> tuple[list[tuple] | None, int]:
    """The (key, chosen move) pairs from root to a goal, or None once
    every branch has failed, and used plus one per node visited.

    A state is a (key, hint) pair.  moves_of(key, hint) lists the moves,
    the first to try last, or is None at a goal; child(key, move) is the
    next state.  Up to _MEMO_CAP refuted keys are remembered; the hint
    only steers the moves, so it stays out of the memo."""
    failed: set = set()
    stack: list[tuple] = []  # open (key, moves) nodes, each on moves[-1]
    key, hint = root
    while True:
        used += 1
        if used > limit:
            raise BudgetExceededError(
                f"search budget of {limit} nodes exhausted",
                nodes_explored=used,
            )
        moves = ()
        if key not in failed:
            moves = moves_of(key, hint)
            if moves is None:
                return [(node, tried[-1]) for node, tried in stack], used
            if not moves and len(failed) < _MEMO_CAP:
                failed.add(key)
        if moves:
            stack.append((key, moves))
        else:
            # the move that led here failed; a node out of moves fails too
            while stack:
                key, moves = stack[-1]
                moves.pop()
                if moves:
                    break
                stack.pop()
                if len(failed) < _MEMO_CAP:
                    failed.add(key)
            else:
                return None, used
        key, hint = child(key, moves[-1])


def _search(profile: _Profile, k: int, used: int,
            limit: int) -> tuple[BurningSchedule | None, int]:
    """A k-round schedule or None, and used plus one per node visited.
    A key is (uncovered, radii), both bitmasks."""
    mb = [profile.maxball_at(r) for r in range(k)]
    order, around, comp_mask = profile.order, profile.around, profile.comp_mask
    widest = profile.widest  # no centre lies farther from a target
    # radii mask -> for each distance d a centre can lie at, its radii
    # r >= d, ascending; and the most vertices its radii cover
    free: dict[int, tuple[list[list[int]], int]] = {}

    def moves_of(key: tuple[int, int], active: int) -> list | None:
        """Pick the target vertex and list its moves, best last.

        A move is (-gain, radius, centre, ball).  The target stays in the
        component just worked on (the hint, active) while any of it is
        uncovered: any target keeps the branching complete and the memo
        is target-independent, so this only steers the order."""
        uncovered, radii = key
        if not uncovered:
            return None
        if radii not in free:
            available = [r for r in range(k) if radii >> r & 1]
            reach = [available]
            for d in range(1, min(available[-1], widest) + 1):
                rs = reach[-1]  # distinct radii: one drops out at most
                reach.append(rs[1:] if rs[0] < d else rs)
            free[radii] = reach, sum(mb[r] for r in available)
        reach, cap = free[radii]
        farthest = len(reach) - 1
        # count <= cap always: true at the root, and every move keeps it
        count = uncovered.bit_count()
        pool = uncovered & active or uncovered
        moves: list[tuple[int, int, int, int]] = []
        for d, v, row in around(order[(pool & -pool).bit_length() - 1]):
            if d > farthest:
                break
            last_gain = 0
            for r in reach[d]:
                mask = row[r]
                gain = (mask & uncovered).bit_count()
                if gain > last_gain:
                    # a bigger radius with no extra gain is dominated:
                    # swapping the radii with its eventual user only helps
                    if gain + cap - mb[r] >= count:
                        moves.append((-gain, r, v, mask))
                    last_gain = gain
        moves.sort(reverse=True)
        return moves

    def child(key: tuple[int, int], move: tuple) -> tuple:
        (uncovered, radii), (_, r, v, mask) = key, move
        # a centre shares its target's component
        return (uncovered & ~mask, radii ^ 1 << r), comp_mask[v]

    root = ((1 << profile.graph.n) - 1, (1 << k) - 1), 0
    chosen, used = _drive(root, moves_of, child, used, limit)
    if chosen is None:
        return None, used
    planned: list[int | None] = [None] * k
    for _, (_, r, v, _) in chosen:
        planned[k - 1 - r] = v  # radius r acts in round k - r
    return BurningSchedule.of(_realize(profile.graph, planned)), used


def _cover_paths(g: Graph, paths: list[list[int]], k: int, used: int,
                 limit: int) -> tuple[BurningSchedule | None, int]:
    """A k-round schedule of the path forest g or None, and used plus one
    per node visited.

    The sizes 2k - 1, ..., 3, 1 are split into one group per path, each
    summing to at least the path's order.  A node's key is (r, unmet
    demands), its moves the distinct demands size 2r + 1 can go to,
    largest tried first.  Demands are (demand, paths with it) pairs,
    ascending, so a node costs the distinct demands, not the paths; its
    hint is the same demands as a dict, built once by the child step.
    """

    def moves_of(key: tuple[int, tuple], counts: dict) -> list | None:
        r, demands = key
        if not demands:
            return None
        size = 2 * r + 1
        if size in counts:
            # an exact fit dominates: whichever path the size would
            # go to instead can take this path's later sizes
            return [size]
        # the counting prune, one level ahead (the ladder's lower
        # bound covers the root): the smaller sizes sum to r * r,
        # so this one may overshoot its path by the slack at most,
        # and it must close a path if as many are open as sizes left
        low = size - (r + 1) ** 2 + sum(d * c for d, c in demands)
        high = size if sum(counts.values()) > r else demands[-1][0]
        return [d for d, _ in demands if low <= d <= high]

    def child(key: tuple[int, tuple], d: int) -> tuple:
        r, demands = key
        counts = dict(demands)
        counts[d] -= 1
        if not counts[d]:
            del counts[d]
        if d > 2 * r + 1:
            counts[d - 2 * r - 1] = counts.get(d - 2 * r - 1, 0) + 1
        return (r - 1, tuple(sorted(counts.items()))), counts

    counts: dict[int, int] = {}
    for path in paths:
        counts[len(path)] = counts.get(len(path), 0) + 1
    root = (k - 1, tuple(sorted(counts.items()))), counts
    chosen, used = _drive(root, moves_of, child, used, limit)
    if chosen is None:
        return None, used
    # give each chosen size to a path with the demand it chose, laying
    # each path's balls end to end, largest first
    planned: list[int | None] = [None] * k
    start = [0] * len(paths)  # each path's first uncovered vertex
    waiting: dict[int, list[int]] = {}  # demand -> paths with it
    for j, path in enumerate(paths):
        waiting.setdefault(len(path), []).append(j)
    for (r, _), d in chosen:
        path = paths[j := waiting[d].pop()]
        planned[k - 1 - r] = path[min(start[j] + r, len(path) - 1)]
        start[j] += 2 * r + 1
        if start[j] < len(path):
            waiting.setdefault(len(path) - start[j], []).append(j)
    return BurningSchedule.of(_realize(g, planned)), used


def _ladder(
    g: Graph, node_budget: int, low: int, high: int,
    paths: list[list[int]] | None,
) -> tuple[BurningSchedule | None, int]:
    """The first schedule found at k = low, low + 1, ..., high, and the
    nodes spent, every attempted k sharing one node budget.

    paths, g's paths when it is a path forest, picks bin covering, whose
    ladder starts at max(components, ceil(sqrt(n))) and ends in None.
    Any other graph takes the cover search: greedy's census comes first,
    a greedy schedule of at most low rounds is the answer at once, the
    ladder starts at the profile's lower bound and stops below greedy's
    length, and ends in greedy's schedule.
    """
    heuristic = None
    if paths is not None:
        bound = max(len(paths), ceil_sqrt(g.n))
        search = partial(_cover_paths, g, paths)
    else:
        heuristic, *census = _greedy_census(g)
        if len(heuristic) <= low:
            return heuristic, 0
        high = min(high, len(heuristic) - 1)
        profile = _Profile(g, *census, radius_cap=high - 1)
        bound = profile.lower_bound()
        search = partial(_search, profile)
    used = 0
    for k in range(max(low, bound), high + 1):
        witness, used = search(k, used, node_budget)
        if witness is not None:
            return witness, used
    return heuristic, used


def _optimum(g: Graph, node_budget: int,
             paths: list[list[int]] | None) -> ExactResult:
    """The ladder from k = 1, whose first schedule is a minimum one: a
    path forest's ladder reaches k = n, where every graph burns, and any
    other graph's ends in greedy's schedule."""
    witness, used = _ladder(g, node_budget, 1, g.n, paths)
    return ExactResult(k=len(witness), witness=witness, nodes_explored=used)


def _generic_ladder(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """exact_burning_number by the cover search, for any graph."""
    return _optimum(g, node_budget, None)


def can_burn_in(
    g: Graph, k: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> BurningSchedule | None:
    """Return a complete schedule of length <= k, or None if impossible.

    Raises BudgetExceededError when the search exhausts node_budget
    before settling the question either way, and InputError on a
    node_budget below 0.
    """
    check_node_budget(node_budget)
    if k < 1:
        return None
    k = min(k, g.n)  # no schedule has more than n sources
    witness, _ = _ladder(g, node_budget, k, k, path_forest(g))
    return witness if witness is not None and len(witness) <= k else None


def exact_burning_number(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Smallest k admitting a complete schedule, with a verified witness.

    A path forest climbs k by bin covering, any other graph by the cover
    search (see _ladder); either way one node budget covers the ladder,
    and a node_budget below 0 is refused with InputError.
    """
    check_node_budget(node_budget)
    return _optimum(g, node_budget, path_forest(g))
