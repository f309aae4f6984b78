"""Core graph type, generators, and distance queries.

Vertices are always the integers 0..n-1.  Graphs are simple, undirected,
and immutable once built; adjacency lists are kept sorted so that every
traversal in the package is deterministic.

`Graph(n, edges)` is the one validating constructor: files, the CLI and
library callers go through it.  The generators below build their rows
directly and hand them to `Graph._of_rows`, which checks nothing.  It
trusts the row invariant that `Graph(n, edges)` establishes: a tuple
with one tuple per vertex, each sorted ascending, free of duplicates
and of the vertex itself, and symmetric (w in row v iff v in row w).
So a generator's graph is the one `Graph(g.n, list(g.edges()))` would
build: equal adjacency, m and hash.  `interval_reduction.construct_ig`
builds its caterpillar's rows the same way, from the gadget's segment
model.

A generator's rows also share one int object per vertex id: they are
cut from one `list(range(n))`, not filled with a fresh int per entry,
so a walk over a grid touches n int objects rather than about 4n.
That holds for the generators only (and the caterpillar's spine rows).
`Graph(n, edges)` keeps the ints its caller passed: interning them
there measured no gain on trees or parsed files.

`interval_graph_is(rep, g)` decides whether g is exactly the
intersection graph of an interval representation without building
one: it counts the meeting pairs in one endpoint sweep and tests each
of g's edges.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GraphError

VertexSet = frozenset[int]

UNREACHED = -1

# _check_order's cap on n, checked before allocating; 450x450 grids fit
_MAX_READ_ORDER = 1_000_000
_OWN_ROWS_SHARE = 128  # see center_and_diameter
# interval and permutation graphs' cap on m, counted as they are swept;
# a 1000x1000 grid has 1,998,000 edges and both gadgets stay near 1M
_MAX_SWEPT_EDGES = 2_000_000


class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1.

    `adjacency[v]` is v's row: a tuple of its neighbours, sorted
    ascending, without duplicates or v itself, and symmetric across
    rows.  The constructor checks every edge and drops repeats; the
    generators build rows meeting that invariant and skip the checks
    through `_of_rows`.
    """

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        # a non-integer n or id fails a comparison, range() or an index
        # below; catching that here costs nothing per edge
        try:
            if n < 1:
                raise GraphError(f"graph needs at least one vertex, got n={n}")
            adj: list[list[int]] = [[] for _ in range(n)]
            seen: set[tuple[int, int]] = set()
            m = 0
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise GraphError(f"self-loop at vertex {u}")
                key = (u, v) if u < v else (v, u)
                if key in seen:
                    continue
                seen.add(key)
                adj[u].append(v)
                adj[v].append(u)
                m += 1
        except (TypeError, ValueError) as exc:
            raise GraphError(
                f"a graph needs an integer n and (u, v) pairs of integer "
                f"ids: {exc}"
            ) from None
        self.n = n
        self._m = m
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(ns)) for ns in adj
        )

    @classmethod
    def _of_rows(cls, rows: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph whose adjacency is `rows`, taken on trust.

        For generators only: rows must already meet the class invariant
        (sorted, duplicate-free, loop-free, symmetric tuples), since
        nothing here checks it.  The generators also pass rows that hold
        one int object per vertex id; `Graph(n, edges)` does not
        promise that.
        """
        g = cls.__new__(cls)
        g.n = len(rows)
        g._m = sum(map(len, rows)) // 2
        g._adj = rows
        return g

    @property
    def m(self) -> int:
        return self._m

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class IntervalRepresentation:
    """Closed integer intervals, one per vertex id; overlap means adjacency."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for i, (lo, hi) in enumerate(self.intervals):
            if lo > hi:
                raise GraphError(f"interval {i} has left {lo} > right {hi}")

    def __len__(self) -> int:
        return len(self.intervals)


# --- generators ---------------------------------------------------------


def _path_rows(
    ids: list[int], lo: int, t: int,
    up: tuple[int, ...] = (), down: tuple[int, ...] = (),
) -> list[tuple[int, ...]]:
    """Rows of the path lo, lo+1, ..., lo+t-1, in id order.

    Every vertex v of it is also joined to v + s for each offset s in
    `up` (negative) and `down` (positive).  Unless t == 1 the offsets
    lie outside -1..1, so each row comes out sorted.  Entries are taken
    from `ids`, the list of every id of the graph, so a row holds the
    graph's one int object per vertex rather than a fresh one.
    """
    hi = lo + t
    if t == 1:
        spans = [(lo, hi, up + down)]
    else:
        spans = [(lo, lo + 1, up + (1,) + down),
                 (lo + 1, hi - 1, up + (-1, 1) + down),
                 (hi - 1, hi, up + (-1,) + down)]
    rows: list[tuple[int, ...]] = []
    for a, b, offsets in spans:
        if offsets:
            rows.extend(zip(*(ids[a + s:b + s] for s in offsets)))
        else:
            rows.extend([()] * (b - a))
    return rows


def build_path(n: int) -> Graph:
    """Path on n vertices: 0-1-...-(n-1)."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return Graph._of_rows(tuple(_path_rows(list(range(n)), 0, n)))


def build_grid(rows: int, cols: int) -> Graph:
    """rows x cols grid; cell (r, c) is vertex r*cols + c, 4-neighborhood."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive sides, got {rows}x{cols}")
    ids = list(range(rows * cols))
    adj: list[tuple[int, ...]] = []
    for r in range(rows):
        # each grid row is a path, joined to the grid rows above and below
        adj.extend(_path_rows(ids, r * cols, cols,
                              (-cols,) if r else (),
                              (cols,) if r + 1 < rows else ()))
    return Graph._of_rows(tuple(adj))


def build_path_forest(lengths: Sequence[int]) -> Graph:
    """Disjoint union of paths with the given orders, ids consecutive."""
    if not lengths:
        raise GraphError("path forest needs at least one component")
    for t in lengths:
        if t < 1:
            raise GraphError(f"component order must be >= 1, got {t}")
    # one path through every id, cut between consecutive components
    n = sum(lengths)
    adj = _path_rows(list(range(n)), 0, n)
    cut = 0
    for t in lengths[:-1]:
        cut += t
        adj[cut - 1] = adj[cut - 1][:-1]
        adj[cut] = adj[cut][1:]
    return Graph._of_rows(tuple(adj))


def build_comb(spine: int) -> Graph:
    """Path of the given order with one leaf on every interior vertex.

    Spine ids run 0..spine-1 in path order; leaf ids follow, attached to
    hosts 1, 2, ..., spine-2 in that order.
    """
    if spine < 1:
        raise GraphError(f"comb needs a positive spine, got {spine}")
    if spine < 3:  # no interior vertex, so no leaf
        return build_path(spine)
    # host h sits between h-1 and h+1 and carries leaf spine+h-1, whose
    # row is h alone
    ids = list(range(2 * spine - 2))
    return Graph._of_rows((
        (ids[1],),
        *zip(ids[:spine - 2], ids[2:spine], ids[spine:]),
        (ids[spine - 2],),
        *zip(ids[1:spine - 1]),
    ))


def build_interval_graph(rep: IntervalRepresentation) -> Graph:
    """Intersection graph of closed intervals: edge iff the intervals meet."""
    n = len(rep)
    if n < 1:
        raise GraphError("interval representation is empty")
    order = sorted(range(n), key=lambda i: (rep.intervals[i][0], i))
    active: list[int] = []  # ids whose interval may still overlap later ones
    adj: list[list[int]] = [[] for _ in range(n)]
    m = 0
    # each pair meets once: when the later-starting interval is swept
    for i in order:
        lo, _ = rep.intervals[i]
        active = [j for j in active if rep.intervals[j][1] >= lo]
        m += len(active)
        if m > _MAX_SWEPT_EDGES:
            raise GraphError(f"interval graph exceeds the limit of "
                             f"{_MAX_SWEPT_EDGES} edges")
        for j in active:
            adj[j].append(i)
        adj[i].extend(active)
        active.append(i)
    return Graph._of_rows(tuple(tuple(sorted(row)) for row in adj))


def interval_graph_is(rep: IntervalRepresentation, g: Graph) -> bool:
    """Whether g is exactly the intersection graph of rep's intervals.

    No adjacency is built.  One sort of the 2n endpoint keys counts the
    meeting pairs: a start is 2*lo and an end 2*hi + 1, so at a shared
    point starts come first and touching closed intervals meet.  Each
    start meets every interval still open, itself included, so the
    open counts summed over the starts, minus n, are the meeting pairs.
    When that equals g.m and each of g's m distinct edges joins two
    meeting intervals, g's edges are all the meeting pairs.
    """
    spans = rep.intervals
    n = len(spans)
    if n != g.n:
        return False
    keys = [2 * lo for lo, _ in spans]
    keys += [2 * hi + 1 for _, hi in spans]
    keys.sort()
    meeting = -n
    open_now = 0
    for key in keys:
        if key & 1:
            open_now -= 1
        else:
            open_now += 1
            meeting += open_now
    if meeting != g.m:
        return False
    for u, row in enumerate(g.adjacency):
        lo, hi = spans[u]
        for v in row:
            if v > u and (spans[v][0] > hi or lo > spans[v][1]):
                return False
    return True


def build_permutation_graph(size: int, perm: Sequence[int]) -> Graph:
    """Inversion graph of a permutation of 1..size.

    Vertex i-1 stands for value i; values i < j are adjacent exactly when
    j appears before i in the permutation.
    """
    if size < 1:
        raise GraphError(f"permutation graph needs size >= 1, got {size}")
    if len(perm) != size or sorted(perm) != list(range(1, size + 1)):
        raise GraphError(f"not a permutation of 1..{size}")
    # sweep left to right: the larger values already seen are exactly
    # the ones that invert against the current value, each pair once
    ids = list(range(size))
    seen: list[int] = []  # the vertices of the values seen, ascending
    adj: list[list[int]] = [[] for _ in range(size)]
    m = 0
    for value in perm:
        v = ids[value - 1]
        at = bisect_right(seen, v)
        m += len(seen) - at  # the inversions value adds
        if m > _MAX_SWEPT_EDGES:
            raise GraphError(f"permutation graph exceeds the limit of "
                             f"{_MAX_SWEPT_EDGES} edges")
        row = adj[v]
        for w in seen[at:]:
            row.append(w)
            adj[w].append(v)
        seen.insert(at, v)
    return Graph._of_rows(tuple(tuple(sorted(row)) for row in adj))


# --- distance queries ---------------------------------------------------


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int]:
    """Distance from the nearest source, UNREACHED where disconnected."""
    dist = [UNREACHED] * g.n
    q: deque[int] = deque()
    for s in sources:
        if not 0 <= s < g.n:
            raise GraphError(f"source {s} out of range for n={g.n}")
        if dist[s] == UNREACHED:
            dist[s] = 0
            q.append(s)
    if not q:
        raise GraphError("no sources given")
    adj = g.adjacency
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] == UNREACHED:
                dist[w] = du
                q.append(w)
    return dist


def ball_distances(
    g: Graph, around: Iterable[int], radius: int
) -> dict[int, int]:
    """Hop distance from the seed set for every vertex within radius."""
    if radius < 0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    dist: dict[int, int] = {}
    for s in around:
        if not 0 <= s < g.n:
            raise GraphError(f"seed {s} out of range for n={g.n}")
        dist[s] = 0
    if not dist:
        raise GraphError("ball needs a nonempty seed set")
    q: deque[int] = deque(dist)
    adj = g.adjacency
    while q:
        u = q.popleft()
        du = dist[u] + 1
        if du > radius:
            break
        for w in adj[u]:
            if w not in dist:
                dist[w] = du
                q.append(w)
    return dist


def ball(g: Graph, around: Iterable[int], radius: int) -> VertexSet:
    """All vertices within the given hop distance of the seed set."""
    return frozenset(ball_distances(g, around, radius))


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted id lists, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        q = deque([s])
        while q:
            u = q.popleft()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    q.append(w)
        comps.append(sorted(comp))
    return comps


def path_forest(g: Graph) -> list[list[int]] | None:
    """g's components as vertex lists in path order, or None unless g is
    a path forest: every degree at most 2 and no cycle (a cycle has no
    end, so the walks from the ends miss it).  Each path starts at its
    smaller end, and the paths come in the order of those ends."""
    adj = g.adjacency
    if any(map((2).__lt__, map(len, adj))):
        return None
    paths: list[list[int]] = []
    ends: set[int] = set()  # far ends of the paths walked so far
    for s in range(g.n):
        if len(adj[s]) == 2 or s in ends:
            continue
        path = [s]
        if adj[s]:
            prev, v = s, adj[s][0]
            path.append(v)
            while len(adj[v]) == 2:
                a, b = adj[v]
                prev, v = v, b if a == prev else a
                path.append(v)
        ends.add(path[-1])
        paths.append(path)
    return paths if sum(map(len, paths)) == g.n else None


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def center_and_diameter(
    g: Graph, component: Sequence[int]
) -> tuple[int, int]:
    """Vertex of least eccentricity (smallest id on ties) and diameter.

    An exact eccentricity-bound search (Takes and Kosters, 2013): a BFS
    from u gives ecc(u), and for every v at distance d from u it bounds
    max(d, ecc(u) - d) <= ecc(v) <= ecc(u) + d.  BFS runs alternate
    between the likeliest centre (least lower bound, smallest id) and
    the likeliest diameter end (greatest upper bound), and stop once the
    least (lower bound, id) is an exact eccentricity and no upper bound
    exceeds the greatest lower bound.  A handful of runs settles paths,
    trees and grids; a graph whose vertices all share one eccentricity
    needs n.  A cycle, a component whose every vertex has degree 2, is
    one such graph and takes a closed form instead: each of its
    vertices has eccentricity len // 2, so its smallest id is the
    centre.  The vertex list must be exactly one component, or
    GraphError is raised.

    A BFS over g allocates and scans g.n entries, so a component of
    under g.n / _OWN_ROWS_SHARE vertices is searched on its own rows,
    relabelled 0..len - 1 in id order (the break-even lies between a
    64th and a 256th of g.n): one search per component of a forest of
    many small ones then costs linear time in all, not components * n.
    """
    ids = labels = sorted(component)
    if (ids and len(ids) * _OWN_ROWS_SHARE < g.n
            and 0 <= ids[0] and ids[-1] < g.n):
        index = {v: i for i, v in enumerate(ids)}
        try:  # id order is kept, so each relabelled row stays sorted
            rows = tuple(tuple(index[w] for w in g.adjacency[v]) for v in ids)
        except KeyError:  # an edge leaves the ids
            rows = ()
        if not len(rows) == len(index) == len(ids):
            raise GraphError("centre search needs exactly one component")
        g, ids = Graph._of_rows(rows), range(len(ids))
    dist = bfs_distances(g, ids[:1])
    # one whole component: distinct vertices of g, as many as the BFS
    # from the first one reached, and each of them reached
    if (ids[-1] >= g.n or len(set(ids)) != len(ids)
            or dist.count(UNREACHED) != g.n - len(ids)
            or any(dist[v] == UNREACHED for v in ids)):
        raise GraphError("centre search needs exactly one component")
    adj = g.adjacency
    if all(len(adj[v]) == 2 for v in ids):
        return labels[0], len(ids) // 2
    import numpy as np  # loaded only where a centre or diameter is needed

    lo = np.zeros(len(ids), dtype=np.int32)
    # above any ecc(u) + d, so the first diameter pick is the farthest
    hi = np.full(len(ids), 2 * len(ids), dtype=np.int32)
    toward_centre = False  # the first run, from ids[0], took the centre turn
    while True:
        # only the component's entries go to numpy, not all n
        d = np.array([dist[v] for v in ids], dtype=np.int32)
        e = d.max()
        np.maximum(lo, np.maximum(d, e - d), out=lo)
        np.minimum(hi, e + d, out=hi)
        c = int(lo.argmin())  # the first minimum: smallest id
        centre_open = lo[c] != hi[c]
        diameter_open = lo.max() != hi.max()
        if not (centre_open or diameter_open):
            return labels[c], int(lo.max())
        if centre_open and (toward_centre or not diameter_open):
            u = c
        else:
            u = int(hi.argmax())
        toward_centre = not toward_centre
        dist = bfs_distances(g, (ids[u],))


def radical_center(g: Graph, component: Sequence[int] | None = None) -> int:
    """Vertex of minimum eccentricity; smallest id wins ties.

    With a component, the search stays inside it; without one, the graph
    must be connected.
    """
    if component is None:
        if not is_connected(g):
            raise GraphError("radical center needs a connected graph")
        component = range(g.n)
    return center_and_diameter(g, component)[0]


# --- text formats -------------------------------------------------------


def write_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _check_order(n: int, what: str) -> None:
    """Refuse a `what` of n vertices, before it is read or built."""
    if n > _MAX_READ_ORDER:
        raise GraphError(f"{what} of {n} vertices exceeds the limit of "
                         f"{_MAX_READ_ORDER}")


def read_graph(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise GraphError("graph text must start with a line 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
        edges = [(int(a), int(b)) for a, b in rows[1:]]
    except ValueError as exc:
        raise GraphError(f"unparsable graph text: {exc}") from None
    _check_order(n, "graph")
    if len(edges) != m:
        raise GraphError(f"header claims {m} edges, found {len(edges)}")
    for u, v in edges:
        if not u < v:
            raise GraphError(f"edge lines must have u < v, got {u} {v}")
    g = Graph(n, edges)
    if g.m != m:  # Graph drops a repeated line; the header counted it
        raise GraphError(f"header claims {m} edges, found {g.m} distinct "
                         f"ones: an edge line repeats")
    return g


def write_intervals(rep: IntervalRepresentation) -> str:
    lines = [
        f"{i} {lo} {hi}" for i, (lo, hi) in enumerate(rep.intervals)
    ]
    return "\n".join(lines) + "\n"


def read_intervals(text: str) -> IntervalRepresentation:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise GraphError("interval text is empty")
    spans: dict[int, tuple[int, int]] = {}
    try:
        for row in rows:
            ident, lo, hi = (int(x) for x in row)
            spans[ident] = (lo, hi)
    except ValueError as exc:
        raise GraphError(f"unparsable interval text: {exc}") from None
    n = len(rows)
    if sorted(spans) != list(range(n)):
        raise GraphError("interval ids must be exactly 0..n-1, once each")
    return IntervalRepresentation(tuple(spans[i] for i in range(n)))
