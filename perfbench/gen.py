"""Seeded input generators and independent oracles.

Nothing here imports burnkit: inputs are plain specs (vertex counts,
edge lists, component orders, 3-partition elements), and the oracles
used to check outputs (diameters, lower bounds, partition checks) are
computed from those specs on their own terms.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from math import isqrt


def ceil_sqrt(x: int) -> int:
    r = isqrt(x)
    return r if r * r == x else r + 1


# --- graphs ---------------------------------------------------------------


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree: vertex i hangs off a uniform earlier vertex."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def sparse_connected(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random recursive tree plus n // 4 extra distinct random edges."""
    edges = {tuple(sorted(e)) for e in random_tree(rng, n)}
    tree_edges = len(edges)
    while len(edges) < tree_edges + n // 4:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def tight_forest(rng: random.Random, k: int) -> list[int]:
    """Component orders that group the odd sizes 1, 3, ..., 2k - 1.

    The forest has k * k vertices, k rounds burn it (one ball per odd
    size, laid along its component) and k - 1 rounds burn at most
    (k - 1) ** 2 vertices, so its burning number is exactly k.
    """
    sizes = list(range(1, 2 * k, 2))
    rng.shuffle(sizes)
    orders = [sizes[0]]
    for s in sizes[1:]:
        if rng.random() < 0.35:
            orders.append(s)
        else:
            orders[-1] += s
    return orders


def eccentricities(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Eccentricity of every vertex of a connected graph, by plain BFS."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        if min(dist) < 0:
            raise ValueError("graph is not connected")
        out.append(max(dist))
    return out


def tree_diameter(n: int, edges: list[tuple[int, int]]) -> int:
    """Diameter of a tree by double sweep."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def farthest(s: int) -> tuple[int, int]:
        dist = [-1] * n
        dist[s] = 0
        q = deque([s])
        last = s
        while q:
            last = u = q.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return last, dist[last]

    end, _ = farthest(0)
    return farthest(end)[1]


def path_lower_bound(diameter: int) -> int:
    """k balls of radii k-1..0 cover at most k*k vertices of a geodesic."""
    return ceil_sqrt(diameter + 1)


def grid_cover_bound(rows: int, cols: int) -> int:
    """Smallest k whose staggered Manhattan balls can hold rows*cols cells.

    Radii k-1, ..., 0 hold at most sum(2r^2 + 2r + 1) = (2k^3 + k) / 3.
    """
    k = 1
    while 2 * k**3 + k < 3 * rows * cols:
        k += 1
    return k


def optimal_path_schedule(k: int) -> list[int]:
    """A k-round schedule burning the path on k*k vertices.

    Round i ignites the middle of the next run of 2(k - i) + 1 vertices.
    """
    sources, start = [], 0
    for i in range(1, k + 1):
        radius = k - i
        sources.append(start + radius)
        start += 2 * radius + 1
    return sources


# --- 3-partition ----------------------------------------------------------


def _in_window(values, target: int) -> bool:
    return all(4 * a > target and 2 * a < target for a in values)


def planted_target(m: int) -> int:
    """Triple sum B for planted instances with largest element m.

    The smallest B >= 2m + 3 that leaves two ways to complete the
    triple holding m; it depends on m alone.
    """
    def firsts(b: int) -> int:
        return sum(1 for x in range(b // 4 + 1, m) if x < b - m - x < m)

    return next(b for b in range(2 * m + 3, 3 * m) if firsts(b) >= 2)


def solvable_instance(rng: random.Random, n: int, m: int) -> list[int]:
    """n planted triples with common sum B = planted_target(m), shuffled.

    Elements are distinct values in the window (B/4, B/2) and the
    largest is m.  B depends on m alone, so the gadgets built from the
    instance have the same size for every seed (the permutation
    gadget's fillers always add up to m*m - n(2B - 3)); the seed draws
    which values form the triples and their order.  Each triple is
    drawn from all triples of unused values that sum to B; a dead end
    starts over, which costs well under a millisecond.
    """
    target = planted_target(m)
    window = range(target // 4 + 1, m)
    for _ in range(1000):
        x = rng.choice([x for x in window if x < target - m - x < m])
        triples = [(x, target - m - x, m)]
        free = set(window) - set(triples[0])
        while len(triples) < n:
            vals = sorted(free)
            options = [(a, b, target - a - b)
                       for i, a in enumerate(vals) for b in vals[i + 1:]
                       if b < target - a - b and target - a - b in free]
            if not options:
                break
            triples.append(rng.choice(options))
            free -= set(triples[-1])
        else:
            elements = [v for t in triples for v in t]
            if not _in_window(elements, target):
                raise AssertionError("planted instance left its window")
            rng.shuffle(elements)
            return elements
    raise ValueError(f"no planted instance of {n} triples with largest {m}")


def structured_instance(
    rng: random.Random, n: int, slack: int = 3
) -> list[int]:
    """n triples (a+i, b+i, c-2i) from three disjoint runs, shuffled.

    Random gaps between the runs change the values, not the shape, so
    the solver does the same amount of work for every seed at a given n.
    """
    r1, r2, r3 = (rng.randint(0, slack) for _ in range(3))
    a = 5 * n + 2 * r2 + r3 + 1 + r1
    b = a + n + r2
    c = b + 3 * n + r3
    elements = [x for i in range(n) for x in (a + i, b + i, c - 2 * i)]
    if not _in_window(elements, a + b + c):
        raise AssertionError("structured instance left its window")
    rng.shuffle(elements)
    return elements


def has_3partition(elements: list[int]) -> bool:
    """Exhaustive check, for a handful of elements only."""
    els = sorted(elements)
    n, total = len(els) // 3, sum(els)
    if n == 0 or len(els) % 3 or total % n:
        return False
    target = total // n

    def split(rest: tuple[int, ...]) -> bool:
        if not rest:
            return True
        head = rest[0]
        for i, j in itertools.combinations(range(1, len(rest)), 2):
            if head + rest[i] + rest[j] == target:
                left = tuple(
                    x for p, x in enumerate(rest) if p not in (0, i, j)
                )
                if split(left):
                    return True
        return False

    return split(tuple(els))


def unsolvable_instance(rng: random.Random, n: int) -> list[int]:
    """An instance with no 3-partition, shifted by a seeded amount.

    The base is the gapless solvable instance with largest element
    10n + 3, with d units moved from one element to another: the first
    move, in a fixed order, that keeps the elements distinct and in the
    window and that the exhaustive check finds unsolvable.  The base
    does not depend on the seed, so neither does the cost of finding it.
    Adding t to every element and 3t to the target maps triples to
    triples and keeps the window, so the shifted instance is unsolvable
    too.
    """
    m = 10 * n + 3
    base = sorted(
        x for i in range(n) for x in (m - 4 * n + i, m - 3 * n + i, m - 2 * i)
    )
    target = sum(base) // n
    for d in (1, 2, 3):
        for i, j in itertools.permutations(range(len(base)), 2):
            moved = list(base)
            moved[i] += d
            moved[j] -= d
            if (len(set(moved)) == len(moved) and _in_window(moved, target)
                    and not has_3partition(moved)):
                shift = rng.randint(0, 2 * n)
                elements = [x + shift for x in moved]
                rng.shuffle(elements)
                return elements
    raise ValueError(f"no unsolvable move for {n} triples")


def gadget_instances(max_m: int) -> list[list[int]]:
    """Every solvable two-triple instance whose largest element <= max_m."""
    found = []
    for m in range(1, max_m + 1):
        for target in range(2 * m + 1, 4 * m):
            lo = target // 4 + 1
            for six in itertools.combinations(range(lo, m + 1), 6):
                if (six[-1] == m and sum(six) == 2 * target
                        and _in_window(six, target)
                        and has_3partition(list(six))):
                    found.append(list(six))
    return found


def gadget_orders(elements: list[int]) -> list[int]:
    """Component orders of the permutation gadget, in segment order.

    One path of order 2B - 3 per triple, then one per odd size below
    2m that is not a shifted element 2a - 1.
    """
    n = len(elements) // 3
    target = sum(elements) // n
    shifted = {2 * a - 1 for a in elements}
    fillers = [s for s in range(2 * max(elements) - 1, 0, -2)
               if s not in shifted]
    return [2 * target - 3] * n + fillers


def partition_ok(
    elements: list[int], triples: list[tuple[int, ...]] | tuple
) -> bool:
    """Triples use every element once and share one sum."""
    flat = sorted(x for t in triples for x in t)
    if flat != sorted(elements) or any(len(t) != 3 for t in triples):
        return False
    return len({sum(t) for t in triples}) == 1
