"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Iterator, Sequence

import pytest
from hypothesis import strategies as st

import burnkit
from burnkit.burning import (
    BurningSchedule,
    _check_sources,
    _coerce,
    simulate,
)
from burnkit.errors import ScheduleError
from burnkit.exact import _drive, _Profile, _realize
from burnkit.graph import (
    Graph,
    UNREACHED,
    ball_distances,
    bfs_distances,
    center_and_diameter,
    connected_components,
)
from burnkit.partition import (
    Partition3,
    ThreePartitionInstance,
    solve_3partition,
    validate_instance,
)


def run_python(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this burnkit."""
    src = str(Path(burnkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )


def naive_burning_number(g: Graph) -> int:
    """Brute-force oracle: try every source sequence by length."""
    for k in range(1, g.n + 1):
        for perm in itertools.permutations(range(g.n), k):
            try:
                outcome = simulate(g, BurningSchedule.of(perm))
            except ScheduleError:
                continue
            if outcome.complete:
                return k
    raise AssertionError("every graph burns in at most n rounds")


def optimal_schedules(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Every valid complete schedule of exactly k rounds."""
    for perm in itertools.permutations(range(g.n), k):
        try:
            outcome = simulate(g, BurningSchedule.of(perm))
        except ScheduleError:
            continue
        if outcome.complete:
            yield perm


def reference_greedy_burn(g: Graph) -> BurningSchedule:
    """Round-by-round farthest-first burn, kept as a schedule oracle.

    Spreads a frontier and runs a multi-source BFS from everything burnt
    each round; greedy_burn must return exactly these schedules.
    """
    comps = connected_components(g)
    comps.sort(key=lambda c: (-len(c), c[0]))
    first = center_and_diameter(g, comps[0])[0]
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


# verify_schedule as it was before the burn-time field, kept verbatim as a
# verdict oracle: one distance map per source, then a scan over pairs of
# sources.  Its rejection can name a later round than the true one: the
# round of the first earlier source that reaches x, not the soonest.
def reference_verify_schedule(
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


# solve_3partition as it was before its partner scan was bounded, kept as
# an identity oracle: every node scans partners from just below its element
# down to need / 2, so a solve costs O(m^2) scan steps in the element count.
def reference_solve_3partition(
    instance: ThreePartitionInstance,
) -> tuple[Partition3 | None, int]:
    """The unbounded-scan solver, with the search nodes it counted."""
    validate_instance(instance)
    b = instance.target
    order = sorted(instance.elements, reverse=True)
    index_of = {a: i for i, a in enumerate(order)}
    m = len(order)
    used = [False] * m
    chosen: list[tuple[int, int, int]] = []
    spent = 0

    def node(lo: int) -> int:
        nonlocal spent
        spent += 1
        while lo < m and used[lo]:
            lo += 1
        return lo

    stack: list[list[int]] = []
    i = node(0)
    while i < m:
        used[i] = True
        stack.append([i, i, -1])
        while True:
            if not stack:
                return None, spent
            frame = stack[-1]
            top, j, k = frame
            if k >= 0:
                used[j] = used[k] = False
                chosen.pop()
            a = order[top]
            need = b - a
            k = -1
            for j in range(j + 1, m):
                if used[j]:
                    continue
                second = order[j]
                if 2 * second <= need:
                    break
                third = index_of.get(need - second)
                if third is not None and third > j and not used[third]:
                    k = third
                    break
            if k >= 0:
                break
            used[top] = False
            stack.pop()
        used[j] = used[k] = True
        chosen.append((need - second, second, a))
        frame[1], frame[2] = j, k
        i = node(top + 1)
    return Partition3.of(chosen), spent


# exact._search as it was before each target's centres were listed by
# distance, kept as an identity oracle: every node scans the bits of the
# target's ball at the largest free radius for candidate centres, and tests
# each centre's ball at every free radius for the target.
def reference_search(
    profile: _Profile, k: int, used: int, limit: int
) -> tuple[BurningSchedule | None, int]:
    """The mask-scan cover search, a drop-in for exact._search."""
    mb = [profile.maxball_at(r) for r in range(k)]
    order, rows, comp_mask = profile.order, profile.masks, profile.comp_mask
    free: dict[int, tuple[list[int], int]] = {}

    def moves_of(key: tuple[int, int], active: int) -> list | None:
        uncovered, radii = key
        if not uncovered:
            return None
        if radii not in free:
            available = [r for r in range(k) if radii >> r & 1]
            free[radii] = available, sum(mb[r] for r in available)
        available, cap = free[radii]
        count = uncovered.bit_count()
        pool = uncovered & active or uncovered
        tbit = pool & -pool
        target = order[tbit.bit_length() - 1]
        trow = rows[target]
        rmax = available[-1]
        candidates = trow[rmax] if rmax < len(trow) else trow[-1]
        moves: list[tuple[int, int, int, int]] = []
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
                    if gain + cap - mb[r] >= count:
                        moves.append((-gain, r, v, mask))
                    last_gain = gain
        moves.sort(reverse=True)
        return moves

    def child(key: tuple[int, int], move: tuple) -> tuple:
        (uncovered, radii), (_, r, v, mask) = key, move
        return (uncovered & ~mask, radii ^ 1 << r), comp_mask[v]

    root = ((1 << profile.graph.n) - 1, (1 << k) - 1), 0
    chosen, used = _drive(root, moves_of, child, used, limit)
    if chosen is None:
        return None, used
    planned: list[int | None] = [None] * k
    for _, (_, r, v, _) in chosen:
        planned[k - 1 - r] = v
    return BurningSchedule.of(_realize(profile.graph, planned)), used


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_solvable_instance(
    rng: random.Random, n: int, slack: int = 1
) -> tuple[ThreePartitionInstance, Partition3]:
    """A solvable instance with n triples, built from a known solution.

    Triple i is (A+i, B+i, C-2i): one value from each of three disjoint
    runs, so every sum equals A+B+C.  The run starts keep each value
    strictly between a quarter and half of that sum.  slack widens the
    gaps between runs; the largest element is at most 9n - 2 + 5*slack.
    """
    g1 = rng.randint(0, slack)
    g2 = rng.randint(0, slack)
    first = 5 * n + 2 * g1 + g2
    second = first + n + g1
    third = second + 3 * n - 2 + g2
    triples = [(first + i, second + i, third - 2 * i) for i in range(n)]
    total = first + second + third
    elements = sorted(v for t in triples for v in t)
    assert all(4 * v > total and 2 * v < total for v in elements)
    instance = ThreePartitionInstance.of(elements)
    validate_instance(instance)
    return instance, Partition3.of(triples)


def small_instances(
    triples: int, largest: int
) -> list[ThreePartitionInstance]:
    """Every valid instance of this many triples, elements <= largest."""
    found = []
    for b in range(1, 4 * largest):
        window = range(b // 4 + 1, min((b - 1) // 2, largest) + 1)
        for combo in itertools.combinations(window, 3 * triples):
            if sum(combo) == triples * b:
                found.append(ThreePartitionInstance.of(combo))
    return found


def small_solvable_instances(
    largest: int = 20,
) -> st.SearchStrategy[ThreePartitionInstance]:
    """Solvable one- and two-triple instances, elements <= largest.

    largest bounds the gadgets: the interval gadget of an instance with
    largest element m has 7m^2 + 6m vertices.  Three triples need a
    largest element above 20.
    """
    return st.one_of(*(
        st.sampled_from([inst for inst in small_instances(n, largest)
                         if solve_3partition(inst) is not None])
        for n in (1, 2)
    ))


@pytest.fixture
def worked_instance() -> ThreePartitionInstance:
    return ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])


@pytest.fixture
def tiny_instance() -> ThreePartitionInstance:
    return ThreePartitionInstance.of([4, 5, 6])


@pytest.fixture
def unsolvable_instance() -> ThreePartitionInstance:
    # any triple holding 21 needs a pair summing 22, but the smallest
    # available pair is 11 + 12
    return ThreePartitionInstance.of([11, 12, 13, 14, 15, 21])
