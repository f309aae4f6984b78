from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from burnkit.burning import BurningSchedule, simulate
from burnkit.errors import (
    ExtractionError,
    InstanceError,
    NotOptimalShapedError,
)
from burnkit.gadget import derive_sets, settle_block_triples
from burnkit import interval_reduction
from burnkit.graph import (
    Graph,
    IntervalRepresentation,
    build_interval_graph,
    read_intervals,
    write_intervals,
)
from burnkit.interval_reduction import (
    IntervalArtifact,
    construct_ig,
    partition_to_schedule,
    schedule_to_partition,
)
from burnkit.partition import (
    Partition3,
    ThreePartitionInstance,
    solve_3partition,
    verify_partition,
)
from conftest import random_solvable_instance, small_solvable_instances

WORKED = ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])
WORKED_SOLUTION = Partition3.of([(10, 14, 15), (11, 12, 16)])
TINY = ThreePartitionInstance.of([4, 5, 6])
TINY_SOLUTION = Partition3.of([(4, 5, 6)])


@pytest.fixture(scope="module")
def worked_art() -> IntervalArtifact:
    return construct_ig(WORKED)


@pytest.fixture(scope="module")
def tiny_art() -> IntervalArtifact:
    return construct_ig(TINY)


def alternate_schedule(
    artifact: IntervalArtifact,
    partition: Partition3,
    *,
    descending: bool = False,
    rotate: int = 0,
) -> list[int]:
    """Re-derive an optimal schedule with different placement choices.

    Blocks all have the same size, so triples may rotate through them,
    and a triple may tile its block in either direction; the cluster
    sizes alone still pin each source's round.
    """
    k = artifact.target_rounds
    triples = list(partition.triples)
    triples = triples[rotate:] + triples[:rotate]
    feed = iter(triples)
    placed = []
    for seg in artifact.segments:
        if seg.kind == "block":
            sizes = sorted(
                (2 * a - 1 for a in next(feed)), reverse=descending
            )
        else:
            sizes = [seg.size]
        pos = 0
        for size in sizes:
            r = (size - 1) // 2
            placed.append((k - r, seg.vertices[pos + r]))
            pos += size
    placed.sort()
    assert [t for t, _ in placed] == list(range(1, k + 1))
    return [c for _, c in placed]


def corrupt(monkeypatch, helper: str, change) -> None:
    """Pass what construct_ig's helper returns through change.

    construct_ig builds its graph with _caterpillar and lays out its
    intervals with _intervals; corrupting either must trip the check
    that the intervals realise the graph.
    """
    real = getattr(interval_reduction, helper)
    monkeypatch.setattr(interval_reduction, helper,
                        lambda *args: change(real(*args)))


def move_last_leaf(
    rep: IntervalRepresentation, to: tuple[int, int]
) -> IntervalRepresentation:
    return IntervalRepresentation(rep.intervals[:-1] + (to,))


class TestDerivedSets:
    def test_worked_values(self):
        d = derive_sets(WORKED)
        assert d.m == 16 and d.n == 2
        assert d.shifted == (19, 21, 23, 27, 29, 31)
        assert d.shifted_target == 75
        assert d.fillers == (25, 17, 15, 13, 11, 9, 7, 5, 3, 1)
        assert sum(d.shifted) + sum(d.fillers) == 16 * 16

    def test_tiny_values(self):
        d = derive_sets(TINY)
        assert d.m == 6
        assert d.shifted == (7, 9, 11)
        assert d.shifted_target == 27
        assert d.fillers == (5, 3, 1)

    def test_shifted_triples_hit_shifted_target(self):
        d = derive_sets(WORKED)
        for triple in WORKED_SOLUTION.triples:
            assert sum(2 * a - 1 for a in triple) == d.shifted_target

    def test_invalid_instance_rejected(self):
        with pytest.raises(InstanceError):
            derive_sets(ThreePartitionInstance.of([1, 2, 3]))


class TestConstruction:
    def test_worked_sizes(self, worked_art):
        assert worked_art.graph.n == 7 * 16**2 + 6 * 16 == 1888
        assert worked_art.spine_len == 33**2 == 1089
        assert worked_art.target_rounds == 33

    def test_worked_comb_orders_march_down(self, worked_art):
        combs = [s for s in worked_art.segments if s.kind == "comb"]
        assert [c.size for c in combs] == list(range(65, 32, -2))

    def test_tiny_layout(self, tiny_art):
        assert tiny_art.graph.n == 288
        assert tiny_art.spine_len == 169
        sizes = [s.size for s in tiny_art.segments]
        assert sizes == [27, 25, 5, 23, 3, 21, 1, 19, 17, 15, 13]
        kinds = [s.kind for s in tiny_art.segments]
        assert kinds == [
            "block", "comb", "filler", "comb", "filler", "comb",
            "filler", "comb", "comb", "comb", "comb",
        ]

    def test_segments_tile_the_spine(self, worked_art):
        spine = [v for seg in worked_art.segments for v in seg.vertices]
        assert spine == list(range(worked_art.spine_len))

    def test_leaves_sit_on_comb_interiors(self, tiny_art):
        for leaf in range(tiny_art.spine_len, tiny_art.graph.n):
            si, off = tiny_art.where[leaf]
            seg = tiny_art.segments[si]
            assert seg.kind == "comb"
            assert 0 < off < seg.size - 1
            assert tiny_art.graph.neighbors(leaf) == (seg.vertices[off],)

    def test_representation_round_trips_edge_identical(self, worked_art):
        text = write_intervals(worked_art.representation)
        rebuilt = build_interval_graph(read_intervals(text))
        assert rebuilt == worked_art.graph

    def test_graph_equals_the_interval_sweep(self):
        # the graph comes from the segment model; sweeping the intervals
        # it was checked against must give it back, edge for edge
        rng = random.Random(2104)
        instances = [TINY, WORKED]
        instances += [random_solvable_instance(rng, n, slack)[0]
                      for n in range(1, 7) for slack in (0, 1, 3)]
        for instance in instances:
            art = construct_ig(instance)
            swept = build_interval_graph(art.representation)
            assert art.graph == swept, instance
            assert art.graph.m == swept.m and hash(art.graph) == hash(swept)

    def test_self_check_rejects_a_wrong_graph(self, monkeypatch):
        # one edge fewer on either side, so the meeting-pair count differs
        for helper, change in [
            ("_caterpillar", lambda g: Graph(g.n, list(g.edges())[:-1])),
            # the last leaf moved left of the spine, where it meets nothing
            ("_intervals", lambda rep: move_last_leaf(rep, (-10, -5))),
        ]:
            with monkeypatch.context() as patched:
                corrupt(patched, helper, change)
                with pytest.raises(AssertionError, match="caterpillar"):
                    construct_ig(TINY)

    def test_self_check_rejects_a_moved_edge(self, monkeypatch):
        # same edge count, so only the edge-by-edge comparison sees it
        def move_last_edge(g):
            return Graph(g.n, [*list(g.edges())[:-1], (0, g.n - 1)])

        for helper, change in [
            ("_caterpillar", move_last_edge),
            # the last leaf moved inside spine vertex 0's span alone
            ("_intervals", lambda rep: move_last_leaf(rep, (12, 18))),
        ]:
            with monkeypatch.context() as patched:
                corrupt(patched, helper, change)
                with pytest.raises(AssertionError, match="caterpillar"):
                    construct_ig(TINY)


class TestForward:
    def test_worked_burns_in_exactly_33(self, worked_art):
        sched = partition_to_schedule(worked_art, WORKED_SOLUTION)
        out = simulate(worked_art.graph, sched)
        assert out.complete and out.rounds_used == 33

    def test_tiny_burns_in_exactly_13(self, tiny_art):
        sched = partition_to_schedule(tiny_art, TINY_SOLUTION)
        out = simulate(tiny_art.graph, sched)
        assert out.complete and out.rounds_used == 13

    def test_wrong_partition_rejected(self, worked_art):
        bad = Partition3.of([(10, 11, 12), (14, 15, 16)])
        with pytest.raises(InstanceError):
            partition_to_schedule(worked_art, bad)


class TestReverse:
    def test_round_trip_worked(self, worked_art):
        sched = partition_to_schedule(worked_art, WORKED_SOLUTION)
        assert schedule_to_partition(worked_art, sched) == WORKED_SOLUTION

    def test_round_trip_tiny(self, tiny_art):
        sched = partition_to_schedule(tiny_art, TINY_SOLUTION)
        assert schedule_to_partition(tiny_art, sched) == TINY_SOLUTION

    def test_recovers_from_reshuffled_witnesses(self, worked_art):
        # schedules this module never emits: blocks tiled right to left,
        # triples rotated across blocks
        for descending, rotate in [(True, 0), (False, 1), (True, 1)]:
            sched = alternate_schedule(
                worked_art,
                WORKED_SOLUTION,
                descending=descending,
                rotate=rotate,
            )
            out = simulate(worked_art.graph, sched)
            assert out.complete and out.rounds_used == 33
            assert schedule_to_partition(worked_art, sched) == WORKED_SOLUTION

    def test_wrong_length_rejected(self, tiny_art):
        sched = partition_to_schedule(tiny_art, TINY_SOLUTION)
        with pytest.raises(ExtractionError, match="decides at 13"):
            schedule_to_partition(tiny_art, list(sched)[:-1])
        with pytest.raises(ExtractionError, match="decides at 13"):
            schedule_to_partition(tiny_art, list(sched) + [0])

    def test_invalid_schedule_rejected(self, tiny_art):
        sched = list(partition_to_schedule(tiny_art, TINY_SOLUTION))
        sched[-1] = sched[0]
        with pytest.raises(ExtractionError, match="rejected"):
            schedule_to_partition(tiny_art, sched)

    def test_incomplete_schedule_rejected(self, tiny_art):
        # 13 sources packed into one corner never reach the far combs
        with pytest.raises(ExtractionError, match="whole gadget"):
            schedule_to_partition(tiny_art, list(range(13)))

    def test_perturbation_battery(self, tiny_art):
        # the gadget has no slack: nudging any source off its planned
        # center, or trading rounds between sources, breaks completeness
        # or shape and must surface as an ExtractionError
        base = list(partition_to_schedule(tiny_art, TINY_SOLUTION))
        rng = random.Random(1717)
        mutants = []
        for i in range(len(base)):
            for delta in (-1, 1):
                mutants.append(
                    base[:i] + [base[i] + delta] + base[i + 1:]
                )
        for i in range(len(base) - 1):
            swapped = base.copy()
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            mutants.append(swapped)
        for _ in range(30):
            scrambled = base.copy()
            scrambled[rng.randrange(len(base))] = rng.randrange(
                tiny_art.graph.n
            )
            mutants.append(scrambled)
        for mutant in mutants:
            if mutant == base:
                continue
            with pytest.raises(ExtractionError):
                schedule_to_partition(tiny_art, mutant)

    @settings(max_examples=40, deadline=None)
    @given(small_solvable_instances())
    def test_round_trip_on_generated_instances(self, instance):
        partition = solve_3partition(instance)
        art = construct_ig(instance)
        sched = partition_to_schedule(art, partition)
        back = schedule_to_partition(art, sched)
        assert back == partition and verify_partition(instance, back)

    def test_schedule_types_accepted(self, tiny_art):
        sched = partition_to_schedule(tiny_art, TINY_SOLUTION)
        as_list = list(sched)
        assert schedule_to_partition(tiny_art, as_list) == TINY_SOLUTION
        assert (
            schedule_to_partition(tiny_art, BurningSchedule.of(as_list))
            == TINY_SOLUTION
        )


class TestSettleBlockTriples:
    def test_reads_off_settled_blocks(self):
        sizes = {0: [19, 27, 29], 1: [21, 23, 31], 2: [25], 3: [17]}
        fillers = [(2, 25), (3, 17)]
        got = settle_block_triples(sizes, [0, 1], fillers)
        assert got == Partition3.of([(10, 14, 15), (11, 12, 16)])

    def test_missing_filler_size_is_inconsistent(self):
        sizes = {0: [7, 11, 9], 1: [3, 1, 1]}
        with pytest.raises(AssertionError, match="missing from every block"):
            settle_block_triples(sizes, [0], [(1, 5)])

    def test_traded_blocks_cannot_settle_to_triples(self):
        # a trade always grows the block it lands in, so data that
        # needs one cannot come from a real zero-slack schedule
        sizes = {0: [9, 11, 7], 1: [5, 3, 1]}
        with pytest.raises(AssertionError, match="force three"):
            settle_block_triples(sizes, [0], [(1, 9)])
