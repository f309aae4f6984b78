from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from burnkit.burning import BurningSchedule, simulate, verify_schedule
from burnkit.errors import (
    ExtractionError,
    GraphError,
    InstanceError,
)
from burnkit.exact import exact_burning_number
from burnkit import permutation_reduction
from burnkit.graph import (
    Graph,
    build_permutation_graph,
    connected_components,
    path_forest,
)
from burnkit.partition import (
    Partition3,
    ThreePartitionInstance,
    solve_3partition,
    validate_instance,
    verify_partition,
)
from burnkit.permutation_reduction import (
    PermutationArtifact,
    construct_px,
    forest_permutation,
    partition_to_schedule_pg,
    path_permutation,
    read_permutation,
    schedule_to_partition_pg,
    write_permutation,
)
from conftest import random_solvable_instance, small_solvable_instances

WORKED = ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])
WORKED_SOLUTION = Partition3.of([(10, 14, 15), (11, 12, 16)])
TINY = ThreePartitionInstance.of([4, 5, 6])
TINY_SOLUTION = Partition3.of([(4, 5, 6)])


@pytest.fixture(scope="module")
def worked_art() -> PermutationArtifact:
    return construct_px(WORKED)


@pytest.fixture(scope="module")
def tiny_art() -> PermutationArtifact:
    return construct_px(TINY)


def induced_components(perm: tuple[int, ...]) -> list[int]:
    g = build_permutation_graph(len(perm), perm)
    return sorted(len(c) for c in connected_components(g))


def assert_induced_path(perm: tuple[int, ...]) -> None:
    g = build_permutation_graph(len(perm), perm)
    degrees = [g.degree(v) for v in range(g.n)]
    assert g.m == g.n - 1
    assert max(degrees, default=0) <= 2
    assert len(connected_components(g)) == 1


class TestPathPermutation:
    def test_explicit_small_cases(self):
        assert path_permutation(1, 1) == (1,)
        assert path_permutation(1, 2) == (2, 1)
        assert path_permutation(1, 3) == (3, 1, 2)
        assert path_permutation(1, 4) == (2, 4, 1, 3)
        assert path_permutation(1, 5) == (3, 1, 5, 2, 4)
        assert path_permutation(1, 8) == (3, 1, 5, 2, 7, 4, 8, 6)

    def test_five_values_chain_in_path_order(self):
        # (3, 1, 5, 2, 4) inverts exactly the pairs of the path
        # 1 - 3 - 2 - 5 - 4, written on vertices 0..4
        g = build_permutation_graph(5, (3, 1, 5, 2, 4))
        assert tuple(g.edges()) == ((0, 2), (1, 2), (1, 4), (3, 4))

    @pytest.mark.parametrize("length", list(range(1, 10)))
    def test_exhaustive_lengths_up_to_nine(self, length):
        assert_induced_path(path_permutation(1, length))

    def test_shifted_starts(self):
        for first in (2, 7, 40):
            for length in range(1, 12):
                seq = path_permutation(first, length)
                assert sorted(seq) == list(
                    range(first, first + length)
                )

    def test_longer_lengths_still_paths(self):
        for length in (10, 17, 28, 75):
            assert_induced_path(path_permutation(1, length))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GraphError):
            path_permutation(1, 0)


class TestForestPermutation:
    def test_two_component_example(self):
        perm, segments = forest_permutation([2, 3])
        assert perm == (2, 1, 5, 3, 4)
        assert [(s.first, s.size) for s in segments] == [(1, 2), (3, 3)]
        assert induced_components(perm) == [2, 3]

    def test_random_multisets_induce_their_forest(self):
        rng = random.Random(20260815)
        for _ in range(200):
            lengths = [
                rng.randint(1, 12)
                for _ in range(rng.randint(1, 6))
            ]
            perm, _segments = forest_permutation(lengths)
            assert induced_components(perm) == sorted(lengths)

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            forest_permutation([])


class TestConstructPx:
    def test_worked_structure(self, worked_art):
        assert worked_art.graph.n == 256
        assert worked_art.target_rounds == 16
        orders = [len(c) for c in connected_components(worked_art.graph)]
        assert sorted(orders, reverse=True) == [
            75, 75, 25, 17, 15, 13, 11, 9, 7, 5, 3, 1,
        ]

    def test_tiny_structure(self, tiny_art):
        assert tiny_art.graph.n == 36
        assert tiny_art.target_rounds == 6
        assert [s.size for s in tiny_art.segments] == [27, 5, 3, 1]
        assert [s.kind for s in tiny_art.segments] == [
            "block", "filler", "filler", "filler",
        ]

    def test_paths_walk_real_edges(self, worked_art):
        for seg in worked_art.segments:
            path = seg.vertices
            for u, v in zip(path, path[1:]):
                assert v in worked_art.graph.neighbors(u)

    def test_invalid_instance_rejected(self):
        with pytest.raises(InstanceError):
            construct_px(ThreePartitionInstance.of([2, 3, 4]))

    def test_model_check_rejects_a_cut_end_vertex(self, monkeypatch):
        # the cut end becomes a path of its own, and the block's walk
        # stops short of it: the paths no longer match the value ranges
        def cut_end(size, perm):
            g = build_permutation_graph(size, perm)
            block = range(27)  # TINY's block holds vertices 0..26
            end = max(v for v in block if g.degree(v) == 1)
            edges = [e for e in g.edges() if end not in e]
            return Graph(g.n, edges)

        monkeypatch.setattr(
            permutation_reduction, "build_permutation_graph", cut_end
        )
        with pytest.raises(AssertionError, match="segment paths"):
            construct_px(TINY)

    def test_model_check_rejects_an_edge_between_segments(
        self, monkeypatch
    ):
        def join(size, perm):
            g = build_permutation_graph(size, perm)
            return Graph(g.n, [*g.edges(), (0, g.n - 1)])

        monkeypatch.setattr(
            permutation_reduction, "build_permutation_graph", join
        )
        with pytest.raises(AssertionError, match="segment paths"):
            construct_px(TINY)

    def test_paths_straddling_two_segments_are_refused(self, monkeypatch):
        # swapping a block vertex with a filler vertex keeps a path
        # forest of the same orders, but two paths now straddle two
        # value ranges, which the paths' smallest ids give away
        def swap(size, perm):
            g = build_permutation_graph(size, perm)
            label = list(range(g.n))
            label[5], label[29] = 29, 5  # block 0..26, filler 27..31
            return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])

        paths = path_forest(swap(36, construct_px(TINY).permutation))
        assert [len(p) for p in paths] == [27, 5, 3, 1]
        assert 29 in paths[0] and 5 in paths[1]
        monkeypatch.setattr(
            permutation_reduction, "build_permutation_graph", swap
        )
        with pytest.raises(AssertionError,
                           match="permutation does not give the segment"):
            construct_px(TINY)

    @pytest.mark.parametrize("instance", [
        TINY, random_solvable_instance(random.Random(23), 3)[0],
    ], ids=["tiny", "random"])
    def test_edited_graphs_are_refused_or_give_the_model(
        self, instance, monkeypatch
    ):
        # construct_px checks its graph only through path_forest and the
        # value ranges: each edit below is refused, or leaves a graph
        # that is exactly the model of the segments it returns
        rng = random.Random(2323)
        model = construct_px(instance)
        base = build_permutation_graph(len(model.permutation),
                                       model.permutation)
        edited = {}
        monkeypatch.setattr(permutation_reduction,
                            "build_permutation_graph",
                            lambda size, perm: edited["graph"])
        kinds = {"refused": 0, "built": 0}
        for case in range(240):
            edges = set(base.edges())
            for _ in range(1 + case % 3):
                kind = rng.choice(("relabel", "drop", "add"))
                if kind == "relabel":  # swap the labels of two vertices
                    a, b = rng.sample(range(base.n), 2)
                    label = {a: b, b: a}
                    edges = {tuple(sorted((label.get(u, u),
                                           label.get(v, v))))
                             for u, v in edges}
                elif kind == "drop" and edges:
                    edges.discard(rng.choice(sorted(edges)))
                else:
                    u, v = sorted(rng.sample(range(base.n), 2))
                    edges.add((u, v))
            edited["graph"] = g = Graph(base.n, edges)
            try:
                art = construct_px(instance)
            except AssertionError as exc:
                assert str(exc) == (
                    "permutation does not give the segment paths")
                kinds["refused"] += 1
                continue
            kinds["built"] += 1
            first = 0
            for seg in art.segments:
                assert sorted(seg.vertices) == list(
                    range(first, first + seg.size))
                first += seg.size
                path = seg.vertices
                assert all(v in g.neighbors(u)
                           for u, v in zip(path, path[1:]))
            assert [seg.size for seg in art.segments] == [
                seg.size for seg in model.segments]
            assert first == g.n and g.m == g.n - len(art.segments)
        assert min(kinds.values()) > 0, kinds


class TestForward:
    def test_worked_burns_in_exactly_16(self, worked_art):
        sched = partition_to_schedule_pg(worked_art, WORKED_SOLUTION)
        out = simulate(worked_art.graph, sched)
        assert out.complete and out.rounds_used == 16

    def test_counting_bound_certifies_optimality(self, worked_art):
        # 16 rounds reach at most 1 + 3 + ... + 31 = 256 forest
        # vertices, so the 256-vertex gadget admits nothing shorter
        k = worked_art.target_rounds
        assert sum(2 * (k - t) + 1 for t in range(1, k + 1)) == 256
        assert worked_art.graph.n == 256

    def test_tiny_agrees_with_exact_search(self, tiny_art):
        sched = partition_to_schedule_pg(tiny_art, TINY_SOLUTION)
        assert simulate(tiny_art.graph, sched).complete
        res = exact_burning_number(tiny_art.graph)
        assert res.k == tiny_art.target_rounds == 6

    def test_wrong_partition_rejected(self, worked_art):
        bad = Partition3.of([(10, 11, 12), (14, 15, 16)])
        with pytest.raises(InstanceError):
            partition_to_schedule_pg(worked_art, bad)


class TestReverse:
    def test_round_trip_worked(self, worked_art):
        sched = partition_to_schedule_pg(worked_art, WORKED_SOLUTION)
        assert (
            schedule_to_partition_pg(worked_art, sched) == WORKED_SOLUTION
        )

    def test_round_trip_tiny(self, tiny_art):
        sched = partition_to_schedule_pg(tiny_art, TINY_SOLUTION)
        assert schedule_to_partition_pg(tiny_art, sched) == TINY_SOLUTION

    def test_extraction_from_independent_witness(self, tiny_art):
        # a witness found by the exact solver, not by the forward map
        res = exact_burning_number(tiny_art.graph)
        assert res.k == 6
        assert (
            schedule_to_partition_pg(tiny_art, res.witness) == TINY_SOLUTION
        )

    def test_wrong_length_rejected(self, tiny_art):
        sched = list(partition_to_schedule_pg(tiny_art, TINY_SOLUTION))
        with pytest.raises(ExtractionError, match="decides at 6"):
            schedule_to_partition_pg(tiny_art, sched[:-1])

    def test_invalid_schedule_rejected(self, tiny_art):
        sched = list(partition_to_schedule_pg(tiny_art, TINY_SOLUTION))
        sched[-1] = sched[0]
        with pytest.raises(ExtractionError, match="rejected"):
            schedule_to_partition_pg(tiny_art, sched)

    def test_incomplete_schedule_rejected(self, tiny_art):
        # sources spaced along the block path never burn each other,
        # and the filler components never catch fire at all
        block = tiny_art.segments[0].vertices
        sched = [block[p] for p in (0, 4, 8, 12, 16, 20)]
        assert not simulate(tiny_art.graph, sched).complete
        with pytest.raises(ExtractionError, match="whole gadget"):
            schedule_to_partition_pg(tiny_art, sched)

    def test_perturbation_battery(self, tiny_art):
        base = list(partition_to_schedule_pg(tiny_art, TINY_SOLUTION))
        rng = random.Random(77)
        mutants = []
        for i in range(len(base)):
            for delta in (-1, 1):
                mutants.append(base[:i] + [base[i] + delta] + base[i + 1:])
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
            if mutant == base or not all(
                0 <= v < tiny_art.graph.n for v in mutant
            ):
                continue
            with pytest.raises(ExtractionError):
                schedule_to_partition_pg(tiny_art, mutant)

    @settings(max_examples=40, deadline=None)
    @given(small_solvable_instances())
    def test_round_trip_on_generated_instances(self, instance):
        partition = solve_3partition(instance)
        art = construct_px(instance)
        sched = partition_to_schedule_pg(art, partition)
        back = schedule_to_partition_pg(art, sched)
        assert back == partition and verify_partition(instance, back)

    def test_cross_oracle_on_random_instances(self):
        # the gadget's burning number must equal m exactly when the
        # instance is solvable; solvable ones are generated with a
        # known solution, and the witness maps back to some solution
        from burnkit.partition import verify_partition
        from conftest import random_solvable_instance

        rng = random.Random(60103)
        for n, slack in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]:
            instance, _known = random_solvable_instance(rng, n, slack)
            art = construct_px(instance)
            res = exact_burning_number(art.graph)
            assert res.k == art.target_rounds == art.derived.m
            found = schedule_to_partition_pg(art, res.witness)
            assert verify_partition(instance, found)


def one_unit_no_instance(
    rng: random.Random, planted: ThreePartitionInstance
) -> ThreePartitionInstance | None:
    """A valid instance with no 3-partition that moves one unit from one
    element of planted to another, tried in a seeded order; or None."""
    elements = list(planted.elements)
    moves = list(itertools.permutations(range(len(elements)), 2))
    rng.shuffle(moves)
    for i, j in moves:
        moved = list(elements)
        moved[i] += 1
        moved[j] -= 1
        instance = ThreePartitionInstance.of(moved)
        try:
            validate_instance(instance)
        except InstanceError:
            continue
        if solve_3partition(instance) is None:
            return instance
    return None


class TestDecidedBothWays:
    """The gadget burns in m rounds exactly when a 3-partition exists.

    Path forests are decided by bin covering, so both directions run on
    seeded planted instances (with a partition) and one-unit
    perturbations of them that the solver finds unsolvable.
    """

    PLANTED = [
        random_solvable_instance(random.Random(7000 + 10 * n + slack), n,
                                 slack)[0]
        for n in (2, 3, 4) for slack in range(2, 8)
    ]

    @pytest.mark.parametrize(
        "instance", PLANTED,
        ids=lambda inst: "-".join(map(str, inst.elements)),
    )
    def test_a_partition_means_burning_in_m_rounds(self, instance):
        assert solve_3partition(instance) is not None
        art = construct_px(instance)
        res = exact_burning_number(art.graph)
        assert res.k == art.derived.m
        assert verify_schedule(art.graph, res.witness)
        found = schedule_to_partition_pg(art, res.witness)
        assert verify_partition(instance, found)

    def test_no_partition_means_more_than_m_rounds(self):
        rng = random.Random(4141)
        decided = 0
        for planted in self.PLANTED:
            instance = one_unit_no_instance(rng, planted)
            if instance is None:
                continue
            art = construct_px(instance)
            res = exact_burning_number(art.graph)
            assert res.k > art.derived.m
            assert verify_schedule(art.graph, res.witness)
            decided += 1
        assert decided >= 10


class TestUnsolvableGadget:
    def test_structure_builds_without_deciding(self, unsolvable_instance):
        # construction is instance-agnostic: the gadget is built the same
        # way with or without a partition, and decided in the next test
        art = construct_px(unsolvable_instance)
        assert art.derived.m == 21
        assert art.graph.n == 441
        assert art.target_rounds == 21

    def test_no_partition_means_more_than_m_rounds(self, unsolvable_instance):
        # bin covering refutes the 441-vertex gadget at m = 21 and burns
        # it in 22
        art = construct_px(unsolvable_instance)
        res = exact_burning_number(art.graph)
        assert (res.k, res.nodes_explored) == (22, 38)
        assert verify_schedule(art.graph, res.witness)

    def test_no_partition_means_no_forward_schedule(
        self, unsolvable_instance
    ):
        art = construct_px(unsolvable_instance)
        fake = Partition3.of([(11, 12, 21), (13, 14, 15)])
        with pytest.raises(InstanceError):
            partition_to_schedule_pg(art, fake)


class TestPermutationIO:
    def test_round_trip(self, worked_art):
        text = write_permutation(worked_art.permutation)
        assert read_permutation(text) == worked_art.permutation

    def test_rejects_bad_tokens(self):
        with pytest.raises(InstanceError, match="bad permutation value"):
            read_permutation("2 one 3")

    def test_rejects_non_permutations(self):
        with pytest.raises(InstanceError, match="not a permutation"):
            read_permutation("1 2 4")
