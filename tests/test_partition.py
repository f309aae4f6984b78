from __future__ import annotations

import itertools
import random

import pytest

from burnkit.errors import BudgetExceededError, InputError, InstanceError
from burnkit.partition import (
    Partition3,
    ThreePartitionInstance,
    read_instance,
    solve_3partition,
    validate_instance,
    verify_partition,
    write_instance,
)
from conftest import (
    random_solvable_instance,
    reference_solve_3partition,
    small_instances,
)


def planted_instance(rng: random.Random, n: int) -> ThreePartitionInstance:
    """n triples drawn at random from the window of a random target.

    Each triple is drawn from every triple of unused window values that
    sums to the target; a dead end starts over.
    """
    while True:
        b = rng.randint(12 * n + 12, 24 * n + 24)
        free = set(range(b // 4 + 1, (b + 1) // 2))
        triples: list[tuple[int, int, int]] = []
        while len(triples) < n:
            vals = sorted(free)
            options = [(x, y, b - x - y)
                       for i, x in enumerate(vals) for y in vals[i + 1:]
                       if y < b - x - y and b - x - y in free]
            if not options:
                break
            triples.append(rng.choice(options))
            free -= set(triples[-1])
        else:
            elements = [v for t in triples for v in t]
            rng.shuffle(elements)
            return ThreePartitionInstance.of(elements)


def near_misses(
    rng: random.Random, inst: ThreePartitionInstance
) -> list[ThreePartitionInstance]:
    """inst with one unit moved between two elements, if still valid.

    The sum stays, and a planted solution usually breaks.
    """
    els = list(inst.elements)
    i, j = rng.sample(range(len(els)), 2)
    els[i] += 1
    els[j] -= 1
    moved = ThreePartitionInstance.of(els)
    try:
        validate_instance(moved)
    except InstanceError:
        return []
    return [moved]


def brute_force_solvable(elements: tuple[int, ...], b: int) -> bool:
    """Oracle: the first element tries every pair of the rest."""
    if not elements:
        return True
    first, rest = elements[0], elements[1:]
    for i, j in itertools.combinations(range(len(rest)), 2):
        if first + rest[i] + rest[j] == b:
            left = tuple(a for t, a in enumerate(rest) if t not in (i, j))
            if brute_force_solvable(left, b):
                return True
    return False


class TestValidation:
    def test_worked_instance_is_valid(self, worked_instance):
        validate_instance(worked_instance)  # must not raise

    def test_empty(self):
        with pytest.raises(InstanceError, match="no elements"):
            validate_instance(ThreePartitionInstance.of([]))

    def test_count_not_multiple_of_three(self):
        with pytest.raises(InstanceError, match="multiple of 3"):
            validate_instance(ThreePartitionInstance.of([1, 2, 3, 4]))

    def test_nonpositive_element(self):
        with pytest.raises(InstanceError, match="positive"):
            validate_instance(ThreePartitionInstance.of([5, 0, 7]))

    def test_repeated_element(self):
        with pytest.raises(InstanceError, match="repeats"):
            validate_instance(ThreePartitionInstance.of([5, 5, 6]))

    def test_sum_not_divisible(self):
        with pytest.raises(InstanceError, match="not divisible"):
            validate_instance(
                ThreePartitionInstance.of([7, 8, 9, 10, 11, 12])
            )

    def test_element_at_or_below_quarter(self):
        # B = 48, and 4 * 10 = 40 fails the strict quarter bound
        with pytest.raises(InstanceError, match="quarter"):
            validate_instance(ThreePartitionInstance.of([10, 11, 27]))

    def test_element_at_or_above_half(self):
        # same multiset, but 27 is checked first and 2 * 27 > 48
        with pytest.raises(InstanceError, match="half"):
            validate_instance(ThreePartitionInstance.of([27, 10, 11]))

    def test_instance_error_is_input_error(self):
        assert issubclass(InstanceError, InputError)


class TestVerifyPartition:
    def test_accepts_the_real_solution(self, worked_instance):
        good = Partition3.of([(10, 14, 15), (11, 12, 16)])
        assert verify_partition(worked_instance, good)

    def test_rejects_wrong_sums(self, worked_instance):
        bad = Partition3.of([(10, 11, 12), (14, 15, 16)])
        assert not verify_partition(worked_instance, bad)

    def test_rejects_wrong_multiset(self, worked_instance):
        bad = Partition3.of([(10, 14, 15), (11, 12, 17)])
        assert not verify_partition(worked_instance, bad)


class TestSolver:
    def test_worked_instance(self, worked_instance):
        assert solve_3partition(worked_instance) == Partition3.of(
            [(10, 14, 15), (11, 12, 16)]
        )

    def test_single_triple(self, tiny_instance):
        assert solve_3partition(tiny_instance) == Partition3.of([(4, 5, 6)])

    def test_unsolvable_returns_none(self, unsolvable_instance):
        assert solve_3partition(unsolvable_instance) is None

    def test_invalid_instance_raises(self):
        with pytest.raises(InstanceError):
            solve_3partition(ThreePartitionInstance.of([1, 2, 3]))

    def test_budget_exhaustion(self, tiny_instance):
        with pytest.raises(BudgetExceededError) as exc:
            solve_3partition(tiny_instance, node_budget=1)
        assert exc.value.nodes_explored == 2

    def test_random_solvable_battery(self):
        rng = random.Random(314159)
        for _ in range(40):
            instance, _known = random_solvable_instance(
                rng, rng.randint(1, 8)
            )
            found = solve_3partition(instance)
            assert found is not None
            assert verify_partition(instance, found)

    def test_search_depth_is_not_bounded_by_the_call_stack(self):
        # one search level per triple: 1,500 levels is past Python's
        # default recursion limit
        rng = random.Random(1500)
        instance, _known = random_solvable_instance(rng, 1500)
        found = solve_3partition(instance)
        assert found is not None and verify_partition(instance, found)

    def test_backtracks_out_of_a_failed_pair(self):
        # 37 first takes 24 + 21, which leaves 36 no pair (it skips the
        # used 24); undoing that pair for 23 + 22 solves it in 5 nodes,
        # where a straight descent takes 4
        inst = ThreePartitionInstance.of([21, 22, 23, 24, 25, 26, 32, 36, 37])
        assert solve_3partition(inst, node_budget=5) == Partition3.of(
            [(21, 25, 36), (22, 23, 37), (24, 26, 32)]
        )
        with pytest.raises(BudgetExceededError):
            solve_3partition(inst, node_budget=4)

    def test_unsolvable_after_a_descent(self):
        inst = ThreePartitionInstance.of([23, 24, 25, 26, 28, 32, 33, 34, 36])
        assert not brute_force_solvable(inst.elements, inst.target)
        assert solve_3partition(inst) is None

    def test_small_instances_match_a_brute_force_oracle(self):
        rng = random.Random(97)
        outcomes = set()
        for _ in range(300):
            planted, _known = random_solvable_instance(
                rng, rng.randint(1, 4), slack=rng.randint(1, 6)
            )
            for inst in (planted, *near_misses(rng, planted)):
                found = solve_3partition(inst)
                expected = brute_force_solvable(inst.elements, inst.target)
                assert (found is not None) == expected, inst
                assert found is None or verify_partition(inst, found)
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_shuffling_does_not_change_solvability(self):
        rng = random.Random(2718)
        instance, _ = random_solvable_instance(rng, 5)
        for _ in range(10):
            order = list(instance.elements)
            rng.shuffle(order)
            found = solve_3partition(ThreePartitionInstance.of(order))
            assert found is not None and verify_partition(instance, found)


def identity_battery() -> list[ThreePartitionInstance]:
    """Seeded planted, run-shaped, near-miss and two-triple instances."""
    rng = random.Random(1913)
    battery = []
    for n in range(1, 13):
        for _ in range(16):
            inst = planted_instance(rng, n)
            battery += [inst, *near_misses(rng, inst)]
    near = random.Random(97)  # the brute-force test's near-misses
    for _ in range(300):
        inst, _known = random_solvable_instance(
            near, near.randint(1, 4), slack=near.randint(1, 6)
        )
        battery += [inst, *near_misses(near, inst)]
    for _ in range(40):
        inst, _known = random_solvable_instance(
            rng, rng.randint(1, 60), slack=rng.randint(0, 6)
        )
        battery += [inst, *near_misses(rng, inst)]
    # largest element 15 admits one two-triple instance; 30 admits 1,419
    battery += small_instances(2, 30)
    return battery


class TestScanIdentity:
    """The bounded partner scan places what the unbounded scan placed."""

    def test_same_triples_and_node_counts_as_the_unbounded_scan(self):
        battery = identity_battery()
        unsolvable = backtracked = 0
        for inst in battery:
            expected, nodes = reference_solve_3partition(inst)
            assert solve_3partition(inst, node_budget=nodes) == expected, inst
            with pytest.raises(BudgetExceededError) as exc:
                solve_3partition(inst, node_budget=nodes - 1)
            assert exc.value.nodes_explored == nodes
            unsolvable += expected is None
            # a straight descent takes one node per triple, plus one
            backtracked += nodes > inst.n + 1
        # 2,096 instances, 365 unsolvable, 116 that backtrack
        assert len(battery) > 2000 and unsolvable > 300 and backtracked > 100

    @pytest.mark.parametrize("slack", [1, 9])
    def test_twenty_thousand_triples(self, slack):
        # the unbounded scan took 3 s at 5,000 triples, growing as m^2
        rng = random.Random(20000)
        instance, _known = random_solvable_instance(rng, 20_000, slack)
        found = solve_3partition(instance)
        assert found is not None and verify_partition(instance, found)


class TestPartition3:
    def test_canonical_form(self):
        a = Partition3.of([(15, 14, 10), (16, 12, 11)])
        b = Partition3.of([(11, 12, 16), (10, 15, 14)])
        assert a == b
        assert a.triples == ((10, 14, 15), (11, 12, 16))

    def test_rejects_non_triples(self):
        with pytest.raises(InstanceError):
            Partition3.of([(1, 2)])


class TestInstanceIO:
    def test_round_trip(self, worked_instance):
        text = write_instance(worked_instance)
        assert read_instance(text) == worked_instance

    def test_read_rejects_garbage(self):
        with pytest.raises(InstanceError, match="bad element"):
            read_instance("10 eleven 12")
