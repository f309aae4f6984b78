"""Distinct 3-partition instances and an exact backtracking solver.

An instance is a set of 3n distinct positive integers summing to n * B
whose every element lies strictly between B / 4 and B / 2; a solution
splits it into n triples that each sum to B.  The window makes every
group have exactly three members, which is what the graph reductions
elsewhere in the package lean on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .errors import (DEFAULT_NODE_BUDGET, BudgetExceededError, InstanceError,
                     InternalError, check_node_budget)

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class ThreePartitionInstance:
    elements: tuple[int, ...]

    @classmethod
    def of(cls, elements: Iterable[int]) -> ThreePartitionInstance:
        return cls(tuple(elements))

    @property
    def n(self) -> int:
        """Number of triples a solution must have."""
        return len(self.elements) // 3

    @property
    def target(self) -> int:
        """The common triple sum B, with sum(elements) = n * B."""
        if not self.elements or len(self.elements) % 3:
            raise InstanceError(
                f"element count {len(self.elements)} is not a multiple of 3"
            )
        total = sum(self.elements)
        if total % self.n:
            raise InstanceError(
                f"sum {total} is not divisible by triple count {self.n}"
            )
        return total // self.n


@dataclass(frozen=True)
class Partition3:
    """A solution: triples sorted within and between, so comparable."""

    triples: tuple[Triple, ...]

    @classmethod
    def of(cls, triples: Iterable[Iterable[int]]) -> Partition3:
        canon = sorted(tuple(sorted(t)) for t in triples)
        for t in canon:
            if len(t) != 3:
                raise InstanceError(f"group {t} does not have 3 members")
        return cls(tuple(canon))  # type: ignore[arg-type]


def validate_instance(instance: ThreePartitionInstance) -> None:
    """Raise InstanceError naming the first violated shape rule."""
    els = instance.elements
    if not els:
        raise InstanceError("instance has no elements")
    if len(els) % 3:
        raise InstanceError(
            f"element count {len(els)} is not a multiple of 3"
        )
    for a in els:
        if a < 1:
            raise InstanceError(f"elements must be positive, got {a}")
    seen: set[int] = set()
    for a in els:
        if a in seen:
            raise InstanceError(f"elements must be distinct, {a} repeats")
        seen.add(a)
    b = instance.target
    for a in els:
        if not 4 * a > b:
            raise InstanceError(
                f"element {a} is not strictly above a quarter of target {b}"
            )
        if not 2 * a < b:
            raise InstanceError(
                f"element {a} is not strictly below half of target {b}"
            )


def verify_partition(
    instance: ThreePartitionInstance, partition: Partition3
) -> bool:
    """True iff the triples use each element once and all sum to target."""
    flat = [a for t in partition.triples for a in t]
    if sorted(flat) != sorted(instance.elements):
        return False
    b = instance.target
    return all(sum(t) == b for t in partition.triples)


def solve_3partition(
    instance: ThreePartitionInstance,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Partition3 | None:
    """Find a distinct 3-partition, or prove there is none.

    Backtracks on the largest unplaced element a: with need = B - a,
    its second member is scanned in decreasing order over the window
    (need / 2, need - smallest unused], with the third member looked
    up by value.  A second above that window would leave a third
    smaller than every unused element, so the scan starts at the
    window's top, found by bisection.  Raises BudgetExceededError if
    node_budget search nodes are not enough to settle the instance;
    a node is one placed triple, and the partners a node scans are
    not counted.  A node_budget below 0 is refused with InputError.
    """
    check_node_budget(node_budget)
    validate_instance(instance)
    b = instance.target
    order = sorted(instance.elements, reverse=True)
    rising = [-a for a in order]  # order negated, for bisect
    index_of = {a: i for i, a in enumerate(order)}
    m = len(order)
    used = [False] * m
    last = m - 1  # no unused index lies past it: order[last] <= any unused
    chosen: list[Triple] = []
    spent = 0

    def node(lo: int) -> int:
        """Count one search node; return its element, the first unused."""
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise BudgetExceededError(
                f"solver budget of {node_budget} nodes exhausted",
                nodes_explored=spent,
            )
        while lo < m and used[lo]:
            lo += 1
        return lo

    # one frame per open node: [its element, partner tried last, its third];
    # depth grows with the triple count, so the stack is explicit
    stack: list[list[int]] = []
    i = node(0)
    while i < m:
        used[i] = True
        stack.append([i, i, -1])
        while True:  # the deepest open node's next choice, or backtrack
            if not stack:
                return None
            frame = stack[-1]
            top, j, k = frame
            if k >= 0:  # the subtree under this choice failed
                used[j] = used[k] = False
                last = max(last, k)
                chosen.pop()
            a = order[top]
            need = b - a
            # top was the first of a multiple of 3 unused elements, so
            # at least two lie past it and this stops on one
            while used[last]:
                last -= 1
            # a second above need - order[last] leaves its third below
            # every unused element: start the scan past all of them
            start = bisect_left(rising, order[last] - need)
            k = -1
            for j in range(max(j + 1, start), m):
                if used[j]:
                    continue
                second = order[j]
                if 2 * second <= need:
                    break  # partners only get smaller from here
                third = index_of.get(need - second)
                if third is not None and third > j and not used[third]:
                    k = third
                    break
            if k >= 0:
                break
            used[top] = False  # below last: two unused lay past it
            stack.pop()
        used[j] = used[k] = True
        chosen.append((need - second, second, a))
        frame[1], frame[2] = j, k
        i = node(top + 1)
    solution = Partition3.of(chosen)
    if not verify_partition(instance, solution):
        raise InternalError("solver triples do not solve the instance")
    return solution


def write_instance(instance: ThreePartitionInstance) -> str:
    return " ".join(str(a) for a in instance.elements) + "\n"


def read_instance(text: str) -> ThreePartitionInstance:
    elements = []
    for token in text.split():
        try:
            elements.append(int(token))
        except ValueError:
            raise InstanceError(f"bad element {token!r}") from None
    return ThreePartitionInstance.of(elements)
