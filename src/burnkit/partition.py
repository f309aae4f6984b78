"""Distinct 3-partition instances and an exact backtracking solver.

An instance is a set of 3n distinct positive integers summing to n * B
whose every element lies strictly between B / 4 and B / 2; a solution
splits it into n triples that each sum to B.  The window makes every
group have exactly three members, which is what the graph reductions
elsewhere in the package lean on.
"""

from __future__ import annotations

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

    Backtracks on the largest unused element a: with need = B - a, the
    third member rises from the smallest unused one while 2 * third <
    need, so the second, need - third, falls; it is looked up by value.
    The unused elements form a circular, doubly linked list in ascending
    order (Knuth's dancing links), so the scan visits unused elements
    only.  Raises BudgetExceededError if node_budget search nodes are
    not enough to settle the instance; a node is one placed triple, and
    the thirds a node scans are not counted.  A node_budget below 0 is
    refused with InputError.
    """
    check_node_budget(node_budget)
    validate_instance(instance)
    b = instance.target
    order = sorted(instance.elements)
    index_of = {a: i for i, a in enumerate(order)}
    m = len(order)
    # up[i] and down[i] are the next larger and smaller unused elements,
    # through the sentinel m: up[m] is the smallest, down[m] the largest
    up = [*range(1, m + 1), 0]
    down = [m, *range(m)]
    free = [True] * m
    spent = 0

    def take(i: int) -> None:
        up[down[i]] = up[i]
        down[up[i]] = down[i]
        free[i] = False

    def give(i: int) -> None:  # undoes take(i), in reverse order of takes
        up[down[i]] = down[up[i]] = i
        free[i] = True

    def node() -> int:
        """Count one search node; return its element, the largest unused."""
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise BudgetExceededError(
                f"solver budget of {node_budget} nodes exhausted",
                nodes_explored=spent,
            )
        return down[m]

    def pair(top: int, third: int) -> tuple[int, int] | None:
        """top's first (second, third) with that third or a larger one."""
        need = b - order[top]
        # 3t unused elements sum to t * B and top was the largest, so the
        # largest one left has 2 * it >= need: this stops before m
        while 2 * order[third] < need:
            second = index_of.get(need - order[third])
            if second is not None and free[second]:
                return second, third
            third = up[third]
        return None

    stack: list[Triple] = []  # (top, second, third) per placed triple
    while (top := node()) != m:
        take(top)
        found = pair(top, up[m])
        while found is None:  # resume the parent's scan after its third
            give(top)
            if not stack:
                return None
            top, second, third = stack.pop()
            give(third)
            give(second)
            found = pair(top, up[third])
        second, third = found
        take(second)
        take(third)
        stack.append((top, second, third))
    solution = Partition3.of((order[i], order[j], order[k])
                             for i, j, k in stack)
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
