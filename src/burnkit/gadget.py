"""The line-of-path-segments model shared by both hardness gadgets.

Both reductions encode a distinct 3-partition instance the same way:
shift every element a to 2a - 1, pad with fillers up to the odd sizes
1, 3, ..., 2m - 1, and lay out path segments (blocks of order 2B - 3,
one filler per padding size, and for the interval gadget the combs that
soak up the larger odd sizes) so that a schedule of the target length
exists exactly when the instance has a solution.  The fire clusters of
such a schedule have distinct odd sizes and must tile every segment
exactly; each block is then tiled by one solution triple.

This module owns that argument once: the derived sets, the segment
record and its vertex-to-(segment, offset) map, the forward placement
of a solution's clusters, and the reverse check that reads a solution
back off any schedule of the target length.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

# calls into the burning and partition layers go through their modules,
# so that instrumentation patching module attributes sees them
from . import burning, partition as threepart
from .burning import BurningSchedule
from .errors import (
    ExtractionError,
    InstanceError,
    InternalError,
    NotOptimalShapedError,
    ScheduleError,
)
from .graph import Graph
from .partition import Partition3, ThreePartitionInstance


@dataclass(frozen=True)
class DerivedSets:
    """Shifted instance and padding shared by both gadget families.

    Doubling each element a to 2a - 1 makes every element odd while
    keeping triple sums aligned on the shifted target 2B - 3, and the
    fillers are the leftover odd sizes below 2m so that shifted plus
    fillers is exactly {1, 3, ..., 2m - 1}, which sums to m * m.
    """

    instance: ThreePartitionInstance
    m: int
    n: int
    shifted: tuple[int, ...]
    shifted_target: int
    fillers: tuple[int, ...]


def derive_sets(instance: ThreePartitionInstance) -> DerivedSets:
    threepart.validate_instance(instance)
    m = max(instance.elements)
    shifted = tuple(sorted(2 * a - 1 for a in instance.elements))
    used = set(shifted)
    fillers = tuple(s for s in range(2 * m - 1, 0, -2) if s not in used)
    if sum(shifted) + sum(fillers) != m * m:
        raise InternalError("shifted elements and fillers do not sum to m**2")
    return DerivedSets(
        instance=instance,
        m=m,
        n=instance.n,
        shifted=shifted,
        shifted_target=2 * instance.target - 3,
        fillers=fillers,
    )


@dataclass(frozen=True)
class Segment:
    """One path segment of a gadget: a block, a filler or a comb spine."""

    kind: str  # "block", "comb", or "filler"
    index: int  # 1-based within its kind
    vertices: tuple[int, ...]  # in path order

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class GadgetArtifact:
    """A built gadget: its derived sets, segments in order, and graph.

    Subclasses add their own construction record and the schedule
    length that decides the instance, target_rounds.
    """

    derived: DerivedSets
    segments: tuple[Segment, ...]
    graph: Graph

    def leaf_folds(self) -> Iterable[tuple[int, int]]:
        """(leaf, host) pairs for vertices hanging off a segment."""
        return ()

    @cached_property
    def where(self) -> dict[int, tuple[int, int]]:
        """Vertex to (segment index, offset along the segment's path).

        A leaf maps to its host's place: the host's ball of any positive
        radius contains the leaf's, so a spreading leaf source folds
        onto its host.
        """
        where = {
            v: (si, off)
            for si, seg in enumerate(self.segments)
            for off, v in enumerate(seg.vertices)
        }
        for leaf, host in self.leaf_folds():
            where[leaf] = where[host]
        return where


def place_clusters(
    artifact: GadgetArtifact, partition: Partition3
) -> BurningSchedule:
    """Turn a solution into a complete schedule of target_rounds rounds.

    Triple i tiles block i along its path in ascending order, and every
    other segment becomes one cluster centered on it.  A cluster of
    size s spreads for (s - 1) / 2 rounds, which fixes its round, and
    all cluster sizes are distinct, so the rounds are a permutation.
    """
    if not threepart.verify_partition(artifact.derived.instance, partition):
        raise InstanceError("partition does not solve the gadget's instance")
    k = artifact.target_rounds
    placed: list[tuple[int, int]] = []  # (round, center)
    triples = iter(partition.triples)
    for seg in artifact.segments:
        if seg.kind == "block":
            sizes = [2 * a - 1 for a in next(triples)]
        else:
            sizes = [seg.size]
        offset = 0
        for size in sizes:
            radius = (size - 1) // 2
            placed.append((k - radius, seg.vertices[offset + radius]))
            offset += size
        if offset != seg.size:
            raise InternalError(f"clusters of sizes {sizes} do not tile a "
                                f"segment of {seg.size}")

    placed.sort()
    if [t for t, _ in placed] != list(range(1, k + 1)):
        raise InternalError(f"cluster rounds are not 1..{k}")
    schedule = BurningSchedule.of(center for _, center in placed)
    outcome = burning.simulate(artifact.graph, schedule)
    if not (outcome.complete and outcome.rounds_used == k):
        raise InternalError("placed clusters do not burn the whole gadget")
    return schedule


def read_off_partition(
    artifact: GadgetArtifact, schedule: BurningSchedule | Sequence[int]
) -> Partition3:
    """Recover a solution from any complete target_rounds-round schedule.

    Every cluster must be a run inside one segment, and the runs must
    tile each segment exactly; anything else raises
    NotOptimalShapedError.  Tiling forces each comb to be a single
    cluster, so blocks and fillers share the sizes 1, 3, ..., 2m - 1,
    and settle_block_triples reads one solution triple off each block.
    """
    sched = BurningSchedule.of(schedule)
    k = artifact.target_rounds
    if len(sched) != k:
        raise ExtractionError(
            f"schedule has {len(sched)} rounds, the gadget decides at {k}"
        )
    try:
        complete = burning.verify_schedule(artifact.graph, sched)
    except ScheduleError as exc:
        raise ExtractionError(f"schedule rejected: {exc}") from exc
    if not complete:
        raise ExtractionError("schedule does not burn the whole gadget")

    spans_by_segment: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for t, src in enumerate(sched, start=1):
        radius = k - t
        si, off = artifact.where[src]
        seg = artifact.segments[si]
        # a leaf's place holds its host; folding needs a positive radius
        if radius == 0 and seg.vertices[off] != src:
            raise NotOptimalShapedError("final source sits on a leaf")
        lo, hi = off - radius, off + radius
        if lo < 0 or hi >= seg.size:
            raise NotOptimalShapedError(
                f"round-{t} cluster [{lo}, {hi}] spills out of "
                f"{seg.kind} {seg.index} of order {seg.size}"
            )
        spans_by_segment[si].append((lo, hi))

    sizes_by_segment: dict[int, list[int]] = {}
    for si, seg in enumerate(artifact.segments):
        spans = sorted(spans_by_segment[si])
        # exact tiling: each run starts where the previous one ended,
        # the first at offset 0 and the last ending on the segment's end
        if [lo for lo, _ in spans] + [seg.size] != [0] + [
            hi + 1 for _, hi in spans
        ]:
            raise NotOptimalShapedError(
                f"{seg.kind} {seg.index} of order {seg.size} is not "
                f"tiled exactly by its clusters"
            )
        if seg.kind == "comb" and len(spans) != 1:
            # unreachable given completeness: a boundary inside a comb
            # would strand that host's leaf
            raise NotOptimalShapedError(
                f"comb {seg.index} split into {len(spans)} clusters"
            )
        sizes_by_segment[si] = [hi - lo + 1 for lo, hi in spans]

    block_ids = [
        si for si, seg in enumerate(artifact.segments) if seg.kind == "block"
    ]
    fillers_desc = sorted(
        ((si, seg.size) for si, seg in enumerate(artifact.segments)
         if seg.kind == "filler"),
        key=lambda pair: -pair[1],
    )
    partition = settle_block_triples(
        sizes_by_segment, block_ids, fillers_desc
    )
    if not threepart.verify_partition(artifact.derived.instance, partition):
        raise InternalError("read-off triples do not solve the instance")
    return partition


def settle_block_triples(
    sizes_by_bin: dict[int, list[int]],
    block_ids: Sequence[int],
    fillers_desc: Sequence[tuple[int, int]],
) -> Partition3:
    """Normalize fillers to their own size and read off the triples.

    sizes_by_bin maps each segment to the sizes of the clusters that
    tile it; fillers_desc pairs each filler with its expected size, in
    decreasing order.  A filler tiled by smaller clusters trades its
    whole multiset for the cluster of its own size, which at that point
    can only sit in a block (larger fillers are already settled, and a
    cluster never fits in a smaller segment); the trade keeps block
    sums intact.  Each block then holds an odd number of distinct odd
    sizes, at least three since no single element reaches the block
    sum, and odd counts of at least 3 over all blocks averaging 3 each
    force exactly three, one solution triple.
    """
    for si, want in fillers_desc:
        have = sizes_by_bin[si]
        if have == [want]:
            continue
        for bi in block_ids:
            if want in sizes_by_bin[bi]:
                sizes_by_bin[bi].remove(want)
                sizes_by_bin[bi].extend(have)
                sizes_by_bin[si] = [want]
                break
        else:
            raise InternalError(
                f"size-{want} cluster missing from every block"
            )

    triples = []
    for bi in block_ids:
        sizes = sorted(sizes_by_bin[bi])
        if len(sizes) != 3:
            raise InternalError("parity and the block sum force three")
        triples.append(tuple((s + 1) // 2 for s in sizes))
    return Partition3.of(triples)
