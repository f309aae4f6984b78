"""Distinct 3-partition encoded as burning on an interval graph.

The gadget for an instance with largest element m is a caterpillar: a
spine path of (2m + 1)**2 vertices cut into segments, with a pendant
leaf on every interior vertex of the comb segments.  Segment sizes are
chosen so that a (2m + 1)-round schedule exists exactly when the
instance has a solution: the 2m + 1 fire clusters have the distinct odd
sizes 1, 3, ..., 4m + 1, the m + 1 combs soak up the sizes down to
2m + 1 (a leaf hangs off every interior spine vertex, so a cluster
boundary strictly inside a comb strands a leaf), and the remaining
sizes, the first m odd numbers, must tile the blocks and the fillers.
Fillers carve away the odd sizes that are not shifted instance
elements, leaving each block of size 2B - 3 to be tiled by exactly
three shifted elements, a solution triple.

construct_ig builds the caterpillar's graph from the segment model,
the spine path plus one leaf per comb-interior vertex, and checks that
its interval representation realises exactly that graph
(graph.interval_graph_is), so no adjacency is swept from the intervals.

Both directions of that equivalence are executable here:
partition_to_schedule turns a solution into an optimal schedule, and
schedule_to_partition turns any optimal schedule back into a solution,
refusing with NotOptimalShapedError when the schedule's clusters do not
respect the segment structure.  The segment model and both mappings are
shared with the permutation gadget in gadget.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .burning import BurningSchedule
from .errors import InternalError
from .gadget import (
    DerivedSets,
    GadgetArtifact,
    Segment,
    derive_sets,
    place_clusters,
    read_off_partition,
)
from .graph import (
    Graph,
    IntervalRepresentation,
    _path_rows,
    interval_graph_is,
)
from .partition import Partition3, ThreePartitionInstance


@dataclass(frozen=True)
class IntervalArtifact(GadgetArtifact):
    """The built gadget plus everything needed to map solutions back.

    Spine vertex ids are spine positions, so each segment's vertices
    are a consecutive id range; leaf ids follow the spine.
    """

    spine_len: int
    leaf_hosts: tuple[int, ...]
    representation: IntervalRepresentation

    @property
    def target_rounds(self) -> int:
        """Schedule length that decides the instance: 2m + 1."""
        return 2 * self.derived.m + 1

    @staticmethod
    def order_of(m: int) -> int:
        """Vertices of the gadget whose largest element is m."""
        return 7 * m * m + 6 * m

    @staticmethod
    def spine_len_of(m: int) -> int:
        """Spine vertices of the gadget whose largest element is m."""
        return (2 * m + 1) ** 2

    def leaf_folds(self) -> Iterable[tuple[int, int]]:
        return enumerate(self.leaf_hosts, start=self.spine_len)


def _segment_layout(d: DerivedSets) -> tuple[Segment, ...]:
    """Blocks and fillers interleaved with combs, then the comb tail.

    Comb j has size 4m + 3 - 2j, so sizes march down from 4m + 1 to
    2m + 1; every block and filler gets a comb to its right, and the
    combs left over close out the spine.
    """
    m = d.m
    heads = [("block", i, d.shifted_target) for i in range(1, d.n + 1)]
    heads += [("filler", i, f) for i, f in enumerate(d.fillers, start=1)]
    combs = [("comb", j, 4 * m + 3 - 2 * j) for j in range(1, m + 2)]
    plan = [seg for pair in zip(heads, combs) for seg in pair]
    plan += combs[len(heads):]
    segments: list[Segment] = []
    start = 0
    for kind, index, size in plan:
        vertices = tuple(range(start, start + size))
        segments.append(Segment(kind, index, vertices))
        start += size
    spine_len = IntervalArtifact.spine_len_of(m)
    if start != spine_len:
        raise InternalError(f"segments fill {start} spine vertices, not "
                            f"(2m + 1)**2 = {spine_len}")
    return tuple(segments)


def _intervals(spine_len: int, leaf_hosts: Sequence[int]
               ) -> IntervalRepresentation:
    """The caterpillar's intervals, in vertex id order.

    Spine position p spans [20p, 20p + 30] and so meets p - 1 and p + 1
    alone; the leaf on host h spans [20h + 12, 20h + 18], inside h's
    span and clear of its neighbours'.
    """
    intervals = [(20 * p, 20 * p + 30) for p in range(spine_len)]
    intervals.extend((20 * h + 12, 20 * h + 18) for h in leaf_hosts)
    return IntervalRepresentation(tuple(intervals))


def _caterpillar(spine_len: int, leaf_hosts: Sequence[int]) -> Graph:
    """The segment model's graph: the spine path 0..spine_len - 1 and a
    leaf, numbered from spine_len up, on each host in order.

    Every leaf id is above every spine id, so a host's row stays sorted
    with its leaf appended.  The spine's rows share one int object per
    id through _path_rows; the leaf rows keep the hosts as the model
    gives them, since sharing those too cost more to build than the
    walks saved.
    """
    rows = _path_rows(list(range(spine_len)), 0, spine_len)
    for leaf, host in enumerate(leaf_hosts, start=spine_len):
        rows[host] += (leaf,)
    rows.extend(zip(leaf_hosts))
    return Graph._of_rows(tuple(rows))


def construct_ig(instance: ThreePartitionInstance) -> IntervalArtifact:
    """Build the caterpillar gadget for the instance, with its intervals.

    The graph is built from the segment model, the spine path plus one
    leaf per comb-interior vertex, and graph.interval_graph_is then
    checks that the interval representation realises exactly that graph.
    """
    derived = derive_sets(instance)
    segments = _segment_layout(derived)
    spine_len = IntervalArtifact.spine_len_of(derived.m)
    leaf_hosts = tuple(
        h
        for seg in segments
        if seg.kind == "comb"
        for h in seg.vertices[1:-1]
    )
    graph = _caterpillar(spine_len, leaf_hosts)
    rep = _intervals(spine_len, leaf_hosts)
    if not interval_graph_is(rep, graph):
        raise InternalError("interval representation does not give the "
                            "spine-plus-leaves caterpillar")
    order = IntervalArtifact.order_of(derived.m)
    if graph.n != order:
        raise InternalError(
            f"caterpillar has {graph.n} vertices, not 7m**2 + 6m = {order}"
        )
    return IntervalArtifact(
        derived=derived,
        segments=segments,
        graph=graph,
        spine_len=spine_len,
        leaf_hosts=leaf_hosts,
        representation=rep,
    )


def partition_to_schedule(
    artifact: IntervalArtifact, partition: Partition3
) -> BurningSchedule:
    """Turn a solution into a complete schedule of exactly 2m + 1 rounds.

    Each comb and filler becomes one cluster centered on its segment;
    triple i tiles block i left to right in ascending order.
    """
    return place_clusters(artifact, partition)


def schedule_to_partition(
    artifact: IntervalArtifact, schedule: BurningSchedule | Sequence[int]
) -> Partition3:
    """Recover a solution from any complete (2m + 1)-round schedule.

    Leaf sources still spreading are folded onto their hosts (the host's
    ball contains the leaf's); a leaf source in the last round is
    refused.  The clusters must then tile every segment exactly, each
    comb as a single cluster, and each block reads off one triple.
    """
    return read_off_partition(artifact, schedule)
