"""Distinct 3-partition encoded as burning on a permutation graph.

The subject permutation is a concatenation of segments over consecutive
value ranges, each crafted so that its values induce a simple path;
values from different segments never invert (earlier segments hold
smaller values and appear earlier), so the whole permutation induces a
path forest.  For an instance with largest element m the forest has n
components of order 2B - 3 and one per filler size, m * m vertices in
all.  A schedule of m rounds burns at most 1 + 3 + ... + (2m - 1) =
m * m path vertices, so an m-round schedule exists exactly when the
fire clusters are disjoint odd runs tiling every component: fillers
carve away the odd sizes that are not shifted instance elements, and
each order-(2B - 3) component splits into three runs that read off a
solution triple.

partition_to_schedule_pg and schedule_to_partition_pg make both
directions of that equivalence executable, the latter refusing with
NotOptimalShapedError when a schedule's clusters do not respect the
component structure.  The segment model and both mappings are shared
with the interval gadget in gadget.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .burning import BurningSchedule
from .errors import GraphError, InstanceError, InternalError
from .gadget import (
    GadgetArtifact,
    Segment,
    derive_sets,
    place_clusters,
    read_off_partition,
)
from .graph import build_permutation_graph, path_forest
from .partition import Partition3, ThreePartitionInstance


@dataclass(frozen=True)
class ValueSegment:
    """One path component's consecutive value range in the permutation."""

    first: int
    size: int


@dataclass(frozen=True)
class PermutationArtifact(GadgetArtifact):
    """P(X) gadget: permutation, induced path forest, component map.

    The first derived.n segments are the blocks of order 2B - 3, the
    rest are the fillers in decreasing size order; each segment lists
    its component's vertices in path order.
    """

    permutation: tuple[int, ...]

    @property
    def target_rounds(self) -> int:
        return self.derived.m

    @staticmethod
    def order_of(m: int) -> int:
        """Vertices of the gadget whose largest element is m."""
        return m * m


def path_permutation(first: int, length: int) -> tuple[int, ...]:
    """Arrange first..first+length-1 so that they induce a simple path.

    Values u < v are adjacent exactly when v appears before u, so the
    segment interleaves values to chain the whole range: lengths up to
    four are spelled out, longer segments zigzag with small fixups in
    the last two slots depending on parity.  That the values induce a
    path is checked once per gadget, on the whole forest, by
    construct_px.
    """
    if length < 1:
        raise GraphError(
            f"permutation segment needs a positive length, got {length}"
        )
    x, t = first, length
    y = x + t - 1
    if t == 1:
        seq = (x,)
    elif t == 2:
        seq = (y, x)
    elif t == 3:
        seq = (y, x, x + 1)
    elif t == 4:
        seq = (x + 1, y, x, x + 2)
    else:
        values = []
        for h in range(1, t + 1):
            if h % 2:
                if h == t:
                    values.append(y - 1)
                elif h == t - 1:
                    values.append(y)
                else:
                    values.append(x + h + 1)
            else:
                values.append(x if h == 2 else x + h - 3)
        seq = tuple(values)
    if sorted(seq) != list(range(x, y + 1)):
        raise InternalError(f"segment is not a permutation of {x}..{y}")
    return seq


def forest_permutation(
    lengths: Sequence[int],
) -> tuple[tuple[int, ...], tuple[ValueSegment, ...]]:
    """Concatenate path segments over consecutive value ranges.

    Segment j takes the next lengths[j] values; all of an earlier
    segment's values are smaller and appear earlier, so segments never
    invert against each other and the induced graph is the disjoint
    union of the segment paths, one component per length.
    """
    if not lengths:
        raise GraphError("forest permutation needs at least one length")
    values: list[int] = []
    segments: list[ValueSegment] = []
    first = 1
    for t in lengths:
        values.extend(path_permutation(first, t))
        segments.append(ValueSegment(first=first, size=t))
        first += t
    return tuple(values), tuple(segments)


def construct_px(instance: ThreePartitionInstance) -> PermutationArtifact:
    """Build the path-forest gadget whose burning number answers X.

    Components: n of order 2B - 3, then the fillers in decreasing
    order, m * m vertices in total.  Vertex v stands for value v + 1,
    so each segment's vertices are a consecutive id range.  The segment
    paths are read off the graph by graph.path_forest, which must give
    exactly those ranges in order.  That pins the graph to the segment
    model: path_forest's paths hold every vertex once and walk along
    edges, with every degree at most 2 and no cycle, so the graph has
    exactly the model's edges.
    """
    derived = derive_sets(instance)
    n = derived.n
    lengths = [derived.shifted_target] * n + list(derived.fillers)
    permutation, values = forest_permutation(lengths)
    graph = build_permutation_graph(len(permutation), permutation)
    order = PermutationArtifact.order_of(derived.m)
    if graph.n != order:
        raise InternalError(
            f"permutation graph has {graph.n} vertices, not m**2 = {order}"
        )
    # path j must be value segment j: as the paths hold all m * m
    # vertices, its smallest id and its order pin it to that range
    paths = path_forest(graph) or []
    if [(min(path) + 1, len(path)) for path in paths] != [
            (seg.first, seg.size) for seg in values]:
        raise InternalError("permutation does not give the segment paths")
    segments = tuple(
        Segment("block", j + 1, tuple(path)) if j < n
        else Segment("filler", j - n + 1, tuple(path))
        for j, path in enumerate(paths)
    )
    return PermutationArtifact(
        derived=derived,
        segments=segments,
        graph=graph,
        permutation=permutation,
    )


def partition_to_schedule_pg(
    artifact: PermutationArtifact, partition: Partition3
) -> BurningSchedule:
    """Turn a solution into a complete schedule of exactly m rounds.

    Each filler component becomes one cluster centered mid-path; triple
    i tiles block i in ascending order along its path.  The i-th largest
    run ignites in round i.
    """
    return place_clusters(artifact, partition)


def schedule_to_partition_pg(
    artifact: PermutationArtifact, schedule: BurningSchedule | Sequence[int]
) -> Partition3:
    """Recover a solution from any complete m-round schedule.

    Every cluster must be a run inside one component, and the runs must
    tile each component exactly; anything else raises
    NotOptimalShapedError.  Each block then reads off one triple.
    """
    return read_off_partition(artifact, schedule)


def write_permutation(permutation: Sequence[int]) -> str:
    return " ".join(str(v) for v in permutation) + "\n"


def read_permutation(text: str) -> tuple[int, ...]:
    values = []
    for token in text.split():
        try:
            values.append(int(token))
        except ValueError:
            raise InstanceError(f"bad permutation value {token!r}") from None
    if sorted(values) != list(range(1, len(values) + 1)):
        raise InstanceError("text is not a permutation of 1..n")
    return tuple(values)
