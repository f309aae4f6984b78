"""The shared gadget model: reverse check and pinned built gadgets.

Built reductions never reach the reverse check's refusals (their
gadgets have no slack), so each such case here is a tiny segment
layout with room for a complete schedule of the target length that is
not a tiling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from burnkit.errors import NotOptimalShapedError
from burnkit.gadget import GadgetArtifact, Segment, read_off_partition
from burnkit.graph import Graph, build_path
from burnkit.interval_reduction import construct_ig, partition_to_schedule
from burnkit.partition import ThreePartitionInstance, solve_3partition
from burnkit.permutation_reduction import (
    construct_px,
    partition_to_schedule_pg,
)


@dataclass(frozen=True)
class SlackGadget(GadgetArtifact):
    rounds: int
    leaves: tuple[tuple[int, int], ...] = ()

    @property
    def target_rounds(self) -> int:
        return self.rounds

    def leaf_folds(self):
        return self.leaves


def one_segment(kind: str, graph: Graph, order: int, rounds: int, **kw):
    segment = Segment(kind, 1, tuple(range(order)))
    return SlackGadget(None, (segment,), graph, rounds, **kw)


def test_where_maps_path_vertices_and_folds_leaves():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    art = one_segment("comb", g, 3, 2, leaves=((3, 1),))
    assert art.where == {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (0, 1)}


def test_cluster_spilling_off_its_segment_is_refused():
    # P3 in two rounds from an end: the first cluster reaches offset -1
    art = one_segment("filler", build_path(3), 3, 2)
    with pytest.raises(NotOptimalShapedError, match="spills out of filler 1"):
        read_off_partition(art, [0, 2])


def test_overlapping_clusters_are_not_a_tiling():
    # on P7, clusters [1, 5], [0, 2] and [6, 6] cover every vertex
    art = one_segment("block", build_path(7), 7, 3)
    with pytest.raises(NotOptimalShapedError, match="not tiled exactly"):
        read_off_partition(art, [3, 1, 6])


def test_final_source_on_a_leaf_is_refused():
    # the host burns the whole comb, and the leaf is still unburnt when
    # the last round starts
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    art = one_segment("comb", g, 3, 2, leaves=((3, 1),))
    with pytest.raises(NotOptimalShapedError, match="leaf"):
        read_off_partition(art, [1, 3])


# Digests recorded before the model check moved into gadget.py, so that
# both gadgets and their forward schedules stay exactly as they were:
# graph edges, segments (kind, index, vertices), the intervals or the
# permutation, and the schedule for the solver's partition.
PINNED = {
    (10, 11, 12, 14, 15, 16): {
        "ig": ("a053677f6fc1db47", "6991995bba4443e6",
               "81f3c7155f69183b", "e24dc3fef520f393"),
        "pg": ("bea3ebbc5d454819", "5920c600bf897d7c",
               "8ba36e366cb2dad2", "d72ed33df6f3ed9b"),
    },
    (10, 11, 13): {
        "ig": ("1d86c211944900e4", "ffed9919c171de74",
               "2321afe1c07d2eab", "85c6d2da2955425d"),
        "pg": ("ad43dab62361b27c", "729eca75bf81a682",
               "23ab9a038677141e", "37b0e3ed27c6dbbd"),
    },
    (19, 20, 21, 22, 24, 26, 28, 29, 33): {
        "ig": ("9c37766cfa51c0a7", "81d9caedafa02891",
               "cbfa83ee5bbcf63f", "b3612c603d6c7543"),
        "pg": ("799c6eb27a65ab0c", "a648f02a539d06fe",
               "64af1a9aa5efe623", "b2b3f4a25ab5664d"),
    },
    (35, 36, 37, 38, 39, 41, 44, 46, 51, 52, 54, 63): {
        "ig": ("ce4c3064c9e7c40a", "1aca85263fa06bfd",
               "5d9305c4357100bb", "a366937decef3c89"),
        "pg": ("001ef41637660356", "e2a630925204ef2c",
               "ac3cb5de942cb0d7", "0432b9ef059fd5df"),
    },
}


def _digest(value) -> str:
    return hashlib.sha256(repr((value,)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("elements", list(PINNED))
def test_pinned_gadgets_and_forward_schedules(elements):
    inst = ThreePartitionInstance.of(elements)
    partition = solve_3partition(inst)
    ig = construct_ig(inst)
    pg = construct_px(inst)
    built = {
        "ig": (ig, ig.representation.intervals, partition_to_schedule),
        "pg": (pg, pg.permutation, partition_to_schedule_pg),
    }
    for kind, (art, source, forward) in built.items():
        got = (
            _digest(tuple(art.graph.edges())),
            _digest(tuple((s.kind, s.index, s.vertices)
                          for s in art.segments)),
            _digest(source),
            _digest(tuple(forward(art, partition))),
        )
        assert got == PINNED[elements][kind], kind
