"""The shared reverse check on small hand-built gadgets.

Built reductions never reach these refusals (their gadgets have no
slack), so each case here is a tiny segment layout with room for a
complete schedule of the target length that is not a tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from burnkit.errors import NotOptimalShapedError
from burnkit.gadget import GadgetArtifact, Segment, read_off_partition
from burnkit.graph import Graph, build_path


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
