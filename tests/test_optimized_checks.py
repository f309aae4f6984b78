"""Checks that carry weight must survive `python -O`.

Each one raises InternalError, an AssertionError, explicitly rather
than through an `assert` statement.  One optimized subprocess drives
every such check with data that must fail it.
"""

from __future__ import annotations

from conftest import run_python

SCRIPT = """
from dataclasses import replace

from burnkit import (
    burning, exact, gadget, grid, interval_reduction, partition,
    permutation_reduction,
)
from burnkit.burning import greedy_burn
from burnkit.errors import InternalError
from burnkit.gadget import settle_block_triples
from burnkit.graph import Graph, build_path
from burnkit.grid import GridSpec, burn_grid_2approx
from burnkit.partition import Partition3, ThreePartitionInstance

if __debug__:
    raise SystemExit("asserts are on: run under python -O")

TINY = ThreePartitionInstance.of([4, 5, 6])


def expect(label, call):
    try:
        call()
    except InternalError as exc:
        print(label, exc)
    else:
        print(label, "went unchecked")


def without_last_edge(g):
    return Graph(g.n, list(g.edges())[:-1])


def drop_last_edge(build):
    return lambda *args: without_last_edge(build(*args))


expect("settle", lambda: settle_block_triples(
    {0: [9, 11, 7], 1: [5, 3, 1]}, [0], [(1, 9)]
))
expect("realize", lambda: exact._realize(build_path(5), [0]))
SOLVED = partition.solve_3partition(TINY)
ART = permutation_reduction.construct_px(TINY)
CUT = replace(ART, graph=without_last_edge(ART.graph))
expect("place", lambda: gadget.place_clusters(CUT, SOLVED))
WITNESS = gadget.place_clusters(ART, SOLVED)
settle = gadget.settle_block_triples
gadget.settle_block_triples = lambda *args: Partition3.of([(4, 5, 7)])
expect("read-off", lambda: gadget.read_off_partition(ART, WITNESS))
gadget.settle_block_triples = settle
interval_reduction._caterpillar = drop_last_edge(
    interval_reduction._caterpillar
)
expect("interval", lambda: interval_reduction.construct_ig(TINY))
permutation_reduction.build_permutation_graph = drop_last_edge(
    permutation_reduction.build_permutation_graph
)
expect("permutation", lambda: permutation_reduction.construct_px(TINY))
permutation_reduction.build_permutation_graph = (
    lambda size, perm: Graph(size + 1, [])
)
expect("order", lambda: permutation_reduction.construct_px(TINY))
# both burners' checks are handed their schedule without its last source
simulate = burning.simulate
burning.simulate = grid.simulate = (
    lambda g, sched: simulate(g, sched.sources[:-1])
)
expect("greedy", lambda: greedy_burn(build_path(17)))
expect("grid", lambda: burn_grid_2approx(GridSpec(5, 5)))
# last: every caller of verify_partition now sees a refusal
partition.verify_partition = lambda *args: False
expect("solver", lambda: partition.solve_3partition(TINY))
"""


def test_explicit_checks_raise_under_optimize():
    done = run_python(SCRIPT, "-O")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "settle parity and the block sum force three",
        "realize cover failed to burn out during realization",
        "place placed clusters do not burn the whole gadget",
        "read-off read-off triples do not solve the instance",
        "interval interval representation does not give the "
        "spine-plus-leaves caterpillar",
        "permutation permutation does not give the segment paths",
        "order permutation graph has 37 vertices, not m**2 = 36",
        "greedy greedy schedule does not burn the whole graph",
        "grid grid schedule does not burn the whole grid",
        "solver solver triples do not solve the instance",
    ]
