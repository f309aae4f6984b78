"""Checks that carry weight must survive `python -O`.

Each one raises AssertionError explicitly rather than through an
`assert` statement.  One optimized subprocess drives every such check
with data that must fail it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import burnkit

SCRIPT = """
from burnkit import burning, interval_reduction, permutation_reduction
from burnkit.burning import BurningSchedule, greedy_burn
from burnkit.gadget import settle_block_triples
from burnkit.graph import Graph, build_path
from burnkit.partition import ThreePartitionInstance

if __debug__:
    raise SystemExit("asserts are on: run under python -O")

TINY = ThreePartitionInstance.of([4, 5, 6])


def expect(label, call):
    try:
        call()
    except AssertionError as exc:
        print(label, exc)
    else:
        print(label, "went unchecked")


def drop_last_edge(build):
    def built(*args):
        g = build(*args)
        return Graph(g.n, list(g.edges())[:-1])
    return built


expect("settle", lambda: settle_block_triples(
    {0: [9, 11, 7], 1: [5, 3, 1]}, [0], [(1, 9)]
))
interval_reduction.build_interval_graph = drop_last_edge(
    interval_reduction.build_interval_graph
)
expect("interval", lambda: interval_reduction.construct_ig(TINY))
permutation_reduction.build_permutation_graph = drop_last_edge(
    permutation_reduction.build_permutation_graph
)
expect("permutation", lambda: permutation_reduction.construct_px(TINY))
farthest_first = burning._farthest_first
burning._farthest_first = lambda *args: BurningSchedule(
    farthest_first(*args).sources[:-1]
)
expect("greedy", lambda: greedy_burn(build_path(17)))
"""


def test_explicit_checks_raise_under_optimize():
    src = str(Path(burnkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "settle parity and the block sum force three",
        "interval interval representation does not give the "
        "spine-plus-leaves caterpillar",
        "permutation permutation does not give the segment paths",
        "greedy greedy schedule does not burn the whole graph",
    ]
