from __future__ import annotations

import math
import random

import pytest

from burnkit import burning, exact, graph
from burnkit.burning import greedy_burn, simulate
from burnkit.errors import BudgetExceededError
from burnkit.exact import _Profile, can_burn_in, exact_burning_number
from burnkit.graph import (
    Graph,
    bfs_distances,
    build_comb,
    build_grid,
    build_path,
    build_path_forest,
)
from burnkit.partition import ThreePartitionInstance
from burnkit.permutation_reduction import construct_px
from conftest import naive_burning_number, random_graph


class TestPaths:
    @pytest.mark.parametrize("n", list(range(1, 37)))
    def test_closed_form(self, n):
        # a path of n vertices burns in ceil(sqrt(n)) rounds
        res = exact_burning_number(build_path(n))
        assert res.k == math.isqrt(n - 1) + 1

    def test_witness_is_replayable(self):
        g = build_path(25)
        res = exact_burning_number(g)
        out = simulate(g, res.witness)
        assert out.complete and out.rounds_used == res.k == 5


class TestAgainstBruteForce:
    def test_small_random_graphs(self):
        rng = random.Random(20260815)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
            res = exact_burning_number(g)
            assert res.k == naive_burning_number(g), g.edges

    def test_small_structured_graphs(self):
        cases = [
            (build_grid(2, 3), 3),
            (build_grid(3, 3), 3),
            (build_path_forest([9, 1]), 4),
            (Graph(5, []), 5),
            (Graph(1, []), 1),
        ]
        for g, expected in cases:
            assert exact_burning_number(g).k == expected

    def test_complete_graphs_burn_in_two(self):
        for n in (2, 3, 7, 12):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            assert exact_burning_number(Graph(n, edges)).k == 2


class TestCanBurnIn:
    def test_below_lower_bound_is_none(self):
        assert can_burn_in(build_path(26), 5) is None
        assert can_burn_in(build_path(9), 0) is None

    def test_at_answer_gives_witness(self):
        g = build_path(9)
        witness = can_burn_in(g, 3)
        assert witness is not None and len(witness) <= 3
        assert simulate(g, witness).complete

    def test_generous_k_still_returns_short_witness(self):
        g = build_path(9)
        witness = can_burn_in(g, 8)
        assert witness is not None and len(witness) <= 8
        assert simulate(g, witness).complete

    @pytest.mark.parametrize("g", [
        build_grid(10, 10), build_comb(12), build_path_forest([7, 3, 5, 1]),
    ])
    def test_below_lower_bound_needs_no_search(self, g):
        lb = _Profile(g, g.n).lower_bound()
        assert lb > 2
        for k in range(lb):
            assert can_burn_in(g, k, node_budget=0) is None
        # at the bound itself greedy is too long, so the search must run
        assert len(greedy_burn(g)) > lb
        with pytest.raises(BudgetExceededError):
            can_burn_in(g, lb, node_budget=0)


class TestProfile:
    def test_balls_match_a_bfs_oracle(self):
        rng = random.Random(606)
        graphs = [build_comb(6), build_path_forest([4, 1, 6]), Graph(3, [])]
        graphs += [
            random_graph(rng, rng.randint(1, 16), rng.uniform(0.05, 0.3))
            for _ in range(40)
        ]
        for g in graphs:
            rows = [bfs_distances(g, (v,)) for v in range(g.n)]
            ecc = [max(row) for row in rows]
            for cap in range(-1, max(ecc) + 2):
                p = _Profile(g, cap)
                assert p.order == sorted(
                    range(g.n), key=lambda v: (g.degree(v), v)
                )
                rank = {u: i for i, u in enumerate(p.order)}

                def ball(v, r):
                    return sum(1 << rank[u] for u, d in enumerate(rows[v])
                               if 0 <= d <= r)

                for v in range(g.n):
                    assert p.masks[v] == [
                        ball(v, r) for r in range(min(ecc[v], max(cap, 0)) + 1)
                    ]
                for r in range(max(ecc) + 2):
                    biggest = max(ball(v, r).bit_count() for v in range(g.n))
                    # exact as far as the search reads, never below beyond
                    if r <= cap + 1:
                        assert p.maxball_at(r) == biggest
                    assert p.maxball_at(r) >= biggest
                assert p.diameters == [
                    max(ecc[v] for v in comp) for comp in p.components
                ]

    def test_no_bfs_per_vertex(self, monkeypatch):
        real, calls = bfs_distances, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (graph, burning, exact):
            if vars(module).get("bfs_distances") is real:
                monkeypatch.setattr(module, "bfs_distances", counted)
        graph.radical_center(build_path(50))
        centre_runs = len(calls)
        assert 0 < centre_runs <= 4
        calls.clear()
        greedy_burn(build_path(50))
        # greedy's later sources run their own field-bounded BFS
        assert len(calls) == centre_runs
        calls.clear()
        exact_burning_number(build_path(50))
        # the greedy bound's centre and the profile's diameter, no more
        assert len(calls) <= 10

    def test_oversized_masks_are_refused(self, monkeypatch):
        g = build_path(50)
        cap = len(greedy_burn(g)) - 2  # exact_burning_number's radius cap
        # the limit holds exactly the masks of radii 0..cap on 50 vertices
        monkeypatch.setattr(exact, "_MAX_MASK_BITS", 50 * 50 * (cap + 1))
        assert exact_burning_number(g).k == 8
        with pytest.raises(BudgetExceededError, match="ball masks") as exc:
            exact._Profile(g, radius_cap=cap + 1)
        assert exc.value.nodes_explored == 0
        with pytest.raises(BudgetExceededError, match="ball masks"):
            exact_burning_number(build_path(51))
        # radii past the diameter store nothing, so they count for nothing
        assert exact._Profile(Graph(50, []), radius_cap=60).masks[0] == [1]


class TestPinnedResults:
    """Pinned (k, witness, nodes_explored): a change to the search or
    to cover realisation shows here.

    Each case reaches the search, so the witness comes out of cover
    realisation; on the random graph a planned centre is missing and
    the smallest unburnt vertex stands in.
    """

    @pytest.mark.parametrize("make,k,witness,nodes", [
        (lambda: build_path(14), 4, (3, 11, 7, 0), 4),
        (lambda: build_comb(7), 3, (2, 5, 10), 4),
        (lambda: build_path_forest([9, 4, 1]), 4, (3, 10, 7, 13), 5),
        (lambda: Graph(10, [
            (0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 3), (1, 8),
            (2, 3), (4, 9), (6, 9), (8, 9),
        ]), 3, (1, 0, 2), 3),
    ])
    def test_small_graphs(self, make, k, witness, nodes):
        res = exact_burning_number(make())
        assert (res.k, tuple(res.witness), res.nodes_explored) == (
            k, witness, nodes
        )

    def test_worked_permutation_gadget(self):
        art = construct_px(ThreePartitionInstance.of([10, 11, 12, 14, 15, 16]))
        res = exact_burning_number(art.graph)
        assert res.k == 16 and res.nodes_explored == 103_624
        assert tuple(res.witness) == (
            16, 88, 137, 161, 64, 42, 112, 182,
            200, 212, 226, 234, 244, 248, 254, 255,
        )


class TestBudget:
    def test_budget_error_carries_node_count(self):
        # 16 odd paths admit a 16-round burn only through a full tiling,
        # far beyond a 3-node allowance
        g = build_path_forest([2 * i + 1 for i in range(16)])
        with pytest.raises(BudgetExceededError) as exc:
            can_burn_in(g, 16, node_budget=3)
        assert exc.value.nodes_explored >= 3

    def test_result_reports_nodes(self):
        res = exact_burning_number(build_path(16))
        assert res.nodes_explored >= 0


class TestLargerInstances:
    def test_spread_out_forest(self):
        # 16 paths of the odd lengths 1, 3, ..., 31 burn in exactly 16:
        # total order 256 means 16 rounds can just barely cover it
        lengths = [2 * i + 1 for i in range(16)]
        g = build_path_forest(lengths)
        res = exact_burning_number(g)
        assert res.k == 16
        out = simulate(g, res.witness)
        assert out.complete and out.rounds_used == 16

    def test_disjoint_cliques(self):
        # three K_4s need one source each plus a spare round
        edges = []
        for base in (0, 4, 8):
            edges += [
                (base + u, base + v) for u in range(4) for v in range(u + 1, 4)
            ]
        assert exact_burning_number(Graph(12, edges)).k == 4
