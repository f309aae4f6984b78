from __future__ import annotations

import math
import random
import time

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


def profile(g: Graph, radius_cap: int) -> _Profile:
    """_Profile from the census the greedy bound takes, at any radius cap."""
    _, *census = exact._greedy_bound(g)
    return _Profile(g, *census, radius_cap=radius_cap)


def count_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to graph.<name>, at every binding."""
    real, calls = getattr(graph, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (graph, burning, exact):
        if vars(module).get(name) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


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
        lb = profile(g, g.n).lower_bound()
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
                p = profile(g, cap)
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
        calls = count_calls(monkeypatch, "bfs_distances")
        graph.radical_center(build_path(50))
        centre_runs = len(calls)
        assert 0 < centre_runs <= 4
        calls.clear()
        greedy_burn(build_path(50))
        # greedy's later sources run their own field-bounded BFS
        assert len(calls) == centre_runs
        calls.clear()
        exact_burning_number(build_path(50))
        # one centre search gives greedy's centre and the profile's diameter
        assert len(calls) == centre_runs == 3
        calls.clear()
        # every vertex of a cycle has the same eccentricity
        exact_burning_number(Graph(60, [(i, (i + 1) % 60) for i in range(60)]))
        assert len(calls) == 60

    def test_one_census_per_call(self, monkeypatch):
        g = build_path_forest([9, 4, 1])
        each_once = sorted((g, c) for c in graph.connected_components(g))
        components = count_calls(monkeypatch, "connected_components")
        centres = count_calls(monkeypatch, "center_and_diameter")
        for run in (
            lambda: exact_burning_number(g),
            lambda: can_burn_in(g, 4),  # greedy takes 5, the search 4
            lambda: can_burn_in(g, 3),  # below the bound
        ):
            components.clear()
            centres.clear()
            run()
            assert components == [(g,)]
            assert sorted(centres) == each_once

    def test_a_greedy_fit_stays_in_the_largest_component(self, monkeypatch):
        # two largest components: greedy_burn starts in the first, 5..13
        g = build_path_forest([5, 9, 3, 9])
        heuristic = greedy_burn(g)
        calls = count_calls(monkeypatch, "bfs_distances")
        graph.radical_center(g, range(5, 14))
        centre_runs = len(calls)
        calls.clear()

        def no_masks(*args, **kwargs):
            raise AssertionError("greedy fits, yet ball masks were built")

        monkeypatch.setattr(exact, "_Profile", no_masks)
        assert can_burn_in(g, len(heuristic)) == heuristic
        assert len(calls) == centre_runs == 3
        assert all(5 <= sources[0] < 14 for _, sources in calls)

    def test_oversized_masks_are_refused(self, monkeypatch):
        g = build_path(50)
        cap = len(greedy_burn(g)) - 2  # exact_burning_number's radius cap
        # the limit holds exactly the masks of radii 0..cap on 50 vertices
        monkeypatch.setattr(exact, "_MAX_MASK_BITS", 50 * 50 * (cap + 1))
        assert exact_burning_number(g).k == 8
        with pytest.raises(BudgetExceededError, match="ball masks") as exc:
            profile(g, cap + 1)
        assert exc.value.nodes_explored == 0
        with pytest.raises(BudgetExceededError, match="ball masks"):
            exact_burning_number(build_path(51))
        # radii past the diameter store nothing, so they count for nothing
        assert profile(Graph(50, []), 60).masks[0] == [1]


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

    def test_a_thousand_components_in_one_bounding_pass(self):
        # 1,000 paths of 3 take a round each and one more, which greedy
        # meets, so no search runs; the time limit catches a lower bound
        # that costs k**2 * components steps (tens of seconds here)
        g = build_path_forest([3] * 1000)
        start = time.perf_counter()
        res = exact_burning_number(g)
        elapsed = time.perf_counter() - start
        assert (res.k, res.nodes_explored) == (1001, 0)
        assert elapsed < 8.0  # 0.5-0.7 s on one x86 core
