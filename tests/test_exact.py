from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import burning, exact, graph
from burnkit.burning import greedy_burn, simulate, verify_schedule
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
from conftest import naive_burning_number, random_graph, reference_search


def profile(g: Graph, radius_cap: int) -> _Profile:
    """_Profile from greedy's census, at any radius cap."""
    _, *census = burning._greedy_census(g)
    return _Profile(g, *census, radius_cap=radius_cap)


def count_calls(monkeypatch, name: str, home=graph) -> list[tuple]:
    """Record the arguments of every call to home.<name>, at every binding."""
    real, calls = getattr(home, name), []

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


def test_cycles_burn_like_paths():
    # a cycle of n vertices, like a path, burns in ceil(sqrt(n)) rounds
    # (Bonato, Janssen and Roshanbin); its census takes the closed form
    for n in range(3, 61):
        res = exact_burning_number(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
        assert res.k == math.isqrt(n - 1) + 1, n


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

    def test_huge_k_costs_no_more_than_n(self):
        # no schedule has more than n sources, so k is cut to n before
        # bin covering plans one centre per round
        g = build_path(9)
        witness = can_burn_in(g, 2**62)
        assert witness is not None and len(witness) <= 9
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


def small_graph(kind: str, n: int, seed: int) -> Graph:
    """A seeded G(n, 0.3), random tree or random path forest on n
    vertices; the tree's and the forest's ids are shuffled, so that no
    path follows id order."""
    rng = random.Random(seed)
    if kind == "gnp":
        return random_graph(rng, n, 0.3)
    if kind == "tree":
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    else:
        cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
        orders = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        edges = list(build_path_forest(orders).edges())
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph(n, [(ids[u], ids[v]) for u, v in edges])


class TestDecisionPath:
    """can_burn_in and exact_burning_number share one ladder; can_burn_in
    keeps its schedule only when it has at most k rounds."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["gnp", "tree", "forest"]),
           n=st.integers(1, 10), seed=st.integers(0, 2**16))
    def test_can_burn_in_agrees_with_the_burning_number(self, kind, n, seed):
        g = small_graph(kind, n, seed)
        best = exact_burning_number(g).k
        assert exact._generic_ladder(g).k == best
        for k in range(n + 2):
            sched = can_burn_in(g, k)
            if k < best:
                assert sched is None
            else:
                assert sched is not None and len(sched) <= k
                assert verify_schedule(g, sched)


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
        exact._generic_ladder(build_path(50))
        # one centre search gives greedy's centre and the profile's diameter
        assert len(calls) == centre_runs == 3
        calls.clear()
        # bin covering decides a path with no BFS at all
        exact_burning_number(build_path(50))
        assert calls == []
        # every vertex of a cycle has the same eccentricity, which the
        # closed form reads off after the one BFS that checks the cycle
        exact_burning_number(Graph(60, [(i, (i + 1) % 60) for i in range(60)]))
        assert len(calls) == 1

    def test_long_cycle_census_runs_one_bfs(self, monkeypatch):
        # the bound search would take n / 2 BFS runs here, O(n**2) steps
        n = 20_000
        cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        calls = count_calls(monkeypatch, "bfs_distances")
        schedule = greedy_burn(cycle)  # checked by simulate on the way
        assert schedule.sources[0] == 0 and len(calls) == 1
        calls.clear()
        # the census finishes, then the masks' size guard refuses the search
        with pytest.raises(BudgetExceededError, match="ball masks"):
            exact_burning_number(cycle)
        assert len(calls) == 1

    def test_one_census_per_call(self, monkeypatch):
        # a path of 9, a star on 4 and a lone vertex: the star's centre
        # has degree 3, so every run below takes the generic search
        g = Graph(14, [*build_path_forest([9]).edges(),
                       (9, 10), (9, 11), (9, 12)])
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

    def test_smaller_components_search_their_own_rows(self, monkeypatch):
        # a star on 5 beside 100 stars and 100 paths on 4 each: the
        # smaller components' centre searches allocate distance lists
        # of their own 4 vertices, not of all n, so a forest of many
        # small components costs linear time, not components * n
        edges = [(0, v) for v in range(1, 5)]
        for c in range(5, 805, 8):
            edges += [(c, c + 1), (c, c + 2), (c, c + 3)]
            edges += [(c + 4, c + 5), (c + 5, c + 6), (c + 6, c + 7)]
        g = Graph(805, edges)
        _, components, largest, diameter = burning._greedy_census(g)
        lengths = []
        real = graph.bfs_distances

        def recorded(h, sources):
            dist = real(h, sources)
            lengths.append(len(dist))
            return dist

        monkeypatch.setattr(graph, "bfs_distances", recorded)
        p = exact._Profile(g, components, largest, diameter, radius_cap=2)
        assert len(lengths) >= 200 and set(lengths) == {4}
        assert p.diameters == [2] + [2, 3] * 100

    def test_a_greedy_fit_stays_in_the_largest_component(self, monkeypatch):
        # two largest components: greedy_burn starts in the first, 5..13;
        # the star on 26..29 keeps the forest off the path-forest route
        g = Graph(30, [*build_path_forest([5, 9, 3, 9]).edges(),
                       (26, 27), (26, 28), (26, 29)])
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
        assert exact._generic_ladder(g).k == 8
        with pytest.raises(BudgetExceededError, match="ball masks") as exc:
            profile(g, cap + 1)
        assert exc.value.nodes_explored == 0
        with pytest.raises(BudgetExceededError, match="ball masks"):
            exact._generic_ladder(build_path(51))
        # bin covering builds no masks
        assert exact_burning_number(build_path(51)).k == 8
        # radii past the diameter store nothing, so they count for nothing
        assert profile(Graph(50, []), 60).masks[0] == [1]


class TestPinnedResults:
    """Pinned (k, witness, nodes_explored) of the generic cover search,
    reached through its private entry point even on path forests: a
    change to the search or to cover realisation shows here.

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
        res = exact._generic_ladder(make())
        assert (res.k, tuple(res.witness), res.nodes_explored) == (
            k, witness, nodes
        )

    def test_worked_permutation_gadget(self):
        art = construct_px(ThreePartitionInstance.of([10, 11, 12, 14, 15, 16]))
        res = exact._generic_ladder(art.graph)
        assert res.k == 16 and res.nodes_explored == 103_624
        assert tuple(res.witness) == (
            16, 88, 137, 161, 64, 42, 112, 182,
            200, 212, 226, 234, 244, 248, 254, 255,
        )


class TestPathForests:
    """Path forests are decided by bin covering on their path orders."""

    @settings(max_examples=80, deadline=None)
    @given(orders=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_agrees_with_the_generic_search(self, orders, seed):
        # ids shuffled, so no path runs in id order
        forest = build_path_forest(orders)
        ids = list(range(forest.n))
        random.Random(seed).shuffle(ids)
        g = Graph(forest.n, [(ids[u], ids[v]) for u, v in forest.edges()])
        res = exact_burning_number(g)
        assert res.k == exact._generic_ladder(g).k == len(res.witness)
        assert verify_schedule(g, res.witness)
        assert can_burn_in(g, res.k - 1) is None
        sched = can_burn_in(g, res.k)
        assert len(sched) <= res.k and verify_schedule(g, sched)

    def test_paths_burn_in_ceil_sqrt(self):
        for n in range(1, 401):
            g = build_path(n)
            res = exact_burning_number(g)
            assert res.k == math.isqrt(n - 1) + 1
            assert verify_schedule(g, res.witness)

    @pytest.mark.parametrize("g", [
        Graph(9, [(i, (i + 1) % 9) for i in range(9)]),  # a cycle
        Graph(9, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (0, 6),
                  (6, 7), (7, 8)]),  # a spider with three legs
        # a forest plus one chord: the chord closes its path into a cycle
        Graph(13, [*build_path_forest([6, 4, 3]).edges(), (0, 5)]),
        # a cycle beside two paths
        Graph(12, [*build_path_forest([5, 4, 3]).edges(), (0, 4)]),
    ], ids=["cycle", "spider", "forest-plus-chord", "cycle-and-paths"])
    def test_other_graphs_take_the_generic_search(self, g, monkeypatch):
        bins = count_calls(monkeypatch, "_cover_paths", exact)
        generic = count_calls(monkeypatch, "_greedy_census", burning)
        res = exact_burning_number(g)
        assert can_burn_in(g, res.k - 1) is None
        assert (len(bins), len(generic)) == (0, 2)
        assert verify_schedule(g, res.witness)

    def test_path_forests_skip_greedy_centres_and_masks(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a path forest reached the generic search")

        bins = count_calls(monkeypatch, "_cover_paths", exact)
        for name in ("_greedy_census", "_Profile"):
            monkeypatch.setattr(exact, name, forbidden)
        monkeypatch.setattr(graph, "center_and_diameter", forbidden)
        g = build_path_forest([9, 4, 1])
        assert exact_burning_number(g).k == 4
        assert can_burn_in(g, 3) is None  # below the bound: no search
        assert verify_schedule(g, can_burn_in(g, 4))
        assert len(bins) == 2

    @pytest.mark.parametrize("make,k,witness,nodes", [
        (lambda: build_path(14), 4, (3, 9, 13, 0), 4),
        (lambda: build_path_forest([9, 4, 1]), 4, (3, 11, 8, 13), 5),
        (lambda: build_path_forest([2 * i + 1 for i in range(16)]), 16,
         (240, 210, 182, 156, 132, 110, 90, 72, 56, 42, 30, 20, 12, 6, 2, 0),
         17),
    ])
    def test_pinned_results(self, make, k, witness, nodes):
        res = exact_burning_number(make())
        assert (res.k, tuple(res.witness), res.nodes_explored) == (
            k, witness, nodes
        )

    def test_worked_permutation_gadget(self):
        art = construct_px(ThreePartitionInstance.of([10, 11, 12, 14, 15, 16]))
        start = time.perf_counter()
        res = exact_burning_number(art.graph)
        elapsed = time.perf_counter() - start
        assert res.k == 16 and res.nodes_explored == 17
        assert tuple(res.witness) == (
            91, 13, 41, 161, 116, 138, 66, 182,
            200, 212, 226, 234, 244, 248, 254, 255,
        )
        assert verify_schedule(art.graph, res.witness)
        assert elapsed < 0.5  # about 0.4 ms on one x86 core

    def test_a_zero_slack_forest_exhausts_a_small_budget(self):
        # twelve paths whose orders group the odd sizes 1..59 exactly:
        # 900 vertices, burning number 30, and bin covering's weak case
        # (it needs about 1.3 million nodes to find the split)
        orders = [1, 87, 104, 97, 12, 56, 59, 102, 15, 172, 90, 105]
        assert sum(orders) == 30 * 30
        g = build_path_forest(orders)
        with pytest.raises(BudgetExceededError) as exc:
            exact_burning_number(g, node_budget=10_000)
        assert str(exc.value) == "search budget of 10000 nodes exhausted"
        assert exc.value.nodes_explored == 10_001


class TestBudget:
    def test_budget_error_carries_node_count(self):
        # 16 odd paths admit a 16-round burn only through a full tiling,
        # far beyond a 3-node allowance
        g = build_path_forest([2 * i + 1 for i in range(16)])
        with pytest.raises(BudgetExceededError) as exc:
            exact._generic_ladder(g, node_budget=3)
        assert exc.value.nodes_explored >= 3
        # bin covering needs a node per size and one more
        with pytest.raises(BudgetExceededError) as exc:
            can_burn_in(g, 16, node_budget=3)
        assert str(exc.value) == "search budget of 3 nodes exhausted"
        assert exc.value.nodes_explored == 4

    def test_result_reports_nodes(self):
        res = exact_burning_number(build_path(16))
        assert res.nodes_explored >= 0

    def test_the_ladder_shares_one_budget(self):
        # k = 7 is refuted in 27 nodes and k = 8 is found in 7 more
        g = build_path_forest([5, 6, 6, 12, 7, 11])
        res = exact._generic_ladder(g)
        assert (res.k, res.nodes_explored) == (8, 34)
        assert can_burn_in(g, 7) is None
        with pytest.raises(BudgetExceededError) as exc:
            exact._generic_ladder(g, node_budget=33)
        assert str(exc.value) == "search budget of 33 nodes exhausted"
        assert exc.value.nodes_explored == 34

    def test_the_bin_covering_ladder_shares_one_budget(self):
        # bin covering refutes k = 7 in 5 nodes and finds k = 8 in 7 more
        g = build_path_forest([5, 6, 6, 12, 7, 11])
        res = exact_burning_number(g)
        assert (res.k, res.nodes_explored) == (8, 12)
        with pytest.raises(BudgetExceededError) as exc:
            exact_burning_number(g, node_budget=11)
        assert str(exc.value) == "search budget of 11 nodes exhausted"
        assert exc.value.nodes_explored == 12


class TestMemo:
    @pytest.mark.parametrize("make,search,nodes,uncached", [
        (lambda: build_comb(20), exact_burning_number, 309, 327),
        (lambda: build_path_forest([5, 6, 6, 12, 7, 11]),
         exact._generic_ladder, 34, 40),
        (lambda: build_path_forest([4, 13, 35, 34, 39, 19]),
         exact_burning_number, 87, 96),
    ])
    def test_no_memo_gives_the_same_answer(self, make, search, nodes,
                                           uncached, monkeypatch):
        # a refuted state holds no goal, so forgetting it only costs
        # nodes: k and the witness stay
        g = make()
        res = search(g)
        monkeypatch.setattr(exact, "_MEMO_CAP", 0)
        capped = search(g)
        assert (capped.k, capped.witness) == (res.k, res.witness)
        assert (res.nodes_explored, capped.nodes_explored) == (nodes, uncached)


def search_outcomes(g: Graph) -> list[tuple | None]:
    """What the cover search answers on g: the ladder's (k, witness,
    nodes), can_burn_in at k - 1, k and k + 1, and the budget error of
    the ladder one node short."""

    def settle(run) -> tuple | None:
        try:
            found = run()
        except BudgetExceededError as exc:
            return str(exc), exc.nodes_explored
        return None if found is None else tuple(found)

    res = exact._generic_ladder(g)
    out = [(res.k, tuple(res.witness), res.nodes_explored)]
    out += [settle(lambda j=j: can_burn_in(g, res.k + j)) for j in (-1, 0, 1)]
    if res.nodes_explored:
        out.append(settle(lambda: exact._generic_ladder(
            g, node_budget=res.nodes_explored - 1)))
    return out


class TestCentreLists:
    """The cover search reads a target's centres off _Profile.around,
    nearest first; conftest.reference_search keeps the mask scan it
    replaced, which tested every free radius's ball for the target."""

    @staticmethod
    def corpus() -> list[Graph]:
        rng = random.Random(2020)
        graphs = [
            random_graph(rng, rng.randint(1, 20), rng.uniform(0.05, 0.4))
            for _ in range(600)
        ]
        graphs += [build_grid(side, side) for side in range(5, 9)]
        graphs += [build_comb(spine) for spine in range(20, 41, 2)]
        return graphs

    def test_same_results_as_the_mask_scan(self, monkeypatch):
        graphs = self.corpus()
        got = [search_outcomes(g) for g in graphs]
        monkeypatch.setattr(exact, "_search", reference_search)
        assert got == [search_outcomes(g) for g in graphs]
        # greedy settles most small graphs; 120 of 615 reach the search,
        # the ladders take 23,044 nodes between them, most on grid-8 and
        # comb-40
        searched = [out[0][2] for out in got if out[0][2]]
        assert len(searched) >= 100 and sum(searched) > 20_000

    def test_random_trees_end_at_the_same_node(self, monkeypatch):
        # random recursive trees of 150 vertices, as the benchmark draws
        # them, under its 2,000-node budget: seed 150 is solved just
        # inside it, seed 151 exhausts it
        def settle(seed: int) -> tuple:
            rng = random.Random(seed)
            g = Graph(150, [(rng.randrange(v), v) for v in range(1, 150)])
            try:
                res = exact_burning_number(g, node_budget=2_000)
            except BudgetExceededError as exc:
                return str(exc), exc.nodes_explored
            return res.k, tuple(res.witness), res.nodes_explored

        got = [settle(150), settle(151)]
        monkeypatch.setattr(exact, "_search", reference_search)
        assert got == [settle(150), settle(151)]
        assert got[0][0::2] == (6, 1_906)
        assert got[1] == ("search budget of 2000 nodes exhausted", 2_001)

    def test_centres_come_nearest_first(self):
        rng = random.Random(164)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 18), rng.uniform(0.08, 0.4))
            dist = [bfs_distances(g, (v,)) for v in range(g.n)]
            for cap in range(5):
                p = profile(g, cap)
                for t in range(g.n):
                    near = p.around(t)
                    assert p.around(t) is near  # built once, then kept
                    # every centre in t's stored balls, each once, at its
                    # distance from t, nearest first
                    reach = len(p.masks[t]) - 1
                    assert reach <= cap
                    listed = [v for _, v, _ in near]
                    assert sorted(listed) == [
                        v for v in range(g.n) if 0 <= dist[t][v] <= reach
                    ]
                    assert [d for d, _, _ in near] == [
                        dist[t][v] for v in listed]
                    assert [d for d, _, _ in near] == sorted(
                        d for d, _, _ in near)
                    for _, v, row in near:
                        ball = p.masks[v]
                        assert row == ball + [ball[-1]] * (
                            cap + 1 - len(ball))

    @pytest.mark.parametrize("cap", [0, 40])
    def test_a_capped_cache_changes_nothing(self, cap, monkeypatch):
        rng = random.Random(40)
        graphs = [build_grid(6, 6), build_comb(30), build_comb(20)]
        graphs += [random_graph(rng, 16, 0.2) for _ in range(10)]
        want = [search_outcomes(g) for g in graphs]
        uncapped = profile(build_grid(6, 6), 4)
        lists = [uncapped.around(t) for t in range(36)]
        assert uncapped.kept > cap
        monkeypatch.setattr(exact, "_NEAR_CAP", cap)
        assert [search_outcomes(g) for g in graphs] == want
        capped = profile(build_grid(6, 6), 4)
        assert [capped.around(t) for t in range(36)] == lists
        assert capped.kept <= cap
        assert sum(near is not None for near in capped.near) < 36


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
        res = exact._generic_ladder(g)
        elapsed = time.perf_counter() - start
        assert (res.k, res.nodes_explored) == (1001, 0)
        assert elapsed < 8.0  # 0.5-0.7 s on one x86 core
        # bin covering runs one chain of nodes per attempted k
        res = exact_burning_number(g)
        assert (res.k, res.nodes_explored) == (1001, 1999)
        assert verify_schedule(g, res.witness)

    def test_a_thousand_components_searched_as_deep_as_k(self):
        # lower bound 1,000 and greedy 1,001: each search at k = 1,000
        # holds one open node per placed radius (or size), far past the
        # default recursion limit, and finds the cover along its first
        # branch
        g = build_path_forest([3] * 999 + [1])
        start = time.perf_counter()
        res = exact._generic_ladder(g)
        elapsed = time.perf_counter() - start
        assert (res.k, res.nodes_explored) == (1000, 1001)
        assert verify_schedule(g, res.witness)
        assert elapsed < 12.0  # 1.0-1.2 s on one x86 core
        res = exact_burning_number(g)
        assert (res.k, res.nodes_explored) == (1000, 1001)
        assert verify_schedule(g, res.witness)
        sched = can_burn_in(g, 1000)
        assert len(sched) == 1000 and verify_schedule(g, sched)
        assert can_burn_in(g, 999) is None
