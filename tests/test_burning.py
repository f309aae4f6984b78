from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnkit import burning
from burnkit.burning import (
    BurningSchedule,
    assert_agreement,
    clusters,
    greedy_burn,
    read_schedule,
    simulate,
    verify_schedule,
    write_schedule,
)
from burnkit.errors import InputError, ScheduleError
from burnkit.graph import (
    Graph,
    build_comb,
    build_grid,
    build_path,
    build_path_forest,
)
from burnkit.interval_reduction import construct_ig, partition_to_schedule
from burnkit.partition import ThreePartitionInstance, solve_3partition
from burnkit.permutation_reduction import (
    construct_px,
    partition_to_schedule_pg,
)
from conftest import (
    optimal_schedules,
    random_graph,
    reference_greedy_burn,
    reference_verify_schedule,
)

WORKED = ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])


@st.composite
def graphs_and_schedules(draw):
    """A graph on up to 9 vertices and a schedule that may be malformed:
    empty, repeating a source, or naming a vertex out of range."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    )
    sources = draw(st.lists(st.integers(-1, n), max_size=n + 1))
    return Graph(n, edges), sources


def _decide(decider, g, sources):
    """The verdict, or the rejection message if the schedule is refused."""
    try:
        return decider(g, sources)
    except ScheduleError as exc:
        return f"rejected: {exc}"


class TestSimulate:
    def test_path_of_nine_in_three_steps(self):
        # sources v3, v7, v9 in 1-based vertex naming
        g = build_path(9)
        out = simulate(g, [2, 6, 8])
        assert out.complete and out.rounds_used == 3
        for t, burnt in ((1, {2}), (2, {1, 2, 3, 6}), (3, set(range(9)))):
            assert {v for v, r in enumerate(out.burn_round) if r <= t} == burnt

    def test_burn_round_records_first_fire(self):
        out = simulate(build_path(9), [2, 6, 8])
        assert out.burn_round == (3, 2, 1, 2, 3, 3, 2, 3, 3)

    def test_repeated_source_rejected(self):
        with pytest.raises(ScheduleError, match="repeats"):
            simulate(build_path(5), [1, 1])

    def test_source_already_burnt_rejected(self):
        g = build_path(5)
        with pytest.raises(
            ScheduleError, match="source 2 of round 3 already burnt in round 2"
        ):
            simulate(g, [1, 3, 2])

    def test_source_caught_by_same_round_spread_is_fine(self):
        # 2 is unburnt when round 2 starts; the round's own spread may
        # reach it without invalidating the schedule
        out = simulate(build_path(5), [1, 2])
        assert out.burn_round[2] == 2 and not out.complete

    def test_source_out_of_range_rejected(self):
        with pytest.raises(ScheduleError):
            simulate(build_path(3), [5])

    def test_incomplete_schedule(self):
        out = simulate(build_path(9), [0])
        assert not out.complete and out.rounds_used == 1

    def test_to_completion_keeps_spreading(self):
        out = simulate(build_path(9), [4], to_completion=True)
        assert out.complete and out.rounds_used == 5

    def test_to_completion_stops_on_stranded_component(self):
        g = build_path_forest([3, 2])
        out = simulate(g, [1], to_completion=True)
        assert not out.complete and out.burn_round[3] is None

    def test_empty_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            simulate(build_path(3), [])


class TestClusters:
    def test_fig_style_clusters_tile_the_path(self):
        g = build_path(9)
        parts = clusters(g, [2, 6, 8])
        assert [len(c) for c in parts] == [5, 3, 1]
        assert set().union(*parts) == set(range(9))

    def test_grid_clusters(self):
        g = build_grid(3, 3)
        parts = clusters(g, [4, 0, 1])
        assert [len(c) for c in parts] == [9, 3, 1]


class TestVerify:
    def test_accepts_complete(self):
        assert verify_schedule(build_path(9), [2, 6, 8]) is True

    def test_flags_incomplete(self):
        assert verify_schedule(build_path(9), [2, 6]) is False

    def test_rejects_with_round_indices(self):
        with pytest.raises(ScheduleError, match="source 3 of round 3"):
            verify_schedule(build_path(9), [4, 8, 3])

    def test_rejection_names_the_round_the_source_caught_fire(self):
        # vertex 3 lies 3 hops from round 1's source and 1 hop from round
        # 2's, so it catches fire in round 3, not 4
        g, sched = build_path(20), [0, 4, 10, 15, 3]
        message = "source 3 of round 5 already burnt in round 3"
        for decider in (verify_schedule, simulate, assert_agreement):
            with pytest.raises(ScheduleError) as caught:
                decider(g, sched)
            assert str(caught.value) == message

    def test_cross_characterization_random(self):
        rng = random.Random(424242)
        for _ in range(400):
            n = rng.randint(1, 18)
            g = random_graph(rng, n, rng.uniform(0.05, 0.5))
            length = rng.randint(1, min(n, 6))
            sched = [rng.randrange(n) for _ in range(length)]
            try:
                assert_agreement(g, sched)
            except ScheduleError as exc:
                # both deciders rejected, and with the same message
                assert f"rejected: {exc}" == _decide(simulate, g, sched)

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_schedules())
    # vertex 3 is 3 hops from round 1's source, 1 from round 2's
    @example((Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4)]), [0, 4, 5, 6, 3]))
    def test_property_simulate_agrees_with_verify(self, case):
        g, sources = case
        by_union = _decide(verify_schedule, g, sources)
        by_rounds = _decide(
            lambda g, s: simulate(g, s).complete, g, sources
        )
        assert by_union == by_rounds  # a rejection compares messages too

    def test_verdicts_match_reference_decider(self):
        rng = random.Random(1818)
        graphs = [random_graph(rng, rng.randint(1, 22),
                               rng.choice([0.02, 0.08, 0.2, 0.5]))
                  for _ in range(120)]
        graphs += [build_grid(r, c) for r in range(1, 9) for c in (r, 9 - r)]
        graphs += [build_comb(s) for s in (3, 4, 9, 17, 40)]
        graphs += [build_path_forest([rng.randint(1, 12)
                                      for _ in range(rng.randint(1, 6))])
                   for _ in range(20)]
        cases = [(g, list(greedy_burn(g))) for g in graphs]
        solution = solve_3partition(WORKED)
        for build, place in ((construct_ig, partition_to_schedule),
                             (construct_px, partition_to_schedule_pg)):
            gadget = build(WORKED)
            cases.append((gadget.graph, list(place(gadget, solution))))
        checked = 0
        for g, base in cases:
            schedules = [base, base[:-1] or base]
            for i in range(len(base)):
                # one source moved to a neighbour or to any vertex
                for w in (rng.choice(g.adjacency[base[i]] or (base[i],)),
                          rng.randrange(g.n)):
                    schedules.append(base[:i] + [w] + base[i + 1:])
            schedules += [rng.sample(range(g.n), rng.randint(1, min(g.n, 6)))
                          for _ in range(4)]
            for sched in schedules:
                by_field = _decide(verify_schedule, g, sched)
                by_pairs = _decide(reference_verify_schedule, g, sched)
                if isinstance(by_pairs, str):
                    assert isinstance(by_field, str), (sched, by_field)
                else:
                    assert by_field == by_pairs, sched
                checked += 1
        assert checked > 2000

    def test_relabeling_invariance(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, 0.3)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            sched = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
            mapped = [perm[v] for v in sched]
            try:
                a = simulate(g, sched).complete
            except ScheduleError:
                a = None
            try:
                b = simulate(h, mapped).complete
            except ScheduleError:
                b = None
            assert a == b


class TestObservations:
    @pytest.mark.parametrize("n,k", [(4, 2), (9, 3)])
    def test_optimal_path_clusters_pairwise_disjoint(self, n, k):
        g = build_path(n)
        found = 0
        for sched in optimal_schedules(g, k):
            parts = clusters(g, sched)
            found += 1
            for a, b in itertools.combinations(parts, 2):
                assert not (a & b), (sched, parts)
        assert found > 0

    def test_two_spine_sources_on_comb_overlap(self):
        # comb over a 7-vertex spine: whenever two spine-placed clusters
        # of distinct radii cover the whole comb, they share a spine vertex
        from burnkit.graph import ball

        g = build_comb(7)
        spine = set(range(7))
        everything = set(range(g.n))
        covering_pairs = 0
        for x1, x2 in itertools.permutations(sorted(spine), 2):
            for r1 in range(1, 8):
                for r2 in range(r1):
                    c1 = ball(g, (x1,), r1)
                    c2 = ball(g, (x2,), r2)
                    if c1 | c2 == everything:
                        covering_pairs += 1
                        assert c1 & c2 & spine, (x1, x2, r1, r2)
        assert covering_pairs > 50

    @pytest.mark.parametrize("spine", [3, 4, 5, 6, 7, 8, 9, 10])
    def test_comb_burns_like_its_spine_from_one_source(self, spine):
        bare = build_path(spine)
        comb = build_comb(spine)
        for v in range(spine):
            a = simulate(bare, [v], to_completion=True)
            b = simulate(comb, [v], to_completion=True)
            assert a.complete and b.complete
            assert a.rounds_used == b.rounds_used


class TestGreedy:
    def test_completes_on_assorted_graphs(self):
        rng = random.Random(5)
        graphs = [
            build_path(1),
            build_path(17),
            build_grid(4, 6),
            build_path_forest([9, 1, 4]),
            build_comb(9),
        ]
        graphs += [random_graph(rng, rng.randint(1, 25), 0.2)
                   for _ in range(20)]
        for g in graphs:
            sched = greedy_burn(g)
            out = simulate(g, sched)
            assert out.complete and out.rounds_used == len(sched)

    def test_matches_reference_on_random_graphs(self):
        # sparse draws are mostly disconnected, dense ones full of ties
        rng = random.Random(2016)
        for _ in range(150):
            g = random_graph(
                rng, rng.randint(1, 40), rng.choice([0.03, 0.08, 0.2, 0.6])
            )
            assert greedy_burn(g) == reference_greedy_burn(g)

    def test_matches_reference_on_forests_with_isolated_vertices(self):
        # the field-bounded BFS never leaves its component, so the other
        # components keep their start value and stay tied for farthest
        rng = random.Random(88)
        for _ in range(60):
            n = rng.randint(1, 60)
            edges = [(rng.randrange(v), v) for v in range(1, n)
                     if rng.random() < 0.7]
            g = Graph(n + rng.randint(0, 5), edges)
            assert greedy_burn(g) == reference_greedy_burn(g)

    def test_matches_reference_on_random_trees(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 120)
            g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            assert greedy_burn(g) == reference_greedy_burn(g)

    def test_matches_reference_on_structured_graphs(self):
        rng = random.Random(3)
        graphs = [build_path(n) for n in (1, 2, 10, 99)]
        graphs += [build_comb(s) for s in (1, 4, 25)]
        graphs += [build_grid(r, c) for r, c in ((1, 6), (5, 5), (6, 9))]
        graphs += [
            build_path_forest([rng.randint(1, 15) for _ in range(k)])
            for k in (1, 3, 6, 10)
        ]
        graphs += [construct_ig(WORKED).graph, construct_px(WORKED).graph]
        for g in graphs:
            assert greedy_burn(g) == reference_greedy_burn(g)

    def test_matches_reference_where_the_farthest_cursor_moves(self):
        rng = random.Random(22)
        tree = Graph(1000, [(rng.randrange(v), v) for v in range(1, 1000)])
        # three legs of 20 on hub 0: once every leg end burns, the
        # latest burn time falls by more than one in a round
        spider = Graph(61, [(0 if i % 20 == 1 else i - 1, i)
                            for i in range(1, 61)])
        maxima = []
        burns_at = [2 * spider.n + 2] * spider.n
        for t, x in enumerate(greedy_burn(spider), start=1):
            burning._ignite(spider.adjacency, burns_at, x, t)
            maxima.append(max(burns_at))
        assert any(a - b > 1 for a, b in zip(maxima, maxima[1:]))
        # isolated vertices tie at the start value across components
        forests = [
            build_path_forest([1] * 150 + [40] + [1] * 150),
            Graph(400, [(v - 1, v) for v in range(101, 130)]),
        ]
        graphs = [build_path(580), build_path(772), build_comb(260),
                  tree, spider, *forests]
        for g in graphs:
            assert greedy_burn(g) == reference_greedy_burn(g), g

    def test_checks_its_own_schedule(self, monkeypatch):
        # the check is handed the schedule without its last source
        monkeypatch.setattr(burning, "simulate",
                            lambda g, sched: simulate(g, sched.sources[:-1]))
        with pytest.raises(AssertionError, match="does not burn"):
            greedy_burn(build_path(17))

    def test_reasonable_on_paths(self):
        # within the factor guaranteed by restarting at the center
        for n in (1, 4, 9, 25, 64, 100):
            sched = greedy_burn(build_path(n))
            assert len(sched) <= 2 * int(n**0.5) + 2


class TestScheduleIO:
    def test_round_trip(self):
        sched = BurningSchedule.of([4, 0, 2])
        assert tuple(read_schedule(write_schedule(sched))) == (4, 0, 2)

    def test_parse_errors(self):
        with pytest.raises(InputError):
            read_schedule("1 two 3")
        with pytest.raises(InputError):
            read_schedule("  \n")
