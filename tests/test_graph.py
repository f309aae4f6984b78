from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from burnkit import graph as graph_module
from burnkit.grid import GridSpec, burn_grid_2approx
from burnkit.errors import GraphError
from burnkit.graph import (
    _MAX_READ_ORDER,
    UNREACHED,
    Graph,
    IntervalRepresentation,
    bfs_distances,
    ball,
    ball_distances,
    build_comb,
    build_grid,
    build_interval_graph,
    build_path,
    build_path_forest,
    build_permutation_graph,
    center_and_diameter,
    connected_components,
    interval_graph_is,
    is_connected,
    path_forest,
    radical_center,
    read_graph,
    read_intervals,
    write_graph,
    write_intervals,
)
from burnkit.interval_reduction import construct_ig
from burnkit.partition import ThreePartitionInstance
from burnkit.permutation_reduction import construct_px
from conftest import random_graph, random_solvable_instance


class TestGraphBasics:
    def test_adjacency_sorted_and_deduped(self):
        g = Graph(4, [(1, 0), (0, 1), (2, 3), (0, 3)])
        assert g.neighbors(0) == (1, 3)
        assert g.m == 3

    def test_rejects_bad_vertices(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])
        with pytest.raises(GraphError):
            Graph(0, [])
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1.5)]),
        (3, [(0, 1.0)]),
        (2.5, [(0, 1)]),
        ("3", [(0, 1)]),
        (3, [(0, "1")]),
        (3, [(0, 1, 2)]),
        (3, [(0,)]),
        (3, [5]),
        (3, None),
    ])
    def test_non_integer_input_is_a_graph_error(self, n, edges):
        with pytest.raises(GraphError, match="integer"):
            Graph(n, edges)

    def test_equality_ignores_edge_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_path(self, n):
        g = build_path(n)
        assert g.n == n and g.m == n - 1
        degs = sorted(g.degree(v) for v in range(n))
        if n >= 3:
            assert degs == [1, 1] + [2] * (n - 2)

    def test_grid_row_major(self):
        g = build_grid(2, 3)
        assert g.n == 6 and g.m == 7
        assert g.neighbors(0) == (1, 3)
        assert g.neighbors(4) == (1, 3, 5)

    def test_forest_components(self):
        g = build_path_forest([3, 1, 2])
        comps = sorted(sorted(c) for c in connected_components(g))
        assert comps == [[0, 1, 2], [3], [4, 5]]

    def test_comb_shape(self):
        g = build_comb(5)
        assert g.n == 5 + 3
        # hosts 1..3 carry one leaf each
        assert [g.degree(v) for v in range(8)] == [1, 3, 3, 3, 1, 1, 1, 1]
        assert g.neighbors(5) == (1,)

    def test_comb_degenerate(self):
        assert build_comb(1).n == 1
        assert build_comb(2).m == 1
        with pytest.raises(GraphError):
            build_comb(0)

    def test_interval_graph_by_hand(self):
        rep = IntervalRepresentation(((0, 2), (1, 3), (4, 5), (5, 6)))
        g = build_interval_graph(rep)
        assert tuple(g.edges()) == ((0, 1), (2, 3))

    def test_permutation_graph_by_hand(self):
        # inversions of (3,1,5,2,4): {1,3} {2,3} {2,5} {4,5} as values
        g = build_permutation_graph(5, [3, 1, 5, 2, 4])
        assert tuple(g.edges()) == ((0, 2), (1, 2), (1, 4), (3, 4))
        with pytest.raises(GraphError):
            build_permutation_graph(3, [1, 2])
        with pytest.raises(GraphError):
            build_permutation_graph(3, [1, 2, 2])

    def test_permutation_graph_matches_pairwise_definition(self):
        def pairwise(perm):
            pos = {value: idx for idx, value in enumerate(perm)}
            return Graph(len(perm), [
                (i - 1, j - 1)
                for i in range(1, len(perm) + 1)
                for j in range(i + 1, len(perm) + 1)
                if pos[j] < pos[i]
            ])

        rng = random.Random(17)
        perms = [[1], list(range(1, 41)), list(range(40, 0, -1))]
        for _ in range(150):
            perm = list(range(1, rng.randint(1, 60) + 1))
            rng.shuffle(perm)
            perms.append(perm)
        for perm in perms:
            g = build_permutation_graph(len(perm), perm)
            assert g == pairwise(perm), perm


def _rebuilt(g):
    """The same graph through the validating constructor."""
    return Graph(g.n, list(g.edges()))


def _trusted_corpus():
    """Every generator's graph, on the inputs the identity check covers."""
    for rows in range(1, 31):
        for cols in range(1, 31):
            yield build_grid(rows, cols)
    for n in range(1, 501):
        yield build_path(n)
    for spine in range(1, 40):
        yield build_comb(spine)
    rng = random.Random(1515)
    forests = [[1], [2], [1, 1], [1, 1, 1], [1, 2], [2, 1], [3, 1, 2],
               [1, 5, 1], [7], [1] * 9]
    forests += [[rng.randint(1, 6) for _ in range(rng.randint(1, 12))]
                for _ in range(120)]
    for lengths in forests:
        yield build_path_forest(lengths)
    for _ in range(150):
        n = rng.randint(1, 45)
        spans = []
        for _ in range(n):
            lo = rng.randint(0, 40)
            spans.append((lo, lo + rng.randint(0, 9)))
        yield build_interval_graph(IntervalRepresentation(tuple(spans)))
    for _ in range(150):
        perm = list(range(1, rng.randint(1, 45) + 1))
        rng.shuffle(perm)
        yield build_permutation_graph(len(perm), perm)
    instances = [ThreePartitionInstance.of([4, 5, 6]),
                 ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])]
    instances += [random_solvable_instance(rng, n)[0] for n in range(1, 5)]
    for instance in instances:
        yield construct_ig(instance).graph


class TestTrustedRows:
    """Generators skip Graph's checks; their graphs must not tell."""

    def test_generators_match_the_validating_constructor(self):
        count = 0
        for g in _trusted_corpus():
            want = _rebuilt(g)
            assert g.adjacency == want.adjacency, g
            assert g.m == want.m and hash(g) == hash(want), g
            assert type(g.adjacency) is tuple
            assert all(type(row) is tuple for row in g.adjacency)
            count += 1
        assert count == 900 + 500 + 39 + 130 + 150 + 150 + 6

    def test_generator_rows_share_one_int_per_vertex(self):
        # sizes pass 256: CPython caches the small ints, which would
        # share even in fresh rows
        rng = random.Random(22)
        perm = list(range(1, 401))
        rng.shuffle(perm)
        spans = [(lo, lo + rng.randint(0, 9))
                 for lo in (rng.randint(0, 400) for _ in range(300))]
        forests = [[1] * 300, [1, 299, 1], [150, 1, 1, 150, 1],
                   [rng.choice([1, 1, 2, 7]) for _ in range(120)]]
        artifact = construct_ig(
            ThreePartitionInstance.of([10, 11, 12, 14, 15, 16]))
        graphs = [
            *(build_path(n) for n in (1, 2, 300)),
            *(build_grid(r, c) for r, c in ((1, 300), (300, 1), (20, 30))),
            *(build_path_forest(lengths) for lengths in forests),
            *(build_comb(spine) for spine in (1, 2, 3, 200)),
            build_interval_graph(IntervalRepresentation(tuple(spans))),
            build_permutation_graph(len(perm), perm),
            artifact.graph,
        ]
        assert sum(forests[3]) > 256
        for g in graphs:
            want = _rebuilt(g)
            assert g.adjacency == want.adjacency, g
            assert g.m == want.m and hash(g) == hash(want), g
            # the gadget's leaf rows hold their hosts as the segment
            # model gives them; its spine rows come from one id list
            rows = g.adjacency
            if g is artifact.graph:
                rows = rows[:artifact.spine_len]
            entries = [v for row in rows for v in row]
            assert len({id(v) for v in entries}) == len(set(entries)), g

    def test_generators_bypass_the_validating_constructor(self, monkeypatch):
        def refuse(self, n, edges):
            raise RuntimeError("validating constructor called")

        monkeypatch.setattr(Graph, "__init__", refuse)
        instance = ThreePartitionInstance.of([10, 11, 12, 14, 15, 16])
        graphs = [
            build_path(7), build_grid(4, 5), build_path_forest([3, 1, 2]),
            build_comb(6),
            build_interval_graph(IntervalRepresentation(((0, 2), (2, 4)))),
            build_permutation_graph(3, [3, 1, 2]),
            construct_ig(instance).graph, construct_px(instance).graph,
        ]
        assert [g.m for g in graphs[:6]] == [6, 31, 3, 9, 1, 2]
        report = burn_grid_2approx(GridSpec(6, 6))
        assert report.rounds_used == len(report.schedule)
        # the untrusted paths still reach the validating constructor
        with pytest.raises(RuntimeError, match="validating"):
            Graph(2, [(0, 1)])
        with pytest.raises(RuntimeError, match="validating"):
            read_graph("2 1\n0 1\n")

    def test_interval_graph_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(88)
        for _ in range(80):
            spans: set[tuple[int, int]] = set()
            for _ in range(rng.randint(1, 30)):
                lo = rng.randint(0, 30)
                spans.add((lo, lo + rng.randint(0, 6)))
            # endpoints that only touch: [a, b] and [b, c] meet at b
            lo, hi = rng.choice(sorted(spans))
            spans.add((hi, hi + rng.randint(0, 4)))
            spans.add((lo - rng.randint(0, 3), lo))
            ordered = list(spans)  # distinct, so an interval names one id
            rng.shuffle(ordered)
            g = build_interval_graph(IntervalRepresentation(tuple(ordered)))
            ident = {span: i for i, span in enumerate(ordered)}
            h = nx.interval_graph(ordered)
            assert sorted(ident[s] for s in h.nodes) == list(range(g.n))
            want = sorted(
                tuple(sorted((ident[a], ident[b]))) for a, b in h.edges
            )
            assert list(g.edges()) == want

    def test_permutation_graph_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(89)
        for _ in range(80):
            size = rng.randint(1, 40)
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            g = build_permutation_graph(size, perm)
            # values i < j are adjacent iff j comes first: an inversion
            h = nx.Graph()
            h.add_nodes_from(range(size))
            h.add_edges_from(
                (min(a, b) - 1, max(a, b) - 1)
                for x, a in enumerate(perm) for b in perm[x + 1:] if a > b
            )
            assert g.n == h.number_of_nodes()
            want = sorted(tuple(sorted(e)) for e in h.edges)
            assert list(g.edges()) == want


def _random_spans(rng: random.Random) -> list[tuple[int, int]]:
    """Closed intervals on small coordinates, negative ones included:
    nested and identical spans come up by chance, and touching ones are
    added on purpose ([a, b] and [b, c] meet at b)."""
    spans = []
    for _ in range(rng.randint(1, 30)):
        lo = rng.randint(-25, 25)
        spans.append((lo, lo + rng.randint(0, 8)))
    for _ in range(rng.randint(0, 3)):
        lo, hi = rng.choice(spans)
        spans.append(rng.choice([(hi, hi + rng.randint(0, 4)),
                                 (lo - rng.randint(0, 4), lo),
                                 (lo, hi)]))
    rng.shuffle(spans)
    return spans


class TestIntervalGraphIs:
    """interval_graph_is against the graph build_interval_graph sweeps."""

    def test_agrees_with_the_built_graph(self):
        rng = random.Random(2101)
        reps = [IntervalRepresentation(((3, 3),)),
                IntervalRepresentation(((-4, -1), (-1, 2), (2, 2), (-4, 2)))]
        reps += [IntervalRepresentation(tuple(_random_spans(rng)))
                 for _ in range(300)]
        matched = 0
        for rep, other in zip(reps, reps[1:] + reps[:1]):
            g = build_interval_graph(rep)
            assert interval_graph_is(rep, g), rep
            # another representation's graph, equal only by chance
            h = build_interval_graph(other)
            assert interval_graph_is(rep, h) == (g == h), (rep, other)
            matched += g == h
        assert matched < len(reps) // 10

    def test_rejects_one_edge_off(self):
        rng = random.Random(2102)
        for _ in range(200):
            rep = IntervalRepresentation(tuple(_random_spans(rng)))
            g = build_interval_graph(rep)
            edges = list(g.edges())
            have = set(edges)
            missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if (u, v) not in have]
            wrong = []
            if edges:
                kept = edges.copy()
                kept.pop(rng.randrange(len(kept)))
                wrong.append(kept)  # one dropped: the count differs
                if missing:  # one moved: the count holds
                    wrong.append(kept + [rng.choice(missing)])
            if missing:
                wrong.append(edges + [rng.choice(missing)])  # one added
            for bad in wrong:
                assert not interval_graph_is(rep, Graph(g.n, bad)), rep
            # the same edges on one vertex more, or one fewer
            assert not interval_graph_is(rep, Graph(g.n + 1, edges))
            if g.n > 1 and not g.adjacency[-1]:
                assert not interval_graph_is(rep, Graph(g.n - 1, edges))

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2103)
        for _ in range(80):
            spans = list(dict.fromkeys(_random_spans(rng)))  # distinct
            ident = {span: i for i, span in enumerate(spans)}
            h = nx.interval_graph(spans)
            g = Graph(len(spans), [(ident[a], ident[b]) for a, b in h.edges])
            assert interval_graph_is(IntervalRepresentation(tuple(spans)), g)


class TestDistances:
    def test_bfs_and_ball(self):
        g = build_path(5)
        assert bfs_distances(g, (0,)) == [0, 1, 2, 3, 4]
        assert bfs_distances(g, (0, 4)) == [0, 1, 2, 1, 0]
        assert ball(g, (2,), 1) == {1, 2, 3}
        assert ball(g, (0,), 0) == {0}

    def test_disconnected_unreached(self):
        g = build_path_forest([2, 2])
        dist = bfs_distances(g, (0,))
        assert dist[2] == -1 and dist[3] == -1
        assert not is_connected(g)

    def test_radical_center_of_path(self):
        assert radical_center(build_path(9)) == 4

    def test_radical_center_within_a_component(self):
        g = build_path_forest([3, 6])
        assert radical_center(g, [3, 4, 5, 6, 7, 8]) == 5
        assert radical_center(g, [0, 1, 2]) == 1
        with pytest.raises(GraphError, match="connected"):
            radical_center(g)

    def test_center_and_diameter_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 25)
            g = Graph(n, [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.12
            ])
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            for comp in connected_components(g):
                ecc = nx.eccentricity(h.subgraph(comp))
                assert center_and_diameter(g, comp) == (
                    min(comp, key=lambda v: (ecc[v], v)),
                    max(ecc.values()),
                )
            for bad in (-1, n):
                with pytest.raises(GraphError, match="out of range"):
                    center_and_diameter(g, [bad])

    def test_distances_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(61)
        disconnected = 0
        for _ in range(120):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, rng.choice((0.03, 0.08, 0.15, 0.4)))
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            disconnected += not nx.is_connected(h)
            sources = rng.sample(range(n), rng.randint(1, min(n, 4)))
            want = nx.multi_source_dijkstra_path_length(h, sources)
            assert bfs_distances(g, sources) == [
                want.get(v, UNREACHED) for v in range(n)
            ]
            for radius in range(4):
                assert ball_distances(g, sources, radius) == {
                    v: d for v, d in want.items() if d <= radius
                }
        assert disconnected > 40

    def test_ball_distances_agree_with_bfs(self):
        g = build_grid(5, 5)
        full = bfs_distances(g, (12, 0))
        for radius in range(5):
            got = ball_distances(g, (12, 0), radius)
            want = {v: d for v, d in enumerate(full) if d <= radius}
            assert got == want
            assert ball(g, (12, 0), radius) == set(want)


def _shuffled_paths(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Edges of random paths over shuffled ids 0..n-1, some closed into
    cycles, plus now and then one random edge (it may give a vertex
    degree 3, close a cycle or join two paths)."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges: set[tuple[int, int]] = set()
    start = 0
    while start < n:
        seg = ids[start:start + rng.randint(1, 8)]
        start += len(seg)
        if len(seg) >= 3 and rng.random() < 0.1:
            seg.append(seg[0])
        edges.update((min(u, v), max(u, v)) for u, v in zip(seg, seg[1:]))
    if n >= 2 and rng.random() < 0.2:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return edges


class TestPathForest:
    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(363)
        forests = isolated = cycles = branched = 0
        for _ in range(400):
            n = rng.randint(1, 30)
            g = Graph(n, sorted(_shuffled_paths(rng, n)))
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            paths = path_forest(g)
            if max(d for _, d in h.degree) > 2:
                branched += 1
                assert paths is None
                continue
            if not nx.is_forest(h):
                cycles += 1
                assert paths is None
                continue
            forests += 1
            isolated += any(d == 0 for _, d in h.degree)
            assert sorted(map(sorted, paths)) == sorted(
                map(sorted, nx.connected_components(h)))
            for path in paths:
                # each path walks its component in order, from the
                # smaller end
                assert all(h.has_edge(u, v) for u, v in zip(path, path[1:]))
                assert path[0] <= path[-1]
            assert [p[0] for p in paths] == sorted(p[0] for p in paths)
        assert min(forests, isolated, cycles, branched) > 20

    def test_small_cases(self):
        assert path_forest(Graph(3, [])) == [[0], [1], [2]]
        assert path_forest(Graph(4, [(1, 3), (0, 3), (0, 2)])) == [
            [1, 3, 0, 2]]
        # a triangle beside a path, and a star on four vertices
        assert path_forest(Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])) is None
        assert path_forest(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None
        # two claws beside a 4-cycle: the walks from the ends count each
        # claw's centre three times and miss the cycle, so the vertex
        # count alone would pass it
        assert path_forest(Graph(12, [
            (0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
            (8, 9), (9, 10), (10, 11), (8, 11),
        ])) is None


def _brute_centre_and_diameter(g, comp):
    ecc = {v: max(bfs_distances(g, (v,))) for v in comp}
    return min(comp, key=lambda v: (ecc[v], v)), max(ecc.values())


class TestCentreAndDiameter:
    """center_and_diameter against one BFS per vertex, per component."""

    @staticmethod
    def graphs():
        rng = random.Random(808)
        yield Graph(1, [])
        yield Graph(6, [])
        for n in range(2, 32):  # odd and even: the middle tie on even ones
            yield build_path(n)
        for n in range(3, 61):  # cycles take the closed form
            yield Graph(n, [(i, (i + 1) % n) for i in range(n)])
        # a cycle on shuffled ids beside a path, and a cycle with a tail
        ids = [3 + 7 * i % 17 for i in range(17)]
        yield Graph(20, [(0, 1), (1, 2), *zip(ids, ids[1:] + ids[:1])])
        yield Graph(9, [*((i, (i + 1) % 7) for i in range(7)), (6, 7),
                        (7, 8)])
        for n in range(2, 9):
            yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        for rows in range(1, 8):
            for cols in range(1, 8):
                yield build_grid(rows, cols)
        for spine in (1, 2, 5, 12):
            yield build_comb(spine)
        yield build_path_forest([4, 1, 7, 2])
        for _ in range(60):
            n = rng.randint(1, 80)
            yield Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        for _ in range(60):  # mostly disconnected at these densities
            n = rng.randint(1, 40)
            p = rng.choice([0.03, 0.06, 0.1, 0.3])
            yield Graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < p])
        # many small components, those under n / 128 vertices searched
        # on their own rows: random trees, then a sparse G(n, p)
        edges, n = [], 0
        for size in [rng.randint(1, 7) for _ in range(150)]:
            edges += [(n + rng.randrange(v), n + v) for v in range(1, size)]
            n += size
        yield Graph(n, edges)
        yield Graph(700, [(u, v) for u in range(700)
                          for v in range(u + 1, 700) if rng.random() < 0.002])

    def test_matches_brute_force(self):
        for g in self.graphs():
            for comp in connected_components(g):
                assert center_and_diameter(g, comp) == (
                    _brute_centre_and_diameter(g, comp)
                ), (g.n, list(g.edges()), comp)

    def test_path_middle_tie_goes_to_smaller_id(self):
        assert center_and_diameter(build_path(10), range(10)) == (4, 9)
        assert center_and_diameter(build_path(9), range(9)) == (4, 8)
        assert radical_center(build_path(2)) == 0

    def test_refuses_a_part_of_a_component(self):
        # alone, and beside 2,000 lone vertices, where the parts are
        # searched on their own rows
        for g in (build_path_forest([3, 6]),
                  build_path_forest([3, 6] + [1] * 2000)):
            for part in ([0, 1], [0, 1, 2, 3], [3, 4, 5, 6, 7, 8, 8],
                         [0, 0, 1], [0, 1, 3], [0, 1, 9]):
                with pytest.raises(GraphError, match="one component"):
                    center_and_diameter(g, part)
            with pytest.raises(GraphError, match="no sources"):
                center_and_diameter(g, [])


class TestSerialization:
    def test_graph_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph(n, edges)
            assert read_graph(write_graph(g)) == g

    def test_graph_parse_errors(self):
        with pytest.raises(GraphError):
            read_graph("")
        with pytest.raises(GraphError):
            read_graph("nonsense\n")
        with pytest.raises(GraphError):
            read_graph("2 1\n0 5\n")

    def test_repeated_edge_line_is_refused(self):
        # Graph keeps one copy, so the header's count would not hold
        with pytest.raises(GraphError, match="repeats"):
            read_graph("3 2\n0 1\n0 1\n")
        with pytest.raises(GraphError, match="repeats"):
            read_graph("4 3\n0 1\n2 3\n0 1\n")
        g = read_graph("3 2\n0 1\n1 2\n")
        assert g.m == 2 and read_graph(write_graph(g)) == g

    def test_oversized_header_is_refused_before_allocation(self, monkeypatch):
        def built(n, edges):
            edges = list(edges)
            return SimpleNamespace(n=n, edges=edges, m=len(edges))

        monkeypatch.setattr(graph_module, "Graph", built)
        at_limit = read_graph(f"{_MAX_READ_ORDER} 0\n")
        assert (at_limit.n, at_limit.edges) == (_MAX_READ_ORDER, [])
        for n in (_MAX_READ_ORDER + 1, 10_000_000_000):
            with pytest.raises(GraphError, match="exceeds the limit"):
                read_graph(f"{n} 0\n")
        assert _MAX_READ_ORDER >= 450 * 450

    def test_interval_round_trip(self):
        rep = IntervalRepresentation(((0, 2), (1, 3), (4, 5)))
        back = read_intervals(write_intervals(rep))
        assert back.intervals == rep.intervals
