"""The four workloads: seeded op lists, the ops, and their output checks.

An op is one user-visible request.  `run` is the timed part; `check`
runs afterwards, outside the timed region, raises WrongAnswer when the
output is wrong, and returns the number of burning rounds the op's
schedules add up to (0 for ops that produce no schedule).

Sizes are fixed; the seed draws the random structure (tree shapes,
forest groupings, 3-partition values, random edges).  The ops that the
median and the tail read are runs of seed-independent ops of near-equal
cost, so the figures stay alike from seed to seed while every seed
still brings new inputs.

Every call into burnkit goes through the package namespace (`bk.name`),
so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import burnkit as bk
import burnkit.cli  # noqa: F401  (binds bk.cli)

from perfbench import gen

# Node budget of the exact ops, the search's default.
EXACT_NODE_BUDGET = 125_000
# Random trees of 150 vertices or more exhaust any budget that fits a
# run; at baseline they fail.  They run under a small budget, so a
# failure costs well under 0.1 s and the search's preprocessing
# dominates it.  Trees of 100 vertices sometimes finish within it.
TREE_NODE_BUDGET = 2_000
TREE_SIZES = (150, 175, 200)


class WrongAnswer(Exception):
    """An op returned an output that its check rejects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


@dataclass
class Op:
    label: str
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], int]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        ops = _cli_ops(rng, workdir)
    else:
        ops = {"exact": _exact_ops, "bound": _bound_ops,
               "reduction": _reduction_ops}[workload](rng)
    if len({op.label for op in ops}) != len(ops):
        raise ValueError(f"{workload} op labels are not unique")
    return ops


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Deal the groups out round-robin, each in its generated order.

    The order is the same for every seed.  A light op's time depends on
    what ran before it (the heap and the collector's state after a heavy
    op), so a seeded order would move the figures from seed to seed.
    """
    groups = [list(reversed(g)) for g in groups]
    out: list[Op] = []
    while any(groups):
        for g in groups:
            if g:
                out.append(g.pop())
    return out


# --- exact ----------------------------------------------------------------


def _exact_op(label: str, family: str, make_graph, known_k, lower,
              budget: int = EXACT_NODE_BUDGET) -> Op:
    """Build the graph, then search; `lower` is an independent bound."""

    def run():
        g = make_graph()
        return g, bk.exact_burning_number(g, node_budget=budget)

    def check(out) -> int:
        g, res = out
        expect(res.k == len(res.witness), f"witness length != k={res.k}")
        expect(bk.verify_schedule(g, res.witness), "witness does not burn")
        if known_k is not None:
            expect(res.k == known_k, f"k={res.k}, known {known_k}")
        expect(res.k >= lower, f"k={res.k} below lower bound {lower}")
        return res.k

    return Op(label, family, run, check)


# Burning numbers of the seed-independent general ops, recorded once
# from the exact search at baseline (each above the independent lower
# bound the check also applies), so a search that stops returning the
# optimum fails its check.
GRID_K = {7: 5, 8: 6, 9: 6, 10: 6}
COMB_K = {s: 6 if s < 29 else 7 if s < 40 else 8 for s in range(20, 41, 2)}


def _exact_ops(rng: random.Random) -> list[Op]:
    """Path forests and general graphs, about 4 s a pass at baseline.

    The figures read seed-independent ops: paths, whose burning number
    ceil(sqrt(n)) is known, in two runs of consecutive orders, where
    neighbouring ops cost within a few percent of each other.  The m = 15
    two-triple gadget (as a path forest in segment order) and the
    fourteen paths of 387-400 vertices are the slowest fifteen ops, so
    the tail, the eleventh slowest, is one of these paths.  The median
    falls on the twenty-four paths of 266-289 vertices.  The seeded ops
    (tight forests, trees under their small budget, sparse graphs), the
    grids and the combs cost less than either run, except the 8x8 grid
    and the 40 comb, which sit between them.
    """
    forest: list[Op] = []
    for elements in gen.gadget_instances(max_m=15):
        m, b = max(elements), sum(elements) // 2
        forest.append(_exact_op(
            f"gadget-forest-m{m}-b{b}", "forest",
            lambda o=gen.gadget_orders(elements): bk.build_path_forest(o),
            m, 1,
        ))
    for n in (*range(266, 290), *range(387, 401)):
        # a path on n vertices burns in exactly ceil(sqrt(n)) rounds
        k = gen.ceil_sqrt(n)
        forest.append(_exact_op(
            f"path-{n}", "forest", lambda n=n: bk.build_path(n), k, k,
        ))
    for k in range(12, 17):
        orders = gen.tight_forest(rng, k)
        forest.append(_exact_op(
            f"tight-k{k}", "forest",
            lambda o=orders: bk.build_path_forest(o), k, k,
        ))
    general: list[Op] = []
    for side, k in GRID_K.items():
        general.append(_exact_op(
            f"grid-{side}", "general",
            lambda s=side: bk.build_grid(s, s), k,
            max(gen.grid_cover_bound(side, side),
                gen.path_lower_bound(2 * side - 2)),
        ))
    for n in TREE_SIZES:
        edges = gen.random_tree(rng, n)
        general.append(_exact_op(
            f"tree-{n}", "general", lambda n=n, e=edges: bk.Graph(n, e),
            None, gen.path_lower_bound(gen.tree_diameter(n, edges)),
            budget=TREE_NODE_BUDGET,
        ))
    for spine, k in COMB_K.items():
        general.append(_exact_op(
            f"comb-{spine}", "general", lambda s=spine: bk.build_comb(s),
            k, gen.path_lower_bound(spine - 1),
        ))
    for n in range(40, 81, 8):
        edges = gen.sparse_connected(rng, n)
        general.append(_exact_op(
            f"sparse-{n}", "general",
            lambda n=n, e=edges: bk.Graph(n, e), None,
            gen.path_lower_bound(max(gen.eccentricities(n, edges))),
        ))
    return _interleave([forest, general])


# --- bound ----------------------------------------------------------------


def _grid_op(rows: int, cols: int) -> Op:
    def run():
        g = bk.build_grid(rows, cols)
        report = bk.burn_grid_2approx(bk.GridSpec(rows, cols))
        return report, bk.verify_schedule(g, report.schedule)

    def check(out) -> int:
        report, complete = out
        k = len(report.schedule)
        expect(complete, "grid schedule does not burn the grid")
        expect(report.rounds_used == k, "reported rounds != schedule length")
        lower = max(gen.grid_cover_bound(rows, cols),
                    gen.path_lower_bound(rows + cols - 2))
        expect(k >= lower, f"{k} rounds below lower bound {lower}")
        expect(k <= 2 * gen.grid_cover_bound(rows, cols),
               f"{k} rounds above twice the lower bound")
        if rows == cols:
            upper = bk.upper_bound_formula(rows)
            expect(k <= upper, f"{k} rounds above proven bound {upper}")
        return k

    return Op(f"grid-{rows}x{cols}", "grid", run, check)


def _greedy_op(label: str, make_graph, lower: int) -> Op:
    def run():
        g = make_graph()
        schedule = bk.greedy_burn(g)
        return schedule, bk.verify_schedule(g, schedule)

    def check(out) -> int:
        schedule, complete = out
        expect(complete, "greedy schedule does not burn the graph")
        expect(len(schedule) >= lower,
               f"{len(schedule)} rounds below lower bound {lower}")
        return len(schedule)

    return Op(label, "greedy", run, check)


def _bound_ops(rng: random.Random) -> list[Op]:
    """Large sparse graphs, about 4 s a pass at baseline.

    The figures read seed-independent ops: greedy's cost on a path
    grows smoothly with its order (a BFS per round, about 1.1 sqrt(n)
    rounds), so paths of nearby orders cost within a few percent of each
    other.  The five slowest ops are the two grids, the two seeded trees
    and the interval gadget; then come eight paths of 730-772 vertices,
    which hold the tail, the eleventh slowest, and twelve paths of
    580-624 vertices, which hold the median.  The combs cost less.
    """
    grids = [_grid_op(s, s) for s in (200, 250)]
    greedy: list[Op] = []
    for n in (*range(580, 625, 4), *range(730, 773, 6)):
        greedy.append(_greedy_op(f"path-{n}", lambda n=n: bk.build_path(n),
                                 gen.ceil_sqrt(n)))
    for spine in range(200, 261, 10):
        greedy.append(_greedy_op(f"comb-{spine}",
                                 lambda s=spine: bk.build_comb(s),
                                 gen.ceil_sqrt(spine)))
    for n in (1000, 1200):
        edges = gen.random_tree(rng, n)
        greedy.append(_greedy_op(
            f"tree-{n}", lambda n=n, e=edges: bk.Graph(n, e),
            gen.path_lower_bound(gen.tree_diameter(n, edges)),
        ))
    m = 12
    inst = bk.ThreePartitionInstance.of(gen.solvable_instance(rng, 1, m))
    # a solvable instance's gadget burns in exactly 2m + 1 rounds
    greedy.append(_greedy_op(
        f"ig-m{m}", lambda i=inst: bk.construct_ig(i).graph, 2 * m + 1,
    ))
    return _interleave([grids, greedy])


# --- reduction ------------------------------------------------------------


def _roundtrip_op(elements: list[int], rep: int) -> Op:
    inst = bk.ThreePartitionInstance.of(elements)
    m = max(elements)

    def run():
        partition = bk.solve_3partition(inst)
        ig = bk.construct_ig(inst)
        s_ig = bk.partition_to_schedule(ig, partition)
        back_ig = bk.schedule_to_partition(ig, s_ig)
        px = bk.construct_px(inst)
        s_px = bk.partition_to_schedule_pg(px, partition)
        back_px = bk.schedule_to_partition_pg(px, s_px)
        return partition, len(s_ig), back_ig, len(s_px), back_px

    def check(out) -> int:
        partition, k_ig, back_ig, k_px, back_px = out
        for p in (partition, back_ig, back_px):
            expect(gen.partition_ok(elements, p.triples),
                   f"{p.triples} does not partition the instance")
            expect(bk.verify_partition(inst, p), "verify_partition said no")
        expect(k_ig == 2 * m + 1, f"interval schedule has {k_ig} rounds")
        expect(k_px == m, f"permutation schedule has {k_px} rounds")
        return k_ig + k_px

    return Op(f"roundtrip-{len(elements) // 3}x-m{m}-{rep}", "roundtrip",
              run, check)


def _solver_op(label: str, family: str, elements: list[int],
               solvable: bool) -> Op:
    inst = bk.ThreePartitionInstance.of(elements)

    def run():
        return bk.solve_3partition(inst)

    def check(partition) -> int:
        if not solvable:
            expect(partition is None, "unsolvable instance got a solution")
            return 0
        expect(partition is not None, "solvable instance got None")
        expect(gen.partition_ok(elements, partition.triples),
               "solution does not partition the instance")
        expect(bk.verify_partition(inst, partition),
               "verify_partition said no")
        return 0

    return Op(label, family, run, check)


def _reduction_ops(rng: random.Random) -> list[Op]:
    """Round trips on planted instances with largest element 10n + 3.

    A round trip's gadgets have the same size for every seed.  Nine
    ops cost more than a 3-triple round trip, so the tail (the eleventh
    slowest) and the median both fall on the eleven 3-triple round
    trips.
    """
    trips = [_roundtrip_op(gen.solvable_instance(rng, n, 10 * n + 3), rep)
             for n, count in ((1, 3), (2, 3), (3, 11), (4, 1), (5, 2), (6, 2))
             for rep in range(count)]
    # solver-only sizes straddle the solver's recursion depth: at
    # baseline the sizes above 1000 raise RecursionError and count as
    # failed ops
    solver = [
        _solver_op(f"solve-{n}", "solver",
                   gen.structured_instance(rng, n), True)
        for n in (10, 100, 250, 400, 850, 1100, 1300, 1500)
    ]
    solver += [
        _solver_op(f"unsolvable-{n}-{rep}", "unsolvable",
                   gen.unsolvable_instance(rng, n), False)
        for n in (2, 3) for rep in range(2)
    ]
    return _interleave([trips, solver])


# --- cli ------------------------------------------------------------------


def _cli_op(label: str, argv: list[str], want_code: int,
            check_payload: Callable[[str], int]) -> Op:
    """One `burn` invocation: burnkit.cli.main(argv) in this process.

    Output is captured as the console would show it.  Interpreter start
    and the import of burnkit are not part of the op: every workload's
    setup_s pays the import, and the traced run times both apart.
    """

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bk.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(out) -> int:
        code, stdout, stderr = out
        expect(code == want_code,
               f"exit {code}, expected {want_code}: {stderr.strip()[-200:]}")
        try:
            return check_payload(stdout)
        except (KeyError, TypeError) as exc:
            raise WrongAnswer(f"payload lacks {exc}") from None

    return Op(label, argv[0], run, check)


def _payload(stdout: str) -> dict:
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise WrongAnswer(f"no JSON payload in {stdout[-200:]!r}") from None


def _cli_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """Four scripted pipelines of `burn` invocations on seeded inputs.

    Inputs are written here, during set-up.  Each payload is compared
    with the in-process library result, computed during the check.
    """
    ops: list[Op] = []

    def put(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def same_file(path: str, graph_fn):
        def check(_stdout: str) -> int:
            text = Path(path).read_text(encoding="utf-8")
            expect(text == bk.write_graph(graph_fn()),
                   f"{path} differs from the in-process graph")
            return 0
        return check

    for rep, (n, side, k, triples) in enumerate((
            (300, 20, 7, 1), (600, 40, 8, 1), (900, 60, 9, 2),
            (1200, 80, 10, 2))):
        tag = f"{rep}"
        lengths = [rng.randint(1, 40) for _ in range(rng.randint(5, 15))]
        out = str(workdir / f"gen-path-{tag}.graph")
        ops.append(_cli_op(f"gen-path-{n}", ["gen", "path", "--n", str(n),
                                             "--out", out], 0,
                           same_file(out, lambda n=n: bk.build_path(n))))
        out = str(workdir / f"gen-grid-{tag}.graph")
        ops.append(_cli_op(
            f"gen-grid-{side}",
            ["gen", "grid", "--rows", str(side), "--cols", str(side),
             "--out", out], 0,
            same_file(out, lambda s=side: bk.build_grid(s, s))))
        out = str(workdir / f"gen-forest-{tag}.graph")
        ops.append(_cli_op(
            f"gen-forest-{tag}",
            ["gen", "forest", "--lengths", *map(str, lengths), "--out", out],
            0, same_file(out, lambda L=lengths: bk.build_path_forest(L))))

        tree_n = n // 2
        tree_edges = gen.random_tree(rng, tree_n)
        tree = put(f"tree-{tag}.graph", bk.write_graph(bk.Graph(tree_n,
                                                                tree_edges)))

        def greedy_check(stdout, n=tree_n, e=tree_edges):
            got = _payload(stdout)
            want = bk.greedy_burn(bk.Graph(n, e))
            expect(got == {"rounds": len(want), "schedule": list(want)},
                   "greedy payload differs from the library")
            return len(want)

        ops.append(_cli_op(f"greedy-tree-{tree_n}",
                           ["greedy", "--graph", tree, "--report", "json"], 0,
                           greedy_check))

        kk = gen.ceil_sqrt(n)
        path_file = put(f"path-{tag}.graph", bk.write_graph(bk.build_path(
            kk * kk)))
        sched = put(f"path-{tag}.sched", " ".join(
            map(str, gen.optimal_path_schedule(kk))) + "\n")

        def verify_check(stdout, kk=kk):
            expect(_payload(stdout) == {"complete": True, "rounds": kk},
                   "verify payload differs")
            return kk

        ops.append(_cli_op(
            f"verify-path-{kk * kk}",
            ["verify", "--graph", path_file, "--schedule", sched,
             "--report", "json"], 0, verify_check))

        orders = gen.tight_forest(rng, k)
        forest = put(f"forest-{tag}.graph",
                     bk.write_graph(bk.build_path_forest(orders)))

        def exact_check(stdout, orders=orders, k=k):
            got = _payload(stdout)
            want = bk.exact_burning_number(bk.build_path_forest(orders))
            expect(got == {"k": want.k, "schedule": list(want.witness),
                           "nodes_explored": want.nodes_explored},
                   "exact payload differs from the library")
            expect(want.k == k, f"k={want.k}, known {k}")
            return want.k

        ops.append(_cli_op(f"exact-forest-k{k}",
                           ["exact", "--graph", forest, "--report", "json"],
                           0, exact_check))

        rows, cols = side, side + 10

        def grid_check(stdout, rows=rows, cols=cols):
            got = _payload(stdout)
            rep_ = bk.burn_grid_2approx(bk.GridSpec(rows, cols))
            expect(got["schedule"] == list(rep_.schedule)
                   and got["rounds"] == rep_.rounds_used
                   and got["lower_bound"] == rep_.lower_bound
                   and got["upper_bound"] == rep_.upper_bound,
                   "grid payload differs from the library")
            return rep_.rounds_used

        ops.append(_cli_op(
            f"grid-{rows}x{cols}",
            ["grid", "--rows", str(rows), "--cols", str(cols),
             "--report", "json"], 0, grid_check))

        elements = gen.solvable_instance(rng, triples, 10 * triples + 3)
        inst_file = put(f"inst-{tag}.txt", " ".join(map(str, elements))
                        + "\n")
        inst = bk.ThreePartitionInstance.of(elements)

        def part_check(stdout, inst=inst):
            got = _payload(stdout)
            want = bk.solve_3partition(inst)
            expect(got == {"solvable": True,
                           "triples": [list(t) for t in want.triples]},
                   "3part payload differs from the library")
            return 0

        ops.append(_cli_op(f"3part-{triples}x-{tag}",
                           ["3part", "--in", inst_file, "--report", "json"],
                           0, part_check))

        for kind, construct, forward, backward, rounds in (
            ("ig", bk.construct_ig, bk.partition_to_schedule,
             bk.schedule_to_partition, 2 * max(elements) + 1),
            ("pg", bk.construct_px, bk.partition_to_schedule_pg,
             bk.schedule_to_partition_pg, max(elements)),
        ):
            witness = str(workdir / f"witness-{kind}-{tag}.sched")

            def reduce_check(stdout, inst=inst, construct=construct,
                             forward=forward, rounds=rounds):
                got = _payload(stdout)
                art = construct(inst)
                want = forward(art, bk.solve_3partition(inst))
                expect(got["witness"] == list(want)
                       and got["vertices"] == art.graph.n
                       and got["target_rounds"] == rounds == len(want),
                       "reduce payload differs from the library")
                return rounds

            def extract_check(stdout, art_of=lambda i=inst, c=construct: c(i),
                              back=backward, witness=witness,
                              elements=elements):
                got = _payload(stdout)
                expect(gen.partition_ok(elements, got["triples"]),
                       "extracted triples do not partition the instance")
                sched = bk.read_schedule(Path(witness).read_text("utf-8"))
                want = back(art_of(), sched)
                expect(got["triples"] == [list(t) for t in want.triples],
                       "extracted triples differ from the library")
                return 0

            ops.append(_cli_op(
                f"reduce-{kind}-{triples}x-{tag}",
                [f"reduce-{kind}", "--in", inst_file, "--witness", witness,
                 "--report", "json"], 0, reduce_check))
            ops.append(_cli_op(
                f"extract-{kind}-{triples}x-{tag}",
                [f"extract-{kind}", "--artifact", inst_file, "--schedule",
                 witness, "--report", "json"], 0, extract_check))

        bad = put(f"bad-{tag}.graph", f"{n} 1\n0 {n + 5}\n")
        ops.append(_cli_op(f"malformed-{tag}",
                           ["greedy", "--graph", bad, "--report", "json"], 2,
                           lambda _stdout: 0))
        hard = put(f"hard-{tag}.graph", bk.write_graph(bk.build_grid(11, 11)))
        ops.append(_cli_op(f"exhausted-{tag}",
                           ["exact", "--graph", hard, "--budget", "10",
                            "--report", "json"], 3, lambda _stdout: 0))
    return ops
