"""Command-line entry point.

One operation per invocation, line-oriented file formats, and stable
exit codes so pipelines can script every workflow: 0 success, 1 a
verification or extraction failure (including unsolvable instances
when a witness was requested), 2 malformed input, 3 search budget
exhausted, 4 an internal fault: a failed self-check or any other error.
BURN_BUDGET in the environment overrides the default search budget; an
explicit --budget flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable

from .burning import (
    assert_agreement,
    greedy_burn,
    read_schedule,
    write_schedule,
)
from .errors import (
    BudgetExceededError,
    ExtractionError,
    InputError,
    InternalError,
    ScheduleError,
)
from .exact import DEFAULT_NODE_BUDGET, exact_burning_number
from .graph import (
    build_grid,
    build_interval_graph,
    build_path,
    build_path_forest,
    build_permutation_graph,
    read_graph,
    read_intervals,
    write_graph,
    write_intervals,
)
from .grid import GridSpec, burn_grid_2approx
from .interval_reduction import (
    construct_ig,
    partition_to_schedule,
    schedule_to_partition,
)
from .partition import read_instance, solve_3partition, write_instance
from .permutation_reduction import (
    construct_px,
    partition_to_schedule_pg,
    read_permutation,
    schedule_to_partition_pg,
    write_permutation,
)

OK, FAILED, MALFORMED, EXHAUSTED, INTERNAL = 0, 1, 2, 3, 4

WORKED_EXAMPLE = (10, 11, 12, 14, 15, 16)


def _budget(args: argparse.Namespace) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("BURN_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"BURN_BUDGET must be an integer, got {env!r}")
    return DEFAULT_NODE_BUDGET


def _emit(args: argparse.Namespace, payload: dict, text: list[str]) -> None:
    if getattr(args, "report", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text:
            print(line)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _triples_text(partition) -> str:
    return "; ".join(" ".join(str(a) for a in t) for t in partition.triples)


# --- gen ------------------------------------------------------------------


def _gen_forest(args: argparse.Namespace):
    lengths = list(args.lengths or ())
    if args.random:
        if args.max_len < 1:
            raise InputError(
                f"--max-len must be at least 1, got {args.max_len}"
            )
        rng = random.Random(args.seed)
        lengths.extend(
            rng.randint(1, args.max_len) for _ in range(args.random)
        )
    return build_path_forest(lengths)


def _gen_pg(args: argparse.Namespace):
    perm = read_permutation(_read(args.perm))
    return build_permutation_graph(len(perm), perm)


def _gen_ig(args: argparse.Namespace):
    return build_interval_graph(read_intervals(_read(args.intervals)))


_FAMILIES = {
    "path": lambda args: build_path(args.n),
    "grid": lambda args: build_grid(args.rows, args.cols),
    "forest": _gen_forest,
    "pg": _gen_pg,
    "ig": _gen_ig,
}


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _FAMILIES[args.family](args)
    _write(args.out, write_graph(g))
    print(f"wrote graph with {g.n} vertices and {g.m} edges to {args.out}")
    return OK


# --- verify / greedy / exact ------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(_read(args.graph))
    sched = read_schedule(_read(args.schedule))
    complete = assert_agreement(g, sched)
    payload = {"complete": complete, "rounds": len(sched)}
    _emit(args, payload, [
        f"schedule is valid and {'complete' if complete else 'incomplete'}",
        f"rounds = {len(sched)}",
    ])
    return OK if complete else FAILED


def _cmd_greedy(args: argparse.Namespace) -> int:
    g = read_graph(_read(args.graph))
    sched = greedy_burn(g)
    if args.out:
        _write(args.out, write_schedule(sched))
    payload = {"rounds": len(sched), "schedule": list(sched)}
    _emit(args, payload, [
        f"rounds = {len(sched)}",
        "schedule = " + " ".join(str(v) for v in sched),
    ])
    return OK


def _cmd_exact(args: argparse.Namespace) -> int:
    g = read_graph(_read(args.graph))
    result = exact_burning_number(g, node_budget=_budget(args))
    if args.out:
        _write(args.out, write_schedule(result.witness))
    payload = {
        "k": result.k,
        "schedule": list(result.witness),
        "nodes_explored": result.nodes_explored,
    }
    _emit(args, payload, [
        f"k = {result.k}",
        "schedule = " + " ".join(str(v) for v in result.witness),
    ])
    return OK


# --- grid -------------------------------------------------------------------


def _grid_payload(report) -> dict:
    return {
        "rows": report.grid.rows,
        "cols": report.grid.cols,
        "rounds": report.rounds_used,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "ratio": report.ratio,
        "schedule": list(report.schedule),
    }


def _cmd_grid(args: argparse.Namespace) -> int:
    if args.sweep:
        if args.jobs is not None and args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        specs = [GridSpec(side, side) for side in args.sweep]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(burn_grid_2approx, specs))
        for report in reports:
            payload = _grid_payload(report)
            del payload["schedule"]
            _emit(args, payload, [
                f"{report.grid.rows}x{report.grid.cols}: "
                f"rounds={report.rounds_used} "
                f"lower={report.lower_bound} "
                f"upper={report.upper_bound} "
                f"ratio={report.ratio:.4f}"
            ])
        return OK
    if args.rows is None or args.cols is None:
        raise InputError("grid needs --rows and --cols (or --sweep)")
    report = burn_grid_2approx(GridSpec(args.rows, args.cols))
    if args.out:
        _write(args.out, write_schedule(report.schedule))
    upper = report.upper_bound
    _emit(args, _grid_payload(report), [
        f"rounds = {report.rounds_used}",
        f"lower_bound = {report.lower_bound}",
        f"upper_bound = {'-' if upper is None else upper}",
        f"ratio = {report.ratio:.4f}",
    ])
    return OK


# --- 3-partition and the reductions ----------------------------------------


def _cmd_3part(args: argparse.Namespace) -> int:
    inst = read_instance(_read(args.infile))
    partition = solve_3partition(inst, node_budget=_budget(args))
    if partition is None:
        _emit(args, {"solvable": False, "triples": None},
              ["no distinct 3-partition exists"])
        return FAILED
    payload = {
        "solvable": True,
        "triples": [list(t) for t in partition.triples],
    }
    _emit(args, payload, ["triples = " + _triples_text(partition)])
    return OK


@dataclass(frozen=True)
class _Gadget:
    """What the reduce-*, extract-* and demo commands need of a gadget."""

    noun: str
    construct: Callable[[Any], Any]
    forward: Callable[[Any, Any], Any]
    reverse: Callable[[Any, Any], Any]
    emits: tuple[tuple[str, Callable[[Any], str]], ...]  # --emit-NAME
    extra: Callable[[Any], dict[str, int]]  # summary after "vertices"
    describe: Callable[[Any], str]  # the demo's gadget line


def _gadget_table() -> dict[str, _Gadget]:
    """The two gadget families, keyed by subcommand suffix.

    Built per call rather than once at import, so that every entry is
    the function this module binds at that moment (instrumentation may
    patch those bindings).
    """
    return {
        "ig": _Gadget(
            noun="interval",
            construct=construct_ig,
            forward=partition_to_schedule,
            reverse=schedule_to_partition,
            emits=(
                ("graph", lambda art: write_graph(art.graph)),
                ("intervals", lambda art: write_intervals(art.representation)),
            ),
            extra=lambda art: {},
            describe=lambda art: (
                f"interval gadget: {art.graph.n} vertices, spine "
                f"{art.spine_len}, decides at {art.target_rounds} rounds"
            ),
        ),
        "pg": _Gadget(
            noun="permutation",
            construct=construct_px,
            forward=partition_to_schedule_pg,
            reverse=schedule_to_partition_pg,
            emits=(
                ("graph", lambda art: write_graph(art.graph)),
                ("perm", lambda art: write_permutation(art.permutation)),
            ),
            extra=lambda art: {"components": len(art.segments)},
            describe=lambda art: (
                f"path forest gadget: {art.graph.n} vertices, component "
                "orders " + " ".join(str(seg.size) for seg in art.segments)
            ),
        ),
    }


def _cmd_reduce(args: argparse.Namespace) -> int:
    gadget = _gadget_table()[args.kind]
    inst = read_instance(_read(args.infile))
    art = gadget.construct(inst)
    for name, writer in gadget.emits:
        path = getattr(args, f"emit_{name}")
        if path:
            _write(path, writer(art))
    summary = {
        "m": art.derived.m,
        "vertices": art.graph.n,
        **gadget.extra(art),
        "target_rounds": art.target_rounds,
    }
    lines = [f"{key.replace('_', ' ')} = {value}"
             for key, value in summary.items()]
    payload = {**summary, "witness": None}
    if args.witness:
        partition = solve_3partition(inst, node_budget=_budget(args))
        if partition is None:
            _emit(args, payload, lines)
            print("instance has no solution, no witness written",
                  file=sys.stderr)
            return FAILED
        sched = gadget.forward(art, partition)
        _write(args.witness, write_schedule(sched))
        payload["witness"] = list(sched)
        lines.append(f"witness of {len(sched)} rounds written to "
                     f"{args.witness}")
    _emit(args, payload, lines)
    return OK


def _cmd_extract(args: argparse.Namespace) -> int:
    gadget = _gadget_table()[args.kind]
    inst = read_instance(_read(args.artifact))
    art = gadget.construct(inst)
    sched = read_schedule(_read(args.schedule))
    partition = gadget.reverse(art, sched)
    payload = {"triples": [list(t) for t in partition.triples]}
    _emit(args, payload, ["triples = " + _triples_text(partition)])
    return OK


# --- demos ------------------------------------------------------------------


def _demo(kind: str, *, show_solution: bool, cross_check: bool) -> int:
    gadget = _gadget_table()[kind]
    inst = read_instance(" ".join(str(a) for a in WORKED_EXAMPLE))
    print("instance:", " ".join(str(a) for a in inst.elements))
    partition = solve_3partition(inst)
    if partition is None:
        raise InternalError("the worked example has no 3-partition")
    if show_solution:
        print("solution:", _triples_text(partition))
    art = gadget.construct(inst)
    print(gadget.describe(art))
    sched = gadget.forward(art, partition)
    print(f"schedule burns everything in {len(sched)} rounds")
    if cross_check:
        result = exact_burning_number(art.graph)
        if result.k != art.target_rounds:
            raise InternalError(f"exact search gives {result.k} rounds, "
                                f"the gadget decides at {art.target_rounds}")
        print(f"exact search agrees: burning number = {result.k}")
    back = gadget.reverse(art, sched)
    print("extracted partition matches:", _triples_text(back))
    return OK


_DEMOS = {
    "s5.2": partial(_demo, "ig", show_solution=True, cross_check=False),
    "s6.3": partial(_demo, "pg", show_solution=False, cross_check=True),
}


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burn",
        description="graph burning toolkit",
    )
    parser.add_argument(
        "--demo",
        choices=sorted(_DEMOS),
        help="run a built-in end-to-end example and exit",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("gen", help="write a graph file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    family = {name: gen_sub.add_parser(name) for name in _FAMILIES}
    family["path"].add_argument("--n", type=int, required=True)
    family["grid"].add_argument("--rows", type=int, required=True)
    family["grid"].add_argument("--cols", type=int, required=True)
    family["forest"].add_argument("--lengths", type=int, nargs="*")
    family["forest"].add_argument("--random", type=int, default=0,
                                  help="append this many random lengths")
    family["forest"].add_argument("--seed", type=int, default=0)
    family["forest"].add_argument("--max-len", type=int, default=12)
    family["pg"].add_argument("--perm", required=True)
    family["ig"].add_argument("--intervals", required=True)
    for p in family.values():
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="check a schedule against a graph")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--schedule", required=True)
    verify.set_defaults(func=_cmd_verify)

    greedy = sub.add_parser("greedy", help="fast complete schedule")
    greedy.add_argument("--graph", required=True)
    greedy.add_argument("--out")
    greedy.set_defaults(func=_cmd_greedy)

    exact = sub.add_parser("exact", help="exact burning number with witness")
    exact.add_argument("--graph", required=True)
    exact.add_argument("--budget", type=int)
    exact.add_argument("--out")
    exact.set_defaults(func=_cmd_exact)

    grid = sub.add_parser("grid", help="heuristic burner with bounds")
    grid.add_argument("--rows", type=int)
    grid.add_argument("--cols", type=int)
    grid.add_argument("--sweep", type=int, nargs="+",
                      help="square sides to burn, in order")
    grid.add_argument("--jobs", type=int, default=None)
    grid.add_argument("--out")
    grid.set_defaults(func=_cmd_grid)

    part = sub.add_parser("3part", help="solve a distinct 3-partition")
    part.add_argument("--in", dest="infile", required=True)
    part.add_argument("--budget", type=int)
    part.set_defaults(func=_cmd_3part)

    reporting = [verify, greedy, exact, grid, part]
    for kind, gadget in _gadget_table().items():
        red = sub.add_parser(f"reduce-{kind}",
                             help=f"instance to {gadget.noun} gadget")
        red.add_argument("--in", dest="infile", required=True)
        for name, _ in gadget.emits:
            red.add_argument(f"--emit-{name}")
        red.add_argument("--witness")
        red.add_argument("--budget", type=int)
        red.set_defaults(func=_cmd_reduce, kind=kind)
        ext = sub.add_parser(
            f"extract-{kind}",
            help=f"schedule on the {gadget.noun} gadget to triples",
        )
        ext.add_argument("--artifact", required=True,
                         help="instance file the gadget was built from")
        ext.add_argument("--schedule", required=True)
        ext.set_defaults(func=_cmd_extract, kind=kind)
        reporting += [red, ext]

    for p in reporting:
        p.add_argument("--report", choices=("text", "json"), default="text")
    return parser


# one parser per process: parse_args leaves it unchanged
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.demo:
            return _DEMOS[args.demo]()
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return MALFORMED
        return args.func(args)
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return INTERNAL
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXHAUSTED
    except (ScheduleError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILED
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    except Exception as exc:  # a fault in burnkit, not in its input
        kind = type(exc).__name__
        print(f"error: internal: {kind}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
