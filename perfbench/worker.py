"""Run one workload in this fresh process and print its figures as JSON.

    PYTHONPATH=src python3 -m perfbench.worker --workload exact --seed 1 \
        --seconds 30 --trace 0 [--setup-only]

The traced cli run's interpreter-start probes inherit PYTHONPATH.

perfbench/run.py starts this; see there for the metrics.  Set-up is
timed from this module's first line: importing burnkit, generating the
seeded op list and, for `cli`, writing the input files.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import burnkit  # noqa: E402,F401  (its import is part of set-up)

from perfbench import spans, workloads  # noqa: E402

OUT_DIR = Path(".bench_build") / "perfbench"
CLI_SUBCOMMANDS = ("gen", "verify", "greedy", "exact", "grid", "3part",
                   "reduce-ig", "extract-ig", "reduce-pg", "extract-pg")
# highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10


def timed_run(op):
    """Run the op, then collect the cyclic garbage it left.

    The exact search's memo, for one, sits in a reference cycle; it is
    freed inside the op's timed region, so the op pays for it.
    """
    try:
        return op.run()
    finally:
        gc.collect()


def run_pass(ops, tracer=None, until=None, expected=()):
    """Run each op once, in list order; return latencies and outcomes.

    Each run is checked right after its timed region and its output
    dropped, so no pass keeps large graphs alive.  An outcome is
    ("ok", rounds), ("wrong", reason) or ("error", exception type
    name); a failing op never stops the pass.  With `until`, a
    perf_counter time, an op is skipped when its `expected` latency
    would take the pass past it, so it may have no run in that pass.
    """
    # what set-up and earlier passes left alive is not garbage; freezing
    # it keeps each run's collection down to what that run allocates
    gc.collect()
    gc.freeze()
    latencies = [[] for _ in ops]
    outcomes = [[] for _ in ops]
    for op, lats, outs, exp in zip(ops, latencies, outcomes,
                                   expected or [0.0] * len(ops)):
        t = time.perf_counter()
        if until is not None and t + exp > until:
            continue
        try:
            if tracer is None:
                value = timed_run(op)
            else:
                value = tracer.run_op(op.family, lambda op=op: timed_run(op))
        except Exception as exc:  # a failed op is counted, not fatal
            lats.append(time.perf_counter() - t)
            outs.append(("error", type(exc).__name__))
            continue
        lats.append(time.perf_counter() - t)
        try:
            outs.append(("ok", op.check(value)))
        except workloads.WrongAnswer as exc:
            outs.append(("wrong", str(exc)))
        del value
        gc.collect()  # the check's garbage, outside the timed region
    return latencies, outcomes


def pass_s(one_pass) -> float:
    """Seconds the pass spent in its ops."""
    return sum(map(sum, one_pass[0]))


def tally(ops, passes):
    """Rounds of the first pass and the faults, by op label.

    An op whose rounds differ between runs counts as a wrong answer.
    """
    rounds = 0
    failures: dict[str, str] = {}
    wrong: dict[str, str] = {}
    for i, op in enumerate(ops):
        first = None
        for p, (_, outcomes) in enumerate(passes):
            for kind, value in outcomes[i]:
                if kind == "ok" and first is not None and value != first:
                    kind, value = "wrong", f"rounds {value}, first {first}"
                if kind == "error":
                    failures[op.label] = value
                elif kind == "wrong":
                    wrong[op.label] = value
                    failures[op.label] = "WrongAnswer"
                elif first is None:
                    first = value
                    if p == 0:
                        rounds += value
    return rounds, failures, wrong


def median_start_ms(code: str, runs: int = 5) -> float:
    samples = []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - t)
    return 1000 * statistics.median(samples)


def fastest(ops, passes) -> list[float]:
    """Each op's fastest run, in seconds.

    The host's load only ever adds time, so the minimum is the
    steadiest reading of what the op itself costs.
    """
    return [min(t for lat, _ in passes for t in lat[i])
            for i in range(len(ops))]


def latency_figures(ops, per_op: list[float]) -> dict:
    """Median op latency and the tail, one sample per distinct op.

    The tail always has the same number of samples for a workload.
    Also names the ops the two figures read.
    """
    order = sorted(range(len(ops)), key=per_op.__getitem__)
    n = len(order)
    rank = max(n - TAIL_BEYOND - 1, 0)
    mid = order[(n - 1) // 2:n // 2 + 1]
    return {
        "latency_p50_ms": 1000 * statistics.median(per_op),
        "latency_tail_ms": 1000 * per_op[order[rank]],
        "tail_percentile": 100 * (rank + 1) / n,
        "tail_samples": n,
        "median_ops": [ops[i].label for i in mid],
        "tail_op": ops[order[rank]].label,
    }


def layer_figures(names, summary, extra, passes: int) -> dict:
    """Resolve each per-layer metric name against the span summary.

    The spans cover `passes` traced passes; counts and times are given
    per pass, so counts repeat exactly from run to run.
    """
    by_name, nested = summary["by_name"], summary["nested"]
    out = {}
    for full in names:
        if full in extra:
            out[full] = extra[full]
            continue
        name, family = full, ""
        for fam in ("forest", "general"):
            if name.endswith("." + fam):
                name, family = name[: -len(fam) - 1], fam
        if name == "burning.greedy_burn.bfs_calls":
            out[full] = nested.get(
                ("burning.greedy_burn", "graph.bfs_distances"), 0) // passes
            continue
        if name.startswith("exact.nodes"):
            name = name.replace("exact.", "exact.exact_burning_number.", 1)
        span, stat = name.rsplit(".", 1)
        s = by_name.get(f"{span}.{family}" if family else span, {})
        if stat == "nodes_per_s":
            out[full] = s["nodes"] / s["incl_s"] if s else 0.0
        elif stat in ("calls", "failed", "rounds", "edges", "nodes"):
            out[full] = int(s.get(stat, 0)) // passes
        elif stat == "self_s":
            out[full] = s.get(stat, 0.0) / passes
        else:
            raise KeyError(f"no rule for per-layer metric {full}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = OUT_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir.resolve())
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, ops, setup_s) -> dict:
    begin = time.perf_counter()

    def room_for(last: float) -> bool:
        return time.perf_counter() - begin + last <= args.seconds

    # the passes whose latencies give the end-to-end figures
    if not args.trace:
        passes = [run_pass(ops)]
        # whole passes until --seconds is used up; in the last one, runs
        # that no longer fit, judged by the first pass, are skipped
        until = begin + args.seconds
        first = [lat[0] for lat in passes[0][0]]
        while True:
            more = run_pass(ops, until=until, expected=first)
            if pass_s(more) == 0:
                break
            passes.append(more)
        runs = [(ops, passes)]
    else:
        # the same ops without and with wrappers, pass by pass
        plain, traced = [], []
        tracer = spans.Tracer()
        while True:
            plain.append(run_pass(ops))
            restore = tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                restore()
            if not room_for(pass_s(plain[-1]) + pass_s(traced[-1])):
                break
        passes = plain
        runs = [(ops, plain), (ops, traced)]

    checked = [tally(run_ops, run_passes) for run_ops, run_passes in runs]
    rounds = checked[0][0]
    # an op is attempted once however often it runs, and fails if any
    # of its runs fails, so both counts are fixed by the op list
    failures = {k: v for c in checked for k, v in c[1].items()}
    wrong = {k: v for c in checked for k, v in c[2].items()}

    usage = resource.getrusage(resource.RUSAGE_SELF)
    per_op = fastest(ops, passes)
    # one run of every op at its fastest; the output checks between ops
    # are not part of it
    metrics = {
        "ops_per_s": len(ops) / sum(per_op),
        "rounds_total": rounds,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    metrics.update(latency_figures(ops, per_op))
    info = {
        "passes": len(passes),
        "measured_s": sum(pass_s(p) for p in passes),
        **{key: metrics.pop(key) for key in (
            "tail_percentile", "tail_samples", "median_ops", "tail_op")},
        "failures": failures,
        "wrong": wrong,
    }
    if args.trace:
        metrics = traced_figures(args, ops, passes, plain, traced, tracer)
        info["span_file"] = str(
            OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.dump(info["span_file"])
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
        "info": info,
    }


def traced_figures(args, ops, passes, plain, traced, tracer) -> dict:
    traced_wall = sum(pass_s(p) for p in traced)
    summary = spans.summarize(tracer.spans)
    # time inside layer spans = op spans minus the ops' own self time
    in_ops = sum(end - start for _, _, name, start, end, _ in tracer.spans
                 if name == spans.OP)
    in_layers = in_ops - summary["by_name"][spans.OP]["self_s"]
    extra = {
        "trace.overhead_ratio":
            traced_wall / sum(pass_s(p) for p in plain) - 1,
        "trace.self_coverage": in_layers / traced_wall,
        "cli.python_start_ms": 0.0,
        "cli.import_ms": 0.0,
    }
    extra.update({f"cli.{sub}.p50_ms": 0.0 for sub in CLI_SUBCOMMANDS})
    if args.workload == "cli":
        bare = median_start_ms("pass")
        extra["cli.python_start_ms"] = bare
        extra["cli.import_ms"] = median_start_ms("import burnkit") - bare
        by_sub = defaultdict(list)
        for i, op in enumerate(ops):
            by_sub[op.family].extend(
                1000 * t for lat, _ in passes for t in lat[i])
        for sub, samples in by_sub.items():
            extra[f"cli.{sub}.p50_ms"] = statistics.median(samples)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    return layer_figures(names, summary, extra, len(traced))


if __name__ == "__main__":
    sys.exit(main())
