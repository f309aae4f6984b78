"""burnkit benchmark: one seeded workload per run, figures as JSON.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads, metrics, units, directions
and bounds are read from BENCHMARK.json; perfbench/notes.json records
why each workload exists, which layer metric should move which
end-to-end metric, and the ops that fail at baseline.

Each workload runs in a fresh worker process (perfbench/worker.py):
one client, ops back to back, whole passes over the seeded op list
for as long as --seconds allows (at least one).  An op's latency is
the fastest of its runs; latency_p50_ms and latency_tail_ms are read
over these, and ops_per_s is the op count over their sum.  `attempted`
is the op count and `failed` the ops any run of which failed, so both
are fixed by the op list.  Set-up time is the median of seven fresh
processes that each import burnkit and generate the inputs.  With
--trace 0 the last line carries the end-to-end metrics.
With --trace 1 the worker runs each pass twice, plainly and with every
public burnkit function wrapped, and the last line carries the
per-layer metrics.  Lines before it are a readable report, including
failed_ratio with its base and every failed op with its exception type.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 6
# a workload, set-up probes included, must end within this many seconds
WORKLOAD_DEADLINE_S = 175


def worker_cmd(args, extra=()) -> list[str]:
    return [sys.executable, "-m", "perfbench.worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]


def run_worker(cmd: list[str], deadline: float) -> dict:
    """Run one worker, killing its process group at the monotonic deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker ran past the deadline: {cmd}")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}: {cmd}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    result = run_worker(worker_cmd(args), deadline)
    if not args.trace:
        probe = worker_cmd(args, ["--setup-only"])
        setups = [run_worker(probe, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result["metrics"]["setup_s"] = statistics.median(
            setups + [result["metrics"]["setup_s"]])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    return result


def report(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"== {workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<48} {ratio:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    if "latency_tail_ms" in result["metrics"]:
        print(f"  latency_tail_ms is p{info['tail_percentile']:.1f} of "
              f"{info['tail_samples']} ops, each the fastest of its runs in "
              f"{info['passes']} pass(es), {info['measured_s']:.1f} s in ops")
        print(f"  the median reads {' and '.join(info['median_ops'])}; "
              f"the tail reads {info['tail_op']}")
    for label, kind in sorted(info["failures"].items()):
        print(f"  failed op {label}: {kind}")
    for label, what in sorted(info["wrong"].items()):
        print(f"  wrong answer {label}: {what}")
    if "span_file" in info:
        print(f"  spans written to {info['span_file']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = Path("BENCHMARK.json")
    if not (bench.is_file() and Path("src/burnkit/__init__.py").is_file()):
        print("run from the repository root: BENCHMARK.json and "
              "src/burnkit are needed", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"unknown workload {args.workload}; choose from {names}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args, spec)
        report(args.workload, result)
        del result["info"]
        print(json.dumps(result))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        result = run_workload(args, spec)
        report(name, result)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
