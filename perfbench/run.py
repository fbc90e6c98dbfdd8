"""Benchmark of toric-qh: three seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):

- ``cli-oneshot``: in-process ``run_command`` over fresh JSON files of
  translated bases (cp2..cp12, cp1xcp1, blowup_cp3, small products);
  mostly loads the polytope and exact_linalg layers.
- ``selfcheck-sweep``: ``selfcheck`` over translated products and
  blowups of rank 6..27; loads f2ring (six ring builds per check) and
  qh (eager Seidel inverses).
- ``ring-session``: rings of rank 6..27 built once, then Seidel queries
  u = S_c, b = u*a, u^-1 with u^-1 b == a checked; loads qh.multiply
  and qh.invert and never the polytope layer.

``--seconds`` is busy time: the summed duration of timed operations.
With ``--trace 0`` the run starts three worker processes one after the
other, each measuring a third of the busy time in whole cycles, then
four set-up probes, and prints the end-to-end metrics: set-up time
(median over the seven set-ups), throughput (operations per second of
busy time), median and p90 latency over all operations, and peak RSS
after a fixed number of cycles (median over the three workers).  With
``--trace 1`` it runs one untraced worker and one worker that traces
every other cycle of operations, and prints the per-layer metrics
derived from the traced operations' spans, plus the tracing overhead:
untraced over traced throughput, both from the second worker, whose
untraced cycles still pass through the idle wrappers.

Every operation's output is checked.  The share that failed is printed
as ``error_rate`` and carried by the result's ``failed`` / ``attempted``;
it is not a bounded metric because it is 0 on a correct program.  Every
attempted operation is one latency sample; the count above p90 is
printed.  The last stdout line is the JSON result.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import check_base, named_bases  # noqa: E402
from tracing import SELFCHECK_STAGES, layer_metrics, read_spans  # noqa: E402
from workloads import LADDERS, WORKLOADS  # noqa: E402

WORKERS = 3
PROBES = 4
TIME_LIMIT_S = 170
# A fixed hash seed keeps set iteration order (and with it the Groebner
# work order) the same on every run.
WORKER_ENV = {"PYTHONHASHSEED": "0"}

END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"ms": "ms", "calls": "count", "hit_ratio": "ratio",
                   "vertices": "count", "collections": "count", "rank": "count",
                   "mb": "MB", "ops_s": "1/s", "ratio": "ratio",
                   "spans_per_op": "count", "ops": "count"}


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def run_worker(workdir, tag, plan, deadline):
    plan_path = os.path.join(workdir, f"{tag}.plan.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
         result_path, repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        timeout=max(deadline - time.monotonic(), 1), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, probes):
    durations = [d for r in results for d in r["durations_ms"]]
    p90 = percentile(durations, 90)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results + probes),
        "throughput_ops_s": len(durations) / sum(r["busy_s"] for r in results),
        "latency_p50_ms": percentile(durations, 50),
        "latency_p90_ms": p90,
        "peak_rss_mb": statistics.median(r["rss_cycles_mb"] for r in results),
    }
    info = {"samples": len(durations),
            "above_p90": sum(1 for d in durations if d > p90)}
    return metrics, info


def per_layer(untraced, traced, bases):
    """Layer metrics from the traced worker's traced (even) cycles; set-up
    memory and selfcheck stage times from the untraced worker.  The input
    sizes (vertices, primitive collections) are those of the traced ops'
    bases, found by the benchmark's own enumeration."""
    on_names = [b for b, c in zip(traced["bases"], traced["cycles"]) if c % 2 == 0]
    out = layer_metrics(read_spans(traced["spans"]), len(on_names))
    out["polytope.vertices"] = statistics.mean(bases[b].rank for b in on_names)
    out["polytope.collections"] = statistics.mean(
        len(bases[b].collections) for b in on_names)
    stages = untraced["stages"]
    for stage in SELFCHECK_STAGES:
        out[f"selfcheck.{stage}.ms"] = (
            sum(s.get(stage, 0.0) for s in stages) / max(len(stages), 1))
    out["process.rss_after_setup_mb"] = untraced["rss_setup_mb"]
    out["process.rss_growth_mb"] = untraced["rss_cycles_mb"] - untraced["rss_setup_mb"]
    ops = list(zip(traced["durations_ms"], traced["cycles"]))
    on = [ms for ms, c in ops if c % 2 == 0]
    off = [ms for ms, c in ops if c % 2]
    out["trace.ops"] = len(on)
    out["trace.throughput_ops_s"] = len(on) * 1000 / sum(on)
    out["trace.untraced_throughput_ops_s"] = len(off) * 1000 / sum(off)
    out["trace.overhead_ratio"] = out["trace.untraced_throughput_ops_s"] / \
        out["trace.throughput_ops_s"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def run(workload, seed, seconds, trace, bases=None):
    """Run one workload and return the result object, or None on failure.

    ``bases`` narrows the workload's ladder (the smoke test uses it).
    """
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "toric_qh", "__init__.py")):
        print(f"perfbench: no toric_qh sources under {ROOT}/src", file=sys.stderr)
        return None
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    all_bases = named_bases()
    names = list(bases or LADDERS[workload])
    for name in names:
        check_base(all_bases[name])
    workdir = os.path.join(ROOT, ".perfbench-work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def plan(worker, busy_s, traced):
        return {"workload": workload, "seed": seed, "worker": worker,
                "seconds": busy_s, "trace": traced, "bases": names,
                "workdir": workdir}

    try:
        if trace:
            untraced = run_worker(workdir, "untraced", plan(0, seconds / 2, 0), deadline)
            traced = run_worker(workdir, "traced", plan(0, seconds / 2, 1), deadline)
            results = [untraced, traced]
        else:
            results = [run_worker(workdir, f"w{k}", plan(k, seconds / WORKERS, 0),
                                  deadline) for k in range(WORKERS)]
            probes = [run_worker(workdir, f"probe{k}", plan(k, 0, 0), deadline)
                      for k in range(PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return None

    attempted = sum(len(r["durations_ms"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {workload} seed {seed} trace {trace}")
    print(f"error_rate {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} operations)")
    if trace:
        values = per_layer(*results, all_bases)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values, info = end_to_end(results, probes)
        units = dict(END_TO_END)
        print(f"latency samples {info['samples']}, above p90 {info['above_p90']}")
        if info["above_p90"] < 10:
            print("perfbench: fewer than 10 samples above p90", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


if __name__ == "__main__":
    sys.exit(main())
