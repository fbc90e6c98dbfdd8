"""Run alternating parent/change perfbench pairs and keep every result.

    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload NAME --seeds 101-110 [--trace 0|1] [--seconds 36] \\
        --out BENCH_<n>.json

Each DIR is a checkout of one side (``git archive`` or ``git clone``)
with its own ``src/`` and ``perfbench/``.  Pair k runs seed k on both
sides, one after the other; which side runs first alternates.  Every
run's last stdout line, the perfbench JSON result, is appended to
``--out`` (a JSON list, created if missing) as
``{"side", "workload", "seed", "trace", "result"}``; a run that exits
non-zero is kept with ``"result": null``.  At the end the script prints
the median of each metric per side over the runs of this call.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_side(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = json.loads(args.out.read_text()) if args.out.exists() else []
    trees = {"parent": args.parent, "change": args.change}
    mine = []
    for k, seed in enumerate(args.seeds):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in sides:
            result = run_side(trees[side], args.workload, seed, args.seconds,
                              args.trace)
            record = {"side": side, "workload": args.workload, "seed": seed,
                      "trace": args.trace, "result": result}
            runs.append(record)
            mine.append(record)
            args.out.write_text(json.dumps(runs, indent=1) + "\n")
            print(side, seed, "failed run" if result is None else
                  f"correct {result['correct']}", flush=True)
    for side in trees:
        results = [r["result"] for r in mine
                   if r["side"] == side and r["result"] is not None]
        names = results[0]["metrics"] if results else ()
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            print(f"{side} {name} median {statistics.median(values):.6g} "
                  f"over {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
