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
non-zero is kept with ``"result": null``.  At the end the script prints,
over the pairs of this call, one line per metric (see ``summarize``).
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


def quartiles(values):
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(records, spec):
    """One line per metric over the pairs in records whose two runs both
    finished: each side's median [first, third quartile], how much worse
    the change's median is than the parent's (negative: better), and how
    many pairs the change won.  An end-to-end metric with a bound also
    gets a verdict: "unresolved" when the parent's IQR is wider than the
    bound, so no move within it can be told from noise; else "worse" when
    the change's median is worse by more than the bound; else "ok".
    spec is the parsed BENCHMARK.json, which says which way is better."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    by_seed = {}
    for r in records:
        if r["result"] is not None:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    if not pairs:
        return ["no complete pairs"]
    lines = []
    for name in pairs[0]["parent"]:
        meta = declared.get(name, {})
        sign = -1 if meta.get("better") == "higher" else 1
        par = [p["parent"][name]["value"] for p in pairs]
        chg = [p["change"][name]["value"] for p in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        worse = sign * (cmed - pmed) / pmed if pmed else 0.0
        spread = (pq3 - pq1) / pmed if pmed else 0.0
        line = (f"{name}  parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
                f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  "
                f"worse by {worse:+.1%}  change won {wins}/{len(pairs)}")
        bound = meta.get("bound")
        if bound is not None:
            verdict = ("unresolved" if spread > bound
                       else "worse" if worse > bound else "ok")
            line += (f"  parent IQR {spread:.1%} of median, "
                     f"bound {bound:.0%}: {verdict}")
        lines.append(line)
    return lines


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
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    print("\n".join(summarize(mine, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
