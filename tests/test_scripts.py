import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toric_qh.cli import builtin_polytope
from toric_qh.f2ring import QuotientRing
from toric_qh.qh import Presentation, build_ring

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["run_selfcheck.py", "dump_presentations.py"])
def test_script_runs_outside_repo(script, tmp_path):
    # no PYTHONPATH: the script must locate the package from its own path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "cp2"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "== cp2" in proc.stdout


def test_report_digest_frozen(tmp_path):
    # one hash over 211 JSON reports (selfcheck timings masked); it moves
    # only when some report's bytes move, or when the corpus it reads from
    # perfbench/ changes
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "report_digest.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "211 reports  sha256 "
        "30848318ed77d6b3401a94d64f69b31bfeaf52e9087601e2123d628dd2cb7ac4")


def test_benchmark_entry_points_resolve(perfbench_module):
    # perfbench/ wraps these names with getattr and no default, and its
    # ring-session workload calls build_ring positionally
    tracing = perfbench_module("tracing")
    for layer, names in tracing.ENTRY_POINTS.items():
        mod = importlib.import_module("toric_qh." + layer)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{layer}.{name}"
    for (layer, cls_name), names in tracing.METHODS.items():
        cls = getattr(importlib.import_module("toric_qh." + layer), cls_name)
        for name in names:
            assert callable(getattr(cls, name, None)), f"{cls_name}.{name}"
    ring, pres = build_ring(builtin_polytope("blowup_cp3"), "L", "quantum")
    assert isinstance(ring, QuotientRing) and isinstance(pres, Presentation)
    assert (pres.space, pres.flavor, ring.dim) == ("L", "quantum", 6)


def test_bench_files_name_declared_workloads_and_metrics():
    # BENCH_<pr>.json keeps one change's perfbench result lines, so the
    # trajectory can be read as data; a workload or metric that
    # BENCHMARK.json does not declare could not be compared across files
    root = SCRIPTS.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    files = sorted(root.glob("BENCH_*.json"))
    assert files
    for path in files:
        runs = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(runs, list) and runs, path.name
        for run in runs:
            assert run["side"] in ("parent", "change"), path.name
            assert run["workload"] in workloads, (path.name, run["workload"])
            assert isinstance(run["seed"], int) and run["trace"] in (0, 1)
            if run["result"] is not None:
                names = set(run["result"]["metrics"])
                assert names <= metrics, (path.name, names - metrics)


def test_bench_pairs_summary_separates_unresolved_from_worse():
    loader = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(bench_pairs)
    series = {  # metric: (parent runs, change runs), one per seed
        "setup_s": ((0.09, 0.09, 0.13, 0.13), (0.2, 0.2, 0.2, 0.2)),
        "throughput_ops_s": ((100, 100, 100, 100), (70, 70, 70, 70)),
        "latency_p50_ms": ((2, 2, 2, 2), (1.9, 1.9, 2.1, 1.9)),
        "qh.invert.ms": ((1, 1, 1, 1), (2, 2, 2, 2)),
    }
    records = [{"side": side, "workload": "ring-session", "seed": seed,
                "trace": 0, "result": {"metrics": {
                    name: {"value": runs[k][i]}
                    for name, runs in series.items()}}}
               for i, seed in enumerate((1, 2, 3, 4))
               for k, side in enumerate(("parent", "change"))]
    # a failed run leaves its pair out of every metric
    records.append({"side": "parent", "workload": "ring-session", "seed": 5,
                    "trace": 0, "result": None})
    records.append(dict(records[-1], side="change", result=records[0]["result"]))
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    lines = bench_pairs.summarize(records, spec)
    assert lines == [
        "setup_s  parent 0.11 [0.09, 0.13]  change 0.2 [0.2, 0.2]  "
        "worse by +81.8%  change won 0/4  parent IQR 36.4% of median, "
        "bound 25%: unresolved",
        "throughput_ops_s  parent 100 [100, 100]  change 70 [70, 70]  "
        "worse by +30.0%  change won 0/4  parent IQR 0.0% of median, "
        "bound 24%: worse",
        "latency_p50_ms  parent 2 [2, 2]  change 1.9 [1.9, 1.95]  "
        "worse by -5.0%  change won 3/4  parent IQR 0.0% of median, "
        "bound 24%: ok",
        "qh.invert.ms  parent 1 [1, 1]  change 2 [2, 2]  "
        "worse by +100.0%  change won 0/4",
    ]
