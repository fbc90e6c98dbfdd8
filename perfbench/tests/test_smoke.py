"""Tiny-size runs of every workload, traced and untraced, so the harness
cannot rot.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from checks import collection_errors, digest, kuenneth_errors  # noqa: E402
from inputs import Base, check_base, named_bases  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {"cli-oneshot": ["cp2", "blowup_cp3"],
        "selfcheck-sweep": ["blowup_cp3"],
        "ring-session": ["blowup_cp3"]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run(workload, trace):
    result = run.run(workload, seed=7, seconds=0.3, trace=trace,
                     bases=TINY[workload])
    assert result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}


def test_traced_ring_session_never_enters_polytope_or_groebner():
    result = run.run("ring-session", seed=3, seconds=0.3, trace=1,
                     bases=["blowup_cp3"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["qh.invert.calls"] == 1
    assert metrics["polytope.self_ms"] == 0
    assert metrics["f2ring.buchberger.calls"] == 0


def test_generated_bases_self_check():
    for base in named_bases().values():
        if base.nfacets <= 10:
            check_base(base)
    bad = Base("cp2", 2, named_bases()["cp2"].facets, (1, 1))
    with pytest.raises(ValueError):
        check_base(bad)


def test_checks_see_invariant_fields_only():
    report = {"command": "betti", "source": "a.json", "ok": True,
              "betti": [1, 1, 1], "xi": [1, 2], "total": 3}
    moved = dict(report, source="b.json")
    wrong = dict(report, betti=[1, 2, 1])
    assert digest(moved) == digest(report)
    assert digest(wrong) != digest(report)
    cp2 = named_bases()["cp2"]
    assert kuenneth_errors(cp2, report) == []
    assert kuenneth_errors(cp2, wrong)
    blowup = named_bases()["blowup_cp3"]
    prims = {"command": "primitives", "collections": [{"indices": [3, 4]},
                                                      {"indices": [1, 2, 5]}]}
    assert collection_errors(blowup, prims) == []
    assert collection_errors(blowup, dict(prims, collections=[{"indices": [3, 4]}]))
