"""One benchmark worker process: set up, run timed operations, report.

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON SPAWNED

The plan names the workload, seed, worker index, the busy time to
measure and whether to trace; SPAWNED is the ``time.monotonic()`` value
(CLOCK_MONOTONIC, shared by all processes) at which the parent started
this process.  Set-up time runs from that spawn time to the end
of set-up, so it covers interpreter start, the ``toric_qh`` import and
every call into the program made before the first timed operation; the
benchmark's own preparation (bases, frozen references) is timed and
taken out.  A plan with no busy time only sets up: a set-up probe.

The worker runs whole cycles of operations (one per base of the ladder)
and stops at the cycle boundary nearest the busy time, but not before
MIN_CYCLES cycles.  Peak RSS is read when MIN_CYCLES
cycles are done, a fixed number of operations, so that a faster program
running more operations in the same time does not read as a bigger one.
Inputs for an operation are generated before its timer starts, and its
output is checked after the timer stops.
"""

import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import check_report, load_reference  # noqa: E402
from inputs import named_bases, write_polytope  # noqa: E402
from workloads import op_key, stream  # noqa: E402


MIN_CYCLES = 2


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliSession:
    """cli-oneshot and selfcheck-sweep: in-process ``run_command`` on a
    freshly written polytope file per operation."""

    def __init__(self, tq, bases, reference, workdir):
        self.cli = tq.cli
        self.reference = reference
        self.bases = bases
        self.path = os.path.join(workdir, "input.json")
        self.out = None

    def prepare(self, op):
        base = self.bases[op["base"]]
        write_polytope(self.path, op["base"], base.dim, op["facets"])
        self.out = io.StringIO()

    def run(self, op):
        return self.cli.run_command(["--format", "json", *op["argv"], self.path],
                                    out=self.out)

    def check(self, op, code):
        report = json.loads(self.out.getvalue())
        errs = check_report(self.bases[op["base"]], op_key(op["base"], op["argv"]),
                            report, code, self.reference)
        stages = {c["name"]: c["ms"] for c in report.get("checks", ()) if "ms" in c}
        return errs, stages


class RingSession:
    """ring-session: quantum L-rings built once, then Seidel queries."""

    def __init__(self, tq, bases, names):
        self.qh = tq.qh
        self.QHElement = tq.QHElement
        self.rings = {}
        for name in names:
            base = bases[name]
            p = tq.Polytope.from_facets(base.dim, base.facets)
            ring, _ = self.qh.build_ring(p, "L", "quantum")
            if ring.dim != base.rank:
                raise RuntimeError(f"{name}: ring rank {ring.dim} != {base.rank}")
            for j in range(1, base.nfacets + 1):
                self.qh.seidel_facet(ring, j)
            self.rings[name] = ring
        self.a = None
        self.result = None

    def prepare(self, op):
        ring = self.rings[op["base"]]
        self.a = self.QHElement({m: frozenset(e)
                                 for m, e in zip(ring.basis, op["element"])})

    def run(self, op):
        qh, ring = self.qh, self.rings[op["base"]]
        u = qh.seidel_composite(ring, op["combo"]).element
        b = qh.multiply(ring, u, self.a)
        self.result = (u, b, qh.invert(ring, u))
        return 0

    def check(self, op, code):
        qh, ring = self.qh, self.rings[op["base"]]
        u, b, inv = self.result
        errs = []
        if qh.multiply(ring, inv, b) != self.a:
            errs.append("u^-1 (u a) != a")
        if qh.multiply(ring, u, inv) != qh.unit(ring):
            errs.append("u u^-1 != 1")
        return errs, {}


def main(plan_path, result_path, spawned):
    own = time.monotonic()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    names = plan["bases"]
    bases = named_bases()
    ring_session = plan["workload"] == "ring-session"
    reference = None if ring_session else load_reference()
    own = time.monotonic() - own
    import toric_qh as tq

    recorder = None
    if plan["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    if ring_session:
        session = RingSession(tq, bases, names)
    else:
        session = CliSession(tq, bases, reference, plan["workdir"])
    result = {"setup_s": time.monotonic() - spawned - own, "rss_setup_mb": rss_mb()}
    if plan["seconds"]:
        result.update(measure(plan, session, recorder))
    if recorder:
        spans_path = result_path + ".spans"
        recorder.write(spans_path)
        result["spans"] = spans_path
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def measure(plan, session, recorder):
    """Timed closed loop over whole cycles of the plan's operation stream.

    A traced run traces the even cycles and leaves the odd ones untraced
    (one op per base each), so the overhead compares the same mix under
    the same machine conditions.
    """
    durations, cycles, names, failures, stages = [], [], [], [], []
    busy = 0.0
    rss_cycles = None
    ops = stream(plan["workload"], plan["seed"], plan["worker"], plan["bases"])
    op = next(ops)
    while True:
        session.prepare(op)
        if recorder and op["cycle"] % 2 == 0:
            recorder.op = len(durations)
        t0 = time.perf_counter()
        try:
            code = session.run(op)
        except Exception as err:  # noqa: BLE001 - a failed op is counted, not fatal
            code = err
        dt = time.perf_counter() - t0
        if recorder:
            recorder.op = None
        busy += dt
        durations.append(dt * 1000)
        cycles.append(op["cycle"])
        names.append(op["base"])
        if isinstance(code, Exception):
            errs, st = [f"{type(code).__name__}: {code}"], {}
        else:
            try:
                errs, st = session.check(op, code)
            except Exception as err:  # noqa: BLE001
                errs, st = [f"check raised {type(err).__name__}: {err}"], {}
        stages.append(st)
        if errs:
            failures.append({"op": len(durations) - 1, "base": op["base"],
                             "argv": op.get("argv"), "errors": errs})
        nxt = next(ops)
        if nxt["cycle"] != op["cycle"]:
            if nxt["cycle"] == MIN_CYCLES:
                rss_cycles = rss_mb()
            done = nxt["cycle"]
            # stop at the cycle boundary nearest the busy-time target
            if done >= MIN_CYCLES and busy + busy / done / 2 >= plan["seconds"]:
                break
        op = nxt
    return {"durations_ms": durations, "cycles": cycles, "bases": names,
            "busy_s": busy, "failures": failures, "stages": stages,
            "rss_cycles_mb": rss_cycles}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
