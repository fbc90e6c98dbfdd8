"""Output checks for the benchmark; no code from ``toric_qh``.

A CLI report is reduced to its translation-invariant fields and hashed;
the hash must match the one frozen from the unshifted base in
``reference.json``.  Independently of the frozen data, Betti and Hilbert
vectors must equal the base's Kuenneth-derived Betti vector, and the
primitive collections must equal the base's minimal non-faces.
"""

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def invariant(report):
    """The fields of a JSON report that a translation cannot change.

    The source path and facet offsets move with the translate; selfcheck
    stage timings vary run to run.  Everything else must be identical.
    """
    out = {k: v for k, v in report.items() if k != "source"}
    if "facets" in out:
        out["facets"] = [f["normal"] for f in out["facets"]]
    if "checks" in out:
        out["checks"] = [{k: v for k, v in c.items() if k != "ms"}
                         for c in out["checks"]]
    return out


def digest(report):
    text = json.dumps(invariant(report), sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:24]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def doubled(betti):
    """Hilbert vector in doubled (ambient) degrees."""
    out = []
    for b in betti:
        out += [b, 0]
    return out[:-1]


def kuenneth_errors(base, report):
    """Mismatches between report and the base's independent Betti vector."""
    betti = list(base.betti)
    errs = []
    cmd = report.get("command")
    if cmd == "validate" and report.get("vertex_count") != base.rank:
        errs.append(f"vertex_count {report.get('vertex_count')} != rank {base.rank}")
    if cmd == "betti" and report.get("betti") != betti:
        errs.append(f"betti {report.get('betti')} != {betti}")
    if cmd == "presentation":
        want = betti if report.get("space") == "L" else doubled(betti)
        if report.get("hilbert") != want or report.get("rank") != base.rank:
            errs.append(f"hilbert {report.get('hilbert')} != {want}")
    if cmd == "selfcheck":
        for c in report.get("checks", ()):
            if c.get("name") == "betti_crosscheck":
                d = c.get("detail") or {}
                if d.get("betti") != betti or d.get("hilbert", [])[::-1] != betti:
                    errs.append(f"betti_crosscheck {d} != {betti}")
    return errs


def collection_errors(base, report):
    """Mismatches between reported primitive collections and the base's
    minimal non-faces, found by the benchmark's own vertex enumeration."""
    cmd = report.get("command")
    if cmd == "primitives":
        got = report.get("collections") or []
    elif cmd == "selfcheck":
        got = next((c.get("detail") or [] for c in report.get("checks", ())
                    if c.get("name") == "fano_degrees"), [])
    else:
        return []
    got = sorted(sorted(c["indices"]) for c in got)
    want = sorted(sorted(c) for c in base.collections)
    return [] if got == want else [f"collections {got} != {want}"]


def check_report(base, key, report, code, reference):
    """Problems with one CLI report; empty when it is correct."""
    errs = []
    if code != 0 or not report.get("ok"):
        errs.append(f"exit {code}, error {report.get('error')}")
    if report.get("command") == "selfcheck" and report.get("passed") is not True:
        errs.append("selfcheck did not pass")
    want = reference.get(key)
    if want is None:
        errs.append("no frozen reference")
    elif digest(report) != want:
        errs.append("differs from the frozen reference")
    return errs + kuenneth_errors(base, report) + collection_errors(base, report)
