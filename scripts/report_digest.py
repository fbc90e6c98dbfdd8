"""Print one sha256 over a fixed corpus of JSON reports.

The corpus is every command on a few builtins and on the two rejected
fixtures, plus ``presentation`` in all four space/flavor pairs on every
base of the cli-oneshot benchmark ladder.  Selfcheck timings (``ms``)
are masked, so two trees that compute the same reports print the same
digest; compare it across commits to show that a change kept every
report byte-identical.

    python scripts/report_digest.py [--list]

``--list`` also prints one digest per report, to find the first that
differs.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from inputs import named_bases, write_polytope  # noqa: E402
from workloads import CLI_BASES  # noqa: E402

from toric_qh.cli import run_command  # noqa: E402

NAMES = ("cp1", "cp2", "cp3", "cp5", "cp9", "cp1xcp1", "blowup_cp3")
FIXTURES = ("det2_square.json", "pyramid.json")
COMMANDS = (["validate"], ["vertices"], ["primitives"], ["presentation"],
            ["seidel", "--facet", "1"], ["mul", "X1", "X1"],
            ["invert", "X1*q"], ["betti"], ["psi-check"], ["uniruled"],
            ["selfcheck"])
PRESENTATIONS = [["presentation", "--space", s, "--flavor", f]
                 for s in ("L", "M") for f in ("classical", "quantum")]


def corpus(workdir):
    """(argv, polytope argument) pairs; file arguments are relative to
    workdir, so the reports' ``source`` fields do not name it."""
    for name in FIXTURES:
        shutil.copy(ROOT / "tests" / "fixtures" / name, workdir / name)
    for target in NAMES + FIXTURES:
        for argv in COMMANDS:
            yield argv, target
    bases = named_bases()
    for name in CLI_BASES:
        base = bases[name]
        path = f"{name}.json"
        write_polytope(workdir / path, name, base.dim, base.facets)
        for argv in PRESENTATIONS:
            yield argv, path


def masked(text):
    report = json.loads(text)
    for check in report.get("checks", ()):
        if "ms" in check:
            check["ms"] = 0
    return json.dumps(report, indent=2, ensure_ascii=False)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print a digest per report too")
    args = parser.parse_args()
    total = hashlib.sha256()
    count = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, target in corpus(Path(tmp)):
                buf = io.StringIO()
                code = run_command(["--format", "json", *argv, target],
                                   out=buf)
                text = f"{code}\n{masked(buf.getvalue())}\n"
                total.update(text.encode("utf-8"))
                count += 1
                if args.list:
                    one = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    print(f"{one[:16]}  {' '.join(argv)} {target}")
        finally:
            os.chdir(here)
    print(f"{count} reports  sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
