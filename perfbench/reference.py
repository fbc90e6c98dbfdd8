"""Freeze the reference digests that the output checks compare against.

    PYTHONPATH=src python3 perfbench/reference.py

Runs every command the workloads can issue on each unshifted base and
stores the digest of the translation-invariant part of each JSON report
in ``perfbench/reference.json``.  Re-freeze only when an intended change
of program output is reviewed; a benchmark run never writes this file.
"""

import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import REFERENCE_PATH, collection_errors, digest, kuenneth_errors  # noqa: E402
from inputs import check_base, named_bases, write_polytope  # noqa: E402
from workloads import CLI_BASES, SWEEP_BASES, all_cli_argvs, op_key  # noqa: E402


def main():
    from toric_qh.cli import run_command
    bases = named_bases()
    for name in CLI_BASES + SWEEP_BASES:
        check_base(bases[name])
    jobs = [(name, argv) for name in CLI_BASES for argv in all_cli_argvs(bases[name])]
    jobs += [(name, ["selfcheck"]) for name in SWEEP_BASES]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.json")
        for name, argv in jobs:
            base = bases[name]
            write_polytope(path, name, base.dim, base.facets)
            out = io.StringIO()
            code = run_command(["--format", "json", *argv, path], out=out)
            report = json.loads(out.getvalue())
            errs = kuenneth_errors(base, report) + collection_errors(base, report)
            if code != 0 or errs:
                sys.exit(f"{op_key(name, argv)}: exit {code} {errs}")
            digests[op_key(name, argv)] = digest(report)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(digests)} digests to {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
