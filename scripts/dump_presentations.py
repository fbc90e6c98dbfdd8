"""Print ring presentations for the builtin polytopes."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toric_qh.cli import BUILTIN_NAMES, run_command


def main():
    parser = argparse.ArgumentParser(
        description="dump classical and quantum presentations")
    parser.add_argument("--space", default="L", choices=("L", "M"))
    parser.add_argument("names", nargs="*", default=list(BUILTIN_NAMES))
    args = parser.parse_args()
    code = 0
    for name in args.names:
        for flavor in ("classical", "quantum"):
            print(f"== {name} ({args.space}, {flavor})")
            rc = run_command(["presentation", "--space", args.space,
                              "--flavor", flavor, name])
            code = code or rc
            print()
    return code


if __name__ == "__main__":
    sys.exit(main())
