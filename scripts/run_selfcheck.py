"""Run the selfcheck pipeline over every builtin polytope."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toric_qh.cli import BUILTIN_NAMES, run_command


def main():
    parser = argparse.ArgumentParser(
        description="selfcheck every builtin polytope")
    parser.add_argument("--format", default="text", choices=("text", "json"))
    parser.add_argument("names", nargs="*", default=list(BUILTIN_NAMES),
                        help="builtin names or polytope JSON files")
    args = parser.parse_args()
    failures = 0
    for name in args.names:
        print(f"== {name}")
        code = run_command(["--format", args.format, "selfcheck", name])
        if code != 0:
            failures += 1
    if failures:
        print(f"{failures} polytope(s) failed selfcheck", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
