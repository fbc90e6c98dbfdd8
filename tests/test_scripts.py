import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # one hash over 167 JSON reports (selfcheck timings masked); it moves
    # only when some report's bytes move, or when the corpus it reads from
    # perfbench/ changes
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "report_digest.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "167 reports  sha256 "
        "8722f70487cbef3af229e66afd286e88bd0f89c5e8c2b79cfa171dcb5cbd1a6e")
