import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebdyn

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo runs in its own process against this package, from a
    # temporary directory so that nothing it might write lands in the repo
    env = dict(os.environ,
               PYTHONPATH=str(Path(chebdyn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
