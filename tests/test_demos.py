"""The demos run to the end as scripts: the classification report, the
conjugacy solver with its Jacobian and regularity diagnostics, the
counterexample, periodic_points, the cocycle products and the KAM step."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_classification.py",
                                  "02_nonsmooth_conjugacy.py",
                                  "03_conjugacy_solver.py",
                                  "04_twisted_and_kam.py",
                                  "05_cocycles.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
