"""Each script under ``demos/`` runs to completion in a fresh interpreter.

The demos call the package the way a reader would, so a change that breaks a
public name or a default shows here.  Each runs with the package's ``src`` on
``PYTHONPATH`` and with its working and temporary directories under pytest's
``tmp_path``, so a demo's files are removed with the test's.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ),
        TMPDIR=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
