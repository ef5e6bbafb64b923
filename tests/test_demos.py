"""Smoke test of the demo scripts: each runs to completion and writes its files.

The demos are the only callers of the public API that no other test runs.
Each runs in its own process, in a temporary working directory, against
the package under test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xlbeam

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo -> the files it writes under demo_out/
OUTPUTS = {
    "01_beam_patterns.py": ["beam_patterns.csv", "beam_patterns.svg"],
    "02_beam_training.py": [],
    "03_beam_refinement.py": ["refinement_vs_snr.csv"],
    "04_beam_tracking.py": ["tracking_gains.csv", "tracking_gains.svg"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(OUTPUTS)


@pytest.mark.slow
@pytest.mark.parametrize("demo", sorted(OUTPUTS))
def test_demo_runs(tmp_path, demo):
    src = str(Path(xlbeam.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for name in OUTPUTS[demo]:
        assert (tmp_path / "demo_out" / name).is_file(), name
