"""The scripts under scripts/ run end to end, each in its own process."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=600)


def test_lagrangian_census_counts_match():
    done = _run("lagrangian_census.py", "--field", "F3", "--rank", "4")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all counts match the formula and all center flags agree" in done.stdout


def test_degeneration_survey_runs():
    done = _run("degeneration_survey.py", "--field", "F3", "--rank", "4", "--count", "20")
    assert done.returncode == 0, done.stdout + done.stderr
