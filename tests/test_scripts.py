"""The scripts under scripts/ run end to end, each in its own process."""

import json
import shutil
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


def test_lagrangian_census_rank6_sample():
    # diag(1^6), whose planes live over F9, and diag(1,1,1,1,1,2) over F3
    done = _run("lagrangian_census.py", "--field", "F3", "--rank", "6", "--limit", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "2 of 64 swept" in done.stdout
    assert "extension=True  count=1640" in done.stdout
    assert "extension=False count=80" in done.stdout
    assert "all counts match the formula and all center flags agree" in done.stdout


def test_degeneration_survey_runs():
    done = _run("degeneration_survey.py", "--field", "F3", "--rank", "4", "--count", "20")
    assert done.returncode == 0, done.stdout + done.stderr


def test_bench_pairs_writes_the_bench_schema(tmp_path):
    # a copy of the repo against itself, so that the traced runs write their
    # span trees there: one pair and one traced run per side
    root = tmp_path / "checkout"
    for part in ("src", "perfbench"):
        shutil.copytree(SCRIPTS.parent / part, root / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", root)
    root = str(root)
    out = tmp_path / "BENCH_0.json"
    done = _run("bench_pairs.py", "--parent", root, "--change", root,
                "--workload", "pencil_search", "--pairs", "1", "--seconds", "0.2",
                "--out", str(out), "--claim", "run_s", "--trace")
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert doc["claimed"] == {"workload": "pencil_search", "metric": "run_s"}
    entry = doc["workloads"]["pencil_search"]
    assert (entry["pairs"], entry["seeds"], entry["first_side"]) == (1, [1], ["parent"])
    for side in ("parent", "change"):
        (run,) = entry["runs"][side]
        assert set(run) == {"setup_s", "run_s", "peak_rss_mib"}
        for name, value in run.items():
            assert entry[side][name] == {"median": value, "q1": value, "q3": value}
        assert entry[side]["correct"] is True
        assert len(entry[side]["failed_per_attempted"]) == 1
        assert doc["per_layer"]["pencil_search"][side]["pencil_search.pairs"] == 30
    assert set(entry["change_wins"]) == {"setup_s", "run_s", "peak_rss_mib"}
