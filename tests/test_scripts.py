"""Each script under scripts/ runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_crossover_table_flips():
    proc = run_script("crossover_table.py", "--lo", "70", "--hi", "76")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "flips: [(72, 74)]" in lines
    assert "flips: [(71, 73)]" in lines


def test_crossover_table_empty_range_is_a_usage_error():
    proc = run_script("crossover_table.py", "--lo", "30", "--hi", "20")
    assert proc.returncode == 2
    assert "empty range" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, args", [
    ("threshold_window.py", ("--lo", "22", "--hi", "22")),
    ("small_m_maximizers.py", ("--max-m", "5")),
])
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
