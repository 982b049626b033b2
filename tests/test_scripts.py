import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_matrix_gallery_starts_where_the_statistic_occurs():
    # d = 2 first occurs at n = 5; smaller n have no such layer
    result = run_script("matrix_gallery.py", "--d", "2", "--n-max", "6")
    assert (result.returncode, result.stderr) == (0, "")
    blocks = result.stdout.strip().split("\n\n")
    assert [block.splitlines()[0] for block in blocks] == ["n=5 (d=2): ballot | odd",
                                                          "n=6 (d=2): ballot | odd"]
    assert blocks[0].splitlines()[1:] == ["  0 2 2 1   | 0 2 2 1", "  2 0 2 2   | 2 0 2 2",
                                          "  2 2 0 2   | 2 2 0 2", "  1 2 2 0   | 1 2 2 0"]


def test_matrix_gallery_refuses_sizes_past_the_budget():
    result = run_script("matrix_gallery.py", "--n-max", "11")
    assert (result.returncode, result.stdout) == (2, "")
    assert "--n-max is budgeted up to 10" in result.stderr
    assert "Traceback" not in result.stderr
