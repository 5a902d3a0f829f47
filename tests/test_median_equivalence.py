import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_replay_of_one_tree_against_itself_finds_no_difference():
    tool = ROOT / "tools" / "median_equivalence.py"
    proc = subprocess.run([sys.executable, str(tool), str(ROOT), str(ROOT)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    solves, identical = (int(x.split(": ")[1]) for x in lines[0].split(", "))
    assert solves > 3000 and identical == solves
    assert lines[1] == "status differs: 0, anchor index differs: 0"
    assert lines[-1] == "gate holds"
