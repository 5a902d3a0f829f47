import functools
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def replay_against_itself() -> subprocess.CompletedProcess:
    """One run of the replay tool on the repo against itself."""
    tool = ROOT / "tools" / "median_equivalence.py"
    return subprocess.run([sys.executable, str(tool), str(ROOT), str(ROOT)],
                          capture_output=True, text=True)


def test_replay_of_one_tree_against_itself_finds_no_difference():
    proc = replay_against_itself()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    solves, identical = (int(x.split(": ")[1]) for x in lines[0].split(", "))
    assert solves > 3000 and identical == solves
    assert lines[1] == "status differs: 0, anchor index differs: 0"
    assert lines[-1] == "gate holds"


def test_replay_of_one_tree_against_itself_finds_no_polygon_difference():
    proc = replay_against_itself()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    count = next(x for x in lines if x.startswith("polygons: "))
    polygons, identical = (int(x.split(": ")[1]) for x in count.split(", "))
    assert polygons > 3000 and identical == polygons
    assert "polygon fields that differ: none" in lines


def test_replay_of_one_tree_against_itself_finds_no_command_difference():
    proc = replay_against_itself()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    count = next(x for x in lines if x.startswith("commands: "))
    commands, identical = (int(x.split(": ")[1]) for x in count.split(", "))
    assert commands > 400 and identical == commands
    assert "command fields that differ: none" in lines
