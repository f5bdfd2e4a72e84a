import shutil
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_SAME_ITERATES = _REPO / "tools" / "same_iterates.py"


def _same_iterates(other, *args):
    return subprocess.run([sys.executable, str(_SAME_ITERATES), str(other), *args],
                          capture_output=True, text=True, timeout=300)


def test_same_iterates_passes_its_own_tree():
    cells = ["dense-n10/rcd:1", "dense-n10/rcdvs:3"]
    done = _same_iterates(_REPO, "--cells", *cells)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line.startswith("dense-n10/")]
    # each cell's sampled runs, then their forced replays
    assert [row[0] for row in rows] == [name for cell in cells for name in (cell, cell + "/forced")]
    assert all(row[1:] == ["18", "equal", "equal", "equal", "equal", "-"] for row in rows)
    assert done.stdout.rstrip().endswith("0 undeclared difference(s)")


def test_same_iterates_fails_on_a_difference_unless_declared(tmp_path):
    # half-length windows solve the same steps in other systems: the same
    # subsets and iteration counts, iterates apart in their last bits
    shutil.copytree(_REPO / "src" / "volcd", tmp_path / "src" / "volcd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    objectives = tmp_path / "src" / "volcd" / "objectives.py"
    text = objectives.read_text(encoding="utf-8")
    assert "\n_WINDOW = 48\n" in text
    objectives.write_text(text.replace("\n_WINDOW = 48\n", "\n_WINDOW = 24\n"), encoding="utf-8")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1")
    assert done.returncode == 1, done.stdout + done.stderr
    row, replay = (line for line in done.stdout.splitlines() if line.startswith("dense-n10/"))
    assert row.split()[1:6] == ["18", "equal", "equal", "DIFFER", "DIFFER"]
    assert row.endswith("UNDECLARED") and 0 < float(row.split()[6]) < 1e-10
    # forced replays take no window, so they stay bitwise
    assert replay.split() == ["dense-n10/rcd:1/forced", "18", "equal", "equal", "equal", "equal",
                              "-"]
    assert done.stdout.rstrip().endswith("1 undeclared difference(s)")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/rcd:1")
    assert done.returncode == 0, done.stdout + done.stderr


def test_same_iterates_reports_a_failing_tree_as_error_rows(tmp_path):
    # a tree whose run raises prints both rows of the cell as ERROR, with
    # the child's last stderr line, and they count as differences
    shutil.copytree(_REPO / "src" / "volcd", tmp_path / "src" / "volcd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solvers = tmp_path / "src" / "volcd" / "solvers.py"
    solvers.write_text(solvers.read_text(encoding="utf-8")
                       + "\n\ndef run(*args, **kwargs):\n    raise RuntimeError('no run here')\n",
                       encoding="utf-8")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1")
    assert done.returncode == 1, done.stdout + done.stderr
    rows = [line.split(None, 3) for line in done.stdout.splitlines()
            if line.startswith("dense-n10/")]
    assert [row[:3] for row in rows] == [["dense-n10/rcd:1", "18", "ERROR"],
                                         ["dense-n10/rcd:1/forced", "18", "ERROR"]]
    assert all(row[3] == "other tree: RuntimeError: no run here  UNDECLARED" for row in rows)
    assert done.stdout.rstrip().endswith("2 undeclared difference(s)")
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/*")
    assert done.returncode == 0, done.stdout + done.stderr
