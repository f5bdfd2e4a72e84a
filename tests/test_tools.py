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
    assert [row[0] for row in rows] == cells
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
    row = next(line for line in done.stdout.splitlines() if line.startswith("dense-n10/"))
    assert row.split()[1:6] == ["18", "equal", "equal", "DIFFER", "DIFFER"]
    assert row.endswith("UNDECLARED") and 0 < float(row.split()[6]) < 1e-10
    done = _same_iterates(tmp_path, "--cells", "dense-n10/rcd:1", "--declared", "dense-n10/*")
    assert done.returncode == 0, done.stdout + done.stderr
