"""Smoke test of ``tools/ab.py``: a src against itself at a tiny horizon."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "tools"))

import ab  # noqa: E402  (its spawn workers import it again from the same path)


def test_ab_tool_times_a_src_against_itself(capsys):
    assert ab.session(SRC, SRC, [("coco1", "tracking-ball"), ("adagrad", "static")], 4, 5) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"# A = {SRC}", f"# B = {SRC}",
                         "# (T, seed) = (5, 0), 4 pairs of samples each, bootstrap 95% CIs"]
    number = r"(\d+\.\d{4})"
    rows = [re.fullmatch(rf"(\w+) +([\w-]+) +(B/A|A/A) {number} \[{number}, {number}\]"
                         rf"(  A us/run \d+\.\d)?", line) for line in lines[3:]]
    assert [row.group(1, 2, 3) for row in rows] == [
        ("coco1", "tracking-ball", "B/A"), ("coco1", "tracking-ball", "A/A"),
        ("adagrad", "static", "B/A"), ("adagrad", "static", "A/A")]
    for row in rows:
        median, low, high = map(float, row.group(4, 5, 6))
        assert 0 < low <= median <= high
        assert (row.group(7) is not None) == (row.group(3) == "A/A")


def test_ab_tool_rejects_a_pair_it_does_not_know():
    with pytest.raises(SystemExit, match=re.escape(
            "pairs not in both versions: [('coco1', 'nowhere')]")):
        ab.main(["--a", SRC, "--b", SRC, "--pairs", "coco1:nowhere", "--samples", "2"])


def test_ab_tool_exits_when_a_worker_dies(tmp_path):
    # B's coco_lab fails to import, so its worker ends before it answers;
    # the parent holds the last reference to B's end of its pipe until it
    # closes it, so this is the worker whose death could go unseen
    (tmp_path / "coco_lab").mkdir()
    (tmp_path / "coco_lab" / "__init__.py").write_text('raise ImportError("broken on purpose")\n')
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "ab.py"),
                           "--a", SRC, "--b", str(tmp_path), "--pairs", "coco1:static"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "ImportError: broken on purpose" in done.stderr
    assert done.stderr.endswith("a worker ended before it answered (its traceback is above)\n")
