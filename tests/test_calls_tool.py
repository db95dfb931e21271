"""Smoke test of ``tools/calls.py`` at a small horizon."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calls(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "calls.py"),
                           "--src", os.path.join(ROOT, "src"), *args],
                          capture_output=True, text=True, check=True).stdout


def test_calls_tool_prints_the_same_counts_twice():
    first = calls("--horizon", "20")
    # a line per algorithm x scenario pair: its calls per round, Python + C
    rows = [re.fullmatch(r"([\w-]+) +([\w-]+) +\S+ \((\S+) \+ (\S+)\)", line).groups()
            for line in first.splitlines()]
    assert len({row[:2] for row in rows}) == len(rows) == 24
    assert all(float(python) > 0 and float(c) > 0 for _, _, python, c in rows)
    # the counts are exact: a second process prints them to the last digit
    assert calls("--horizon", "20") == first


def test_calls_tool_against_its_own_src_reports_no_difference():
    assert calls("--horizon", "20", "--against", os.path.join(ROOT, "src")) == (
        "0 of 24 pairs differ in calls per round\n")
