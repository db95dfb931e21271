"""Smoke test of ``tools/identity.py`` at a small horizon."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def identity(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "identity.py"),
                           "--src", os.path.join(ROOT, "src"), *args],
                          capture_output=True, text=True, check=True).stdout


def test_identity_tool_prints_the_same_digests_twice():
    first = identity("--max-horizon", "8")
    lines = first.splitlines()
    # 6 scenarios x 4 algorithms x 2 seeds and 2 path estimates, 4 files
    # each, then the regions of each of the 6 scenarios
    assert len(lines) == 50 * 4 + 6
    assert all(re.fullmatch(r"[0-9a-f]{64}  [\w.-]+/(config\.json|plotdata\.csv|rounds\.csv|"
                            r"summary\.json)", line) for line in lines[:200])
    assert all(re.fullmatch(r"[0-9a-f]{64}  regions/[\w-]+", line) for line in lines[200:])
    assert len({line.split()[1] for line in lines}) == len(lines)
    # a rerun differs only in wall_clock_sec, which the digest leaves out
    assert identity("--max-horizon", "8") == first
