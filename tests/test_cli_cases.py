"""The command line's cases (``tests/cli_cases.py``), run in-process through
``cli.main``, and a few through ``python -m coco_lab.cli`` as a script."""

import sys

import pytest

from cli_cases import CASES, run_case

BY_NAME = {case.name: case for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=list(BY_NAME))
def test_cli_case(case, tmp_path):
    assert run_case(case, str(tmp_path)) == []


@pytest.mark.parametrize("name", ["entry-point", "nan-play-names-its-round",
                                  "overflow-coco1-names-its-round", "misspelt-horizn"])
def test_cli_case_as_a_script(name, tmp_path):
    assert run_case(BY_NAME[name], str(tmp_path), [sys.executable, "-m", "coco_lab.cli"]) == []


def test_case_names_are_unique():
    assert len(BY_NAME) == len(CASES)
