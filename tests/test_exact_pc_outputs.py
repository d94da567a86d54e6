"""Exact-pc command output pinned byte for byte.

``compare``, ``boundary --method exact`` (both branches) and 50x50
``scan --method exact-pc`` at beta 0 and 0.1, run through ``cli.main``.
The recorded stdout was written by the exponential-product path that
assembled a Jacobian stack per margin call, so any change to how the
exact-pc invariants are evaluated that moves a bit shows here.
"""

import gzip
import json
import os

import pytest

from floquet_avg import cli

RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "exact_pc_outputs.json.gz")


def _recorded():
    with gzip.open(RECORDED, "rt", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("case", _recorded(), ids=lambda case: " ".join(case["argv"]))
def test_exact_pc_commands_print_the_recorded_output(capsys, case):
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], "")
    assert out == case["stdout"]
