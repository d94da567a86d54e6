"""Averaged and RK4 scan output, and order-K boundaries, pinned byte for byte.

12x12 ``scan --omega 0:0.5:12 --eps 0:1.2:12`` with ``--method exact-rk``
and ``order1``..``order6``, and ``boundary --method order2`` and
``order4`` on both branches over two omega ranges, each at beta 0 and
0.1, run through ``cli.main``.  The recorded output was written when each
scan method still had its own batched evaluation, so a change to how a
method's invariants are prepared or dispatched that moves a bit shows here.
"""

import gzip
import json
import os

import pytest

from floquet_avg import cli

RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "scan_outputs.json.gz")


def _recorded():
    with gzip.open(RECORDED, "rt", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("case", _recorded(), ids=lambda case: " ".join(case["argv"]))
def test_scan_and_boundary_commands_print_the_recorded_output(capsys, case):
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == case["stdout"]
