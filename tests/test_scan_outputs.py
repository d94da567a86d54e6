"""Averaged and RK4 scan output, and order-K boundaries, pinned byte for byte.

12x12 ``scan --omega 0:0.5:12 --eps 0:1.2:12`` with ``--method exact-rk``
and ``order1``..``order6``, and ``boundary --method order2`` and
``order4`` on both branches over two omega ranges, each at beta 0 and
0.1, run through ``cli.main``.  The recorded output was written when each
scan method still had its own batched evaluation, so a change to how a
method's invariants are prepared or dispatched that moves a bit shows here.
"""

import pytest

from conftest import assert_prints_recorded, recorded


@pytest.mark.parametrize("case", recorded("scan_outputs"), ids=lambda case: " ".join(case["argv"]))
def test_scan_and_boundary_commands_print_the_recorded_output(capsys, case):
    assert_prints_recorded(capsys, case)
