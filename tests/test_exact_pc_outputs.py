"""Exact-pc command output pinned byte for byte.

``compare``, ``boundary --method exact`` (both branches) and 50x50
``scan --method exact-pc`` at beta 0 and 0.1, run through ``cli.main``.
The recorded stdout was written by the exponential-product path that
assembled a Jacobian stack per margin call, so any change to how the
exact-pc invariants are evaluated that moves a bit shows here.
"""

import pytest

from conftest import assert_prints_recorded, recorded


@pytest.mark.parametrize("case", recorded("exact_pc_outputs"),
                         ids=lambda case: " ".join(case["argv"]))
def test_exact_pc_commands_print_the_recorded_output(capsys, case):
    assert_prints_recorded(capsys, case)
