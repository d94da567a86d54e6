"""Pendulum ``analyze`` output pinned byte for byte.

Three seeded points per beta (0, 0.1 and 0.3; omega in [0, 0.5), eps in
[0, 1.2)) at orders 1-6 in JSON and text; omega = 0, eps = 0 and both at
orders 1, 4 and 6, where beta 0 puts -0.0 into the Jacobian's damping
entry; and omega 3-4 at eps 1, where the exact_rk determinant is
roundoff.  The recorded stdout was written when a pendulum report still
took its determinant series and J(t) from the graded split
(``pendulum.series_split``), so a change to how a report gathers its
inputs that moves a bit shows here.
"""

import pytest

from conftest import assert_prints_recorded, recorded
from floquet_avg import averaging, cli, pendulum


@pytest.mark.parametrize("case", recorded("analyze_outputs"),
                         ids=lambda case: " ".join(case["argv"][1:]))
def test_pendulum_analyze_prints_the_recorded_output(capsys, case):
    assert_prints_recorded(capsys, case)


def test_pendulum_analyze_builds_no_series_system(capsys, monkeypatch):
    # a report takes the table, its monomial values and J(t) from
    # pendulum.jacobians; the graded split serves the table build alone
    def forbidden(*args, **kwargs):
        raise AssertionError("pendulum analyze built a SeriesSystem")

    monkeypatch.setattr(pendulum, "series_split", forbidden)
    monkeypatch.setattr(averaging, "series_total", forbidden)
    for order in ("1", "4", "6"):
        code = cli.main(["analyze", "--omega", "0.2", "--eps", "0.5", "--beta", "0.1",
                         "--order", order])
        assert code == 0 and capsys.readouterr().err == ""
