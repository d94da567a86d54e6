"""Model-file ``analyze`` output pinned byte for byte, orders 1-6 in JSON and text.

Four models from test_model_files: the coupled 4x4 pair of pendulums, whose
J0 squares to zero; the 2x2 linear model; a 2x2 model with J0 = 0; and a
3x3 model whose J0 is one Jordan block, J0^2 != 0.  Each case holds the
model document it ran on, so the pin covers the whole report: the averaged
fields, the exact_pc and exact_rk F, the text layout and the JSON layout.
The recorded stdout was written while X0 = exp(J0 t) was still stored at
degree n - 1 whatever J0's nilpotency index, and while the analyze JSON
was written by a recursive formatter, so a change to either that moves a
byte shows here.
"""

import json

import pytest

from conftest import assert_prints_recorded, recorded

MODEL_SLOT = "MODEL"  # the --model-file argument, replaced by the written file's path


@pytest.mark.parametrize("case", recorded("model_file_outputs"),
                         ids=lambda case: f"{case['name']} {' '.join(case['argv'][3:])}")
def test_model_file_analyze_prints_the_recorded_output(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(case["model"]), encoding="utf-8")
    argv = [str(path) if arg == MODEL_SLOT else arg for arg in case["argv"]]
    assert_prints_recorded(capsys, dict(case, argv=argv))
