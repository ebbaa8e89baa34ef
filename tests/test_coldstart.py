"""How ``tools/coldstart.py`` rolls ``-X importtime`` output up by layer."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "coldstart", os.path.join(HERE, "..", "tools", "coldstart.py")
)
coldstart = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coldstart)

STDERR = """\
import time: self [us] | cumulative | imported package
import time:       900 |        900 | argparse
coldstart: import
import time:       100 |        100 |     repro.utils
import time:      2000 |       2100 |   repro.core.config
import time:       300 |       2400 | repro
import time:      1500 |       1500 |       dataclasses
import time:      4000 |       5500 |     repro.hw.serving
import time:       200 |       5700 |   repro.hw
coldstart: first token
import time:      7000 |       7000 | numpy.ma
"""


def test_own_times_roll_up_by_package_and_phase():
    at_import, in_first = coldstart.parse_importtime(STDERR)
    # argparse loaded before the clock started and counts nowhere
    assert at_import == {
        "repro.utils": 0.1,
        "repro.core": 2.0,
        "repro": 0.3,
        "other": 1.5,
        "repro.hw": 4.2,
    }
    assert in_first == {"other": 7.0}
