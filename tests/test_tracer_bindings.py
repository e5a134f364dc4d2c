"""The benchmark's layer tracer must still find every name it wraps.

`perfbench/tracer.py` wraps module attributes of `branchedq` by name and
skips a name that is missing, so a renamed or deleted binding would read
as a layer time of 0 and fail nothing.  The tracer is executed from its
source here, not imported as a package, and nothing is installed.
"""

import importlib
import runpy
from pathlib import Path

from branchedq.dispersion import DispersionLaw

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_entry_points_resolve():
    entry_points = runpy.run_path(str(_TRACER))["ENTRY_POINTS"]
    assert len(entry_points) == 35
    missing = [(module, attr) for module, attr, _, _ in entry_points
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert callable(DispersionLaw.invert_momentum)
