"""The benchmark's layer tracer must see the layers of a CLI run.

`perfbench/tracer.py` wraps names in `branchedq.cli`'s module globals.  Code
that captured a builder or the eigensolver elsewhere (a dispatch table
built at import, say) would keep calling the unwrapped function, and the
per-layer times would read 0 with every name still present.  The tracer is
executed from its source, as in `test_tracer_bindings.py`.
"""

import json
import runpy
from pathlib import Path

from click.testing import CliRunner

from branchedq.cli import main

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_sees_a_folded_spectrum_run(tmp_path):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "version": 1, "mode": "spectrum",
        "potential": {"form": "quadratic", "alpha": 1.0},
        "grid": {"kind": "folded", "n_inner": 8, "n_arm": 10},
        "solver": {"k": 3}}))
    with runpy.run_path(str(_TRACER))["Tracer"]() as tracer:
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg), "--jobs", "1",
                   "--out", str(tmp_path / "out")], catch_exceptions=False)
    assert result.exit_code == 0
    metrics = tracer.layer_metrics()
    assert metrics["operators.calls"] >= 1
    assert metrics["spectra.solve_calls"] >= 1
