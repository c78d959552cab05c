"""Tooling guard for the benchmark's traced run: ``perfbench/traced_job.py``
wraps germlin functions by name, so renaming a spanned function fails here
instead of crashing the traced benchmark run."""

import json
import os
import pathlib
import subprocess
import sys

from test_cli import write

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _span_names(tmp_path, config: dict) -> set:
    """Span names of one traced CLI job, run in a fresh interpreter."""
    cfg = write(tmp_path / "cfg.json", config)
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_job.py"),
                           str(spans), "job", "--config", cfg],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(spans.read_text(encoding="utf-8"))["names"])


def test_traced_job_spans_the_linearize_stages(tmp_path):
    lin = _span_names(tmp_path, {"command": "linearize", "seed": 3,
                                 "params": {"n_v": 4, "lin_mode": "full",
                                            "scale": "1/16"}})
    names = lin | _span_names(tmp_path, {"command": "certify", "seed": 5,
                                         "params": {"n_v": 4, "scale": "1/64"}})
    assert {"linearize.full_linearize", "linearize.vertical_linearize",
            "linearize.conjugacy_residual", "linearize.majorant"} <= names
    # the per-layer series metrics measure the solver path
    assert {"series.substitute_shift", "series.mul"} <= lin
