"""Smoke test of the benchmark's traced run against the current sources.

perfbench/tracing.py patches flowtune's layer boundaries by name, so a
rename there would otherwise only show when the benchmark itself runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_traced_explore_reports_every_layer(tmp_path, monkeypatch):
    spans = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if k != "FLOWTUNE_LOG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run([sys.executable, str(PERFBENCH / "tracing.py"), str(spans),
                    "explore", "--generate", "8,60,4", "--seed", "1",
                    "--out", str(tmp_path / "run")],
                   env=env, check=True, timeout=120)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    data = json.loads(spans.read_text())
    layers = tracing.summarize(data["spans"], data["ands_held"])
    assert set(tracing.SPAN_METRICS) <= set(layers)
    assert layers["aig.compact.calls"] >= 1
    # every pass runs through transforms.apply, the name the tracer wraps
    assert sum(layers[f"transforms.{k}.calls"] for k in tracing.KINDS) >= 1
