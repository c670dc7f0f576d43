"""The benchmark's layer probes name functions that exist.

``perfbench/spans.py`` wraps each probed function by its module global.  A
probe whose function was renamed reads as absent, so the per-layer view
would silently lose that layer; this test fails instead.
"""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_probe_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.PROBES
    for probe in spans.PROBES:
        module = importlib.import_module(probe.module)
        assert callable(getattr(module, probe.attr, None)), f"{probe.module}.{probe.attr}"
