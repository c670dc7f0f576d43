"""The benchmark's layer probes name functions that exist.

``perfbench/spans.py`` wraps each probed function by its module global.  A
probe whose function was renamed reads as absent, and a count whose
parameter was renamed reads None, so the per-layer view would silently lose
that layer; this test fails instead.
"""

import importlib
import importlib.util
import inspect
import numbers
import pathlib
import sys

import numpy as np

from favest.quadrature import gen_gl_tensor

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_probe_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.PROBES
    grid = gen_gl_tensor(4)[0]
    arguments = {
        "lmax": 2,
        "t": np.cos(np.linspace(0.5, 2.5, 3)),
        "f": np.zeros((len(grid), 1), dtype=np.complex128),
        "grid": grid,
    }
    for probe in spans.PROBES:
        module = importlib.import_module(probe.module)
        fn = getattr(module, probe.attr, None)
        assert callable(fn), f"{probe.module}.{probe.attr}"
        if probe.count is not None:
            # A count binds the kernel's parameters by name: a renamed one reads None.
            names = inspect.signature(fn).parameters
            kwargs = {name: arguments[name] for name in names if name in arguments}
            assert isinstance(probe.count(fn, (), kwargs), numbers.Real), probe.metric
