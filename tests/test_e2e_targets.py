"""The e2e benchmark's trace targets must exist in ``src/``.

``benchmarks/e2e/layers.py`` wraps library callables *by name* and, when
one is missing, records it under ``info.unwrapped`` instead of failing —
so a rename would silently zero a per-layer metric.  This resolves every
target without running anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" \
    / "layers.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("_e2e_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.SPANS + layers.LEAVES
    assert len(targets) >= 37
    missing = []
    for module, cls, attr, _name in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert not missing, missing
