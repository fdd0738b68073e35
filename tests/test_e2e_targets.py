"""What the e2e benchmark takes from ``src/`` by name or by outcome.

``benchmarks/e2e/layers.py`` wraps library callables *by name* and, when
one is missing, records it under ``info.unwrapped`` instead of failing —
so a rename would silently zero a per-layer metric; the first test
resolves every target without running anything.  ``workloads.py`` decides
``hit_rate`` and ``storage_amplification`` through what selection picks;
the second pins those picks, so a selection change that moves what the
benchmark materializes fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from repro.core import Sofos

_E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"

#: ``info.views`` of each workload: the same at ``tiny`` and at full size.
_SELECTIONS = {
    "views-hot": ["univ+dept+stype", "univ+stype", "univ+dept"],
    "budget-miss": ["country+lang+continent", "year+continent"],
    "update-churn": ["country+lang+year+continent", "lang+year",
                     "year+continent"],
    "deep-join": ["country+series+year", "series+year", "country+year",
                  "country+series"],
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_e2e_{name}",
                                                  _E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    layers = _load("layers")
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


def test_workload_selections_are_pinned():
    workloads = _load("workloads")
    picked = {}
    for workload in workloads.WORKLOADS:
        tiny = workload.sized(workloads.RUN_SECONDS, smoke=True)
        sofos = Sofos(tiny.build_graph(), tiny.build_facet(), seed=1)
        picked[workload.name] = tiny.select(sofos).labels
    assert picked == _SELECTIONS
