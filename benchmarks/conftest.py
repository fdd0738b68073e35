"""Shared fixtures and artifact plumbing for the experiment suites (E1-E10).

An experiment's output has two parts, kept apart so that a test run never
edits a tracked file.  The **deterministic** part (dataset/facet tables,
lattice renders, groups, triples, amplification, hit rates, routed views,
picked labels, selector objectives) is the tracked golden
``benchmarks/out/<exp>.txt``: :func:`emit` compares against it and writes
it only when it is absent, so regenerating one is "delete it and re-run".
The **timing** part (every ms / speedup / rho column, and whatever the
timing-trained ``learned`` cost model picked) goes to stdout and the
git-ignored ``benchmarks/out/timings/<exp>.txt`` (:func:`emit_timings`);
it is for reading — a timing is claimed from ``benchmarks/e2e`` only.
"""

from __future__ import annotations

import os
from typing import Collection, Sequence

import pytest

from repro.core.report import format_table
from repro.datasets import load_dataset

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Files this session has started writing: the timings of each experiment,
#: and any golden that was absent at its first emit (being regenerated).
_STARTED: set[str] = set()


def _append(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    mode = "a" if path in _STARTED else "w"
    _STARTED.add(path)
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text + "\n")


def emit_timings(exp_id: str, text: str) -> None:
    """Print a measured artifact and keep it under benchmarks/out/timings/."""
    print(f"\n===== {exp_id} =====\n{text}")
    _append(os.path.join(OUT_DIR, "timings", f"{exp_id}.txt"), text)


def emit(exp_id: str, text: str) -> None:
    """Print a deterministic artifact and hold it to the tracked golden."""
    print(f"\n===== {exp_id} =====\n{text}")
    path = os.path.join(OUT_DIR, f"{exp_id}.txt")
    if path in _STARTED or not os.path.exists(path):
        _append(path, text)
        return
    with open(path, encoding="utf-8") as handle:
        golden = handle.read()
    # whole lines of the golden, wherever in the file this chunk sits: a
    # ``-k`` subset of an experiment still checks what it emits
    assert f"\n{text}\n" in f"\n{golden}", (
        f"{exp_id}: the deterministic artifact below is not in "
        f"{os.path.relpath(path)}.  If the change is intended, delete "
        f"that file, re-run the suite and commit the result.\n{text}")


def emit_table(exp_id: str, headers: Sequence[str],
               rows: Sequence[Sequence[str]], align_right: Sequence[bool],
               timing: Collection[str], title: str = "") -> None:
    """Emit one table whose ``timing`` columns (by header) are measurements:
    all of it as timings, the other columns as the deterministic artifact."""
    emit_timings(exp_id, title + format_table(headers, rows, align_right))
    keep = [i for i, header in enumerate(headers) if header not in timing]
    emit(exp_id, title + format_table(
        [headers[i] for i in keep],
        [[row[i] for i in keep] for row in rows],
        [align_right[i] for i in keep]))


@pytest.fixture(scope="session")
def small_dbpedia():
    return load_dataset("dbpedia", "small")


@pytest.fixture(scope="session")
def small_lubm():
    return load_dataset("lubm", "small")


@pytest.fixture(scope="session")
def small_swdf():
    return load_dataset("swdf", "small")


@pytest.fixture(scope="session")
def all_small(small_dbpedia, small_lubm, small_swdf):
    return {
        "dbpedia": small_dbpedia,
        "lubm": small_lubm,
        "swdf": small_swdf,
    }
