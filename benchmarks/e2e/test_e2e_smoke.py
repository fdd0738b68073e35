"""Functional check of the end-to-end benchmark (tiny datasets, seconds).

Runs the traced smoke pass twice and compares what must not vary; no
timing is asserted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

from layers import EXACT_METRICS  # noqa: E402

EXACT_END_TO_END = ("hit_rate", "storage_amplification")


def smoke_pass(out_dir) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--runs",
         "1", "--trace", "--trace-out", str(out_dir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    return [smoke_pass(tmp_path_factory.mktemp(f"trace{i}"))
            for i in range(2)]


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_emits_exactly_what_benchmark_json_names(passes, contract):
    for payload in passes:
        assert payload["correct"]
        assert list(payload["workloads"]) == \
            [w["name"] for w in contract["workloads"]]
        for name, result in payload["workloads"].items():
            for key in ("end_to_end", "per_layer"):
                declared = {m["name"]: m["unit"] for m in contract[key]}
                emitted = {metric: row["unit"]
                           for metric, row in result[key].items()}
                assert emitted == declared, (name, key)
            assert all(row["n"] == 1
                       for row in result["end_to_end"].values())


def test_counts_and_ratios_repeat_exactly(passes):
    first, second = (p["workloads"] for p in passes)
    for name in first:
        for metric in EXACT_END_TO_END:
            assert first[name]["end_to_end"][metric]["median"] == \
                second[name]["end_to_end"][metric]["median"], (name, metric)
        for metric in EXACT_METRICS:
            assert first[name]["per_layer"][metric]["value"] == \
                second[name]["per_layer"][metric]["value"], (name, metric)


def test_trace_accounts_for_the_loop(passes):
    for payload in passes:
        for name, result in payload["workloads"].items():
            coverage = result["per_layer"]["harness.layer_coverage"]["value"]
            assert coverage >= 0.95, (name, coverage)


def test_refuses_a_checkout_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "views-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
