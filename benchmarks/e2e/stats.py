"""From raw samples to the end-to-end metrics.

A run is several identical children (same workload, same seed, so the
same operations in the same order).  The box this was sized on shares
its cores, and two kinds of interference were measured on it:

* bursts -- a neighbour slows stretches of 0.1-2 s by about a third, for
  a fifth to a half of the time.  Bursts only ever add time, so every
  operation is charged the *fastest* of its executions across children;
* drift -- the clock speed itself moves by +-5% for tens of seconds.  Each
  child times a fixed pure-Python kernel between its operations; the
  kernel's lower decile is the child's speed, and the child's times are
  scaled to the speed of ``KERNEL_REF_S`` before the minimum is taken.

On five runs of one seed, four children each, one child's ``loop_s``
ranged over 35%, the unscaled minimum over 9%, the scaled minimum over
2.5%.  The kernel under-reports what a neighbour does to memory-bound
sections (graph generation, profiling), so the long sections stay the
noisiest metrics.
"""

from __future__ import annotations

import math
import statistics


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


#: What the reference kernel takes on the sizing box at rest (CPython
#: 3.11).  Only a scale: reported times are "at this kernel speed".
KERNEL_REF_S = 215e-6


def raw_loop_s(child: dict) -> float:
    """Unscaled sum of one child's timed loop sections."""
    return sum(child["answer_s"]) + sum(
        w["apply_s"] + w["maintain_s"] for w in child["windows"])


def slowdown(child: dict) -> float:
    """How much slower than the reference speed this child ran."""
    ordered = sorted(child["kernel_s"])
    return ordered[len(ordered) // 10] / KERNEL_REF_S


def same_inputs(children: list[dict]) -> bool:
    """True when every child saw the same operations and outcomes."""
    def outcome(child: dict) -> tuple:
        return (child["hits"], len(child["offline_s"]),
                [(w["large"], w["changed"], w["net_triples"])
                 for w in child["windows"]], child["amplification"])

    first = outcome(children[0])
    return all(outcome(child) == first for child in children[1:])


def fastest(children: list[dict]) -> dict:
    """One sample set: each operation's speed-scaled minimum over children."""
    first = children[0]
    slow = [slowdown(child) for child in children]

    def best(times) -> float:
        return min(t / s for t, s in zip(times, slow))

    return {
        "setup_s": best(child["setup_s"] for child in children),
        "offline_s": best(min(child["offline_s"]) for child in children),
        "answer_s": [best(times) for times in
                     zip(*(child["answer_s"] for child in children))],
        "windows": [{
            "large": window["large"], "changed": window["changed"],
            "apply_s": best(c["windows"][i]["apply_s"] for c in children),
            "maintain_s": best(c["windows"][i]["maintain_s"]
                               for c in children),
        } for i, window in enumerate(first["windows"])],
        "hits": first["hits"],
        "amplification": first["amplification"],
        "peak_rss_mb": statistics.median(
            child["peak_rss_mb"] for child in children),
    }


def end_to_end(samples: dict) -> dict:
    """The end-to-end metrics of one sample set, name -> (value, unit)."""
    answers = samples["answer_s"]
    windows = samples["windows"]
    ordered = sorted(answers)
    answers_total = sum(answers)
    update_total = sum(w["apply_s"] + w["maintain_s"] for w in windows)

    def maintain_p50(large: bool) -> float:
        return 1e3 * statistics.median(
            w["maintain_s"] for w in windows if w["large"] == large)

    metrics = {
        "setup_s": (samples["setup_s"], "s"),
        "offline_s": (samples["offline_s"], "s"),
        "loop_s": (answers_total + update_total, "s"),
        "query_ms_p50": (1e3 * percentile(ordered, 50), "ms"),
        "query_ms_p95": (1e3 * percentile(ordered, 95), "ms"),
        "queries_per_s": (len(answers) / answers_total, "1/s"),
        "hit_rate": (sum(samples["hits"]) / len(answers), "ratio"),
        "storage_amplification": (samples["amplification"], "ratio"),
        "maintain_small_ms_p50": (maintain_p50(False), "ms"),
        "maintain_large_ms_p50": (maintain_p50(True), "ms"),
        "update_triples_per_s": (
            sum(w["changed"] for w in windows) / update_total, "1/s"),
        "peak_rss_mb": (samples["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}
