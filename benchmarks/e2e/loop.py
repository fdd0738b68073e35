"""The child process: one workload, one seed, one pass of the SOFOS loop.

setup -> offline x reps -> two warm-up rounds -> R timed rounds (apply an
update window, maintain the views, answer queries) -> optional
correctness check -> one JSON object with the raw samples on the last
line of stdout.  ``run.py`` starts several identical children per run,
one after another, with a scrubbed environment, and folds their samples
(``stats.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

#: The reference kernel runs between answers about this often.
KERNEL_EVERY_S = 0.005
#: Untimed rounds before the timed ones: one large window, one small.
WARMUP_ROUNDS = 2


def group_signatures(graph) -> dict:
    """Multiset of per-group (p, o) sets: view equality without bnode labels."""
    by_node: dict = {}
    for triple in graph:
        by_node.setdefault(triple.s, []).append((triple.p, triple.o))
    signatures: dict = {}
    for pairs in by_node.values():
        key = frozenset(pairs)
        signatures[key] = signatures.get(key, 0) + 1
    return signatures


def reference_kernel() -> float:
    """Seconds one fixed pure-Python computation takes right now."""
    start = perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    return perf_counter() - start


class GcWatch:
    """Counts gen-2 collections and sums every collector pause."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.pause_s += perf_counter() - self._start
            if info["generation"] == 2:
                self.gen2 += 1


class Pass:
    """One pass of the loop; the phases run in the order they are defined."""

    def __init__(self, workload, seed: int, import_s: float, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.import_s = import_s
        self.tracer = tracer
        self.failures: list[str] = []
        self.attempted = 0
        self.kernel_s: list[float] = []
        self.answer_s: list[float] = []
        self.hits: list[bool] = []
        self.windows: list[dict] = []
        self.rebuild_fallbacks = 0

    def begin(self, kind: str) -> None:
        """Name the request the next spans belong to (traced runs only)."""
        if self.tracer is not None:
            self.tracer.begin(kind)

    def failed(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def setup(self) -> None:
        """Graph, facet, ``Sofos`` and the query stream; timed as setup_s."""
        from repro.core.sofos import Sofos
        from repro.workload import WorkloadConfig, render_analytical_query
        from workloads import DATA_SEED
        workload = self.workload
        # the pool, plus one round's worth that only the warm-up rounds ask
        n_queries = workload.stream_size + workload.per_round
        self.begin("setup")
        t0 = perf_counter()
        self.graph = workload.build_graph()
        self.facet = workload.build_facet()
        sofos = Sofos(self.graph, self.facet, seed=self.seed,
                      maintenance="incremental")
        queries = sofos.generate_workload(
            n_queries, WorkloadConfig(size=n_queries, seed=DATA_SEED))
        self.setup_s = self.import_s + perf_counter() - t0
        # The query pool is a fixed input like the graph; the seed decides
        # the order it is asked in.  (Freshly seeded pools of this size
        # moved query_ms_p50 by 10-23% and hit_rate by 8% between seeds.)
        warmup = queries[workload.stream_size:]
        self.queries = queries[:workload.stream_size]
        random.Random(self.seed).shuffle(self.queries)
        self.triples_start = len(self.graph)
        if workload.text:
            self.stream = [render_analytical_query(q) for q in self.queries]
            self.warmup = [render_analytical_query(q) for q in warmup]
        else:
            self.stream, self.warmup = self.queries, warmup

    def offline(self) -> None:
        """profile + select + materialize on a fresh ``Sofos`` each rep."""
        from repro.core.sofos import Sofos
        self.offline_s: list[float] = []
        self.sofos = None
        for _ in range(self.workload.offline_reps):
            if self.sofos is not None:
                self.sofos.drop_views()
            self.sofos = None
            gc.collect()        # every rep starts from the same heap
            self.sofos = Sofos(self.graph, self.facet, seed=self.seed,
                               maintenance="incremental")
            self.begin("offline:profile")
            t0 = perf_counter()
            self.sofos.profile()
            self.begin("offline:select")
            self.selection = self.workload.select(self.sofos)
            self.begin("offline:materialize")
            self.sofos.materialize(self.selection)
            self.offline_s.append(perf_counter() - t0)

    def loop(self, gc_watch: GcWatch) -> None:
        """Warm-up rounds, then the timed ones."""
        from repro.workload import UpdateStreamConfig, UpdateStreamGenerator
        from workloads import DATA_SEED
        workload, graph, sofos = self.workload, self.graph, self.sofos
        answer = sofos.answer_sparql if workload.text else sofos.answer

        def window_ops(share: float) -> int:
            # an operation touches ~4 triples (an entity star or one triple)
            return max(1, round(self.triples_start * share / 4))

        # Update streams are fixed inputs too: one batch that happens to
        # delete a hub entity (a continent, a department) changes every
        # later number.
        generators = {
            "small": UpdateStreamGenerator(graph, UpdateStreamConfig(
                operations_per_batch=window_ops(workload.small),
                seed=DATA_SEED)),
            "large": UpdateStreamGenerator(graph, UpdateStreamConfig(
                operations_per_batch=window_ops(workload.large),
                seed=DATA_SEED + 1)),
        }
        kernel_due = 0.0    # when the next kernel run between answers is due
        position = 0
        gc.collect()
        for r in range(-WARMUP_ROUNDS, workload.rounds):
            timed = r >= 0
            if r == 0:
                gc.collect()
                self.gc_before = (gc_watch.gen2, gc_watch.pause_s)
            large = r % workload.large_every == 0 if timed \
                else r == -WARMUP_ROUNDS
            size = "large" if large else "small"
            batch = generators[size].next_batch()       # load generation
            self.kernel_s.append(reference_kernel())
            self.attempted += timed
            try:
                self.begin(f"apply:{size}" if timed else "warmup")
                t0 = perf_counter()
                added, removed = batch.apply_to(graph)
                t1 = perf_counter()
                self.begin(f"maintain:{size}" if timed else "warmup")
                report = sofos.maintain()
                t2 = perf_counter()
            except Exception:
                self.failed(f"window {r}: {traceback.format_exc()}")
                continue
            if report.quarantined:
                self.failed(f"window {r}: quarantined "
                            f"{[v.label for v in report.quarantined]}")
            if timed:
                self.windows.append({
                    "large": large, "apply_s": t1 - t0,
                    "maintain_s": t2 - t1, "changed": added + removed,
                    "net_triples": report.inserted + report.deleted})
                self.rebuild_fallbacks += len(report.rebuilt)
            for i in range(workload.per_round):
                query = self.stream[position % len(self.stream)] if timed \
                    else self.warmup[i]
                position += timed
                self.attempted += timed
                try:
                    self.begin("answer" if timed else "warmup")
                    t0 = perf_counter()
                    result = answer(query)
                    t1 = perf_counter()
                except Exception:
                    self.failed(f"query {query!r}: {traceback.format_exc()}")
                    continue
                if t1 > kernel_due:
                    self.kernel_s.append(reference_kernel())
                    kernel_due = perf_counter() + KERNEL_EVERY_S
                if timed:
                    self.answer_s.append(t1 - t0)
                    hit = result.used_view is not None
                    self.hits.append(hit)
                    if self.tracer is not None:
                        self.tracer.retag(
                            "answer:view" if hit else "answer:base")
        self.begin("after")
        self.gc_gen2 = gc_watch.gen2 - self.gc_before[0]
        self.gc_pause_s = gc_watch.pause_s - self.gc_before[1]
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        self.amplification = (len(graph) + sofos.catalog.total_triples) \
            / len(graph)

    def check(self) -> None:
        """Routed answers against the base graph, views against a rebuild."""
        from repro.core.sofos import Sofos
        sofos, catalog = self.sofos, self.sofos.catalog
        sample = random.Random(self.seed).sample(
            self.queries, min(self.workload.check_queries, len(self.queries)))
        for query in sample:
            self.attempted += 1
            try:
                routed = sofos.answer(query).table
                base = sofos.answer_from_base(query).table
                if not routed.same_solutions(base):
                    self.failed(f"check: {query.label} differs from the "
                                "base answer")
            except Exception:
                self.failed(f"check {query.label}: {traceback.format_exc()}")
        scratch = Sofos(self.graph, self.facet, seed=self.seed)
        scratch.materialize(self.selection)
        for entry in catalog:
            self.attempted += 1
            view = entry.definition
            if group_signatures(catalog.graph_of(view)) != \
                    group_signatures(scratch.catalog.graph_of(view)):
                self.failed(f"check: view {view.label} differs from a "
                            "scratch rebuild")

    def result(self) -> dict:
        samples = {
            "setup_s": self.setup_s, "offline_s": self.offline_s,
            "answer_s": self.answer_s, "windows": self.windows,
            "hits": self.hits, "kernel_s": self.kernel_s,
            "amplification": self.amplification,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "samples": samples,
            "layers": None,
            "shares": None,
            "info": {
                "workload": self.workload.name, "seed": self.seed,
                "store_kind": self.graph.store_kind,
                "views": self.selection.labels,
                "triples_start": self.triples_start,
                "triples_end": len(self.graph),
                "queries": len(self.answer_s),
                "distinct_queries": len(self.stream),
                "windows": len(self.windows),
                "offline_reps": len(self.offline_s),
                "failures": self.failures,
            },
        }


def main(argv: list[str]) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/loop.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="verify answers and views after the loop")
    parser.add_argument("--trace-out", default=None,
                        help="trace this run and write its spans here")
    parser.add_argument("--untraced-loop-s", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro.core.sofos  # noqa: F401  (the library's import is set-up)
    import repro.datasets  # noqa: F401
    import repro.workload  # noqa: F401
    from stats import raw_loop_s
    from workloads import workload_named
    import_s = perf_counter() - started

    tracer = None
    gc_watch = GcWatch()
    if args.trace_out:
        from layers import Tracer, layer_metrics, layer_shares
        tracer = Tracer()
        tracer.install()
        gc.callbacks.append(gc_watch)

    run = Pass(workload_named(args.workload).sized(args.seconds, args.smoke),
               args.seed, import_s, tracer)
    run.setup()
    run.offline()
    run.loop(gc_watch)
    if args.check:
        run.check()
    result = run.result()
    if tracer is not None:
        samples = result["samples"]
        memory = run.sofos.memory_report()
        views_bytes = sum(size for name, size in memory.items()
                          if name and not name.startswith("("))
        result["layers"] = layer_metrics(tracer, {
            "traced_loop_s": raw_loop_s(samples),
            "untraced_loop_s": args.untraced_loop_s or raw_loop_s(samples),
            "maintain_large_s_p50": statistics.median(
                w["maintain_s"] for w in run.windows if w["large"]),
            "window_triples": [w["net_triples"] for w in run.windows],
            "rebuild_fallbacks": run.rebuild_fallbacks,
            "gc_gen2": run.gc_gen2, "gc_pause_s": run.gc_pause_s,
            "memory_base_mb": memory[""] / 2**20,
            "memory_views_mb": views_bytes / 2**20,
        })
        result["shares"] = layer_shares(tracer)
        result["info"]["unwrapped"] = tracer.missing
        os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
        tracer.dump(args.trace_out, run.workload.name)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
