"""The four workloads: what each one loads, selects, asks and updates.

Every workload drives the same SOFOS loop (see ``loop.py``); they differ
in which layer does most of the work.  Sizes are fixed amounts of work,
chosen so the ``PASSES`` identical children of a run spend about
``RUN_SECONDS`` in their timed phases on the reference box; ``--seconds``
scales the repetition counts linearly, never the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: The run length the sizes below were chosen for (BENCHMARK.json's
#: ``run_seconds``).
RUN_SECONDS = 20

#: Identical children per run; every operation keeps its fastest execution.
PASSES = 4

#: Seed of every generated input -- graph, query pool, update streams.
#: ``--seed`` decides the order the pool is asked in (see loop.py).
DATA_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One closed-loop, single-client scenario."""

    name: str
    why: str
    dataset: str                   # lubm | dbpedia | swdf
    facet: str
    #: ("greedy", cost model, k) or ("user", view labels)
    selection: tuple
    #: Distinct queries in the rotating stream; None = one per answer
    #: (rounds x per_round), so no query text repeats inside the loop.
    distinct: Optional[int]
    per_round: int                 # answers after each update window
    rounds: int
    small: float                   # small window, share of |G0| in triples
    large: float                   # large window
    large_every: int               # round r is large when r % large_every == 0
    text: bool                     # SPARQL text -> Sofos.answer_sparql
    offline_reps: int
    store: Optional[str] = None    # REPRO_STORE for the child; None = default
    #: Stream queries re-answered from the base graph by the check; fewer
    #: where one base answer costs most of a second.
    check_queries: int = 40
    tiny: bool = False             # smoke-sized dataset

    def build_graph(self):
        """The base graph G0 (generator seeds fixed at ``DATA_SEED``)."""
        from repro.datasets import DBPediaConfig, LUBMConfig, SWDFConfig, \
            generate_dbpedia, generate_lubm, generate_swdf
        if self.dataset == "lubm":
            config = LUBMConfig(universities=1, seed=DATA_SEED)
            return generate_lubm(config.scaled(0.12) if self.tiny else config)
        if self.dataset == "dbpedia":
            return generate_dbpedia(DBPediaConfig(
                countries=12 if self.tiny else 150,
                years=(2018, 2019) if self.tiny else tuple(range(2000, 2020)),
                seed=DATA_SEED))
        config = SWDFConfig(seed=DATA_SEED)
        if self.tiny:
            config = replace(config, series=("ISWC", "ESWC"),
                             years=(2018, 2019), papers_per_edition_min=8,
                             papers_per_edition_max=15, authors_pool=60,
                             organizations=15)
        else:
            # Three years of six series sit past a join-order cliff: at 45
            # papers per edition the 6-pattern facet evaluates in 2 ms, at
            # 50 in 0.6 s.  200 authors keep one evaluation near 0.3 s.
            config = replace(config, years=(2017, 2018, 2019),
                             authors_pool=200)
        return generate_swdf(config)

    def build_facet(self):
        from repro.datasets import dataset_spec
        specs = {f.name: f for f in dataset_spec(self.dataset).facets}
        return specs[self.facet].build()

    def select(self, sofos):
        """Run this workload's selection strategy on a ``Sofos``."""
        if self.selection[0] == "user":
            from repro.selection.user import UserSelection
            return sofos.select(selector=UserSelection(self.selection[1]),
                                k=None)
        _, model, k = self.selection
        return sofos.select(model, k=k)

    def sized(self, seconds: float, smoke: bool) -> "Workload":
        """This workload with its repetition counts set for one run."""
        if smoke:
            return replace(
                self, tiny=True, rounds=2, large_every=2, offline_reps=1,
                per_round=min(self.per_round, 20),
                distinct=None if self.distinct is None else 20)
        scale = seconds / RUN_SECONDS
        return replace(
            self, rounds=max(self.large_every, round(self.rounds * scale)),
            offline_reps=max(1, round(self.offline_reps * scale)))

    @property
    def stream_size(self) -> int:
        if self.distinct is not None:
            return self.distinct
        return self.rounds * self.per_round


WORKLOADS = (
    Workload(
        name="views-hot",
        why="every query hits a view of at most 40 groups: time is parse, "
            "analyze, route, rewrite, prepare and decode, not store probes; "
            "the same 600 texts repeat, so a plan cache would show",
        dataset="lubm", facet="students_by_department",
        selection=("greedy", "triples", 3),
        distinct=600, per_round=600, rounds=9,
        small=0.002, large=0.05, large_every=3, text=True, offline_reps=4),
    Workload(
        name="budget-miss",
        why="2 of 16 views fit the budget, so 4 in 10 queries scan the base "
            "graph: executor and store kernels set p95 and queries/s; no "
            "query repeats, so caches keyed on the query are bypassed",
        dataset="dbpedia", facet="population_cube_4d",
        selection=("greedy", "triples", 2),
        distinct=None, per_round=30, rounds=20,
        small=0.002, large=0.05, large_every=4, text=False, offline_reps=2),
    Workload(
        name="update-churn",
        why="writes beside reads on the columnar store: every second window "
            "rewrites 5% of the graph under three views, the finest grain "
            "among them; changelog, delta evaluation, patching and "
            "compaction do the work",
        dataset="dbpedia", facet="population_cube_4d",
        selection=("user", ("country+lang+year+continent", "lang+year",
                            "year+continent")),
        distinct=120, per_round=30, rounds=12,
        small=0.005, large=0.05, large_every=2, text=False, offline_reps=2,
        store="columnar"),
    Workload(
        name="deep-join",
        why="a 6-pattern join facet profiled once per lattice node: the "
            "offline phase (profiler, selection, group-table rollup, join "
            "order) dominates and the serving loop is short",
        dataset="swdf", facet="papers_by_country",
        selection=("greedy", "agg_values", 4),
        distinct=240, per_round=240, rounds=12,
        small=0.002, large=0.05, large_every=3, text=False, offline_reps=1,
        check_queries=5),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)
