"""SOFOS reproduction: materialized view selection on knowledge graphs.

Reproduces *Sofos: Demonstrating the Challenges of Materialized View
Selection on Knowledge Graphs* (Troullinou, Kondylakis, Lissandrini,
Mottin; SIGMOD 2021 demo) as a self-contained Python library: an RDF
store, a SPARQL analytical engine, view lattices over analytical facets,
six cost models, selection strategies (greedy under a view count or a
triple budget, exhaustive, annealing, user — all searches over one priced
``SelectionProblem``), MARVEL-style view materialization, and query
rewriting — plus the three demo datasets and the benchmark
harness regenerating every demonstration experiment.

Quick start::

    from repro import Sofos, load_dataset, obs

    obs.configure_logging()          # structured logs on stderr
    log = obs.get_logger("quickstart")

    loaded = load_dataset("dbpedia", "small")
    sofos = Sofos(loaded.graph, loaded.facet("population_by_language_year"))
    report = sofos.compare_cost_models(k=2, dataset_name="dbpedia")
    log.info("cost-model comparison:\\n%s", report.render())

To watch what the engine is doing, enable the observability hub and ask
for an EXPLAIN ANALYZE::

    sofos.obs.enable()
    print(sofos.explain("SELECT ...").render())
    print(sofos.obs.metrics.to_prometheus())

The storage layout is pluggable.  The default backend keeps the three
permutation indexes as nested dicts; the columnar backend keeps them as
sorted contiguous id-columns with binary-search probes and vectorized
batch kernels (fastest for analytical scans/joins on a static graph)::

    from repro import Graph

    g = Graph(store="columnar")      # or REPRO_STORE=columnar in the env
    g.add(triple)
    print(g.store_kind)              # "columnar"
"""

from .core.sofos import DEFAULT_MODELS, Sofos
from .core.metrics import QueryOutcome, WorkloadRun
from .core.online import Answer
from .core.report import ComparisonReport, ComparisonRow
from .cost import AggregatedValuesCost, CostModel, LatticeProfile, \
    LearnedCost, NodeCountCost, RandomCost, TripleCountCost, \
    UserDefinedCost, create_model, model_names
from .cube import AnalyticalFacet, AnalyticalQuery, FilterCondition, \
    ViewDefinition, ViewLattice
from .datasets import load_dataset
from .errors import CatalogCorruptError, FailpointError, ReproError, \
    SimulatedCrash
from . import obs
from .obs import ObservabilityHub, configure_logging, get_logger
from .resilience import ConsistencyAuditor, failpoints
from .rdf import Dataset, Graph, IRI, Literal, Namespace, Triple, Variable, \
    parse_ntriples, parse_turtle, serialize_ntriples, serialize_turtle, \
    typed_literal
from .selection import AnnealingSelector, ExhaustiveSelector, \
    GreedySelector, SelectionResult, UserSelection
from .sparql import QueryEngine, ResultTable, parse_query
from .views import ViewCatalog, ViewRouter, rewrite_on_view
from .workload import WorkloadConfig, WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "AggregatedValuesCost", "AnalyticalFacet", "AnalyticalQuery",
    "AnnealingSelector", "Answer",
    "CatalogCorruptError", "ComparisonReport", "ComparisonRow",
    "ConsistencyAuditor", "CostModel", "DEFAULT_MODELS",
    "Dataset", "ExhaustiveSelector", "FailpointError", "FilterCondition",
    "Graph", "SimulatedCrash", "failpoints",
    "GreedySelector", "IRI", "LatticeProfile", "LearnedCost", "Literal",
    "Namespace", "NodeCountCost", "ObservabilityHub", "QueryEngine",
    "QueryOutcome",
    "RandomCost", "ReproError", "ResultTable", "SelectionResult", "Sofos",
    "Triple", "TripleCountCost", "UserDefinedCost",
    "UserSelection", "Variable", "ViewCatalog", "ViewDefinition",
    "ViewLattice", "ViewRouter", "WorkloadConfig", "WorkloadGenerator",
    "WorkloadRun", "configure_logging", "create_model", "get_logger",
    "load_dataset", "model_names", "obs",
    "parse_ntriples", "parse_query", "parse_turtle", "rewrite_on_view",
    "serialize_ntriples", "serialize_turtle", "typed_literal",
]
