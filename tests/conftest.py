"""Shared fixtures: small deterministic graphs and facets.

The ``population`` fixtures model the paper's Figure-1 running example;
``tiny_dbpedia``/``tiny_lubm``/``tiny_swdf`` are the generator-built demo
datasets at test scale.  Everything is session-scoped and read-only by
convention — tests that mutate graphs build their own.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cube import AnalyticalFacet
from repro.datasets import load_dataset
from repro.rdf import Graph, Namespace, parse_turtle
from repro.sparql import QueryEngine

EX = Namespace("http://example.org/")


def pytest_configure(config):
    """One hypothesis profile for tier-1: the same examples on every run
    and on both backends of the CI matrix (``-x`` and ``git diff
    --exit-code`` must not depend on a random draw or on how loaded the
    runner is).  A hook, not module level: tests import this module a
    second time as ``tests.conftest``, from inside ``@settings`` tests."""
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")


POPULATION_TTL = """
@prefix ex: <http://example.org/> .

ex:obs1 ex:ofCountry ex:france  ; ex:year 2018 ; ex:population 66 .
ex:obs2 ex:ofCountry ex:france  ; ex:year 2019 ; ex:population 67 .
ex:obs3 ex:ofCountry ex:germany ; ex:year 2018 ; ex:population 81 .
ex:obs4 ex:ofCountry ex:germany ; ex:year 2019 ; ex:population 82 .
ex:obs5 ex:ofCountry ex:canada  ; ex:year 2018 ; ex:population 36 .
ex:obs6 ex:ofCountry ex:canada  ; ex:year 2019 ; ex:population 37 .
ex:obs7 ex:ofCountry ex:italy   ; ex:year 2019 ; ex:population 60 .

ex:france  ex:name "France"  ; ex:language ex:french ; ex:partOf ex:eu .
ex:germany ex:name "Germany" ; ex:language ex:german ; ex:partOf ex:eu .
ex:italy   ex:name "Italy"   ; ex:language ex:italian ; ex:partOf ex:eu .
ex:canada  ex:name "Canada"  ; ex:language ex:french , ex:english .
"""

POPULATION_FACET_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?lang ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
} GROUP BY ?lang ?year
"""

POPULATION_AVG_FACET_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?lang ?year (AVG(?pop) AS ?avgpop) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
} GROUP BY ?lang ?year
"""


def build_population_graph() -> Graph:
    return parse_turtle(POPULATION_TTL)


def build_population_facet(name: str = "pop") -> AnalyticalFacet:
    return AnalyticalFacet.from_query(name, POPULATION_FACET_QUERY)


def on_store(graph: Graph, store: str) -> Graph:
    """``graph``'s triples on the named backend, same dictionary and ids."""
    clone = Graph(graph.dictionary, store=store)
    clone.add_ids_bulk(graph.snapshot_ids())
    return clone


def probe_rows(run) -> int:
    """``engine_probe_rows_total`` counted while ``run()`` executes."""
    from repro.obs import hub
    h = hub()
    h.reset()
    h.enable(tracing=False)
    try:
        run()
        return h.metrics.counter_total("engine_probe_rows_total")
    finally:
        h.disable()
        h.reset()


@pytest.fixture(scope="session")
def population_graph() -> Graph:
    return build_population_graph()


@pytest.fixture(scope="session")
def population_facet() -> AnalyticalFacet:
    return build_population_facet()


@pytest.fixture(scope="session")
def population_avg_facet() -> AnalyticalFacet:
    return AnalyticalFacet.from_query("pop_avg", POPULATION_AVG_FACET_QUERY)


@pytest.fixture(scope="session")
def population_engine(population_graph) -> QueryEngine:
    return QueryEngine(population_graph)


@pytest.fixture(scope="session")
def tiny_dbpedia():
    return load_dataset("dbpedia", "tiny")


@pytest.fixture(scope="session")
def tiny_lubm():
    return load_dataset("lubm", "tiny")


@pytest.fixture(scope="session")
def tiny_swdf():
    return load_dataset("swdf", "tiny")
