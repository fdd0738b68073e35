"""The serving-plan memo: structure, not speed.

A repeated query is parsed, analyzed, rewritten and translated once; the
route, quarantine, staleness and execution are decided on every answer.
Nothing invalidates the memo, so every test that changes the catalog's
state does it under a warm memo and compares with the base graph.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.online as online_module
import repro.sparql.engine as engine_module
import repro.sparql.parser as parser_module
import repro.views.analyzer as analyzer_module
from repro.core import OnlineModule, Sofos
from repro.cube import AnalyticalQuery
from repro.errors import ReproError
from repro.obs import hub
from repro.rdf import Dataset, Namespace, Triple, Variable, typed_literal
from repro.selection import UserSelection
from repro.views import ViewCatalog
from repro.views.router import ViewRouter

from tests.conftest import build_population_graph

EX = Namespace("http://example.org/")

PATTERN = """
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
"""


def text_of(select="?lang (SUM(?pop) AS ?total)", where=PATTERN,
            tail="GROUP BY ?lang") -> str:
    return ("PREFIX ex: <http://example.org/>\n"
            f"SELECT {select} WHERE {{ {where} }} {tail}")


BY_LANG = text_of()


def new_observation(graph, n: int) -> None:
    """One update window: a French observation nobody has seen yet."""
    graph.update([Triple(EX[f"obs_new{n}"], EX.ofCountry, EX.france),
                  Triple(EX[f"obs_new{n}"], EX.year, typed_literal(2019)),
                  Triple(EX[f"obs_new{n}"], EX.population,
                         typed_literal(n))])


def make_sofos(facet, views=("lang+year",), maintenance="incremental"
               ) -> Sofos:
    sofos = Sofos(build_population_graph(), facet, maintenance=maintenance)
    sofos.materialize(sofos.select(selector=UserSelection(list(views)),
                                   k=None))
    return sofos


def assert_current(sofos: Sofos, text: str, answer) -> None:
    """The answer is the base graph's answer on the graph as it is now."""
    query = analyzer_module.analyze_query(text, sofos.facet)
    assert answer.table.same_solutions(sofos.answer_from_base(query).table)


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Call counts of the four memoized derivations and of two of the
    per-answer checks, through the names the serving path binds."""
    counts: Counter = Counter()

    def counted(owner, attr: str) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(parser_module, "parse_query")
    counted(analyzer_module, "analyze_query")
    counted(online_module, "rewrite_on_view")
    counted(engine_module, "translate_query")
    counted(ViewRouter, "route")
    counted(ViewCatalog, "is_stale")
    return counts


def derivations(calls: Counter) -> list[int]:
    """How often a text was parsed, analyzed, rewritten and translated."""
    return [calls[name] for name in ("parse_query", "analyze_query",
                                     "rewrite_on_view", "translate_query")]


@pytest.fixture
def metrics():
    """The hub's registry, armed for one test."""
    h = hub()
    h.reset()
    h.enable(tracing=False)
    yield h.metrics
    h.disable()
    h.reset()


def memo_counts(metrics) -> dict[tuple[str, str], int]:
    return {(kind, level): metrics.value(
        f"serving_plan_cache_{kind}_total", (level,))
        for kind in ("hits", "misses") for level in ("text", "plan")}


class TestCountGuard:
    def test_a_repeat_derives_nothing_and_still_decides_everything(
            self, population_facet, calls):
        sofos = make_sofos(population_facet)
        calls.clear()
        first = sofos.answer_sparql(BY_LANG)
        assert derivations(calls) == [1, 1, 1, 1]
        assert calls["route"] == 1 and calls["is_stale"] >= 1

        calls.clear()
        second = sofos.answer_sparql(BY_LANG)
        assert derivations(calls) == [0, 0, 0, 0]
        assert calls["route"] == 1 and calls["is_stale"] >= 1
        assert second.used_view == first.used_view == "lang+year"
        assert second.table.rows == first.table.rows
        assert second.table is not first.table

    def test_the_object_path_skips_rewrite_and_translate_on_a_repeat(
            self, population_facet, calls):
        sofos = make_sofos(population_facet)
        query = AnalyticalQuery(population_facet, 0b01)
        sofos.answer(query)
        calls.clear()
        assert sofos.answer(query).used_view == "lang+year"
        assert sofos.explain(query).route == "view"
        assert derivations(calls) == [0, 0, 0, 0]
        assert calls["is_stale"] >= 2

    def test_a_text_off_the_facet_is_parsed_and_translated_once(
            self, population_facet, calls):
        sofos = make_sofos(population_facet)
        text = "PREFIX ex: <http://example.org/>\n" \
            "SELECT ?c WHERE { ?c ex:name ?n . }"
        first = sofos.answer_sparql(text)
        calls.clear()
        second = sofos.answer_sparql(text)
        assert sofos.explain(text).route == "base"
        assert derivations(calls) == [0, 0, 0, 0]
        assert calls["route"] == 0      # nothing to route: no facet query
        assert second.used_view is None and len(second.table) == 4
        assert second.table.same_solutions(first.table)


class TestStateChangesUnderAWarmMemo:
    def test_update_window_then_maintain(self, population_facet):
        sofos = make_sofos(population_facet)
        before = sofos.answer_sparql(BY_LANG)
        version = next(iter(sofos.catalog)).base_version
        new_observation(sofos.dataset.default, 5)
        report = sofos.maintain()
        assert [v.action for v in report.views] == ["patched"]
        after = sofos.answer_sparql(BY_LANG)
        assert after.used_view == "lang+year" and not after.stale
        assert next(iter(sofos.catalog)).base_version != version
        assert not after.table.same_solutions(before.table)
        assert_current(sofos, BY_LANG, after)

    def test_update_window_repaired_at_answer_time(self, population_facet):
        sofos = make_sofos(population_facet, maintenance="rebuild")
        sofos.answer_sparql(BY_LANG)
        new_observation(sofos.dataset.default, 5)
        after = sofos.answer_sparql(BY_LANG)
        assert after.used_view == "lang+year" and not after.stale
        assert_current(sofos, BY_LANG, after)

    def test_quarantine_degrades_and_maintain_brings_the_view_back(
            self, population_facet):
        sofos = make_sofos(population_facet, views=("lang+year", "lang"))
        assert sofos.answer_sparql(BY_LANG).used_view == "lang"
        lang = next(e.definition for e in sofos.catalog if e.label == "lang")
        sofos.catalog.quarantine(lang, "test")
        degraded = sofos.answer_sparql(BY_LANG)
        assert degraded.degraded and degraded.used_view == "lang+year"
        assert_current(sofos, BY_LANG, degraded)
        sofos.catalog.quarantine(
            next(e.definition for e in sofos.catalog
                 if e.label == "lang+year"), "test")
        on_base = sofos.answer_sparql(BY_LANG)
        assert on_base.degraded and on_base.used_view is None
        assert_current(sofos, BY_LANG, on_base)
        sofos.maintain()
        back = sofos.answer_sparql(BY_LANG)
        assert back.used_view == "lang" and not back.degraded
        assert_current(sofos, BY_LANG, back)

    def test_drop_and_materialize_a_different_selection(
            self, population_facet, metrics):
        sofos = make_sofos(population_facet, views=("lang+year",))
        assert sofos.answer_sparql(BY_LANG).used_view == "lang+year"
        before = memo_counts(metrics)
        sofos.materialize(sofos.select(selector=UserSelection(["lang"]),
                                       k=None))
        moved = sofos.answer_sparql(BY_LANG)
        # the memo outlived the catalog: the text was not recognized
        # again, and the new view got a plan of its own
        after = memo_counts(metrics)
        assert after["hits", "text"] == before["hits", "text"] + 1
        assert after["misses", "plan"] == before["misses", "plan"] + 1
        assert after["misses", "text"] == before["misses", "text"]
        assert moved.used_view == "lang"
        assert_current(sofos, BY_LANG, moved)

    def test_deferred_policy_flags_a_repeat_after_an_update_stale(
            self, population_facet):
        sofos = make_sofos(population_facet, maintenance="deferred")
        before = sofos.answer_sparql(BY_LANG)
        assert not before.stale
        new_observation(sofos.dataset.default, 5)
        snapshot = sofos.answer_sparql(BY_LANG)
        assert snapshot.stale and snapshot.used_view == "lang+year"
        assert snapshot.table.same_solutions(before.table)
        sofos.maintain()
        current = sofos.answer_sparql(BY_LANG)
        assert not current.stale
        assert_current(sofos, BY_LANG, current)

    def test_no_views_materialized_answers_from_base(self, population_facet):
        sofos = make_sofos(population_facet)
        assert sofos.answer_sparql(BY_LANG).used_view == "lang+year"
        sofos.drop_views()
        new_observation(sofos.dataset.default, 5)
        answer = sofos.answer_sparql(BY_LANG)
        assert answer.used_view is None
        assert [v.name for v in answer.table.variables] == ["lang", "total"]
        assert_current(sofos, BY_LANG, answer)
        assert sofos.explain(BY_LANG).why == "no views are materialized"


class TestSharing:
    def test_spellings_of_one_query_share_a_plan_and_keep_their_alias(
            self, population_facet, metrics):
        sofos = make_sofos(population_facet)
        texts = {
            "a": text_of("?lang (SUM(?pop) AS ?a)",
                         PATTERN + " FILTER(?year = 2019)"),
            "b": text_of("?lang (SUM(?pop) AS ?b)",
                         PATTERN + " FILTER(2019 = ?year)"),
        }
        query = analyzer_module.analyze_query(texts["a"], population_facet)
        answers = {alias: sofos.answer_sparql(text)
                   for alias, text in texts.items()}
        as_object = sofos.answer(query)
        explained = sofos.explain(texts["b"])
        assert memo_counts(metrics) == {
            ("misses", "text"): 2, ("hits", "text"): 1,
            ("misses", "plan"): 1, ("hits", "plan"): 3}
        for alias, answer in answers.items():
            assert answer.used_view == "lang+year"
            assert [v.name for v in answer.table.variables] == ["lang", alias]
            assert answer.table.rows == as_object.table.rows
        assert as_object.table.variables[-1] == population_facet.measure_alias
        assert explained.view == "lang+year"

    def test_the_shared_plan_is_never_renamed(self, population_facet):
        sofos = make_sofos(population_facet)
        text = text_of("(SUM(?pop) AS ?mine) ?lang")
        query = analyzer_module.analyze_query(text, population_facet)
        for _ in range(2):
            by_text = sofos.answer_sparql(text)
            by_object = sofos.answer(query)
            assert by_text.table.variables \
                == [Variable("mine"), Variable("lang")]
            assert by_object.table.variables \
                == [Variable("lang"), population_facet.measure_alias]
            assert sorted(by_text.table.rows, key=repr) == sorted(
                [(total, lang) for lang, total in by_object.table.rows],
                key=repr)


class TestBounds:
    def test_both_levels_evict_at_the_engine_limit(self, population_facet,
                                                   monkeypatch):
        limit = 6
        monkeypatch.setattr(engine_module, "_PREPARED_CACHE_LIMIT", limit)
        sofos = make_sofos(population_facet)
        texts = [text_of(where=PATTERN + f" FILTER(?year > {1990 + i})")
                 for i in range(limit + 1)]
        for text in texts:
            assert sofos.answer_sparql(text).used_view == "lang+year"
        plans = sofos._plans
        assert len(plans._texts) == len(plans._plans) == limit
        # first in, first out: the oldest text is derived again, the
        # newest is still there
        assert texts[0] not in plans._texts and texts[-1] in plans._texts
        assert_current(sofos, texts[0], sofos.answer_sparql(texts[0]))
        assert len(plans._texts) == len(plans._plans) == limit

    def test_the_engine_text_memo_obeys_the_same_rule(self, monkeypatch):
        from repro.sparql import QueryEngine
        monkeypatch.setattr(engine_module, "_PREPARED_CACHE_LIMIT", 3)
        engine = QueryEngine(build_population_graph())
        texts = [text_of(where=PATTERN + f" FILTER(?year > {1990 + i})")
                 for i in range(4)]
        first = engine.prepare(texts[0])
        for text in texts[1:]:
            engine.prepare(text)
        assert engine.prepare(texts[-1]) is engine.prepare(texts[-1])
        assert engine.prepare(texts[0]) is not first    # evicted, recompiled


class TestStandaloneModule:
    def test_a_module_without_a_facet_rejects_text_and_serves_objects(
            self, population_facet):
        from repro.cube import ViewDefinition
        catalog = ViewCatalog(Dataset.wrap(build_population_graph()))
        catalog.materialize(ViewDefinition(population_facet, 0b11))
        online = OnlineModule(catalog)
        query = AnalyticalQuery(population_facet, 0b01)
        assert online.answer(query).used_view == "lang+year"
        with pytest.raises(ReproError, match="facet"):
            online.answer_sparql(BY_LANG)
