"""Property-based tests (hypothesis) for core data structures and the
materialize→rewrite pipeline.

The flagship property is ``test_view_rewrite_equivalence``: for random
small knowledge graphs, random analytical queries, random aggregates, and
random covering views, answering through the materialized view must give
exactly the answers the base graph gives.
"""

from __future__ import annotations

import string

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cost import AggregatedValuesCost
from repro.cost.profiler import BaseProfile, LatticeProfile, ViewProfile
from repro.cube import AnalyticalFacet, AnalyticalQuery, FilterCondition, \
    ViewLattice
from repro.rdf import Dataset, Graph, IRI, Literal, Namespace, \
    TermDictionary, Triple, Variable, XSD, parse_ntriples, \
    serialize_ntriples, typed_literal
from repro.rdf.terms import BlankNode
from repro.selection import AnnealingSelector, ExhaustiveSelector, \
    GreedySelector, SelectionProblem
from repro.sparql import QueryEngine
from repro.sparql.aggregates import make_accumulator
from repro.sparql.values import order_key
from repro.views import ViewCatalog, rewrite_on_view

EX = Namespace("http://example.org/")

# --------------------------------------------------------------------------
# term / triple strategies
# --------------------------------------------------------------------------

_local = st.text(alphabet=string.ascii_lowercase + string.digits,
                 min_size=1, max_size=8)

iris = _local.map(lambda s: EX[s])
bnodes = _local.map(BlankNode)
plain_literals = st.text(max_size=12).map(Literal)
lang_literals = st.tuples(
    st.text(max_size=8),
    st.sampled_from(["en", "fr", "de", "en-gb"]),
).map(lambda pair: Literal(pair[0], language=pair[1]))
int_literals = st.integers(-10 ** 9, 10 ** 9).map(typed_literal)
float_literals = st.floats(allow_nan=False, allow_infinity=False,
                           width=32).map(typed_literal)
literals = st.one_of(plain_literals, lang_literals, int_literals,
                     float_literals)

subjects = st.one_of(iris, bnodes)
objects_ = st.one_of(iris, bnodes, literals)

triples = st.builds(Triple, subjects, iris, objects_)
triple_lists = st.lists(triples, max_size=40)


# --------------------------------------------------------------------------
# store invariants
# --------------------------------------------------------------------------

class TestStoreProperties:
    @given(triple_lists)
    def test_graph_is_a_set_of_triples(self, items):
        g = Graph()
        for t in items:
            g.add(t)
        assert len(g) == len(set(items))
        assert set(g) == set(items)
        for t in items:
            assert t in g

    @given(triple_lists, triple_lists)
    def test_add_then_discard_restores(self, base, extra):
        g = Graph()
        for t in base:
            g.add(t)
        before = set(g)
        for t in extra:
            g.add(t)
        for t in set(extra):
            if t not in before:
                assert g.discard(t)
        assert set(g) == before

    @given(triple_lists)
    def test_counts_agree_with_scans_on_all_patterns(self, items):
        g = Graph()
        for t in items:
            g.add(t)
        probes = items[:5] + [Triple(EX.zz, EX.zz, EX.zz)]
        for probe in probes:
            for mask in range(8):
                s = probe.s if mask & 4 else None
                p = probe.p if mask & 2 else None
                o = probe.o if mask & 1 else None
                assert g.count(s, p, o) == len(list(g.triples(s, p, o)))

    @given(triple_lists)
    def test_ntriples_round_trip(self, items):
        g = Graph()
        for t in items:
            g.add(t)
        assert set(parse_ntriples(serialize_ntriples(g))) == set(g)

    @given(st.lists(st.one_of(subjects, iris, literals), max_size=30))
    def test_dictionary_interning_is_bijective(self, terms):
        d = TermDictionary()
        ids = [d.encode(t) for t in terms]
        for term, tid in zip(terms, ids):
            assert d.decode(tid) == term
            assert d.encode(term) == tid  # stable on re-encode
        assert len(d) == len(set(terms))


# --------------------------------------------------------------------------
# value semantics
# --------------------------------------------------------------------------

class TestValueProperties:
    @given(st.lists(st.one_of(st.none(), iris, bnodes, literals),
                    max_size=20))
    def test_order_key_gives_total_preorder(self, terms):
        keys = sorted(order_key(t) for t in terms)
        assert keys == sorted(keys)  # comparable without exceptions

    @given(st.lists(st.integers(-1000, 1000), max_size=30))
    def test_aggregates_match_python_reference(self, values):
        terms = [typed_literal(v) for v in values]

        def result(name):
            acc = make_accumulator(name, distinct=False)
            for t in terms:
                acc.add(t)
            out = acc.result()
            return None if out is None else out.to_python()

        assert result("COUNT") == len(values)
        assert result("SUM") == sum(values)
        assert result("MIN") == (min(values) if values else None)
        assert result("MAX") == (max(values) if values else None)
        if values:
            expected = sum(values) / len(values)
            assert abs(result("AVG") - expected) < 1e-9

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_distinct_aggregates_match_set_reference(self, values):
        terms = [typed_literal(v) for v in values]
        acc = make_accumulator("SUM", distinct=True)
        for t in terms:
            acc.add(t)
        assert acc.result().to_python() == sum(set(values))


# --------------------------------------------------------------------------
# lattice algebra
# --------------------------------------------------------------------------

_facet_3d = AnalyticalFacet.from_query("prop3", """
    PREFIX ex: <http://example.org/>
    SELECT ?a ?b ?c (SUM(?m) AS ?t) WHERE {
      ?s ex:pa ?a ; ex:pb ?b ; ex:pc ?c ; ex:pm ?m .
    } GROUP BY ?a ?b ?c""")


class TestLatticeProperties:
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_covers_is_a_partial_order(self, x, y, z):
        lattice = ViewLattice(_facet_3d)
        vx, vy, vz = lattice[x], lattice[y], lattice[z]
        assert vx.covers(vx)
        if vx.covers(vy) and vy.covers(vx):
            assert x == y
        if vx.covers(vy) and vy.covers(vz):
            assert vx.covers(vz)

    @given(st.integers(0, 7))
    def test_ancestors_descendants_are_inverse(self, x):
        lattice = ViewLattice(_facet_3d)
        view = lattice[x]
        for ancestor in lattice.ancestors(view):
            assert view in lattice.descendants(ancestor)
        for descendant in lattice.descendants(view):
            assert view in lattice.ancestors(descendant)

    @given(st.integers(0, 7))
    def test_parents_children_are_one_step(self, x):
        lattice = ViewLattice(_facet_3d)
        view = lattice[x]
        for parent in lattice.parents(view):
            assert parent.level == view.level + 1
            assert parent.covers(view)
        for child in lattice.children(view):
            assert child.level == view.level - 1
            assert view.covers(child)


# --------------------------------------------------------------------------
# the flagship: materialize → rewrite → equal answers
# --------------------------------------------------------------------------

_LANG_POOL = ["french", "german", "english", "italian"]
_YEAR_POOL = [2017, 2018, 2019]


@st.composite
def population_worlds(draw):
    """A random tiny country/language/population graph + query + view."""
    n_countries = draw(st.integers(1, 5))
    graph = Graph()
    for c in range(n_countries):
        country = EX[f"country{c}"]
        langs = draw(st.lists(st.sampled_from(_LANG_POOL), min_size=1,
                              max_size=3, unique=True))
        for lang in langs:
            graph.add(Triple(country, EX.language, EX[lang]))
        n_obs = draw(st.integers(1, 3))
        for i in range(n_obs):
            obs = EX[f"obs{c}_{i}"]
            graph.add(Triple(obs, EX.ofCountry, country))
            graph.add(Triple(obs, EX.year,
                             typed_literal(draw(st.sampled_from(_YEAR_POOL)))))
            graph.add(Triple(obs, EX.population,
                             typed_literal(draw(st.integers(-100, 1000)))))

    agg = draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]))
    facet = AnalyticalFacet.from_query("prop", f"""
        PREFIX ex: <http://example.org/>
        SELECT ?lang ?year ({agg}(?pop) AS ?m) WHERE {{
          ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
          ?c ex:language ?lang .
        }} GROUP BY ?lang ?year""")

    group_mask = draw(st.integers(0, 3))
    filters = []
    if draw(st.booleans()):
        var, value = draw(st.sampled_from([
            ("lang", EX[draw(st.sampled_from(_LANG_POOL))]),
            ("year", typed_literal(draw(st.sampled_from(_YEAR_POOL)))),
        ]))
        op = draw(st.sampled_from(["=", "!=", "<", ">="])) \
            if var == "year" else "="
        filters.append(FilterCondition(Variable(var), op, value))
    query = AnalyticalQuery(facet, group_mask, tuple(filters))

    covering = [m for m in range(4)
                if (query.required_mask & m) == query.required_mask]
    view_mask = draw(st.sampled_from(covering))
    return graph, facet, query, view_mask


class TestRewriteEquivalenceProperty:
    @settings(max_examples=40,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_worlds())
    def test_view_rewrite_equivalence(self, world):
        graph, facet, query, view_mask = world
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        view = ViewLattice(facet)[view_mask]
        catalog.materialize(view)

        base = QueryEngine(dataset.default).query(query.to_select_query())
        rewritten = rewrite_on_view(query, view)
        via_view = QueryEngine(dataset.graph(view.iri)).query(rewritten)
        assert base.same_solutions(via_view), (
            f"query={query.describe()} view={view.label}\n"
            f"base:\n{base.render()}\nview:\n{via_view.render()}")

    @settings(max_examples=20,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_worlds())
    def test_materializer_footprint_matches_profiler(self, world):
        from repro.cost import LatticeProfile
        graph, facet, query, view_mask = world
        lattice = ViewLattice(facet)
        profile = LatticeProfile.profile(lattice, QueryEngine(graph))
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        for view in lattice:
            entry = catalog.materialize(view)
            assert entry.triples == profile.triples(view)
            assert entry.groups == profile.rows(view)
            assert entry.nodes == profile.nodes(view)


# --------------------------------------------------------------------------
# the BGP planner: the join order is guarded structurally, not by a timer
# --------------------------------------------------------------------------

_PLAN_VARS = [Variable(f"v{i}") for i in range(6)]
_PLAN_PREDICATES = [EX.one_to_one, EX.fans_out, EX.fans_in, EX.rare]


def _planner_graph() -> Graph:
    """Four predicates with different fan-out, so estimates do differ."""
    g = Graph()
    for i in range(12):
        g.add(Triple(EX[f"n{i}"], EX.one_to_one, EX[f"n{(i + 1) % 12}"]))
        for j in range(3):
            g.add(Triple(EX[f"n{i}"], EX.fans_out, EX[f"m{3 * i + j}"]))
        g.add(Triple(EX[f"m{i}"], EX.fans_in, EX[f"n{i % 2}"]))
    g.add(Triple(EX.n0, EX.rare, EX.n1))
    return g


@st.composite
def planner_bgps(draw):
    """``(patterns, seed variables)``: 1–7 patterns on 2–6 variables.

    Half of the draws split the variables into two islands no pattern
    bridges, so a cross product is unavoidable — but only once.
    """
    from repro.rdf.triples import TriplePattern
    variables = _PLAN_VARS[:draw(st.integers(2, 6))]
    islands = [variables]
    if len(variables) >= 4 and draw(st.booleans()):
        cut = draw(st.integers(2, len(variables) - 2))
        islands = [variables[:cut], variables[cut:]]
    constants = st.sampled_from([EX.n0, EX.n1, EX.m0])
    patterns = []
    for _ in range(draw(st.integers(1, 7))):
        end = st.sampled_from(draw(st.sampled_from(islands)))
        patterns.append(TriplePattern(
            draw(st.one_of(end, end, constants)),
            draw(st.sampled_from(_PLAN_PREDICATES)),
            draw(st.one_of(end, end, constants))))
    seed_vars = draw(st.lists(st.sampled_from(variables), unique=True,
                              max_size=2))
    return tuple(patterns), tuple(seed_vars)


def _assert_connected_first(patterns, order, indices, bound):
    """``order`` is a permutation of ``indices`` that never takes a pattern
    sharing no variable with ``bound`` while one that does remains."""
    assert sorted(order) == sorted(indices)
    remaining, bound = set(indices), set(bound)
    for i in order:
        connected = {j for j in remaining
                     if patterns[j].variables() & bound}
        assert not connected or i in connected, (order, i, connected)
        remaining.discard(i)
        bound |= patterns[i].variables()


class TestBgpOrderProperty:
    @settings(max_examples=150)
    @given(planner_bgps())
    def test_order_is_a_connected_first_permutation(self, bgp):
        patterns, seed_vars = bgp
        graph = _planner_graph()
        order = QueryEngine(graph).executor.bgp_order(patterns, seed_vars)
        _assert_connected_first(patterns, order, range(len(patterns)),
                                seed_vars)
        # deterministic: a fresh executor, a fresh plan cache, same order
        assert QueryEngine(graph).executor.bgp_order(
            patterns, seed_vars) == order

    @settings(max_examples=100)
    @given(planner_bgps())
    def test_delta_terms_take_their_order_from_the_same_function(self, bgp):
        from repro.sparql.delta import DeltaEvaluator, DeltaPlan
        from repro.sparql.grouptable import KIND_COUNT
        patterns, _ = bgp
        executor = QueryEngine(_planner_graph()).executor
        evaluator = DeltaEvaluator(
            executor, DeltaPlan(patterns, (), (), None, KIND_COUNT, False))
        for i, seed in enumerate(patterns):
            rest = [j for j in range(len(patterns)) if j != i]
            order = evaluator.term_order(i)
            _assert_connected_first(patterns, order, rest, seed.variables())
            assert order == [rest[k] for k in executor.bgp_order(
                tuple(patterns[j] for j in rest), tuple(seed.variables()))]
            assert evaluator.term_order(i) == order


# --------------------------------------------------------------------------
# the Δ algebra: a maintenance window is the difference of two scans
# --------------------------------------------------------------------------

_COUNTRIES = ["france", "germany", "canada", "italy", "spain"]
_WINDOW_PREDICATES = (EX.ofCountry, EX.year, EX.population, EX.language)


def _population_facet(agg: str) -> AnalyticalFacet:
    return AnalyticalFacet.from_query("delta", f"""
        PREFIX ex: <http://example.org/>
        SELECT ?lang ?year ({agg}(?pop) AS ?m) WHERE {{
          ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
          ?c ex:language ?lang .
        }} GROUP BY ?lang ?year""")


@st.composite
def population_windows(draw):
    """An aggregate plus an insert/delete window over the population
    graph: whole and partial new observations, second values on existing
    ones, new language edges; deletions of any pattern-relevant triple."""
    from tests.conftest import build_population_graph
    agg = draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]))
    graph = build_population_graph()
    relevant = sorted((t for t in graph if t.p in _WINDOW_PREDICATES),
                      key=lambda t: t.n3())
    countries = st.sampled_from(_COUNTRIES).map(lambda name: EX[name])
    years = st.sampled_from([2018, 2019, 2021]).map(typed_literal)
    pops = st.integers(-50, 1000).map(typed_literal)
    inserts = []
    for i in range(draw(st.integers(0, 3))):
        obs = EX[f"new{i}"]
        parts = [Triple(obs, EX.ofCountry, draw(countries)),
                 Triple(obs, EX.year, draw(years)),
                 Triple(obs, EX.population, draw(pops))]
        inserts += [t for t in parts if draw(st.integers(0, 4))]
    for _ in range(draw(st.integers(0, 2))):
        obs = EX[f"obs{draw(st.integers(1, 7))}"]
        inserts.append(draw(st.sampled_from([
            Triple(obs, EX.year, draw(years)),
            Triple(obs, EX.population, draw(pops))])))
    for _ in range(draw(st.integers(0, 2))):
        inserts.append(Triple(draw(countries), EX.language,
                              EX[draw(st.sampled_from(_LANG_POOL))]))
    if draw(st.booleans()):
        # rows whose triples are all new: every term but the one of the
        # last inserted pattern has to cancel them
        country = draw(st.sampled_from(_COUNTRIES + ["atlantis"]))
        inserts += [Triple(EX.whole, EX.ofCountry, EX[country]),
                    Triple(EX.whole, EX.year, draw(years)),
                    Triple(EX.whole, EX.population, draw(pops)),
                    Triple(EX[country], EX.language, EX.atlantean)]
    deletes = draw(st.lists(st.sampled_from(relevant), unique=True,
                            max_size=4))
    return agg, graph, inserts, deletes


def _knows_facet(agg: str) -> AnalyticalFacet:
    return AnalyticalFacet.from_query("knows", f"""
        PREFIX ex: <http://example.org/>
        SELECT ?a ?c ({agg}(?w) AS ?m) WHERE {{
          ?a ex:knows ?b . ?b ex:knows ?c . ?c ex:weight ?w
          FILTER(?w > 1)
        }} GROUP BY ?a ?c""")


@st.composite
def knows_windows(draw):
    """An aggregate plus a window over a random small ``knows`` graph.

    The facet joins ``ex:knows`` with itself, so one delta triple matches
    two patterns (a self-loop is both hops of one row), and it carries a
    group-wide FILTER; the window inserts and deletes ``knows`` and
    ``weight`` triples at once."""
    agg = draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]))
    nodes = st.sampled_from([EX[f"n{i}"] for i in range(5)])
    edges = st.builds(Triple, nodes, st.just(EX.knows), nodes)
    weights = st.builds(Triple, nodes, st.just(EX.weight),
                        st.integers(0, 4).map(typed_literal))
    graph = Graph()
    graph.update(draw(st.lists(edges, max_size=10)))
    graph.update(draw(st.lists(weights, max_size=6)))
    inserts = draw(st.lists(st.one_of(edges, weights), max_size=5))
    present = sorted(graph, key=lambda t: t.n3())
    deletes = draw(st.lists(st.sampled_from(present), unique=True,
                            max_size=4)) if present else []
    return agg, graph, inserts, deletes


class TestDeltaAlgebraProperty:
    @staticmethod
    def _window(graph, facet, inserts, deletes, plan=None):
        """``(before, Δ, after)``: the facet's scans around the window and
        the delta evaluator's signed table for it, one executor's ids."""
        from repro.cube.rollup import facet_scan
        from repro.sparql.delta import DeltaEvaluator, compile_delta_plan
        engine = QueryEngine(graph)
        before = facet_scan(engine, facet).table
        log = graph.subscribe()
        graph.update(inserts)
        graph.remove(deletes)
        delta = log.drain()
        evaluator = DeltaEvaluator(engine.executor,
                                   plan or compile_delta_plan(facet))
        change = evaluator.adjustments(delta.inserted, delta.deleted)
        return before, change, facet_scan(engine, facet).table

    def _assert_difference(self, agg, facet, graph, inserts, deletes):
        """``adjustments(Δ) == GroupTable(after) − GroupTable(before)``
        entry by entry — at the finest grain and, projected, at every
        lattice mask (so rolling Δ up commutes with rolling the scans
        up).  MIN/MAX: Δ's extremum is one of the after-table's rows, and
        over an insert-only window merging it into the before-table's
        gives the after-table's."""
        from repro.sparql.grouptable import GroupEntry
        before, change, after = self._window(graph, facet, inserts, deletes)
        assert change is not None
        assert not any(e.poisoned for e in change.groups.values())
        pick = max if agg == "MAX" else min
        zero = GroupEntry()
        for mask in range(facet.lattice_size):
            variables = facet.mask_variables(mask)
            b, d, a = (table.project_variables(variables).groups
                       for table in (before, change, after))
            for key in set(b) | set(d) | set(a):
                eb, ed, ea = (t.get(key, zero) for t in (b, d, a))
                assert (ed.rows, ed.bound, ed.value) == (
                    ea.rows - eb.rows, ea.bound - eb.bound,
                    ea.value - eb.value), (agg, mask, key)
                if ed.best_key is not None:
                    assert ea.best_key == pick(ea.best_key, ed.best_key)
                if not deletes:
                    offered = [k for k in (eb.best_key, ed.best_key)
                               if k is not None]
                    assert ea.best_key == \
                        (pick(offered) if offered else None)
                assert ed.empty == (
                    (ea.rows, ea.bound, ea.value) ==
                    (eb.rows, eb.bound, eb.value) and ed.best_id is None)

    @settings(max_examples=80,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_windows())
    def test_window_table_is_the_difference_of_two_scans(self, window):
        agg, graph, inserts, deletes = window
        self._assert_difference(agg, _population_facet(agg), graph,
                                inserts, deletes)

    @settings(max_examples=120,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(knows_windows())
    def test_self_join_under_a_filter(self, window):
        """The same identity where telescoping can go wrong: one delta
        triple seeds two terms, rows mix inserted and deleted triples,
        and the group-wide FILTER runs on each term's final batch."""
        agg, graph, inserts, deletes = window
        self._assert_difference(agg, _knows_facet(agg), graph,
                                inserts, deletes)

    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_windows(), st.sampled_from(["non-numeric", "unbound"]))
    def test_unusable_operand_declines_the_window(self, window, how):
        """A row whose operand is unbound (SUM/AVG/MIN/MAX) or not a
        number (SUM/AVG) would leave its group without a measure: no Δ."""
        from repro.sparql.delta import compile_delta_plan
        agg, graph, inserts, deletes = window
        facet = _population_facet(agg)
        plan = compile_delta_plan(facet)
        # one whole new row no deletion of the window can take apart
        inserts = inserts + [
            Triple(EX.bad, EX.ofCountry, EX.badland),
            Triple(EX.badland, EX.language, EX.french),
            Triple(EX.bad, EX.year, typed_literal(2019)),
            Triple(EX.bad, EX.population,
                   Literal("n/a") if how == "non-numeric"
                   else typed_literal(1))]
        if how == "unbound":
            plan.measure_variable = Variable("never_bound")
        declines = agg in ("SUM", "AVG") or (
            how == "unbound" and agg in ("MIN", "MAX"))
        _, change, _ = self._window(graph, facet, inserts, deletes, plan)
        assert (change is None) == declines


# --------------------------------------------------------------------------
# more round-trip properties
# --------------------------------------------------------------------------

class TestMoreRoundTrips:
    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_worlds())
    def test_analyzer_round_trips_rendered_queries(self, world):
        """render(AnalyticalQuery) --parse--> analyze == original query."""
        from repro.views.analyzer import analyze_query
        from repro.workload.templates import render_analytical_query
        graph, facet, query, view_mask = world
        text = render_analytical_query(query)
        recovered = analyze_query(text, facet)
        assert recovered is not None, text
        assert recovered.group_mask == query.group_mask
        assert recovered.filters == query.filters

    @given(triple_lists, st.integers(0, 6))
    def test_bgp_pattern_order_is_irrelevant(self, items, seed):
        """Shuffling a BGP's triple patterns never changes the solutions."""
        import random as _random
        from repro.sparql import QueryEngine
        g = Graph()
        for t in items:
            g.add(t)
        engine = QueryEngine(g)
        base_query = ("SELECT ?s ?o ?o2 WHERE { "
                      "?s <http://example.org/p> ?o . "
                      "?o <http://example.org/q> ?o2 . "
                      "?s <http://example.org/r> ?o2 . }")
        shuffled = ("SELECT ?s ?o ?o2 WHERE { "
                    "?o <http://example.org/q> ?o2 . "
                    "?s <http://example.org/r> ?o2 . "
                    "?s <http://example.org/p> ?o . }")
        del _random, seed
        a = engine.query(base_query)
        b = engine.query(shuffled)
        assert a.same_solutions(b)

    @given(st.lists(st.builds(Triple, iris, iris,
                              st.one_of(iris, int_literals, plain_literals)),
                    max_size=25))
    def test_turtle_round_trip(self, items):
        from repro.rdf import parse_turtle, serialize_turtle
        g = Graph()
        for t in items:
            g.add(t)
        assert set(parse_turtle(serialize_turtle(g))) == set(g)


# --------------------------------------------------------------------------
# view selection: invariants of the priced problem and its searches
# --------------------------------------------------------------------------

def _star_facet(dimensions: int) -> AnalyticalFacet:
    names = "abcde"[:dimensions]
    return AnalyticalFacet.from_query(f"star{dimensions}", f"""
        PREFIX ex: <http://example.org/>
        SELECT {" ".join(f"?{n}" for n in names)} (SUM(?m) AS ?total) WHERE {{
          ?s ex:pm ?m . {" ".join(f"?s ex:p{n} ?{n} ." for n in names)}
        }} GROUP BY {" ".join(f"?{n}" for n in names)}""")


_STAR_FACETS = {n: _star_facet(n) for n in (3, 4, 5)}


@st.composite
def priced_lattices(draw):
    """A lattice with a made-up profile (random positive prices and sizes —
    no graph is scanned), a query set, a count k and a triple budget."""
    facet = _STAR_FACETS[draw(st.integers(3, 5))]
    lattice = ViewLattice(facet)
    price, size = st.integers(1, 500), st.integers(1, 300)
    profile = LatticeProfile(
        facet, BaseProfile(triples=draw(size), rows=draw(price), nodes=1,
                           eval_seconds=0.0), graph_stats=None,
        views={view.mask: ViewProfile(view.mask, view.label, view.level,
                                      rows=draw(price), triples=draw(size),
                                      nodes=1, eval_seconds=0.0)
               for view in lattice})
    workload = [AnalyticalQuery(facet, mask) for mask in draw(st.lists(
        st.integers(0, facet.lattice_size - 1), max_size=12))]
    return (lattice, profile, workload or None, draw(st.integers(0, 3)),
            draw(st.integers(0, 2000)))


class TestSelectionProperties:
    """Over generated problems priced by ``agg_values`` (a view's price is
    its made-up ``rows``, its size its made-up ``triples``)."""

    @staticmethod
    def _searches(seed=0):
        model = AggregatedValuesCost()
        return {"greedy": GreedySelector(model, seed=seed),
                "exhaustive": ExhaustiveSelector(model),
                "annealing": AnnealingSelector(model, seed=seed,
                                               iterations=150)}

    @given(priced_lattices(), st.data())
    def test_cost_never_increases_when_a_view_is_added(self, drawn, data):
        lattice, profile, workload, _k, _budget = drawn
        problem = SelectionProblem(lattice, profile, AggregatedValuesCost(),
                                   workload)
        views = data.draw(st.lists(st.sampled_from(problem.views),
                                   min_size=1, unique_by=lambda v: v.mask))
        for size in range(len(views)):
            assert problem.cost_of(views[:size + 1]) <= \
                problem.cost_of(views[:size])

    @settings(max_examples=40)
    @given(priced_lattices(), st.integers(0, 3))
    def test_strategies_agree_with_the_objective(self, drawn, seed):
        lattice, profile, workload, k, _budget = drawn
        problem = SelectionProblem(lattice, profile, AggregatedValuesCost(),
                                   workload)
        results = {name: selector.select(lattice, profile, k, workload)
                   for name, selector in self._searches(seed).items()}
        again = {name: selector.select(lattice, profile, k, workload)
                 for name, selector in self._searches(seed).items()}
        for name, result in results.items():
            assert len(result.masks) == len(result.views) == k
            # result() prices what was picked with the one objective
            assert result.estimated_workload_cost == \
                problem.cost_of(result.views)
            # deterministic under its seed
            assert result.labels == again[name].labels
        # exhaustive is the optimum of the same objective
        optimum = results["exhaustive"].estimated_workload_cost
        assert optimum <= results["greedy"].estimated_workload_cost
        assert optimum <= results["annealing"].estimated_workload_cost
        # each view's benefit only shrinks as views are added, so greedy's
        # picks come in non-increasing benefit
        benefits = [step.benefit for step in results["greedy"].steps]
        assert benefits == sorted(benefits, reverse=True)

    @given(priced_lattices(), st.booleans(), st.integers(0, 3))
    def test_budgeted_selection_fits_its_budget_and_its_k(self, drawn,
                                                          capped, seed):
        lattice, profile, workload, k, budget = drawn
        k = k if capped else None
        selector = GreedySelector(AggregatedValuesCost(), seed=seed,
                                  triple_budget=budget)
        result = selector.select(lattice, profile, k, workload)
        assert sum(profile.triples(v) for v in result.views) <= budget
        assert k is None or len(result.views) <= k
        assert all(step.benefit > 0 for step in result.steps)
        assert result.labels == selector.select(lattice, profile, k,
                                                workload).labels
