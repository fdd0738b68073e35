"""Unit tests for the indexed graph store: mutation, matching, counting."""

import pytest

from repro.errors import TermError
from repro.rdf import Graph, IRI, Literal, Namespace, TermDictionary, \
    Triple, TriplePattern, Variable, typed_literal

EX = Namespace("http://example.org/")


def small_graph() -> Graph:
    g = Graph()
    g.add(Triple(EX.a, EX.knows, EX.b))
    g.add(Triple(EX.a, EX.knows, EX.c))
    g.add(Triple(EX.b, EX.knows, EX.c))
    g.add(Triple(EX.a, EX.name, Literal("Alice")))
    g.add(Triple(EX.b, EX.name, Literal("Bob")))
    return g


class TestMutation:
    def test_add_returns_true_on_new(self):
        g = Graph()
        assert g.add(Triple(EX.a, EX.p, EX.b)) is True
        assert len(g) == 1

    def test_add_duplicate_returns_false(self):
        g = Graph()
        t = Triple(EX.a, EX.p, EX.b)
        g.add(t)
        assert g.add(t) is False
        assert len(g) == 1

    def test_update_counts_only_new(self):
        g = Graph()
        triples = [Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.p, EX.b),
                   Triple(EX.a, EX.p, EX.c)]
        assert g.update(triples) == 2

    def test_discard_present(self):
        g = small_graph()
        assert g.discard(Triple(EX.a, EX.knows, EX.b)) is True
        assert len(g) == 4
        assert Triple(EX.a, EX.knows, EX.b) not in g

    def test_discard_absent_is_noop(self):
        g = small_graph()
        assert g.discard(Triple(EX.z, EX.knows, EX.b)) is False
        assert len(g) == 5

    def test_discard_cleans_all_indexes(self):
        g = Graph()
        t = Triple(EX.a, EX.p, EX.b)
        g.add(t)
        g.discard(t)
        assert list(g.triples()) == []
        assert g.count(p=EX.p) == 0
        assert g.count(o=EX.b) == 0
        assert g.count(s=EX.a) == 0

    def test_re_add_after_discard(self):
        g = Graph()
        t = Triple(EX.a, EX.p, EX.b)
        g.add(t)
        g.discard(t)
        assert g.add(t) is True
        assert t in g

    def test_clear(self):
        g = small_graph()
        g.clear()
        assert len(g) == 0
        assert list(g) == []

    def test_validation_subject_literal_rejected(self):
        g = Graph()
        with pytest.raises(TermError):
            g.add(Triple(Literal("x"), EX.p, EX.b))

    def test_validation_predicate_must_be_iri(self):
        g = Graph()
        with pytest.raises(TermError):
            g.add(Triple(EX.a, Literal("p"), EX.b))

    def test_copy_shares_dictionary_by_default(self):
        g = small_graph()
        clone = g.copy()
        assert set(clone) == set(g)
        assert clone.dictionary is g.dictionary
        clone.add(Triple(EX.z, EX.p, EX.b))
        assert len(g) == 5  # original untouched

    def test_copy_into_fresh_dictionary(self):
        g = small_graph()
        clone = g.copy(TermDictionary())
        assert set(clone) == set(g)
        assert clone.dictionary is not g.dictionary


class TestPatternMatching:
    @pytest.mark.parametrize("pattern,expected", [
        ((None, None, None), 5),
        (("a", None, None), 3),
        ((None, "knows", None), 3),
        ((None, None, "c"), 2),
        (("a", "knows", None), 2),
        (("a", None, "c"), 1),
        ((None, "knows", "c"), 2),
        (("a", "knows", "b"), 1),
    ])
    def test_all_eight_access_paths(self, pattern, expected):
        g = small_graph()
        s = EX[pattern[0]] if pattern[0] else None
        p = EX[pattern[1]] if pattern[1] else None
        o = EX[pattern[2]] if pattern[2] else None
        matches = list(g.triples(s, p, o))
        assert len(matches) == expected
        assert g.count(s, p, o) == expected
        for t in matches:
            assert t in g

    def test_unknown_term_matches_nothing(self):
        g = small_graph()
        assert list(g.triples(s=EX.nobody)) == []
        assert g.count(s=EX.nobody) == 0

    def test_subjects_distinct(self):
        g = small_graph()
        assert set(g.subjects(p=EX.knows)) == {EX.a, EX.b}

    def test_objects_distinct(self):
        g = small_graph()
        assert set(g.objects(EX.a, EX.knows)) == {EX.b, EX.c}

    def test_predicates(self):
        g = small_graph()
        assert set(g.predicates()) == {EX.knows, EX.name}

    def test_value_single_wildcard(self):
        g = small_graph()
        assert g.value(s=EX.a, p=EX.name) == Literal("Alice")
        assert g.value(s=EX.z, p=EX.name) is None

    def test_value_requires_exactly_one_wildcard(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.value(s=EX.a)

    def test_matches_binds_variables(self):
        g = small_graph()
        pattern = TriplePattern(Variable("x"), EX.knows, Variable("y"))
        bindings = list(g.matches(pattern))
        assert {(b[Variable("x")], b[Variable("y")]) for b in bindings} == {
            (EX.a, EX.b), (EX.a, EX.c), (EX.b, EX.c)}

    def test_matches_repeated_variable_requires_same_term(self):
        g = Graph()
        g.add(Triple(EX.a, EX.knows, EX.a))
        g.add(Triple(EX.a, EX.knows, EX.b))
        pattern = TriplePattern(Variable("x"), EX.knows, Variable("x"))
        bindings = list(g.matches(pattern))
        assert len(bindings) == 1
        assert bindings[0][Variable("x")] == EX.a


class TestStatisticsAccessors:
    def test_node_count_excludes_predicates(self):
        g = small_graph()
        # nodes: a, b, c, "Alice", "Bob"
        assert g.node_count() == 5

    def test_node_count_with_predicates(self):
        g = small_graph()
        assert g.node_count(include_predicates=True) == 7

    def test_nodes_iteration(self):
        g = small_graph()
        assert set(g.nodes()) == {EX.a, EX.b, EX.c, Literal("Alice"),
                                  Literal("Bob")}

    def test_predicate_triple_counts(self):
        g = small_graph()
        pid = g.dictionary.lookup
        assert g.predicate_profile(pid(EX.knows))[0] == 3
        assert g.predicate_profile(pid(EX.name))[0] == 2

    def test_count_tracks_discard(self):
        g = small_graph()
        g.discard(Triple(EX.a, EX.knows, EX.b))
        assert g.predicate_profile(g.dictionary.lookup(EX.knows))[0] == 2

    def test_literal_objects_allowed(self):
        g = Graph()
        g.add(Triple(EX.a, EX.population, typed_literal(42)))
        assert g.count(p=EX.population) == 1

    def test_bool_and_repr(self):
        g = Graph()
        assert not g
        g.add(Triple(EX.a, EX.p, EX.b))
        assert g
        assert "1 triples" in repr(g)
