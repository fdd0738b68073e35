"""Unit tests for RDF terms: identity, ordering, literals, validation."""

import math

import pytest

from repro.errors import TermError
from repro.rdf import IRI, BlankNode, Literal, Variable, XSD, typed_literal


class TestIRI:
    def test_equality_by_value(self):
        assert IRI("http://x/a") == IRI("http://x/a")
        assert IRI("http://x/a") != IRI("http://x/b")

    def test_hashable_and_usable_in_sets(self):
        assert len({IRI("http://x/a"), IRI("http://x/a")}) == 1

    def test_rejects_empty(self):
        with pytest.raises(TermError):
            IRI("")

    def test_rejects_spaces_and_angle_brackets(self):
        with pytest.raises(TermError):
            IRI("http://x/a b")
        with pytest.raises(TermError):
            IRI("http://x/<a>")

    def test_rejects_non_string(self):
        with pytest.raises(TermError):
            IRI(42)  # type: ignore[arg-type]

    def test_immutable(self):
        iri = IRI("http://x/a")
        with pytest.raises(AttributeError):
            iri.value = "other"  # type: ignore[misc]

    def test_n3(self):
        assert IRI("http://x/a").n3() == "<http://x/a>"

    def test_local_name_hash_and_slash(self):
        assert IRI("http://x/path#frag").local_name == "frag"
        assert IRI("http://x/path/leaf").local_name == "leaf"

    def test_local_name_no_separator_returns_whole_value(self):
        assert IRI("urn:x").local_name == "urn:x"


class TestBlankNode:
    def test_equality_by_label(self):
        assert BlankNode("b1") == BlankNode("b1")
        assert BlankNode("b1") != BlankNode("b2")

    def test_fresh_mints_unique_labels(self):
        minted = {BlankNode.fresh().label for _ in range(100)}
        assert len(minted) == 100

    def test_fresh_prefix(self):
        assert BlankNode.fresh("view").label.startswith("view")

    def test_rejects_bad_labels(self):
        with pytest.raises(TermError):
            BlankNode("")
        with pytest.raises(TermError):
            BlankNode("has space")

    def test_n3(self):
        assert BlankNode("b0").n3() == "_:b0"


class TestLiteral:
    def test_plain_string_defaults_to_xsd_string(self):
        lit = Literal("hello")
        assert lit.datatype == XSD.string
        assert lit.language is None

    def test_language_tag_normalized_lowercase(self):
        assert Literal("Bonjour", language="FR").language == "fr"

    def test_language_and_foreign_datatype_conflict(self):
        with pytest.raises(TermError):
            Literal("x", XSD.integer, language="en")

    def test_invalid_language_tag(self):
        with pytest.raises(TermError):
            Literal("x", language="not a tag!")

    def test_equality_includes_datatype(self):
        assert Literal("5", XSD.integer) != Literal("5", XSD.string)
        assert Literal("5", XSD.integer) == Literal("5", XSD.integer)

    def test_equality_includes_language(self):
        assert Literal("chat", language="fr") != Literal("chat", language="en")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_n3_typed(self):
        assert Literal("5", XSD.integer).n3() == \
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_n3_escapes(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_to_python_integer(self):
        assert Literal("42", XSD.integer).to_python() == 42

    def test_to_python_negative_integer(self):
        assert Literal("-7", XSD.integer).to_python() == -7

    def test_to_python_decimal_and_double(self):
        assert Literal("2.5", XSD.decimal).to_python() == 2.5
        assert Literal("1e3", XSD.double).to_python() == 1000.0

    def test_to_python_special_doubles(self):
        assert Literal("INF", XSD.double).to_python() == math.inf
        assert Literal("-INF", XSD.double).to_python() == -math.inf
        assert math.isnan(Literal("NaN", XSD.double).to_python())

    def test_to_python_boolean(self):
        assert Literal("true", XSD.boolean).to_python() is True
        assert Literal("0", XSD.boolean).to_python() is False

    def test_to_python_gyear(self):
        assert Literal("2019", XSD.gYear).to_python() == 2019

    def test_to_python_invalid_lexical_raises(self):
        with pytest.raises(TermError):
            Literal("abc", XSD.integer).to_python()
        with pytest.raises(TermError):
            Literal("maybe", XSD.boolean).to_python()

    def test_is_numeric(self):
        assert Literal("1", XSD.integer).is_numeric
        assert Literal("1.5", XSD.double).is_numeric
        assert not Literal("1").is_numeric

    def test_requires_string_lexical(self):
        with pytest.raises(TermError):
            Literal(42)  # type: ignore[arg-type]


class TestTypedLiteral:
    def test_bool_before_int(self):
        lit = typed_literal(True)
        assert lit.datatype == XSD.boolean
        assert lit.lexical == "true"

    def test_int(self):
        assert typed_literal(7) == Literal("7", XSD.integer)

    def test_float(self):
        lit = typed_literal(2.5)
        assert lit.datatype == XSD.double
        assert lit.to_python() == 2.5

    def test_float_specials(self):
        assert typed_literal(math.inf).lexical == "INF"
        assert typed_literal(-math.inf).lexical == "-INF"
        assert typed_literal(math.nan).lexical == "NaN"

    def test_str(self):
        assert typed_literal("x") == Literal("x")

    def test_unsupported_type(self):
        with pytest.raises(TermError):
            typed_literal(object())


class TestVariable:
    def test_strips_question_mark_and_dollar(self):
        assert Variable("?x") == Variable("x") == Variable("$x")

    def test_rejects_invalid_names(self):
        with pytest.raises(TermError):
            Variable("1abc")
        with pytest.raises(TermError):
            Variable("")

    def test_n3(self):
        assert Variable("pop").n3() == "?pop"

    def test_ordering(self):
        assert Variable("a") < Variable("b")

    def test_hash_is_kept_and_follows_the_name(self):
        x = Variable("x")
        assert hash(x) == hash(Variable("?x")) == hash((Variable, "x"))
        assert hash(x) != hash(Variable("y"))
        with pytest.raises(AttributeError):
            x._hash = 0
        assert repr(x) == "Variable('x')"


class TestOrdering:
    def test_cross_kind_order(self):
        blank = BlankNode("b")
        iri = IRI("http://x/a")
        lit = Literal("a")
        assert blank < iri < lit

    def test_sorting_is_deterministic(self):
        terms = [Literal("b"), IRI("http://x/z"), BlankNode("a"),
                 Literal("5", XSD.integer), IRI("http://x/a")]
        once = sorted(terms)
        twice = sorted(list(reversed(terms)))
        assert once == twice

    def test_literal_order_includes_datatype(self):
        a = Literal("5", XSD.integer)
        b = Literal("5", XSD.string)
        assert (a < b) or (b < a)
