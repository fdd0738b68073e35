"""Unit tests for N-Triples and Turtle parsing/serialization."""

import pytest

from repro.errors import ParseError, TermError
from repro.rdf import Graph, IRI, Literal, Namespace, Triple, XSD, \
    parse_ntriples, parse_ntriples_file, parse_turtle, serialize_ntriples, \
    serialize_turtle, write_ntriples
from repro.rdf.nquads import parse_nquads
from repro.rdf.terms import BlankNode

EX = Namespace("http://example.org/")


# a literal subject: the line formats' grammar reads it, Turtle's does not
@pytest.mark.parametrize("parse, invalid", [
    (parse_ntriples, TermError), (parse_nquads, TermError),
    (parse_turtle, ParseError)])
def test_each_parsed_triple_is_validated_once(parse, invalid, monkeypatch):
    checked = []
    validate = Triple.validate
    monkeypatch.setattr(Triple, "validate", staticmethod(
        lambda *terms: checked.append(terms) or validate(*terms)))
    parse('<http://x/a> <http://x/p> "b" .\n<http://x/a> <http://x/q> "c" .\n')
    assert len(checked) == 2
    with pytest.raises(invalid):
        parse('"a" <http://x/p> "b" .\n')


class TestNTriplesParsing:
    def test_simple_triple(self):
        g = parse_ntriples(
            "<http://example.org/a> <http://example.org/p> "
            "<http://example.org/b> .")
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_literal_with_datatype(self):
        g = parse_ntriples(
            '<http://x/a> <http://x/p> '
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        triple = next(iter(g))
        assert triple.o == Literal("5", XSD.integer)

    def test_literal_with_language(self):
        g = parse_ntriples('<http://x/a> <http://x/p> "chat"@fr .')
        assert next(iter(g)).o == Literal("chat", language="fr")

    def test_blank_nodes(self):
        g = parse_ntriples("_:b0 <http://x/p> _:b1 .")
        t = next(iter(g))
        assert t.s == BlankNode("b0")
        assert t.o == BlankNode("b1")

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\n<http://x/a> <http://x/p> <http://x/b> .\n"
        assert len(parse_ntriples(text)) == 1

    def test_unicode_escapes(self):
        g = parse_ntriples('<http://x/a> <http://x/p> "\\u00e9t\\u00e9" .')
        assert next(iter(g)).o.lexical == "été"

    def test_long_unicode_escape(self):
        g = parse_ntriples('<http://x/a> <http://x/p> "\\U0001F600" .')
        assert next(iter(g)).o.lexical == "😀"

    def test_standard_escapes(self):
        g = parse_ntriples('<http://x/a> <http://x/p> "a\\tb\\nc\\"d" .')
        assert next(iter(g)).o.lexical == 'a\tb\nc"d'

    def test_missing_dot_raises_with_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples("<http://x/a> <http://x/p> <http://x/b>")
        assert "line 1" in str(err.value)

    def test_a_graph_label_raises(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples('<http://x/a> <http://x/p> <http://x/b> .\n'
                           '<http://x/a> <http://x/p> <http://x/b> '
                           '<http://x/g> .')
        assert "line 2" in str(err.value)

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples("not ntriples at all .")

    def test_invalid_escape_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://x/a> <http://x/p> "bad\\q" .')

    def test_round_trip(self, population_graph):
        text = serialize_ntriples(population_graph)
        back = parse_ntriples(text)
        assert set(back) == set(population_graph)

    def test_serialize_is_sorted_and_stable(self):
        g = Graph()
        g.add(Triple(EX.b, EX.p, EX.a))
        g.add(Triple(EX.a, EX.p, EX.b))
        assert serialize_ntriples(g) == serialize_ntriples(g.copy())
        lines = serialize_ntriples(g).splitlines()
        assert lines == sorted(lines)

    def test_file_round_trip(self, tmp_path):
        g = Graph()
        g.add(Triple(EX.a, EX.p, Literal("x")))
        path = tmp_path / "out.nt"
        with open(path, "w", encoding="utf-8") as handle:
            assert write_ntriples(g, handle) == 1
        assert set(parse_ntriples_file(str(path))) == set(g)

    @pytest.mark.parametrize("raw", ["\u2028", "\u2029", "\x85", "\x0b",
                                     "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_text_and_file_parses_agree(self, raw, tmp_path):
        # a line ends at "\r", "\n" or "\r\n"; ``raw`` stands in a literal
        text = (f'<http://x/a> <http://x/p> "a{raw}b" .\r'
                '<http://x/a> <http://x/q> "c" .\r\n'
                '<http://x/a> <http://x/r> "d" .\n')
        path = tmp_path / "doc.nt"
        path.write_text(text, encoding="utf-8", newline="")
        from_text = parse_ntriples(text)
        from_file = parse_ntriples_file(str(path))
        assert len(from_text) == 3
        assert set(from_text) == set(from_file)
        assert list(from_text.dictionary.terms()) == \
            list(from_file.dictionary.terms())
        assert from_text.value(s=IRI("http://x/a"), p=IRI("http://x/p")) \
            == Literal(f"a{raw}b")


class TestTurtleParsing:
    def test_prefix_and_semicolon_comma_lists(self):
        g = parse_turtle("""
            @prefix ex: <http://example.org/> .
            ex:a ex:p ex:b ; ex:q ex:c , ex:d .
        """)
        assert set(g) == {Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.q, EX.c),
                          Triple(EX.a, EX.q, EX.d)}

    def test_a_keyword(self):
        from repro.rdf import RDF
        g = parse_turtle("""
            @prefix ex: <http://example.org/> .
            ex:a a ex:Thing .
        """)
        assert Triple(EX.a, RDF.type, EX.Thing) in g

    def test_numeric_shorthand(self):
        g = parse_turtle("""
            @prefix ex: <http://example.org/> .
            ex:a ex:i 42 ; ex:d 4.5 ; ex:e 1.0e2 .
        """)
        objects = {t.p: t.o for t in g}
        assert objects[EX.i] == Literal("42", XSD.integer)
        assert objects[EX.d] == Literal("4.5", XSD.decimal)
        assert objects[EX.e] == Literal("1.0e2", XSD.double)

    def test_boolean_shorthand(self):
        g = parse_turtle("""
            @prefix ex: <http://example.org/> .
            ex:a ex:flag true ; ex:other false .
        """)
        objects = {t.p: t.o for t in g}
        assert objects[EX.flag] == Literal("true", XSD.boolean)
        assert objects[EX.other] == Literal("false", XSD.boolean)

    def test_sparql_style_prefix(self):
        g = parse_turtle("""
            PREFIX ex: <http://example.org/>
            ex:a ex:p ex:b .
        """)
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_base_resolution(self):
        g = parse_turtle("""
            @base <http://example.org/> .
            <a> <p> <b> .
        """)
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_triple_quoted_string(self):
        g = parse_turtle('''
            @prefix ex: <http://example.org/> .
            ex:a ex:p """line one
line two""" .
        ''')
        assert next(iter(g)).o.lexical == "line one\nline two"

    def test_language_and_datatype(self):
        g = parse_turtle("""
            @prefix ex: <http://example.org/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            ex:a ex:p "chat"@fr ; ex:q "5"^^xsd:integer .
        """)
        objects = {t.p: t.o for t in g}
        assert objects[EX.p] == Literal("chat", language="fr")
        assert objects[EX.q] == Literal("5", XSD.integer)

    def test_unknown_prefix_raises(self):
        with pytest.raises(ParseError):
            parse_turtle("nope:a nope:p nope:b .")

    def test_collections_rejected_clearly(self):
        with pytest.raises(ParseError) as err:
            parse_turtle("""
                @prefix ex: <http://example.org/> .
                ex:a ex:p ( ex:b ex:c ) .
            """)
        assert "subset" in str(err.value)

    def test_unterminated_statement_raises(self):
        with pytest.raises(ParseError):
            parse_turtle("@prefix ex: <http://example.org/> . ex:a ex:p ")

    def test_round_trip(self, population_graph):
        text = serialize_turtle(population_graph)
        back = parse_turtle(text)
        assert set(back) == set(population_graph)

    def test_serializer_groups_subjects(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        g.add(Triple(EX.a, EX.q, EX.c))
        text = serialize_turtle(g)
        # one subject block → subject IRI appears once
        assert text.count("<http://example.org/a>") == 1

    def test_comment_handling(self):
        g = parse_turtle("""
            @prefix ex: <http://example.org/> . # binds ex
            # a full comment line
            ex:a ex:p ex:b . # trailing
        """)
        assert len(g) == 1
