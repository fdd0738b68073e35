"""The RDF substrate: terms, graphs, datasets, I/O, and statistics.

This package is a self-contained, dictionary-encoded RDF store — the layer
the paper assumes exists ("any RDF triple store with SPARQL query
processing").  Everything above it (SPARQL engine, facets, views, cost
models) talks to graphs only through this public surface.
"""

from .changelog import ChangeLog, GraphDelta
from .columnar import ColumnarStore
from .dataset import Dataset
from .dictionary import TermDictionary
from .graph import Graph
from .memory import dataset_memory_report, dictionary_memory_bytes, \
    graph_memory_bytes
from .nquads import parse_nquads, serialize_nquads
from .namespace import RDF, RDFS, SOFOS, XSD_NS, Namespace, PrefixMap, \
    default_prefixes
from .ntriples import parse_ntriples, parse_ntriples_file, \
    serialize_ntriples, write_ntriples
from .stats import GraphStatistics, PredicateProfile
from .store import DictStore, TripleStore, resolve_store
from .terms import IRI, XSD, BlankNode, Literal, Term, TermOrVariable, \
    Variable, typed_literal
from .triples import Quad, Triple, TriplePattern
from .turtle import parse_turtle, serialize_turtle

__all__ = [
    "BlankNode", "ChangeLog", "ColumnarStore", "Dataset", "DictStore",
    "Graph", "GraphDelta",
    "GraphStatistics", "IRI", "Literal",
    "Namespace", "PredicateProfile", "PrefixMap", "Quad", "RDF", "RDFS",
    "SOFOS", "Term", "TermDictionary", "TermOrVariable", "Triple",
    "TriplePattern", "TripleStore", "Variable", "XSD", "XSD_NS",
    "default_prefixes",
    "dataset_memory_report", "dictionary_memory_bytes",
    "graph_memory_bytes",
    "parse_nquads", "parse_ntriples", "parse_ntriples_file",
    "parse_turtle", "resolve_store", "serialize_nquads",
    "serialize_ntriples", "serialize_turtle", "typed_literal",
    "write_ntriples",
]
