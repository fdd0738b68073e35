"""Memory accounting for graphs and datasets.

The demo reports "statistics and insights about time, memory consumption,
and query characteristics"; this module estimates the resident bytes of
the store's index structures and interned terms with ``sys.getsizeof``.

The estimate is structural: it sums the hash-table containers (outer and
inner dicts, leaf sets) and the interned term objects.  Small-int ids are
interned by CPython and therefore not charged per reference — the figure
approximates *marginal* memory attributable to a graph, which is the
quantity the storage-amplification panels contrast between G and G+.
"""

from __future__ import annotations

import sys

from .dataset import Dataset
from .dictionary import TermDictionary
from .graph import Graph
from .terms import BlankNode, IRI, Literal, Term

__all__ = ["graph_memory_bytes", "dictionary_memory_bytes",
           "dataset_memory_report"]


def _term_bytes(term: Term) -> int:
    total = sys.getsizeof(term)
    if isinstance(term, IRI):
        total += sys.getsizeof(term.value)
    elif isinstance(term, BlankNode):
        total += sys.getsizeof(term.label)
    elif isinstance(term, Literal):
        total += sys.getsizeof(term.lexical)
        if term.language:
            total += sys.getsizeof(term.language)
    return total


def graph_memory_bytes(graph: Graph, include_dictionary: bool = False) -> int:
    """Estimated bytes held by a graph's index structures.

    Delegates to the storage backend's own accounting (nested hash
    containers on dict, contiguous id-columns on columnar).  Pass
    ``include_dictionary=True`` for a standalone graph; graphs sharing a
    dataset dictionary should charge it once via
    :func:`dictionary_memory_bytes` instead.
    """
    total = graph.store.memory_bytes()
    if include_dictionary:
        total += dictionary_memory_bytes(graph.dictionary)
    return total


def dictionary_memory_bytes(dictionary: TermDictionary) -> int:
    """Estimated bytes of the interned terms plus both lookup directions
    and the integer index."""
    total = sys.getsizeof(dictionary._by_term) \
        + sys.getsizeof(dictionary._by_id) \
        + sys.getsizeof(dictionary._by_integer)
    for term in dictionary.terms():
        total += _term_bytes(term)
    return total


def dataset_memory_report(dataset: Dataset) -> dict[str, int]:
    """Bytes per graph plus the shared dictionary.

    Keys: ``""`` for the default graph, each named graph's IRI, and
    ``"(dictionary)"`` for the shared term dictionary; ``"(total)"`` sums
    everything.
    """
    report: dict[str, int] = {"": graph_memory_bytes(dataset.default)}
    for name in dataset.names():
        graph = dataset.get_graph(name)
        assert graph is not None
        report[name.value] = graph_memory_bytes(graph)
    report["(dictionary)"] = dictionary_memory_bytes(dataset.dictionary)
    report["(total)"] = sum(report.values())
    return report
