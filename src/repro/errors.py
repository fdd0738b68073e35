"""Exception hierarchy for the SOFOS reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from query errors from selection errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class RDFError(ReproError):
    """Base class for errors in the RDF data-model layer."""


class TermError(RDFError):
    """An RDF term was constructed from invalid components."""


class StoreCapacityError(RDFError, ValueError):
    """A triple id exceeds the store's id width; its batch is refused whole."""


class ParseError(RDFError):
    """A serialized RDF document or SPARQL query could not be parsed.

    Carries the ``line`` and ``column`` (1-based) of the offending input
    position when they are known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SPARQLError(ReproError):
    """Base class for errors in the SPARQL engine."""


class QuerySyntaxError(SPARQLError, ParseError):
    """A SPARQL query string is syntactically invalid."""


class QueryEvaluationError(SPARQLError):
    """A syntactically valid query failed during evaluation."""


class ExpressionError(QueryEvaluationError):
    """An expression raised a (SPARQL) type error.

    Per the SPARQL semantics most expression errors do not abort the whole
    query: a FILTER treats them as ``false`` and an aggregate skips the
    binding.  The executor catches this exception at those boundaries.
    """


class CubeError(ReproError):
    """Base class for errors in the facet/lattice layer."""


class FacetError(CubeError):
    """An analytical facet definition is invalid."""


class ViewError(ReproError):
    """Base class for errors in view materialization and rewriting."""


class RewriteError(ViewError):
    """A query could not be rewritten against a materialized view."""


class CatalogCorruptError(ViewError):
    """A persisted expanded dataset failed validation on load.

    Raised for malformed or truncated manifests and for checksum
    mismatches between the manifest and the dataset file.  ``path`` names
    the offending file (also embedded in the message) and ``salvageable``
    lists the labels of views whose stored graphs still verify against
    the manifest — the set ``load_expanded(..., recover=True)`` can load
    intact while marking everything else stale-for-rebuild.
    """

    def __init__(self, message: str, path: str | None = None,
                 salvageable: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.path = path
        self.salvageable = tuple(salvageable)


class ResilienceError(ReproError):
    """Base class for errors in the fault-injection/resilience layer."""


class FailpointError(ResilienceError):
    """An armed failpoint fired in ``error`` mode (an injected fault).

    Recovery paths treat this exactly like any runtime failure — the
    whole point of the failpoint registry is that injected and organic
    errors exercise the same rollback code.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"injected fault at failpoint {name!r}")
        self.name = name


class SimulatedCrash(BaseException):
    """An armed failpoint fired in ``crash`` mode (a simulated kill).

    Deliberately **not** a :class:`ReproError` — not even an
    :class:`Exception` — so that recovery code catching ``Exception``
    cannot swallow a simulated process death, exactly as it could not
    catch a real one.  Only test/benchmark harnesses should catch it, at
    the point standing in for process re-start.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"simulated crash at failpoint {name!r}")
        self.name = name


class CostModelError(ReproError):
    """A cost model was misconfigured or asked to estimate an unknown view."""


class SelectionError(ReproError):
    """A view-selection strategy received an infeasible problem."""


class WorkloadError(ReproError):
    """A workload template could not be instantiated."""


class DatasetError(ReproError):
    """A dataset generator received invalid parameters."""
