"""RDF terms: IRIs, blank nodes, literals, and pattern variables.

The term classes are immutable, hashable, and totally ordered so that query
results and serializations are deterministic.  The ordering is *not* the
SPARQL ``ORDER BY`` ordering (which lives in :mod:`repro.sparql.expr`); it is
a stable tie-break ordering: blank nodes < IRIs < literals, then by lexical
components.

Literals know how to convert themselves to and from Python values for the
common XSD datatypes, which is what the aggregation machinery operates on.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Any, ClassVar, Union

from ..errors import TermError

__all__ = [
    "Term",
    "IRI",
    "BlankNode",
    "Literal",
    "Variable",
    "TermOrVariable",
    "XSD",
    "typed_literal",
]


class Term:
    """Abstract base class for concrete RDF terms (IRI, blank node, literal)."""

    __slots__ = ()

    #: Rank used for cross-kind ordering (blank < iri < literal).
    _kind_rank: ClassVar[int] = 0

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def n3(self) -> str:
        """Return the N-Triples serialization of this term."""
        raise NotImplementedError

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


_IRI_FORBIDDEN = re.compile(r'[<>"{}|^`\\\x00-\x20]')


class IRI(Term):
    """An IRI reference, e.g. ``IRI("http://example.org/population")``.

    IRIs compare equal by their string value.  Construction rejects
    characters that are illegal in IRI references (angle brackets, spaces,
    control characters) to catch templating bugs early.
    """

    __slots__ = ("value",)
    _kind_rank = 1

    def __init__(self, value: str) -> None:
        if not isinstance(value, str):
            raise TermError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise TermError("IRI value must be non-empty")
        if _IRI_FORBIDDEN.search(value):
            raise TermError(f"IRI contains forbidden character: {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("IRI is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return hash((IRI, self.value))

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def sort_key(self) -> tuple:
        return (self._kind_rank, self.value)

    def n3(self) -> str:
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """The part of the IRI after the last ``#`` or ``/``."""
        value = self.value
        for sep in ("#", "/"):
            if sep in value:
                tail = value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return value


class BlankNode(Term):
    """A blank node with a local label, e.g. ``BlankNode("b0")``.

    ``BlankNode.fresh()`` mints labels that are unique within the process,
    which is how the view materializer creates group nodes.
    """

    __slots__ = ("label",)
    _kind_rank = 0
    _counter: ClassVar[itertools.count] = itertools.count()

    def __init__(self, label: str) -> None:
        if not isinstance(label, str) or not label:
            raise TermError("blank node label must be a non-empty str")
        if not re.fullmatch(r"[A-Za-z0-9_.\-]+", label):
            raise TermError(f"invalid blank node label: {label!r}")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("BlankNode is immutable")

    @classmethod
    def fresh(cls, prefix: str = "b") -> "BlankNode":
        """Mint a process-unique blank node with the given label prefix."""
        return cls(f"{prefix}{next(cls._counter)}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and other.label == self.label

    def __hash__(self) -> int:
        return hash((BlankNode, self.label))

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"

    def sort_key(self) -> tuple:
        return (self._kind_rank, self.label)

    def n3(self) -> str:
        return f"_:{self.label}"


class _XSDNamespace:
    """The XML-Schema datatype namespace with attribute access.

    ``XSD.integer`` is ``IRI("http://www.w3.org/2001/XMLSchema#integer")``.
    """

    BASE = "http://www.w3.org/2001/XMLSchema#"
    _NAMES = (
        "string", "integer", "decimal", "double", "float", "boolean",
        "date", "dateTime", "gYear", "long", "int", "short", "byte",
        "nonNegativeInteger", "positiveInteger", "anyURI",
    )

    def __init__(self) -> None:
        for name in self._NAMES:
            setattr(self, name, IRI(self.BASE + name))

    def __getattr__(self, name: str) -> IRI:  # pragma: no cover - fallback
        raise AttributeError(f"unknown XSD datatype: {name}")


XSD = _XSDNamespace()

#: Datatypes whose values behave as numbers in expressions and aggregates.
_NUMERIC_TYPES = {
    XSD.integer.value, XSD.decimal.value, XSD.double.value, XSD.float.value,
    XSD.long.value, XSD.int.value, XSD.short.value, XSD.byte.value,
    XSD.nonNegativeInteger.value, XSD.positiveInteger.value,
}

_INTEGER_TYPES = {
    XSD.integer.value, XSD.long.value, XSD.int.value, XSD.short.value,
    XSD.byte.value, XSD.nonNegativeInteger.value, XSD.positiveInteger.value,
}

_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
}

#: Characters Python's ``str.splitlines`` treats as line breaks beyond \n/\r;
#: they must be escaped or a serialized literal would span "lines".
_UNICODE_LINEBREAKS = {"\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                       "\u2028", "\u2029"}


def _escape_literal(text: str) -> str:
    out: list[str] = []
    for ch in text:
        escaped = _ESCAPES.get(ch)
        if escaped is not None:
            out.append(escaped)
        elif ord(ch) < 0x20 or ch == "\x7f" or ch in _UNICODE_LINEBREAKS:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


class Literal(Term):
    """An RDF literal: a lexical form plus a datatype or language tag.

    ``Literal("42", XSD.integer)`` and ``typed_literal(42)`` denote the same
    term.  Language-tagged literals implicitly have datatype
    ``rdf:langString`` per RDF 1.1, represented here by a ``language`` tag
    and datatype ``xsd:string`` for simplicity of comparison.
    """

    __slots__ = ("lexical", "datatype", "language")
    _kind_rank = 2

    def __init__(self, lexical: str, datatype: IRI | None = None,
                 language: str | None = None) -> None:
        if not isinstance(lexical, str):
            raise TermError(
                f"literal lexical form must be str, got {type(lexical).__name__};"
                " use typed_literal() for Python values")
        if language is not None:
            if datatype is not None and datatype != XSD.string:
                raise TermError("language-tagged literal cannot carry a datatype")
            if not re.fullmatch(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*", language):
                raise TermError(f"invalid language tag: {language!r}")
            language = language.lower()
            datatype = XSD.string
        if datatype is None:
            datatype = XSD.string
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Literal is immutable")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Literal)
                and other.lexical == self.lexical
                and other.datatype == self.datatype
                and other.language == self.language)

    def __hash__(self) -> int:
        return hash((Literal, self.lexical, self.datatype.value, self.language))

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype == XSD.string:
            return f"Literal({self.lexical!r})"
        return f"Literal({self.lexical!r}, {self.datatype.local_name})"

    def sort_key(self) -> tuple:
        return (self._kind_rank, self.datatype.value, self.lexical,
                self.language or "")

    def n3(self) -> str:
        body = f'"{_escape_literal(self.lexical)}"'
        if self.language:
            return f"{body}@{self.language}"
        if self.datatype == XSD.string:
            return body
        return f"{body}^^<{self.datatype.value}>"

    # -- value space ------------------------------------------------------

    @property
    def is_numeric(self) -> bool:
        """True when the datatype is an XSD numeric type."""
        return self.datatype.value in _NUMERIC_TYPES

    def to_python(self) -> Any:
        """Convert to the natural Python value for the datatype.

        Raises :class:`TermError` when the lexical form does not belong to
        the datatype's lexical space (e.g. ``"abc"^^xsd:integer``).
        """
        dt = self.datatype.value
        text = self.lexical
        try:
            if dt in _INTEGER_TYPES:
                return int(text)
            if dt == XSD.decimal.value:
                return float(text)
            if dt in (XSD.double.value, XSD.float.value):
                if text == "INF":
                    return math.inf
                if text == "-INF":
                    return -math.inf
                if text == "NaN":
                    return math.nan
                return float(text)
            if dt == XSD.boolean.value:
                if text in ("true", "1"):
                    return True
                if text in ("false", "0"):
                    return False
                raise ValueError(text)
            if dt == XSD.gYear.value:
                return int(text)
        except ValueError as exc:
            raise TermError(
                f"lexical form {text!r} is not valid for {self.datatype.local_name}"
            ) from exc
        return text


def typed_literal(value: Any) -> Literal:
    """Build a :class:`Literal` from a Python value, choosing the datatype.

    * ``bool`` → ``xsd:boolean``
    * ``int`` → ``xsd:integer``
    * ``float`` → ``xsd:double``
    * ``str`` → plain ``xsd:string``
    """
    if isinstance(value, bool):
        return Literal("true" if value else "false", XSD.boolean)
    if isinstance(value, int):
        return Literal(str(value), XSD.integer)
    if isinstance(value, float):
        if math.isinf(value):
            return Literal("INF" if value > 0 else "-INF", XSD.double)
        if math.isnan(value):
            return Literal("NaN", XSD.double)
        return Literal(repr(value), XSD.double)
    if isinstance(value, str):
        return Literal(value)
    raise TermError(f"no literal mapping for Python type {type(value).__name__}")


class Variable:
    """A SPARQL variable, e.g. ``Variable("country")`` printed as ``?country``.

    Variables appear in triple *patterns* and expressions, never in graphs.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise TermError("variable name must be a non-empty str")
        if name[0] in "?$":
            name = name[1:]
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise TermError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "name", name)
        # computed once: batches and plans look columns up by variable
        object.__setattr__(self, "_hash", hash((Variable, name)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Variable is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name

    def n3(self) -> str:
        return f"?{self.name}"


#: A position in a triple pattern: either a concrete term or a variable.
TermOrVariable = Union[Term, Variable]
