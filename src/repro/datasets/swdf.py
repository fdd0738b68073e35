"""A Semantic Web Dog Food-style scholarly knowledge graph.

SWDF was the community crawl of Semantic Web conference metadata
(conferences, editions, papers, people, organizations).  This generator
produces the same shape with the swrc/swc-style vocabulary: conference
series hold yearly editions; papers are presented at editions within
tracks; each paper has one or more authors affiliated with organizations
located in countries.  Author multiplicity again makes naive COUNT facets
interesting (a paper with three authors appears three times in an
author-joined aggregation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..rdf.graph import Graph
from ..rdf.namespace import RDF, Namespace
from ..rdf.terms import Literal, typed_literal
from ..rdf.triples import Triple
from .base import ZipfSampler, check_positive, load, pick_count

__all__ = ["SWDF", "SWDFConfig", "generate_swdf"]

#: Vocabulary namespace of the synthetic dog-food KG.
SWDF = Namespace("http://data.semanticweb.org/ns/")

_SERIES = ("ISWC", "ESWC", "WWW", "SIGMOD", "VLDB", "CIKM")
_TRACKS = ("Research", "InUse", "Resource", "Industry", "Demo", "Poster")
_COUNTRY_NAMES = (
    "Germany", "USA", "Italy", "France", "Greece", "Denmark", "Netherlands",
    "UK", "Spain", "Austria", "China", "Japan", "Australia", "Brazil",
    "Canada", "India",
)


@dataclass(frozen=True)
class SWDFConfig:
    """Generator parameters for the scholarly KG."""

    series: tuple[str, ...] = _SERIES
    years: tuple[int, ...] = tuple(range(2014, 2020))
    papers_per_edition_min: int = 25
    papers_per_edition_max: int = 60
    authors_pool: int = 400
    organizations: int = 80
    authors_per_paper_min: int = 1
    authors_per_paper_max: int = 4
    author_zipf: float = 0.8
    seed: int = 0


def generate_swdf(config: SWDFConfig | None = None,
                  graph: Graph | None = None) -> Graph:
    """Generate the scholarly KG (see module docstring)."""
    if config is None:
        config = SWDFConfig()
    check_positive("authors_pool", config.authors_pool)
    check_positive("organizations", config.organizations)
    return load(_swdf_triples(config), graph)


def _swdf_triples(config: SWDFConfig) -> Iterator[Triple]:
    rng = random.Random(config.seed)
    countries = [SWDF[f"country/{name}"] for name in _COUNTRY_NAMES]
    for iri, name in zip(countries, _COUNTRY_NAMES):
        yield Triple(iri, RDF.type, SWDF.Country)
        yield Triple(iri, SWDF.name, Literal(name))

    organizations = []
    for i in range(config.organizations):
        organization = SWDF[f"org/Org{i}"]
        yield Triple(organization, RDF.type, SWDF.Organization)
        yield Triple(organization, SWDF.name, Literal(f"Org{i}"))
        yield Triple(organization, SWDF.basedIn, rng.choice(countries))
        organizations.append(organization)

    authors = []
    for i in range(config.authors_pool):
        author = SWDF[f"person/Author{i}"]
        yield Triple(author, RDF.type, SWDF.Person)
        yield Triple(author, SWDF.name, Literal(f"Author{i}"))
        yield Triple(author, SWDF.affiliation, rng.choice(organizations))
        authors.append(author)
    author_sampler = ZipfSampler(authors, config.author_zipf, rng)

    tracks = {name: SWDF[f"track/{name}"] for name in _TRACKS}
    for name, iri in tracks.items():
        yield Triple(iri, RDF.type, SWDF.Track)
        yield Triple(iri, SWDF.name, Literal(name))

    paper_counter = 0
    for series_name in config.series:
        series = SWDF[f"series/{series_name}"]
        yield Triple(series, RDF.type, SWDF.ConferenceSeries)
        yield Triple(series, SWDF.name, Literal(series_name))
        for year in config.years:
            edition = SWDF[f"event/{series_name}{year}"]
            yield Triple(edition, RDF.type, SWDF.ConferenceEvent)
            yield Triple(edition, SWDF.ofSeries, series)
            yield Triple(edition, SWDF.year, typed_literal(year))
            n_papers = pick_count(rng, config.papers_per_edition_min,
                                  config.papers_per_edition_max)
            for _ in range(n_papers):
                paper = SWDF[f"paper/Paper{paper_counter}"]
                paper_counter += 1
                yield Triple(paper, RDF.type, SWDF.InProceedings)
                yield Triple(paper, SWDF.title,
                             Literal(f"Paper {paper_counter}"))
                yield Triple(paper, SWDF.presentedAt, edition)
                yield Triple(paper, SWDF.track,
                             tracks[rng.choice(_TRACKS)])
                n_authors = pick_count(rng, config.authors_per_paper_min,
                                       config.authors_per_paper_max)
                for author in author_sampler.sample_distinct(n_authors):
                    yield Triple(paper, SWDF.author, author)
