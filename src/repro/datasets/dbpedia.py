"""A DBpedia-style country/language/population knowledge graph.

This is the paper's running example (Figure 1 / Example 1.1) grown into a
data cube: countries belong to continents (and possibly unions such as the
EU), speak one or more official languages, and carry yearly population
census observations.  Populations are modelled as observation entities —
``?obs dbp:ofCountry ?c ; dbp:year ?y ; dbp:population ?p`` — so the facet
pattern joins observations with country metadata exactly the way aggregate
SPARQL queries over DBpedia do.

Multi-valued languages are intentional: joining observations with
languages duplicates population rows per language, the classic KG
aggregation pitfall the demo discusses.
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

__all__ = ["DBP", "DBPediaConfig", "generate_dbpedia"]

#: The vocabulary namespace of the synthetic DBpedia-like KG.
DBP = Namespace("http://dbpedia.org/ontology/")

_CONTINENTS = ("Europe", "Asia", "Africa", "NorthAmerica", "SouthAmerica",
               "Oceania")

_LANGUAGE_NAMES = (
    "English", "French", "German", "Spanish", "Portuguese", "Italian",
    "Dutch", "Russian", "Mandarin", "Hindi", "Arabic", "Swahili",
    "Japanese", "Korean", "Turkish", "Polish", "Greek", "Swedish",
    "Danish", "Norwegian", "Finnish", "Czech", "Hungarian", "Romanian",
    "Bulgarian", "Thai", "Vietnamese", "Malay", "Tagalog", "Bengali",
    "Urdu", "Persian", "Hebrew", "Amharic", "Zulu", "Hausa", "Yoruba",
    "Quechua", "Guarani", "Maori",
)


@dataclass(frozen=True)
class DBPediaConfig:
    """Generator parameters for the population cube."""

    countries: int = 60
    years: tuple[int, ...] = tuple(range(2010, 2020))
    languages_min: int = 1
    languages_max: int = 3
    language_zipf: float = 1.1
    union_fraction: float = 0.35   # chance a European country is in the EU
    population_min: int = 100_000
    population_max: int = 150_000_000
    growth_rate: float = 0.01
    seed: int = 0


def generate_dbpedia(config: DBPediaConfig | None = None,
                     graph: Graph | None = None) -> Graph:
    """Generate the population-cube KG (see module docstring)."""
    if config is None:
        config = DBPediaConfig()
    check_positive("countries", config.countries)
    if not config.years:
        raise ValueError("need at least one census year")
    return load(_dbpedia_triples(config), graph)


def _dbpedia_triples(config: DBPediaConfig) -> Iterator[Triple]:
    rng = random.Random(config.seed)
    languages = [DBP[f"language/{name}"] for name in _LANGUAGE_NAMES]
    for iri, name in zip(languages, _LANGUAGE_NAMES):
        yield Triple(iri, RDF.type, DBP.Language)
        yield Triple(iri, DBP.name, Literal(name))

    continents = {name: DBP[f"continent/{name}"] for name in _CONTINENTS}
    for name, iri in continents.items():
        yield Triple(iri, RDF.type, DBP.Continent)
        yield Triple(iri, DBP.name, Literal(name))
    eu = DBP["union/EU"]
    yield Triple(eu, RDF.type, DBP.Union)
    yield Triple(eu, DBP.name, Literal("EU"))

    language_sampler = ZipfSampler(languages, config.language_zipf, rng)
    observation_counter = 0
    for c in range(config.countries):
        country = DBP[f"country/Country{c}"]
        yield Triple(country, RDF.type, DBP.Country)
        yield Triple(country, DBP.name, Literal(f"Country{c}"))
        continent_name = rng.choice(_CONTINENTS)
        yield Triple(country, DBP.partOf, continents[continent_name])
        if continent_name == "Europe" \
                and rng.random() < config.union_fraction:
            yield Triple(country, DBP.partOf, eu)
        n_languages = pick_count(rng, config.languages_min,
                                 config.languages_max)
        for language in language_sampler.sample_distinct(n_languages):
            yield Triple(country, DBP.language, language)

        base_population = rng.randint(config.population_min,
                                      config.population_max)
        for offset, year in enumerate(config.years):
            population = round(base_population *
                               (1.0 + config.growth_rate) ** offset)
            observation = DBP[f"census/obs{observation_counter}"]
            observation_counter += 1
            yield Triple(observation, RDF.type, DBP.PopulationRecord)
            yield Triple(observation, DBP.ofCountry, country)
            yield Triple(observation, DBP.year, typed_literal(year))
            yield Triple(observation, DBP.population,
                         typed_literal(population))
