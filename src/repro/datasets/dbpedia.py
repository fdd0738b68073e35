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
from dataclasses import dataclass, field

from ..collector import collecting, pause, resume
from ..rdf.graph import Graph
from ..rdf.namespace import RDF, Namespace
from ..rdf.terms import IRI, Literal, typed_literal
from ..rdf.triples import Triple
from .base import ZipfSampler, check_positive, pick_count

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
    if graph is None:
        graph = Graph()
    owner = collecting() and pause()
    try:
        rng = random.Random(config.seed)
        add = graph.add

        languages = [DBP[f"language/{name}"] for name in _LANGUAGE_NAMES]
        for iri, name in zip(languages, _LANGUAGE_NAMES):
            add(Triple(iri, RDF.type, DBP.Language))
            add(Triple(iri, DBP.name, Literal(name)))

        continents = {name: DBP[f"continent/{name}"] for name in _CONTINENTS}
        for name, iri in continents.items():
            add(Triple(iri, RDF.type, DBP.Continent))
            add(Triple(iri, DBP.name, Literal(name)))
        eu = DBP["union/EU"]
        add(Triple(eu, RDF.type, DBP.Union))
        add(Triple(eu, DBP.name, Literal("EU")))

        language_sampler = ZipfSampler(languages, config.language_zipf, rng)
        observation_counter = 0
        for c in range(config.countries):
            country = DBP[f"country/Country{c}"]
            add(Triple(country, RDF.type, DBP.Country))
            add(Triple(country, DBP.name, Literal(f"Country{c}")))
            continent_name = rng.choice(_CONTINENTS)
            add(Triple(country, DBP.partOf, continents[continent_name]))
            if continent_name == "Europe" \
                    and rng.random() < config.union_fraction:
                add(Triple(country, DBP.partOf, eu))
            n_languages = pick_count(rng, config.languages_min,
                                     config.languages_max)
            for language in language_sampler.sample_distinct(n_languages):
                add(Triple(country, DBP.language, language))

            base_population = rng.randint(config.population_min,
                                          config.population_max)
            for offset, year in enumerate(config.years):
                population = round(base_population *
                                   (1.0 + config.growth_rate) ** offset)
                observation = DBP[f"census/obs{observation_counter}"]
                observation_counter += 1
                add(Triple(observation, RDF.type, DBP.PopulationRecord))
                add(Triple(observation, DBP.ofCountry, country))
                add(Triple(observation, DBP.year, typed_literal(year)))
                add(Triple(observation, DBP.population,
                           typed_literal(population)))
    finally:
        if owner:
            resume()
    return graph
