"""Tests for the dataset generators and the demo catalog."""

import random

import pytest

from repro.errors import DatasetError
from repro.datasets import DATASET_NAMES, DBPediaConfig, LUBMConfig, \
    SWDFConfig, ZipfSampler, dataset_spec, generate_dbpedia, generate_lubm, \
    generate_swdf, load_dataset
from repro.datasets.dbpedia import DBP, _dbpedia_triples
from repro.datasets.lubm import UB, _lubm_triples
from repro.datasets.swdf import SWDF, _swdf_triples
from repro.rdf import RDF, Graph
from repro.rdf.graph import UPDATE_CHUNK


class TestZipfSampler:
    def test_skewed_toward_head(self):
        rng = random.Random(0)
        sampler = ZipfSampler(list(range(100)), exponent=1.2, rng=rng)
        draws = [sampler.sample() for _ in range(2000)]
        head = sum(1 for d in draws if d < 10)
        assert head > len(draws) * 0.4

    def test_zero_exponent_is_uniformish(self):
        rng = random.Random(0)
        sampler = ZipfSampler(list(range(10)), exponent=0.0, rng=rng)
        draws = [sampler.sample() for _ in range(5000)]
        counts = [draws.count(i) for i in range(10)]
        assert min(counts) > 300

    def test_sample_distinct(self):
        sampler = ZipfSampler(list(range(5)), rng=random.Random(0))
        chosen = sampler.sample_distinct(3)
        assert len(chosen) == len(set(chosen)) == 3

    def test_sample_distinct_capped_at_population(self):
        sampler = ZipfSampler([1, 2], rng=random.Random(0))
        assert sorted(sampler.sample_distinct(10)) == [1, 2]

    def test_empty_items_rejected(self):
        with pytest.raises(DatasetError):
            ZipfSampler([])


class TestLUBM:
    def test_deterministic_by_seed(self):
        config = LUBMConfig(seed=3).scaled(0.1)
        a = generate_lubm(config)
        b = generate_lubm(config)
        assert len(a) == len(b)
        assert set(a) == set(b)

    def test_different_seed_differs(self):
        a = generate_lubm(LUBMConfig(seed=1).scaled(0.1))
        b = generate_lubm(LUBMConfig(seed=2).scaled(0.1))
        assert set(a) != set(b)

    def test_schema_shape(self):
        g = generate_lubm(LUBMConfig(seed=0).scaled(0.15))
        assert g.count(p=RDF.type, o=UB.University) == 1
        departments = g.count(p=RDF.type, o=UB.Department)
        assert departments >= 1
        # every department belongs to the university
        assert g.count(p=UB.subOrganizationOf) == departments
        # students exist and take courses
        assert g.count(p=RDF.type, o=UB.UndergraduateStudent) > 0
        assert g.count(p=UB.takesCourse) > 0
        assert g.count(p=UB.advisor) > 0

    def test_grad_students_have_advisors_among_faculty(self):
        g = generate_lubm(LUBMConfig(seed=0).scaled(0.15))
        faculty_types = {UB.FullProfessor, UB.AssociateProfessor,
                         UB.AssistantProfessor, UB.Lecturer}
        for triple in g.triples(p=UB.advisor):
            advisor_types = set(g.objects(triple.o, RDF.type))
            assert advisor_types & faculty_types

    def test_scaled_shrinks(self):
        big = generate_lubm(LUBMConfig(seed=0).scaled(0.3))
        small = generate_lubm(LUBMConfig(seed=0).scaled(0.1))
        assert len(small) < len(big)

    def test_invalid_universities(self):
        with pytest.raises(DatasetError):
            generate_lubm(LUBMConfig(universities=0))


class TestDBpedia:
    def test_deterministic(self):
        config = DBPediaConfig(countries=10, years=(2018, 2019), seed=4)
        assert set(generate_dbpedia(config)) == set(generate_dbpedia(config))

    def test_observation_per_country_year(self):
        config = DBPediaConfig(countries=10, years=(2017, 2018, 2019),
                               seed=1)
        g = generate_dbpedia(config)
        assert g.count(p=RDF.type, o=DBP.PopulationRecord) == 30
        assert g.count(p=DBP.population) == 30

    def test_every_country_has_language_and_continent(self):
        g = generate_dbpedia(DBPediaConfig(countries=15, seed=2))
        for country in g.subjects(p=RDF.type, o=DBP.Country):
            assert g.count(s=country, p=DBP.language) >= 1
            assert g.count(s=country, p=DBP.partOf) >= 1

    def test_population_grows_over_years(self):
        config = DBPediaConfig(countries=3, years=(2010, 2019),
                               growth_rate=0.02, seed=5)
        g = generate_dbpedia(config)
        from repro.rdf import typed_literal
        by_country = {}
        for obs in g.subjects(p=RDF.type, o=DBP.PopulationRecord):
            country = g.value(s=obs, p=DBP.ofCountry, o=None)
            year = g.value(s=obs, p=DBP.year, o=None).to_python()
            pop = g.value(s=obs, p=DBP.population, o=None).to_python()
            by_country.setdefault(country, {})[year] = pop
        for years in by_country.values():
            assert years[2019] > years[2010]

    def test_needs_years(self):
        with pytest.raises(ValueError):
            generate_dbpedia(DBPediaConfig(countries=2, years=()))


class TestSWDF:
    def test_deterministic(self):
        config = SWDFConfig(series=("ISWC",), years=(2019,), seed=0,
                            papers_per_edition_min=5,
                            papers_per_edition_max=8,
                            authors_pool=20, organizations=5)
        assert set(generate_swdf(config)) == set(generate_swdf(config))

    def test_editions_per_series_year(self):
        config = SWDFConfig(series=("ISWC", "ESWC"), years=(2018, 2019),
                            seed=0, papers_per_edition_min=3,
                            papers_per_edition_max=5, authors_pool=20,
                            organizations=5)
        g = generate_swdf(config)
        assert g.count(p=RDF.type, o=SWDF.ConferenceEvent) == 4
        assert g.count(p=SWDF.ofSeries) == 4

    def test_papers_have_track_edition_authors(self):
        config = SWDFConfig(series=("ISWC",), years=(2019,), seed=0,
                            papers_per_edition_min=5,
                            papers_per_edition_max=8,
                            authors_pool=20, organizations=5)
        g = generate_swdf(config)
        for paper in g.subjects(p=RDF.type, o=SWDF.InProceedings):
            assert g.count(s=paper, p=SWDF.track) == 1
            assert g.count(s=paper, p=SWDF.presentedAt) == 1
            assert g.count(s=paper, p=SWDF.author) >= 1

    def test_authors_affiliated_in_countries(self):
        config = SWDFConfig(series=("ISWC",), years=(2019,), seed=0,
                            papers_per_edition_min=3,
                            papers_per_edition_max=4,
                            authors_pool=10, organizations=4)
        g = generate_swdf(config)
        for org in g.subjects(p=RDF.type, o=SWDF.Organization):
            assert g.count(s=org, p=SWDF.basedIn) == 1


class TestCatalog:
    def test_three_datasets_registered(self):
        assert DATASET_NAMES == ("dbpedia", "lubm", "swdf")

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("freebase")

    def test_unknown_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("dbpedia", "galactic")

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_tiny_loads_with_facets(self, name):
        loaded = load_dataset(name, "tiny")
        assert len(loaded.graph) > 0
        assert loaded.facets
        default = loaded.facet()
        assert default.name == dataset_spec(name).facets[0].name

    def test_facet_lookup_error_lists_options(self, tiny_dbpedia):
        with pytest.raises(DatasetError) as err:
            tiny_dbpedia.facet("nope")
        assert "population_cube" in str(err.value)

    def test_facet_templates_execute(self, tiny_dbpedia, tiny_lubm,
                                     tiny_swdf):
        from repro.sparql import QueryEngine
        for loaded in (tiny_dbpedia, tiny_lubm, tiny_swdf):
            engine = QueryEngine(loaded.graph)
            for facet in loaded.facets.values():
                table = engine.query(facet.template_query())
                assert len(table) > 0, (loaded.name, facet.name)

    def test_scales_are_ordered(self):
        tiny = load_dataset("dbpedia", "tiny")
        small = load_dataset("dbpedia", "small")
        assert len(tiny.graph) < len(small.graph)


@pytest.mark.parametrize("store", ["dict", "columnar"])
class TestGeneratorsStream:
    """A generator is a triple stream bulk-loaded in chunks; the graph
    must be the one a per-triple ``add`` of that stream builds, down to
    the id each term got and, on dict, the order of ``subject_ids()``
    (the update-window sampler draws entities in that order)."""

    @pytest.mark.parametrize("generate, stream, config", [
        (generate_dbpedia, _dbpedia_triples,
         DBPediaConfig(countries=120, seed=3)),
        (generate_lubm, _lubm_triples, LUBMConfig(seed=7).scaled(0.35)),
        (generate_swdf, _swdf_triples, SWDFConfig(seed=3)),
    ], ids=["dbpedia", "lubm", "swdf"])
    def test_equals_a_per_triple_replay(self, store, generate, stream,
                                        config):
        loaded = generate(config, Graph(store=store))
        replay = Graph(store=store)
        for triple in stream(config):
            replay.add(triple)
        assert len(loaded) > UPDATE_CHUNK          # spans chunk boundaries
        assert list(loaded.dictionary.terms()) == \
            list(replay.dictionary.terms())
        assert loaded.snapshot_ids() == replay.snapshot_ids()
        if store == "dict":
            assert list(loaded.subject_ids()) == list(replay.subject_ids())

    def test_a_bad_config_raises_at_the_call(self, store):
        with pytest.raises(DatasetError):
            generate_lubm(LUBMConfig(universities=0), Graph(store=store))
