"""E3 — demo step "Exploration of the Full Lattice".

For each dataset's headline facet: materialize *every* view of the
lattice, reporting per-level group/triple counts, build time, and the
storage amplification that makes full materialization impractical.
"""

import pytest

from repro.console import panel_full_lattice, render_lattice
from repro.core import OfflineModule, Sofos
from repro.core.report import format_table
from repro.rdf import Dataset

from conftest import emit, emit_table, emit_timings

HEADLINE = {
    "dbpedia": "population_cube",
    "lubm": "students_by_department",
    "swdf": "papers_by_conference",
}


class TestFullLattice:
    @pytest.mark.benchmark(group="E3-full-materialization")
    @pytest.mark.parametrize("name", sorted(HEADLINE))
    def test_materialize_full_lattice(self, benchmark, all_small, name):
        loaded = all_small[name]
        facet = loaded.facet(HEADLINE[name])

        def build():
            offline = OfflineModule(Dataset.wrap(loaded.graph.copy()),
                                    facet)
            catalog, _seconds = offline.materialize_full_lattice()
            return catalog

        catalog = benchmark.pedantic(build, rounds=2, iterations=1)
        assert len(catalog) == facet.lattice_size

    @pytest.mark.benchmark(group="E3-profile")
    @pytest.mark.parametrize("name", sorted(HEADLINE))
    def test_emit_lattice_panel(self, benchmark, all_small, name):
        loaded = all_small[name]
        facet = loaded.facet(HEADLINE[name])
        sofos = Sofos(loaded.graph, facet)
        profile = benchmark.pedantic(sofos.profile, rounds=1, iterations=1)
        title = f"[{name} / {facet.name}]\n"
        emit_timings("E3", title + panel_full_lattice(sofos.lattice, profile))
        # the same panel without its measured "build ms" column
        levels = [[str(level[0].level), str(len(level)),
                   str(sum(p.rows for p in level)),
                   str(sum(p.triples for p in level))]
                  for level in profile.by_level() if level]
        emit("E3", title + render_lattice(sofos.lattice, profile) + "\n\n"
             + format_table(("level", "views", "groups", "triples"), levels,
                            align_right=[True] * 4)
             + f"\nfull lattice: {profile.total_triples()} extra triples "
             f"({profile.full_lattice_amplification():.2f}x storage "
             "amplification)")

    @pytest.mark.benchmark(group="E3-report")
    def test_emit_amplification_summary(self, benchmark, all_small):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows = []
        for name in sorted(HEADLINE):
            loaded = all_small[name]
            facet = loaded.facet(HEADLINE[name])
            profile = Sofos(loaded.graph, facet).profile()
            rows.append([
                name, facet.name, str(facet.lattice_size),
                str(profile.base.triples),
                str(profile.total_triples()),
                f"{profile.full_lattice_amplification():.2f}x",
                f"{profile.profile_seconds * 1000:.0f}",
            ])
        emit_table("E3",
                   ("dataset", "facet", "views", "|G|", "all-view triples",
                    "amplification", "profile ms"), rows,
                   [False, False, True, True, True, True, True],
                   timing=("profile ms",))
        # the paper's claim: materializing the entire lattice is impractical
        amplifications = [float(r[5][:-1]) for r in rows]
        assert all(a > 1.0 for a in amplifications)
