"""Random analytical-workload generation from a facet.

The online module's experiments run "a set of queries randomly generated
from the facet F" (paper §3.2).  A generated query groups on a random
subset of the facet's dimensions and may add FILTER specializations whose
constants are sampled — Zipf-skewed — from the *actual* value domain of
each dimension, so filters are always satisfiable and selectivities look
like real query logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import WorkloadError
from ..rdf.terms import Literal, Term, Variable
from ..cube.facet import AnalyticalFacet
from ..cube.query import AnalyticalQuery, FilterCondition
from ..cube.rollup import facet_scan
from ..sparql.engine import QueryEngine
from ..datasets.base import ZipfSampler

__all__ = ["WorkloadConfig", "WorkloadGenerator", "dimension_values"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape parameters of a generated workload."""

    size: int = 50
    filter_probability: float = 0.5
    max_filters: int = 2
    range_filter_probability: float = 0.3   # among filters, on numeric dims
    include_total_probability: float = 0.1  # chance of a no-grouping query
    dimension_keep_probability: float = 0.5
    value_zipf: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise WorkloadError("workload size must be non-negative")
        for name in ("filter_probability", "range_filter_probability",
                     "include_total_probability",
                     "dimension_keep_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1], got {value}")


def dimension_values(facet: AnalyticalFacet, engine: QueryEngine
                     ) -> dict[Variable, list[Term]]:
    """The actual distinct values of each grouping variable on the graph.

    Read off the shared facet scan (kept on ``engine`` for a profile or
    materialization that follows): only distinct key ids are decoded;
    the per-dimension lists are sorted for determinism.
    """
    domains: list[set[int]] = [set() for _ in facet.grouping_variables]
    for key in facet_scan(engine, facet, keep=True).table.groups:
        for ids, tid in zip(domains, key):
            if tid is not None:
                ids.add(tid)
    decode = engine.executor.decode_id
    return {var: sorted({decode(tid) for tid in ids},
                        key=lambda t: t.sort_key())
            for var, ids in zip(facet.grouping_variables, domains)}


class WorkloadGenerator:
    """Generates :class:`AnalyticalQuery` workloads for one facet."""

    def __init__(self, facet: AnalyticalFacet, engine: QueryEngine,
                 config: WorkloadConfig | None = None) -> None:
        self._facet = facet
        self._config = config if config is not None else WorkloadConfig()
        self._rng = random.Random(self._config.seed)
        self._domains = dimension_values(facet, engine)
        self._samplers: dict[Variable, ZipfSampler] = {}
        for var, values in self._domains.items():
            if values:
                self._samplers[var] = ZipfSampler(
                    values, self._config.value_zipf, self._rng)

    @property
    def domains(self) -> dict[Variable, list[Term]]:
        return self._domains

    def generate(self, size: int | None = None) -> list[AnalyticalQuery]:
        """A deterministic workload of ``size`` queries."""
        n = self._config.size if size is None else size
        return [self._one_query(i) for i in range(n)]

    # -- internals -----------------------------------------------------------

    def _one_query(self, index: int) -> AnalyticalQuery:
        facet = self._facet
        config = self._config
        rng = self._rng

        if rng.random() < config.include_total_probability:
            mask = 0
        else:
            mask = 0
            for i in range(facet.dimension_count):
                if rng.random() < config.dimension_keep_probability:
                    mask |= 1 << i
            if mask == 0:
                # bias away from accidental totals: keep one random dim
                mask = 1 << rng.randrange(facet.dimension_count)

        filters: list[FilterCondition] = []
        if rng.random() < config.filter_probability:
            n_filters = rng.randint(1, max(config.max_filters, 1))
            candidates = [v for v in facet.grouping_variables
                          if self._domains.get(v)]
            rng.shuffle(candidates)
            for var in candidates[:n_filters]:
                condition = self._one_filter(var)
                if condition is not None:
                    filters.append(condition)

        return AnalyticalQuery(
            facet=facet,
            group_mask=mask,
            filters=tuple(filters),
            label=f"{facet.name}#q{index}",
        )

    def _one_filter(self, var: Variable) -> FilterCondition | None:
        rng = self._rng
        sampler = self._samplers.get(var)
        if sampler is None:
            return None
        value = sampler.sample()
        numeric = isinstance(value, Literal) and value.is_numeric
        if numeric and rng.random() < self._config.range_filter_probability:
            op = rng.choice(("<", "<=", ">", ">="))
            return FilterCondition(var, op, value)
        return FilterCondition(var, "=", value)
