"""Shared machinery for the synthetic dataset generators.

All generators are deterministic triple streams of their parameters plus
a seed, which :func:`load` bulk-loads into a fresh (or a caller-supplied)
:class:`~repro.rdf.graph.Graph`.  The Zipf sampler reproduces the skewed
value distributions real KGs exhibit — which is what makes the "triple
count is not a runtime proxy" demonstration interesting.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Sequence, TypeVar

from ..collector import collecting, pause, resume
from ..errors import DatasetError
from ..rdf.graph import Graph
from ..rdf.triples import Triple

__all__ = ["ZipfSampler", "check_positive", "load", "pick_count"]

T = TypeVar("T")


class ZipfSampler:
    """Samples items with Zipf(s) popularity, deterministic under a seed."""

    def __init__(self, items: Sequence[T], exponent: float = 1.0,
                 rng: random.Random | None = None) -> None:
        if not items:
            raise DatasetError("ZipfSampler needs a non-empty item list")
        if exponent < 0:
            raise DatasetError("Zipf exponent must be non-negative")
        self._items = list(items)
        self._rng = rng if rng is not None else random.Random(0)
        weights = [1.0 / (rank ** exponent)
                   for rank in range(1, len(self._items) + 1)]
        self._cumulative = list(accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self) -> T:
        point = self._rng.random() * self._total
        index = bisect_right(self._cumulative, point)
        if index >= len(self._items):  # guard fp edge
            index = len(self._items) - 1
        return self._items[index]

    def sample_distinct(self, n: int) -> list[T]:
        """Up to ``n`` distinct items, still popularity-biased."""
        n = min(n, len(self._items))
        chosen: list[T] = []
        seen: set[int] = set()
        attempts = 0
        while len(chosen) < n and attempts < 50 * n:
            item = self.sample()
            key = id(item) if not isinstance(item, (str, int, tuple)) \
                else hash(item)
            if key not in seen:
                seen.add(key)
                chosen.append(item)
            attempts += 1
        for item in self._items:  # deterministic fill when unlucky
            if len(chosen) >= n:
                break
            key = id(item) if not isinstance(item, (str, int, tuple)) \
                else hash(item)
            if key not in seen:
                seen.add(key)
                chosen.append(item)
        return chosen


def load(triples: Iterable[Triple], graph: Graph | None = None) -> Graph:
    """``graph`` (a fresh one when None) with a generator's ``triples``
    bulk-loaded (:meth:`Graph.update`), as one collector burst."""
    if graph is None:
        graph = Graph()
    owner = collecting() and pause()
    try:
        graph.update(triples)
    finally:
        if owner:
            resume()
    return graph


def check_positive(name: str, value: int) -> int:
    if value < 1:
        raise DatasetError(f"{name} must be >= 1, got {value}")
    return value


def pick_count(rng: random.Random, low: int, high: int) -> int:
    """Uniform integer in [low, high], validating the range."""
    if low > high or low < 0:
        raise DatasetError(f"invalid count range [{low}, {high}]")
    return rng.randint(low, high)
