"""Persisting the expanded dataset: precompute offline, load later.

The offline module "precomputes and stores the results of analytical
queries offline to serve new incoming queries faster"; this module makes
the storing literal.  ``save_expanded`` writes one N-Quads file holding
the base graph and every materialized view graph, next to a JSON catalog
manifest (per-view statistics, staleness, the per-view group index, and
the facet's identity for validation).  ``load_expanded`` reverses it
against the same facet.

The save is crash-safe: both files are written
temp-then-fsync-then-atomic-rename, and the manifest (``"format": 3``,
the only format read or written) records a SHA-256 checksum of the whole
dataset file plus one per component graph (base and each view).
``load_expanded`` verifies the per-graph checksums and raises
:class:`~repro.errors.CatalogCorruptError` naming the views that are
still salvageable; ``recover=True`` loads the intact views and marks the
rest stale-for-rebuild instead of failing.  A manifest of any other
format is rejected outright, so no field of it can switch the
verification off.

Per view the manifest records whether it was stale relative to the base
graph at save time (restored views stay stale until refreshed or
patched) plus the view's group index — group-key terms, blank-node
label, and running count/value — which the loaded catalog owns again
(:meth:`ViewCatalog.group_index`), so loaded views patch without a scan
of their graphs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

from ..errors import CatalogCorruptError, ParseError, TermError, ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..resilience.failpoints import fail_at
from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from ..rdf.nquads import iter_nquads, parse_nquads, serialize_graph_lines
from ..rdf.ntriples import parse_term
from ..cube.facet import AnalyticalFacet
from ..cube.view import ViewDefinition
from ..sparql.grouptable import KIND_BY_AGGREGATE
from .catalog import MaterializedView, ViewCatalog
from .materializer import GroupIndex, stored_literal

__all__ = ["save_expanded", "load_expanded", "CatalogRecovery",
           "DATASET_FILE", "MANIFEST_FILE"]

DATASET_FILE = "expanded.nq"
MANIFEST_FILE = "catalog.json"
_FORMAT_VERSION = 3
_SUPPORTED_FORMATS = (3,)

_LOG = get_logger("views.persistence")
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_SAVES = _REG.counter(
    "persistence_saves_total", "expanded-dataset save operations completed")
_LOADS = _REG.counter(
    "persistence_loads_total", "expanded-dataset load operations completed")


@dataclass(frozen=True)
class CatalogRecovery:
    """What ``load_expanded(recover=True)`` managed to salvage.

    Attached to the returned catalog as ``catalog.recovery``.  ``intact``
    holds labels of views restored verified; ``rebuilding`` those whose
    graphs failed verification (cleared and marked stale for the next
    refresh); ``base_verified`` says whether the base graph matched its
    recorded checksum (when it did not, every view is queued to rebuild).
    """

    intact: tuple[str, ...] = ()
    rebuilding: tuple[str, ...] = ()
    base_verified: bool = True


def _checksum(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _graph_lines(dataset: Dataset) -> dict[str, list[str]]:
    """Sorted N-Quads lines per graph, with empty graphs present too."""
    by_graph = serialize_graph_lines(dataset)
    by_graph.setdefault("", [])
    for name in dataset.names():
        by_graph.setdefault(name.value, [])
    return by_graph


def _atomic_write(path: str, text: str, failpoint_name: str) -> None:
    """Write-temp + fsync + atomic rename, so readers never see a torn file.

    A crash before the rename leaves the previous file untouched (the
    orphaned ``.tmp`` is overwritten by the next save); a crash after it
    leaves the new content fully in place.  There is no in-between.
    """
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    fail_at(failpoint_name)
    os.replace(tmp_path, path)
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _serialize_group_index(entry: MaterializedView, catalog: ViewCatalog
                           ) -> Optional[dict]:
    """The group index of one view as JSON-safe n3 terms, or None."""
    view = entry.definition
    try:
        index = catalog.group_index(view)
    except ViewError:
        return None
    decode = catalog.dataset.dictionary.decode
    return {"kind": index.kind, "groups": [{
        "node": decode(state.node_id).n3(),
        "key": [None if tid is None else decode(tid).n3() for tid in key],
        "count": state.count,
        "value": decode(state.value_id).n3(),
    } for key, state in index.groups.items()]}


def _restore_group_index(payload: dict, view: ViewDefinition,
                         graph: Graph) -> Optional[GroupIndex]:
    """Rebuild a :class:`GroupIndex` from its manifest payload.

    Returns None when anything fails to resolve against the loaded
    dictionary — the catalog then simply re-scans the view graph.
    """
    kind = payload.get("kind")
    if kind != KIND_BY_AGGREGATE[view.facet.aggregate.name]:
        return None
    dictionary = graph.dictionary

    def resolve(term) -> int:
        tid = dictionary.lookup(term)
        if tid is None:
            raise KeyError(term)
        return tid

    index = GroupIndex(kind)
    try:
        for item in payload.get("groups", ()):
            index.insert(
                tuple(None if text is None else resolve(parse_term(text))
                      for text in item["key"]),
                resolve(parse_term(item["node"])),
                resolve(stored_literal(int(item["count"]))),
                resolve(parse_term(item["value"])),
                dictionary.decode)
    except (KeyError, ParseError, TermError, TypeError, ValueError,
            ViewError):
        return None
    return index


def save_expanded(catalog: ViewCatalog, directory: str) -> None:
    """Write the expanded dataset and catalog manifest into ``directory``.

    Both files land via temp-write + fsync + atomic rename; the manifest
    carries per-graph SHA-256 checksums of the dataset it describes, so a
    crash between the two renames (new dataset, old manifest) is
    detectable on load rather than silently mixing generations.
    """
    with _TRACER.span("persistence.save", directory=directory) as sp:
        _save_expanded(catalog, directory)
        sp.set_tags(views=len(catalog))
    _SAVES.inc()
    _LOG.info("saved expanded dataset (%d views) to %s", len(catalog),
              directory)


def _save_expanded(catalog: ViewCatalog, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    by_graph = _graph_lines(catalog.dataset)
    all_lines = sorted(line for lines in by_graph.values() for line in lines)
    dataset_text = "\n".join(all_lines) + ("\n" if all_lines else "")
    _atomic_write(os.path.join(directory, DATASET_FILE), dataset_text,
                  "persistence.save.dataset_tmp")
    fail_at("persistence.save.between_files")

    current = catalog.base_version
    entries = []
    facet_name = None
    for entry in catalog:
        facet_name = entry.definition.facet.name
        entries.append({
            "mask": entry.mask,
            "label": entry.label,
            "groups": entry.groups,
            "triples": entry.triples,
            "nodes": catalog.node_count(entry.definition),
            "build_seconds": entry.build_seconds,
            "maintain_seconds": entry.maintain_seconds,
            "maintain_count": entry.maintain_count,
            "base_version": entry.base_version,
            "stale": entry.base_version != current,
            "group_index": _serialize_group_index(entry, catalog),
        })
    manifest = {
        "format": _FORMAT_VERSION,
        "facet": facet_name,
        "base_triples": len(catalog.dataset.default),
        "checksums": {
            "dataset": hashlib.sha256(
                dataset_text.encode("utf-8")).hexdigest(),
            "graphs": {key: _checksum(lines)
                       for key, lines in by_graph.items()},
        },
        "views": entries,
    }
    _atomic_write(os.path.join(directory, MANIFEST_FILE),
                  json.dumps(manifest, indent=2, sort_keys=True),
                  "persistence.save.manifest_tmp")


def _parse_dataset_lenient(text: str) -> Dataset:
    """Parse N-Quads line by line, skipping unparseable lines.

    The recovery path for a torn dataset file: whatever survives intact
    is loaded (checksum verification then decides which graphs to
    trust), the rest is dropped.
    """
    dataset = Dataset()
    for line in text.split("\n"):
        try:
            for quad in iter_nquads([line]):
                dataset.add_quad(quad)
        except (ParseError, TermError):
            continue
    return dataset


def load_expanded(directory: str, facet: AnalyticalFacet, *,
                  recover: bool = False) -> tuple[Dataset, ViewCatalog]:
    """Load a saved expanded dataset back for the given facet.

    The manifest's facet name must match ``facet.name`` — loading a
    catalog against the wrong facet would silently route queries to
    incompatible encodings.  Views recorded stale at save time are
    restored stale (sentinel ``base_version = -1``); everything else
    aligns with the loaded graph's version.  Restored group indexes go
    back to the catalog that owns them (:meth:`ViewCatalog.group_index`).

    Manifests are checksum-verified per component graph.  On any
    mismatch the default is to raise :class:`CatalogCorruptError` listing
    the still-salvageable views; with ``recover=True`` the verified
    views load intact, failed ones are cleared and marked stale (a base
    mismatch marks *every* view stale), and the outcome is attached to
    the catalog as ``catalog.recovery`` (:class:`CatalogRecovery`).
    Malformed or truncated manifests raise :class:`CatalogCorruptError`
    naming the offending file in either mode.
    """
    with _TRACER.span("persistence.load", directory=directory,
                      recover=recover) as sp:
        dataset, catalog = _load_expanded(directory, facet, recover=recover)
        sp.set_tags(views=len(catalog))
    _LOADS.inc()
    recovery = getattr(catalog, "recovery", None)
    if recovery is not None and (recovery.rebuilding
                                 or not recovery.base_verified):
        _LOG.warning(
            "recovered expanded dataset from %s: %d intact, %d rebuilding, "
            "base %sverified", directory, len(recovery.intact),
            len(recovery.rebuilding), "" if recovery.base_verified else "un")
    else:
        _LOG.info("loaded expanded dataset (%d views) from %s",
                  len(catalog), directory)
    return dataset, catalog


def _load_expanded(directory: str, facet: AnalyticalFacet, *,
                   recover: bool = False) -> tuple[Dataset, ViewCatalog]:
    fail_at("persistence.load")
    manifest_path = os.path.join(directory, MANIFEST_FILE)
    dataset_path = os.path.join(directory, DATASET_FILE)
    if not os.path.exists(manifest_path) or not os.path.exists(dataset_path):
        raise ViewError(f"{directory!r} does not contain a saved expanded "
                        f"dataset ({DATASET_FILE} + {MANIFEST_FILE})")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CatalogCorruptError(
            f"malformed catalog manifest {manifest_path}: {exc}",
            path=manifest_path) from exc
    if not isinstance(manifest, dict):
        raise CatalogCorruptError(
            f"malformed catalog manifest {manifest_path}: expected a JSON "
            f"object, got {type(manifest).__name__}", path=manifest_path)
    fmt = manifest.get("format")
    if fmt not in _SUPPORTED_FORMATS:
        raise ViewError(f"unsupported catalog format {fmt!r}")
    saved_facet = manifest.get("facet")
    if saved_facet is not None and saved_facet != facet.name:
        raise ViewError(
            f"saved catalog belongs to facet {saved_facet!r}, not "
            f"{facet.name!r}")
    view_items = manifest.get("views")
    if not isinstance(view_items, list):
        raise CatalogCorruptError(
            f"truncated catalog manifest {manifest_path}: no view table",
            path=manifest_path)

    with open(dataset_path, encoding="utf-8") as handle:
        dataset_text = handle.read()
    try:
        dataset = parse_nquads(dataset_text)
    except (ParseError, TermError) as exc:
        if not recover:
            raise CatalogCorruptError(
                f"corrupt dataset file {dataset_path}: {exc}",
                path=dataset_path) from exc
        dataset = _parse_dataset_lenient(dataset_text)

    # -- checksum verification ----------------------------------------------
    recorded = manifest.get("checksums")
    graph_sums = recorded.get("graphs") if isinstance(recorded, dict) \
        else None
    if not isinstance(graph_sums, dict):
        raise CatalogCorruptError(
            f"truncated catalog manifest {manifest_path}: no checksum "
            "table", path=manifest_path)
    actual = _graph_lines(dataset)
    mismatched: set[str] = set()
    for key in set(graph_sums) | set(actual):
        if graph_sums.get(key) != _checksum(actual.get(key, [])):
            mismatched.add(key)
    base_verified = "" not in mismatched

    def _definition(item) -> ViewDefinition:
        return ViewDefinition(facet, int(item["mask"]))

    if mismatched and not recover:
        salvageable: list[str] = []
        if base_verified:
            try:
                for item in view_items:
                    definition = _definition(item)
                    if definition.iri.value not in mismatched:
                        salvageable.append(definition.label)
            except (KeyError, TypeError, ValueError):
                salvageable = []
        raise CatalogCorruptError(
            f"checksum mismatch in {dataset_path} for "
            f"{len(mismatched)} graph(s); salvageable views: "
            f"{', '.join(salvageable) if salvageable else 'none'}",
            path=dataset_path, salvageable=tuple(salvageable))

    catalog = ViewCatalog(dataset)
    # Loaded graphs are snapshots: fresh-at-save entries align with the
    # loaded base graph's version; stale-at-save entries keep a sentinel
    # version so they still register stale.
    version = dataset.default.version
    intact: list[str] = []
    rebuilding: list[str] = []
    try:
        for item in view_items:
            definition = _definition(item)
            graph = dataset.get_graph(definition.iri)
            failed = not base_verified \
                or definition.iri.value in mismatched \
                or graph is None
            if graph is None:
                if not recover:
                    raise ViewError(
                        f"manifest lists view {item['label']!r} but the "
                        "dataset file has no graph named "
                        + definition.iri.value)
                graph = dataset.graph(definition.iri)
            if failed and recover:
                # Content is untrusted: drop it and queue a rebuild.
                graph.clear()
                rebuilding.append(definition.label)
            elif recover:
                intact.append(definition.label)
            stale = failed or bool(item.get("stale", False))
            entry = MaterializedView(
                definition=definition,
                groups=int(item["groups"]),
                triples=int(item["triples"]),
                build_seconds=float(item["build_seconds"]),
                base_version=-1 if stale else version,
                maintain_seconds=float(item.get("maintain_seconds", 0.0)),
                maintain_count=int(item.get("maintain_count", 0)),
            )
            catalog._entries[definition.mask] = entry
            index_payload = item.get("group_index")
            if not failed and index_payload is not None:
                index = _restore_group_index(index_payload, definition, graph)
                if index is not None:
                    catalog._group_indexes[definition.mask] = index
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogCorruptError(
            f"truncated catalog manifest {manifest_path}: bad view entry "
            f"({exc!r})", path=manifest_path) from exc
    if recover:
        catalog.recovery = CatalogRecovery(
            intact=tuple(intact), rebuilding=tuple(rebuilding),
            base_verified=base_verified)
    return dataset, catalog
