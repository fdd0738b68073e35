"""Persisting the expanded dataset: precompute offline, load later.

The offline module "precomputes and stores the results of analytical
queries offline to serve new incoming queries faster"; this module makes
the storing literal.  ``save_expanded`` writes one N-Quads file holding
the base graph and every materialized view graph, next to a JSON catalog
manifest (per-view statistics, staleness, and the facet's identity for
validation).  ``load_expanded`` reverses it against the same facet.

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
graph at save time; restored views stay stale until refreshed or
patched.  A view is stored once, as its checksummed named graph: a
loaded catalog scans each view's group index from that graph on first
use (:meth:`ViewCatalog.group_index`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from ..collector import collecting, pause, resume
from ..errors import CatalogCorruptError, ParseError, TermError, ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..resilience.failpoints import fail_at
from ..rdf.dataset import Dataset
from ..rdf.nquads import parse_nquad_line, serialize_graph_lines
from ..rdf.terms import IRI
from ..rdf.triples import Triple
from ..cube.facet import AnalyticalFacet
from ..cube.view import ViewDefinition
from .catalog import MaterializedView, ViewCatalog

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
            "build_seconds": entry.build_seconds,
            "maintain_seconds": entry.maintain_seconds,
            "maintain_count": entry.maintain_count,
            "stale": entry.base_version != current,
        })
    manifest = {
        "format": _FORMAT_VERSION,
        "facet": facet_name,
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

    The one parse of a saved dataset file: whatever survives intact is
    loaded and the rest is dropped.  A dropped line changes its graph's
    lines, so the per-graph checksums then decide which graphs to trust
    (and, on a strict load, name the views still salvageable).  Terms are
    interned in file order — the ids a line-by-line load would give —
    and each graph is filled by one bulk insert.
    """
    dataset = Dataset()
    encode = dataset.dictionary.encode
    rows: dict[IRI | None, list[tuple[int, int, int]]] = {}
    for line in text.split("\n"):
        try:
            quad = parse_nquad_line(line)
            if quad is None:
                continue
            Triple.validate(quad.s, quad.p, quad.o)
        except (ParseError, TermError):
            continue
        rows.setdefault(quad.graph, []).append(
            (encode(quad.s), encode(quad.p), encode(quad.o)))
    for name, ids in rows.items():
        dataset.graph(name).add_ids_bulk(ids)
    return dataset


def load_expanded(directory: str, facet: AnalyticalFacet, *,
                  recover: bool = False) -> tuple[Dataset, ViewCatalog]:
    """Load a saved expanded dataset back for the given facet.

    The manifest's facet name must match ``facet.name`` — loading a
    catalog against the wrong facet would silently route queries to
    incompatible encodings.  Views recorded stale at save time are
    restored stale (sentinel ``base_version = -1``); everything else
    aligns with the loaded graph's version.  Group indexes are scanned
    from the verified view graphs on first use
    (:meth:`ViewCatalog.group_index`).

    Manifests are checksum-verified per component graph.  On any
    mismatch the default is to raise :class:`CatalogCorruptError` listing
    the still-salvageable views; with ``recover=True`` the verified
    views load intact, failed ones are cleared and marked stale (a base
    mismatch marks *every* view stale), and the outcome is attached to
    the catalog as ``catalog.recovery`` (:class:`CatalogRecovery`).
    Malformed or truncated manifests raise :class:`CatalogCorruptError`
    naming the offending file in either mode.
    """
    owner = collecting() and pause()
    try:
        with _TRACER.span("persistence.load", directory=directory,
                          recover=recover) as sp:
            dataset, catalog = _load_expanded(directory, facet,
                                              recover=recover)
            sp.set_tags(views=len(catalog))
    finally:
        if owner:
            resume()
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
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogCorruptError(
            f"truncated catalog manifest {manifest_path}: bad view entry "
            f"({exc!r})", path=manifest_path) from exc
    if recover:
        catalog.recovery = CatalogRecovery(
            intact=tuple(intact), rebuilding=tuple(rebuilding),
            base_verified=base_verified)
    return dataset, catalog
