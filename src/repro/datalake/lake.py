"""The Semantic Data Lake: heterogeneous sources plus their descriptions.

A lake keeps every data set in its original data model (relational databases
and native RDF graphs here), annotated with semantics: RDF molecule
templates for source selection plus, for relational members, R2RML-style
mappings and the physical-design catalog the paper's heuristics consult.
"""

from __future__ import annotations

from typing import Iterator

from ..core.catalog import PhysicalDesignCatalog
from ..exceptions import CatalogError
from ..federation.endpoints import DataSource, RDFSource, RelationalSource
from ..mapping.normalizer import normalize_graph
from ..mapping.rml import SourceMapping
from ..rdf.graph import Graph
from ..rdf.molecules import MoleculeCatalog
from ..relational.database import Database


class SemanticDataLake:
    """A collection of heterogeneous, semantically annotated data sources."""

    def __init__(self, name: str = "lake"):
        self.name = name
        self._sources: dict[str, DataSource] = {}
        self._molecules: MoleculeCatalog | None = None
        self.physical_catalog = PhysicalDesignCatalog()
        #: Bumped whenever a heuristic planner input changes: the member
        #: set, the physical catalog (index DDL) or the molecule templates.
        #: Data writes leave it alone, since plans never read row data.
        self.design_version = 0

    def _design_changed(self) -> None:
        self._molecules = None
        self.design_version += 1

    # -- registration -----------------------------------------------------------

    def add_relational_source(
        self, source_id: str, database: Database, mapping: SourceMapping
    ) -> RelationalSource:
        """Register a relational member (one 'MySQL container')."""
        if source_id in self._sources:
            raise CatalogError(f"source {source_id!r} already registered")
        source = RelationalSource(source_id=source_id, database=database, mapping=mapping)
        self._sources[source_id] = source
        self.physical_catalog.register_database(source_id, database)
        self._design_changed()
        return source

    def add_rdf_source(self, source_id: str, graph: Graph) -> RDFSource:
        """Register a native RDF member."""
        if source_id in self._sources:
            raise CatalogError(f"source {source_id!r} already registered")
        source = RDFSource(source_id=source_id, graph=graph)
        self._sources[source_id] = source
        self._design_changed()
        return source

    def add_graph_as_relational(self, source_id: str, graph: Graph) -> RelationalSource:
        """Normalize an RDF graph to 3NF and register the result.

        This reproduces the paper's data preparation: RDF data sets are
        transformed into relational tables, normalized to 3NF, and loaded
        into a dedicated database with primary-key indexes.
        """
        database, mapping, __ = normalize_graph(source_id, graph)
        return self.add_relational_source(source_id, database, mapping)

    # -- catalog access --------------------------------------------------------

    def source(self, source_id: str) -> DataSource:
        if source_id not in self._sources:
            raise CatalogError(f"no source {source_id!r} in lake {self.name!r}")
        return self._sources[source_id]

    @property
    def source_ids(self) -> list[str]:
        return sorted(self._sources)

    def sources(self) -> Iterator[DataSource]:
        for source_id in self.source_ids:
            yield self._sources[source_id]

    def relational_sources(self) -> Iterator[RelationalSource]:
        for source in self.sources():
            if isinstance(source, RelationalSource):
                yield source

    def rdf_sources(self) -> Iterator[RDFSource]:
        for source in self.sources():
            if isinstance(source, RDFSource):
                yield source

    @property
    def molecules(self) -> MoleculeCatalog:
        """The union of every source's RDF molecule templates (lazy)."""
        if self._molecules is None:
            catalog = MoleculeCatalog()
            for source in self.sources():
                catalog.add_all(source.molecule_templates())
            self._molecules = catalog
        return self._molecules

    def catalog_version(self) -> tuple:
        """The lake-wide data/physical-design version vector.

        One ``(source_id, version)`` pair per member, where the version is
        the relational :attr:`~repro.relational.database.Database.data_version`
        or the RDF :attr:`~repro.rdf.graph.Graph.version`.  Any INSERT,
        DELETE, CREATE INDEX or DROP INDEX on any member changes the
        vector.  Heuristic plans are keyed on :attr:`design_version`
        instead; cost-based plans, whose statistics read the rows, and the
        oracle's and the service's answer caches key on this vector.
        """
        parts = []
        for source_id in self.source_ids:
            source = self._sources[source_id]
            if isinstance(source, RelationalSource):
                parts.append((source_id, source.database.data_version))
            else:
                assert isinstance(source, RDFSource)
                parts.append((source_id, source.graph.version))
        return tuple(parts)

    def invalidate_descriptions(self) -> None:
        """Drop cached molecule templates (after data changes)."""
        self._design_changed()
        for source in self.rdf_sources():
            source._molecules = None

    def create_index(self, source_id: str, table: str, columns: list[str], **kwargs) -> None:
        """Create an index on a relational member and refresh the catalog."""
        source = self.source(source_id)
        if not isinstance(source, RelationalSource):
            raise CatalogError(f"source {source_id!r} is not relational")
        source.database.create_index(table, columns, **kwargs)
        self.physical_catalog.refresh(source_id, source.database)
        self._design_changed()

    def drop_index(self, source_id: str, table: str, index_name: str) -> None:
        source = self.source(source_id)
        if not isinstance(source, RelationalSource):
            raise CatalogError(f"source {source_id!r} is not relational")
        source.database.drop_index(table, index_name)
        self.physical_catalog.refresh(source_id, source.database)
        self._design_changed()

    def describe(self) -> str:
        lines = [f"SemanticDataLake {self.name!r}: {len(self._sources)} sources"]
        for source in self.sources():
            lines.append(f"  {source.source_id} [{source.kind}]")
        return "\n".join(lines)
