"""Workload definitions: fixed op lists derived only from ``--seed``.

The program under test never sees a workload name: an op carries a kind, a
text (SPARQL or SQL), the delay-sampling seed and a tenant (which selects
the engine configuration in-process and is the service tenant over the
socket).

Two properties make the lists quiet as well as reproducible:

* frequencies are *apportioned*, not sampled — the hot set's Zipf(1.0)
  distribution and the per-template shares of the unique queries are
  realized exactly, and unique queries are consecutive slices of a fixed
  per-template universe, so no text repeats within a run;
* the passes of a run are one script repeated (the same kinds of op in the
  same slots; only the text-unique queries and the delay-sampling seeds
  differ from pass to pass), and every seed runs the same passes; the seed
  decides the order of the timed passes and nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Callable

from .stats import apportion

READ = "read"
SQL = "sql"
RDF_ADD = "rdf_add"
RDF_REMOVE = "rdf_remove"
DROP_INDEX = "drop_index"
CREATE_INDEX = "create_index"

#: The engine configuration every single-engine workload uses, as a tenant.
MAIN_TENANT = "aware/gamma2"
#: The service tenant of the socket workload (one closed-loop client).
SERVICE_TENANT = "bench"
#: Root of every read's delay-sampling seed (the repo's conventional run
#: seed); not the run seed, see ``Workload.build``.
DELAY_ROOT = 7

GRID_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5")
GRID_TENANTS = tuple(
    f"{policy}/{network}"
    for policy in ("aware", "unaware")
    for network in ("nodelay", "gamma1", "gamma2", "gamma3")
)
GRID_ROUNDS = 5

#: LIMIT variants that make a (template, constant) pair textually unique.
LIMITS = (None, 1, 2, 3, 5, 8, 13, 21)

#: 1-2-star point lookups: (name, body with a ``{c}`` constant slot, and
#: where the constants come from: (source, table, column), or the KEGG
#: predicate for the native RDF member).
TEMPLATES = (
    (
        "gene_symbol",
        'SELECT ?gene ?disease WHERE { ?gene a diseasome:Gene ; '
        'diseasome:geneSymbol "{c}" ; diseasome:associatedDisease ?disease . }',
        ("diseasome", "gene", "genesymbol"),
    ),
    (
        "gene_disease",
        'SELECT ?gene ?dname WHERE { ?gene a diseasome:Gene ; '
        'diseasome:geneSymbol "{c}" ; diseasome:associatedDisease ?disease . '
        "?disease a diseasome:Disease ; diseasome:diseaseName ?dname . }",
        ("diseasome", "gene", "genesymbol"),
    ),
    (
        "drug_name",
        'SELECT ?drug ?cat WHERE { ?drug a drugbank:Drug ; '
        'drugbank:drugName "{c}" ; drugbank:category ?cat . }',
        ("drugbank", "drug", "drugname"),
    ),
    (
        "trial_drug",
        'SELECT ?trial ?phase WHERE { ?trial a linkedct:Trial ; '
        'linkedct:interventionDrug "{c}" ; linkedct:phase ?phase . }',
        ("linkedct", "trial", "interventiondrug"),
    ),
    (
        "drug_trial",
        "SELECT ?drug ?trial WHERE { ?drug a drugbank:Drug ; "
        "drugbank:drugName ?name ; drugbank:category ?cat . "
        "?trial a linkedct:Trial ; linkedct:interventionDrug ?name ; "
        'linkedct:phase ?phase . FILTER(?name = "{c}") }',
        ("drugbank", "drug", "drugname"),
    ),
    (
        "compound",
        'SELECT ?c ?formula WHERE { ?c a kegg:Compound ; '
        'kegg:compoundName "{c}" ; kegg:formula ?formula . }',
        ("kegg", "compoundName"),
    ),
    (
        "expr_symbol",
        'SELECT ?expr ?value WHERE { ?expr a tcga:GeneExpression ; '
        'tcga:geneSymbol "{c}" ; tcga:expressionValue ?value . }',
        ("tcga", "geneexpression", "genesymbol"),
    ),
    (
        "entity_name",
        'SELECT ?e ?mass WHERE { ?e a chebi:ChemicalEntity ; '
        'chebi:chebiName "{c}" ; chebi:mass ?mass . }',
        ("chebi", "chemicalentity", "chebiname"),
    ),
    (
        "probe_symbol",
        'SELECT ?p ?species WHERE { ?p a affymetrix:Probeset ; '
        'affymetrix:symbol "{c}" ; affymetrix:scientificName ?species . }',
        ("affymetrix", "probeset", "symbol"),
    ),
    (
        "claim_drug",
        'SELECT ?claim ?cost WHERE { ?claim a medicare:Claim ; '
        'medicare:drugName "{c}" ; medicare:cost ?cost . }',
        ("medicare", "claim", "drugname"),
    ),
)

#: The first six templates, instantiated with their first constant, join
#: Q1-Q5 and Fig1 in the hot set.
HOT_TEMPLATES = 6

#: ``BENCHMARK_INDEXES`` entries whose absence flips a Heuristic-2 decision
#: of a hot-set query under aware/gamma2 (Q1, Q3 and Q5 respectively; no
#: single index drop flips a Heuristic-1 merge on this lake).
CHURN_INDEXES = (
    ("drugbank", "drug", "drugname"),
    ("tcga", "geneexpression", "genesymbol"),
    ("tcga", "patient", "ageatdiagnosis"),
)

#: Primary key of every sentinel row; far above any generated id.
SENTINEL_ID = 900_000_001
SENTINEL_TRIPLE = (
    "http://lslod.repro/kegg/resource/Perfbench/sentinel",
    "http://lslod.repro/kegg/vocab#perfbenchMarker",
    "sentinel",
)


@dataclass(frozen=True)
class Op:
    """One operation handed to the program."""

    kind: str
    text: str
    seed: int
    tenant: str
    #: Refresh writes are executed but never measured.
    timed: bool = True
    #: Non-textual payload (triple terms, index coordinates).
    args: tuple = ()


@dataclass(frozen=True)
class Constants:
    """What op generation needs from the lake; independent of ``--seed``."""

    prefixes: str
    named: dict  # benchmark name -> SPARQL text
    values: dict  # template name -> sorted distinct constants
    sentinel_tables: tuple  # (source, table) per relational member


def harvest(lake) -> Constants:
    """Collect template constants and sentinel targets through the lake's
    public query interfaces."""
    from repro.datasets import BENCHMARK_QUERIES
    from repro.datasets.queries import PREFIXES
    from repro.rdf.terms import IRI

    values = {}
    for name, __, origin in TEMPLATES:
        if origin[0] == "kegg":
            graph = lake.source("kegg").graph
            predicate = IRI(f"http://lslod.repro/kegg/vocab#{origin[1]}")
            found = {t.object.lexical for t in graph.triples(None, predicate, None)}
        else:
            source, table, column = origin
            rows = lake.source(source).database.query(
                f"SELECT {column} FROM {table}"
            )
            found = {row[0] for row in rows if row[0] is not None}
        values[name] = tuple(sorted(found))
    sentinel_tables = tuple(
        (source.source_id, source.database.table_names[0])
        for source in lake.relational_sources()
    )
    return Constants(
        prefixes=PREFIXES,
        named={name: query.text for name, query in BENCHMARK_QUERIES.items()},
        values=values,
        sentinel_tables=sentinel_tables,
    )


def rng(*parts) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in parts))


def derive_seed(root: int, *parts) -> int:
    """A delay-sampling seed for one execution, derived from *root*."""
    return rng(root, "delay", *parts).getrandbits(31)


def _template_text(constants: Constants, body: str, value: str, limit) -> str:
    text = constants.prefixes + body.replace("{c}", value)
    return text if limit is None else f"{text} LIMIT {limit}"


def hot_set(constants: Constants) -> list[str]:
    """The 12 hot texts in Zipf rank order."""
    texts = [constants.named[name] for name in (*GRID_QUERIES, "Fig1")]
    for name, body, __ in TEMPLATES[:HOT_TEMPLATES]:
        texts.append(_template_text(constants, body, constants.values[name][0], None))
    return texts


def _hot_reads(constants: Constants, count: int, tenant: str = MAIN_TENANT) -> list[Op]:
    """*count* reads over the hot set in exact Zipf(1.0) shares."""
    texts = hot_set(constants)
    shares = apportion([1.0 / rank for rank in range(1, len(texts) + 1)], count)
    return [
        Op(READ, text, 0, tenant)
        for text, share in zip(texts, shares)
        for __ in range(share)
    ]


def _unique_reads(
    constants: Constants, index: int, per_template: int, tenant: str
) -> list[Op]:
    """*per_template* text-unique reads of every template: slice *index* of
    each template's (constant x LIMIT) universe in a fixed shuffled order,
    so no text is used twice in a run."""
    ops = []
    for name, body, __ in TEMPLATES:
        # The hot set owns each template's first constant.
        universe = [
            (value, limit)
            for value in constants.values[name][1:]
            for limit in LIMITS
        ]
        stop = (index + 1) * per_template
        if stop > len(universe):
            raise ValueError(
                f"template {name!r} has {len(universe)} unique texts, pass "
                f"{index} needs {stop}: fewer passes or a larger lake"
            )
        rng("universe", name).shuffle(universe)
        ops.extend(
            Op(READ, _template_text(constants, body, value, limit), 0, tenant)
            for value, limit in universe[stop - per_template : stop]
        )
    return ops


def _sentinel_insert(source: str, table: str, timed: bool = True) -> Op:
    # Only the key is set: every other column stays NULL, so no star
    # pattern of any query can match the row while it exists.
    return Op(SQL, f"INSERT INTO {table} (id) VALUES ({SENTINEL_ID})", 0, source, timed)


def _sentinel_delete(source: str, table: str, timed: bool = True) -> Op:
    return Op(SQL, f"DELETE FROM {table} WHERE id = {SENTINEL_ID}", 0, source, timed)


def refresh_ops(constants: Constants) -> list[Op]:
    """A net-zero data refresh: insert and delete a sentinel row in one
    table of every relational member, add and remove a sentinel triple in
    KEGG.  Every member's data version moves, so version-keyed caches and
    module memos over the old versions stop matching."""
    ops = []
    for source, table in constants.sentinel_tables:
        ops.append(_sentinel_insert(source, table, timed=False))
        ops.append(_sentinel_delete(source, table, timed=False))
    ops.append(Op(RDF_ADD, "", 0, "kegg", False, SENTINEL_TRIPLE))
    ops.append(Op(RDF_REMOVE, "", 0, "kegg", False, SENTINEL_TRIPLE))
    return ops


# -- the five workloads -------------------------------------------------------
# A workload is a function from (constants, script index) to one pass's op
# list.  What a pass costs depends on the order of its ops (which cell finds
# a module memo warm, which read meets a dropped index), and the median over
# passes is only the median of one measurement repeated if the passes are
# alike.  So a script depends neither on the run seed nor, in its order, on
# its index: the index only selects the slice of text-unique queries, which
# go into the same slots in every pass -- see ``build``.


def grid_refresh(constants: Constants, index: int) -> list[Op]:
    ops: list[Op] = []
    for round_index in range(GRID_ROUNDS):
        ops.extend(refresh_ops(constants))
        cells = [
            Op(READ, constants.named[query], 0, tenant)
            for query in GRID_QUERIES
            for tenant in GRID_TENANTS
        ]
        rng("grid", round_index).shuffle(cells)
        ops.extend(cells)
    return ops


def adhoc_unique(constants: Constants, index: int, per_template: int = 100) -> list[Op]:
    ops = _unique_reads(constants, index, per_template, MAIN_TENANT)
    rng("adhoc").shuffle(ops)
    return ops


def hot_repeat(constants: Constants, index: int, count: int = 400) -> list[Op]:
    ops = _hot_reads(constants, count)
    rng("hot").shuffle(ops)
    return ops


def design_churn(
    constants: Constants,
    index: int,
    reads: int = 226,
    write_pairs: int = 30,
    ddl_pairs: int = 7,
) -> list[Op]:
    """75 % hot reads, 20 % data writes, 5 % index DDL; net-zero.

    Every write or DDL op comes as a pair (insert/delete, add/remove,
    drop/create) whose halves keep their order, and no two open pairs share
    a target, so each statement is valid whatever the shuffle."""
    targets = [*constants.sentinel_tables, ("kegg", None)]
    pairs: list[tuple[tuple, Op, Op]] = []
    for pair_index in range(write_pairs):
        source, table = targets[pair_index % len(targets)]
        if table is None:
            pairs.append(
                (
                    (source, table),
                    Op(RDF_ADD, "", 0, source, True, SENTINEL_TRIPLE),
                    Op(RDF_REMOVE, "", 0, source, True, SENTINEL_TRIPLE),
                )
            )
        else:
            pairs.append(
                (
                    (source, table),
                    _sentinel_insert(source, table),
                    _sentinel_delete(source, table),
                )
            )
    for pair_index in range(ddl_pairs):
        source, table, column = CHURN_INDEXES[pair_index % len(CHURN_INDEXES)]
        pairs.append(
            (
                (source, table, column),
                Op(DROP_INDEX, "", 0, source, True, (table, f"ix_{table}_{column}")),
                Op(CREATE_INDEX, "", 0, source, True, (table, column)),
            )
        )
    order = rng("churn")
    slots: list = _hot_reads(constants, reads)
    slots.extend(None for __ in range(2 * len(pairs)))
    order.shuffle(slots)
    order.shuffle(pairs)
    # Fill the empty slots left to right: open a waiting pair whose target
    # is free, or close the oldest open pair.
    open_pairs: list[tuple[tuple, Op, Op]] = []
    for position, slot in enumerate(slots):
        if slot is not None:
            continue
        busy = {target for target, __, __ in open_pairs}
        startable = [pair for pair in pairs if pair[0] not in busy]
        if startable and (not open_pairs or order.random() < 0.5):
            pairs.remove(startable[0])
            open_pairs.append(startable[0])
            slots[position] = startable[0][1]
        else:
            slots[position] = open_pairs.pop(0)[2]
    assert not pairs and not open_pairs, "design_churn pass is not net-zero"
    return slots


def serve_socket(
    constants: Constants, index: int, hot: int = 240, per_template: int = 6
) -> list[Op]:
    """80 % hot set (result-cache hits once warm), 20 % unique misses.

    The service's result cache keys on (text, seed), so a hot request is
    the same (text, seed) pair wherever it stands; ``build`` seeds the
    misses."""
    rank = {text: position for position, text in enumerate(hot_set(constants))}
    ops = [
        replace(op, seed=derive_seed(DELAY_ROOT, "hot", rank[op.text]))
        for op in _hot_reads(constants, hot, SERVICE_TENANT)
    ]
    ops.extend(_unique_reads(constants, index, per_template, SERVICE_TENANT))
    rng("serve").shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    script: Callable[[Constants, int], list[Op]]
    #: Timed passes when the run measures for the contract's ``run_seconds``.
    passes: int
    #: Engine configurations (tenants) the in-process system must hold.
    tenants: tuple = (MAIN_TENANT,)
    #: Driven over a real socket against a ``repro serve`` child.
    socket: bool = False

    def build(self, constants: Constants, seed: int, passes: int) -> list[list[Op]]:
        """The run's op lists: the warm-up (script 0) and *passes* timed
        lists (scripts 1..passes, in the order the seed decides).

        The order of the timed passes is all the seed decides.  A read's
        delay-sampling seed is fixed by its script and position, so every
        seed executes the same (text, delay seed) pairs and the run's mean
        virtual time is the same number whatever the seed.  Each read still
        gets a seed of its own: an execution draws its network delays from
        the head of the stream its seed selects, so reads sharing one seed
        would all see the same few delays.  Answers do not depend on the
        delay seed under the sequential runtime.
        """
        warm_up, *timed = [
            [
                replace(op, seed=derive_seed(DELAY_ROOT, index, position))
                if op.kind == READ and not op.seed
                else op
                for position, op in enumerate(self.script(constants, index))
            ]
            for index in range(passes + 1)
        ]
        rng(seed, "passes").shuffle(timed)
        return [warm_up, *timed]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "grid_refresh",
            "paper grid Q1-Q5 x 8 engines after a data refresh: execution-dominated, memos and caches miss",
            grid_refresh,
            passes=9,
            tenants=GRID_TENANTS,
        ),
        Workload(
            "adhoc_unique",
            "1000 text-unique point lookups per pass: parse and planning dominate, plan cache only evicts",
            adhoc_unique,
            passes=11,
        ),
        Workload(
            "hot_repeat",
            "Zipf over a 12-text hot set: plan-cache hits and sub-result replay, no parse or relational work",
            hot_repeat,
            passes=15,
        ),
        Workload(
            "design_churn",
            "hot reads mixed with data writes and index DDL: invalidation, re-planning, index maintenance",
            design_churn,
            passes=9,
        ),
        Workload(
            "serve_socket",
            "real TCP against a repro serve child, 80% result-cache hits: HTTP, admission, hand-off, serialization",
            serve_socket,
            passes=12,
            socket=True,
        ),
    )
}


def dump_ops(ops: list[Op]) -> bytes:
    """Canonical byte form of an op list (self-tests compare these)."""
    return "\n".join(
        json.dumps(
            [op.kind, op.text, op.seed, op.tenant, op.timed, list(map(str, op.args))],
            sort_keys=True,
        )
        for op in ops
    ).encode()
