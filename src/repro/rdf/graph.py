"""An indexed in-memory triple store.

The store keeps three permutation indexes (SPO, POS, OSP) so that any triple
pattern with at least one ground position is answered by dictionary lookups
instead of a full scan.  This mirrors the behaviour of native RDF stores the
paper's federation queries against and gives the SPARQL wrapper realistic
access paths.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from .terms import IRI, PatternTerm, Term, Triple, Variable


def _match(term: PatternTerm | None, value: Term) -> bool:
    if term is None or isinstance(term, Variable):
        return True
    return term == value


class Graph:
    """A set of RDF triples with SPO/POS/OSP permutation indexes.

    The public pattern-matching entry point is :meth:`triples`; ``None`` or a
    :class:`~repro.rdf.terms.Variable` in a position acts as a wildcard.
    """

    def __init__(self, name: str = "default"):
        self.name = name
        #: Monotonic data-version counter, bumped whenever the triple set
        #: actually changes; the federation's caches key on it.
        self.version = 0
        # Triples and indexes are insertion-ordered dicts, not sets: scan
        # order must be process-independent (hash-set iteration depends on
        # PYTHONHASHSEED), or answer arrival order — and with it dief@t and
        # time-to-first-answer in the committed plan-quality baseline —
        # would change from one interpreter run to the next.
        self._triples: dict[Triple, None] = {}
        # index[s][p] -> ordered set of o, and the two rotations.
        self._spo: dict[Term, dict[IRI, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._pos: dict[IRI, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._osp: dict[Term, dict[Term, dict[IRI, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def add(self, triple: Triple) -> bool:
        """Add *triple*; returns True when it was not already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        s, p, o = triple.subject, triple.predicate, triple.object
        self._spo[s][p][o] = None
        self._pos[p][o][s] = None
        self._osp[o][s][p] = None
        self.version += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple from *triples*; returns the number newly added."""
        return sum(1 for triple in triples if self.add(triple))

    def remove(self, triple: Triple) -> bool:
        """Remove *triple*; returns True when it was present."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        s, p, o = triple.subject, triple.predicate, triple.object
        self._spo[s][p].pop(o, None)
        self._pos[p][o].pop(s, None)
        self._osp[o][s].pop(p, None)
        self.version += 1
        return True

    def triples(
        self,
        subject: PatternTerm | None = None,
        predicate: PatternTerm | None = None,
        object: PatternTerm | None = None,
    ) -> Iterator[Triple]:
        """Yield every triple matching the (possibly wildcard) pattern.

        The most selective available index is chosen from the ground
        positions; a fully unbound pattern iterates the whole store.
        """
        s = None if isinstance(subject, Variable) else subject
        p = None if isinstance(predicate, Variable) else predicate
        o = None if isinstance(object, Variable) else object

        if s is not None:
            by_predicate = self._spo.get(s)
            if not by_predicate:
                return
            predicates = [p] if p is not None else list(by_predicate)
            for pred in predicates:
                if not isinstance(pred, IRI):
                    continue
                for obj in by_predicate.get(pred, ()):
                    if _match(o, obj):
                        yield Triple(s, pred, obj)
            return
        if p is not None:
            if not isinstance(p, IRI):
                return
            by_object = self._pos.get(p)
            if not by_object:
                return
            objects = [o] if o is not None else list(by_object)
            for obj in objects:
                for subj in by_object.get(obj, ()):
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            by_subject = self._osp.get(o)
            if not by_subject:
                return
            for subj, preds in by_subject.items():
                for pred in preds:
                    yield Triple(subj, pred, o)
            return
        yield from list(self._triples)

    def count(
        self,
        subject: PatternTerm | None = None,
        predicate: PatternTerm | None = None,
        object: PatternTerm | None = None,
    ) -> int:
        """Count matches of a pattern without materializing triples.

        With the subject open and a ground predicate — the shapes BGP
        ordering asks about, once per pattern of every evaluation — the
        count is read off the POS bucket sizes.
        """
        if (subject is None or isinstance(subject, Variable)) and isinstance(predicate, IRI):
            by_object = self._pos.get(predicate)
            if not by_object:
                return 0
            if object is None or isinstance(object, Variable):
                return sum(map(len, by_object.values()))
            return len(by_object.get(object, ()))
        return sum(1 for __ in self.triples(subject, predicate, object))

    def subjects(self, predicate: IRI | None = None, object: Term | None = None) -> Iterator[Term]:
        """Yield distinct subjects of triples matching ``(?, predicate, object)``."""
        seen: set[Term] = set()
        for triple in self.triples(None, predicate, object):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def objects(self, subject: Term | None = None, predicate: IRI | None = None) -> Iterator[Term]:
        """Yield distinct objects of triples matching ``(subject, predicate, ?)``."""
        seen: set[Term] = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def predicates(self, subject: Term | None = None) -> Iterator[IRI]:
        """Yield distinct predicates, optionally restricted to one subject."""
        seen: set[IRI] = set()
        for triple in self.triples(subject, None, None):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def value(self, subject: Term, predicate: IRI) -> Term | None:
        """Return one object of ``(subject, predicate, ?)`` or None."""
        for triple in self.triples(subject, predicate, None):
            return triple.object
        return None
