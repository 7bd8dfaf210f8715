"""The inverted index: positional postings + document store.

A document has named *fields* (title, description, tags, uploader ...);
each field is analyzed separately and postings record (doc, field, term
frequency, positions).  Segments are immutable once built and can be
merged (Nutch/Lucene's segment model) and serialized to bytes for storage
in HDFS.

Query serving reads far more often than a re-crawl writes, so the index
owns the statistics derived from its contents -- document frequencies,
per-term scores, a forward index and executed results -- and builds each
lazily, once per *generation*.  Every mutator starts a new generation by
dropping all of them; code outside this class must mutate only through
those methods.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..common.errors import SearchError
from .analyzer import analyze


@dataclass(frozen=True)
class Posting:
    """One (document, field) occurrence list for a term."""

    doc_id: str
    field: str
    tf: int
    positions: tuple[int, ...]


@dataclass
class Document:
    """A document to index: id + text fields + opaque stored attributes."""

    doc_id: str
    fields: dict[str, str]
    stored: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise SearchError("document needs a non-empty id")
        if not self.fields:
            raise SearchError(f"document {self.doc_id}: no fields")


class InvertedIndex:
    """One index segment."""

    def __init__(self) -> None:
        self.postings: dict[str, list[Posting]] = {}
        self.docs: dict[str, Document] = {}
        self.field_lengths: dict[tuple[str, str], int] = {}  # (doc, field) -> tokens
        # derived statistics of the current generation, built lazily
        self._df: dict[str, int] = {}
        self._forward: dict[str, tuple[tuple[str, int], ...]] | None = None
        #: term -> partial scores per doc (scoring.score_term)
        self.score_cache: dict[str, dict[str, float]] = {}
        #: (query string, limit) -> ranked hits (query.execute)
        self.result_cache: dict[tuple[str, int], tuple] = {}

    def _invalidate(self) -> None:
        """Start a new generation: drop every derived statistic."""
        self._df.clear()
        self._forward = None
        self.score_cache.clear()
        self.result_cache.clear()

    # -- building ----------------------------------------------------------------

    def add(self, doc: Document) -> None:
        if doc.doc_id in self.docs:
            raise SearchError(f"duplicate document id {doc.doc_id}")
        self._invalidate()
        self.docs[doc.doc_id] = doc
        for fname, text in doc.fields.items():
            terms = analyze(text)
            self.field_lengths[(doc.doc_id, fname)] = len(terms)
            by_term: dict[str, list[int]] = {}
            for term, pos in terms:
                by_term.setdefault(term, []).append(pos)
            for term, positions in by_term.items():
                self.postings.setdefault(term, []).append(
                    Posting(doc.doc_id, fname, len(positions), tuple(positions))
                )

    def add_posting(self, term: str, posting: Posting) -> None:
        """Low-level insert used by the MapReduce index builder."""
        self._invalidate()
        self.postings.setdefault(term, []).append(posting)

    def register_doc(self, doc: Document, lengths: dict[str, int]) -> None:
        """Register a document without re-analyzing (MapReduce builder)."""
        self._invalidate()
        self.docs[doc.doc_id] = doc
        for fname, n in lengths.items():
            self.field_lengths[(doc.doc_id, fname)] = n

    def merge(self, other: "InvertedIndex") -> None:
        """Absorb *other* (used for segment merging)."""
        dup = self.docs.keys() & other.docs.keys()
        if dup:
            raise SearchError(f"merge would duplicate documents: {sorted(dup)[:3]}")
        self._invalidate()
        self.docs.update(other.docs)
        self.field_lengths.update(other.field_lengths)
        for term, posts in other.postings.items():
            self.postings.setdefault(term, []).extend(posts)

    def remove(self, doc_id: str) -> None:
        """Drop *doc_id* with its postings and field lengths."""
        if doc_id not in self.docs:
            raise SearchError(f"no document {doc_id!r}")
        self._invalidate()
        del self.docs[doc_id]
        for term in list(self.postings):
            kept = [p for p in self.postings[term] if p.doc_id != doc_id]
            if kept:
                self.postings[term] = kept
            else:
                del self.postings[term]
        for key in [k for k in self.field_lengths if k[0] == doc_id]:
            del self.field_lengths[key]

    def finalize(self) -> None:
        """Sort postings for deterministic scoring/iteration."""
        self._invalidate()
        for posts in self.postings.values():
            posts.sort(key=lambda p: (p.doc_id, p.field))

    # -- stats -----------------------------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    def doc_frequency(self, term: str) -> int:
        df = self._df.get(term)
        if df is None:
            df = self._df[term] = len({p.doc_id for p in self.postings.get(term, [])})
        return df

    def forward(self, doc_id: str) -> tuple[tuple[str, int], ...]:
        """*doc_id*'s ``(term, tf)`` pairs, one per posting, in postings order."""
        if self._forward is None:
            fwd: dict[str, list[tuple[str, int]]] = {}
            for term, posts in self.postings.items():
                for p in posts:
                    fwd.setdefault(p.doc_id, []).append((term, p.tf))
            self._forward = {d: tuple(pairs) for d, pairs in fwd.items()}
        return self._forward.get(doc_id, ())

    def terms(self) -> list[str]:
        return sorted(self.postings)

    # -- serialization (real bytes, goes into HDFS) -------------------------------------

    def to_bytes(self) -> bytes:
        payload = {
            "docs": {
                d.doc_id: {"fields": d.fields, "stored": d.stored}
                for d in self.docs.values()
            },
            "lengths": {f"{k[0]}\x00{k[1]}": v for k, v in self.field_lengths.items()},
            "postings": {
                term: [[p.doc_id, p.field, p.tf, list(p.positions)] for p in posts]
                for term, posts in self.postings.items()
            },
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "InvertedIndex":
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SearchError(f"corrupt index segment: {exc}") from exc
        idx = cls()
        for doc_id, d in payload["docs"].items():
            idx.docs[doc_id] = Document(doc_id, d["fields"], d["stored"])
        for key, v in payload["lengths"].items():
            doc_id, fname = key.split("\x00")
            idx.field_lengths[(doc_id, fname)] = v
        for term, posts in payload["postings"].items():
            idx.postings[term] = [
                Posting(doc_id, fname, tf, tuple(positions))
                for doc_id, fname, tf, positions in posts
            ]
        idx.finalize()
        return idx
