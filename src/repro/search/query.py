"""Query parsing and execution.

Supports the syntax the portal's search box needs:

* bare terms            -- OR semantics with coord() reward (Lucene default)
* ``"quoted phrases"``  -- positional match within a single field
* ``field:term``        -- restrict a term to one field
* ``+term``             -- required term (MUST)
* ``-term``             -- excluded term (MUST_NOT)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..common.errors import SearchError
from .analyzer import analyze_terms
from .index import InvertedIndex
from .scoring import combine, coordination_factor, score_term

#: bound on an index's executed-result cache: a full cache is emptied
RESULT_CACHE_MAX = 1024

_CLAUSE = re.compile(r'(?P<req>[+-])?(?:(?P<field>\w+):)?(?:"(?P<phrase>[^"]*)"|(?P<term>\S+))')


@dataclass
class Clause:
    terms: list[str]
    phrase: bool = False
    field_name: str | None = None
    required: bool = False
    prohibited: bool = False


@dataclass
class ParsedQuery:
    clauses: list[Clause] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.clauses


def parse_query(text: str) -> ParsedQuery:
    """Parse the search-box string into clauses."""
    if text is None:
        raise SearchError("query is None")
    q = ParsedQuery()
    for m in _CLAUSE.finditer(text.strip()):
        raw = m.group("phrase") if m.group("phrase") is not None else m.group("term")
        if raw is None:
            continue
        terms = analyze_terms(raw)
        if not terms:
            continue
        q.clauses.append(
            Clause(
                terms=terms,
                phrase=m.group("phrase") is not None and len(terms) > 1,
                field_name=m.group("field"),
                required=m.group("req") == "+",
                prohibited=m.group("req") == "-",
            )
        )
    return q


@dataclass(frozen=True)
class SearchHit:
    doc_id: str
    score: float
    title: str
    snippet: str


def _phrase_docs(index: InvertedIndex, terms: list[str], field_name: str | None) -> set[str]:
    """Docs containing *terms* consecutively in one field."""
    first = index.postings.get(terms[0], [])
    candidates: set[str] = set()
    for p0 in first:
        if field_name and p0.field != field_name:
            continue
        doc, fld = p0.doc_id, p0.field
        ok_starts = set(p0.positions)
        good = True
        for off, term in enumerate(terms[1:], start=1):
            match = None
            for p in index.postings.get(term, []):
                if p.doc_id == doc and p.field == fld:
                    match = p
                    break
            if match is None:
                good = False
                break
            positions = set(match.positions)
            ok_starts = {s for s in ok_starts if s + off in positions}
            if not ok_starts:
                good = False
                break
        if good and ok_starts:
            candidates.add(doc)
    return candidates


def _clause_scores(index: InvertedIndex, clause: Clause) -> dict[str, float]:
    partials = []
    for term in clause.terms:
        scores = score_term(index, term)
        if clause.field_name:
            allowed = {
                p.doc_id
                for p in index.postings.get(term, [])
                if p.field == clause.field_name
            }
            scores = {d: s for d, s in scores.items() if d in allowed}
        partials.append(scores)
    total = combine(*partials)
    if clause.phrase:
        docs = _phrase_docs(index, clause.terms, clause.field_name)
        total = {d: s * 1.5 for d, s in total.items() if d in docs}  # phrase boost
    return total


def execute(index: InvertedIndex, query: str, *, limit: int = 10) -> list[SearchHit]:
    """Run a query, returning ranked hits (deterministic tie-break by doc id).

    A query string is ranked once per index generation; the caller always
    gets a fresh list.
    """
    cache = index.result_cache
    key = (query, limit)
    hits = cache.get(key)
    if hits is None:
        if len(cache) >= RESULT_CACHE_MAX:
            cache.clear()
        hits = cache[key] = _rank(index, parse_query(query), limit)
    return list(hits)


def _rank(index: InvertedIndex, query: ParsedQuery, limit: int) -> tuple[SearchHit, ...]:
    if query.is_empty:
        return ()

    positive = [c for c in query.clauses if not c.prohibited]
    negative = [c for c in query.clauses if c.prohibited]
    if not positive:
        return ()

    clause_results = [_clause_scores(index, c) for c in positive]
    total = combine(*clause_results)

    # MUST: drop docs missing a required clause
    for c, scores in zip(positive, clause_results):
        if c.required:
            total = {d: s for d, s in total.items() if d in scores}
    # MUST_NOT: drop docs matching a prohibited clause
    for c in negative:
        bad = _clause_scores(index, c).keys()
        total = {d: s for d, s in total.items() if d not in bad}

    n_clauses = len(positive)
    ranked = []
    for doc_id, s in total.items():
        matched = sum(1 for scores in clause_results if doc_id in scores)
        ranked.append((s * coordination_factor(matched, n_clauses), doc_id))
    ranked.sort(key=lambda t: (-t[0], t[1]))

    hits = []
    for s, doc_id in ranked[:limit]:
        doc = index.docs[doc_id]
        title = doc.fields.get("title", doc_id)
        desc = doc.fields.get("description", "")
        hits.append(SearchHit(doc_id, s, title, desc[:120]))
    return tuple(hits)
