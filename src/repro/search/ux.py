"""Search UX helpers: highlighting, pagination, suggestions, related docs.

The conveniences a real video-site search box layers over the core index:
result-page pagination, query-term highlighting in snippets, "did you
mean" spelling suggestions from the index's own vocabulary, and
more-like-this related-video lookup (the sidebar of every video site).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..common.errors import SearchError
from .analyzer import analyze_terms, strip_plural
from .index import InvertedIndex
from .query import SearchHit, execute
from .scoring import idf


def highlight(text: str, query: str, *, pre: str = "<b>", post: str = "</b>") -> str:
    """Wrap every word of *text* whose stem matches a query term."""
    terms = set(analyze_terms(query))
    if not terms:
        return text

    def mark(m: re.Match) -> str:
        word = m.group(0)
        if strip_plural(word.lower()) in terms:
            return f"{pre}{word}{post}"
        return word

    return re.sub(r"[A-Za-z0-9']+", mark, text)


@dataclass(frozen=True)
class ResultPage:
    hits: list[SearchHit]
    page: int
    per_page: int
    total_hits: int

    @property
    def total_pages(self) -> int:
        return max(1, -(-self.total_hits // self.per_page))

    @property
    def has_next(self) -> bool:
        return self.page < self.total_pages

    @property
    def has_prev(self) -> bool:
        return self.page > 1


def paginate(index: InvertedIndex, query: str, *, page: int = 1,
             per_page: int = 10) -> ResultPage:
    """Page *page* (1-based) of the results for *query*."""
    if page < 1 or per_page < 1:
        raise SearchError(f"bad pagination page={page} per_page={per_page}")
    all_hits = execute(index, query, limit=10**9)
    start = (page - 1) * per_page
    return ResultPage(
        hits=all_hits[start:start + per_page],
        page=page, per_page=per_page, total_hits=len(all_hits),
    )


def _edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein with an early-exit cap."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        best = i
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
            best = min(best, cur[-1])
        if best > cap:
            return cap + 1
        prev = cur
    return prev[-1]


def suggest(index: InvertedIndex, query: str, *, max_distance: int = 2) -> str | None:
    """"Did you mean": replace unknown query terms with the closest indexed
    term (ties broken by document frequency).  Returns the corrected query
    or None when every term is already known / nothing close exists."""
    words = query.split()
    vocabulary = index.terms()
    if not vocabulary:
        return None
    changed = False
    corrected: list[str] = []
    for word in words:
        stems = analyze_terms(word)
        if not stems or stems[0] in index.postings:
            corrected.append(word)
            continue
        term = stems[0]
        best: tuple[int, int, str] | None = None
        for cand in vocabulary:
            d = _edit_distance(term, cand, cap=max_distance)
            if d > max_distance:
                continue
            key = (d, -index.doc_frequency(cand), cand)
            if best is None or key < best:
                best = key
        if best is None:
            corrected.append(word)
        else:
            corrected.append(best[2])
            changed = True
    return " ".join(corrected) if changed else None


def more_like_this(index: InvertedIndex, doc_id: str, *, limit: int = 5,
                   max_terms: int = 6) -> list[SearchHit]:
    """Related documents: query built from the doc's highest-TF-IDF terms."""
    doc = index.docs.get(doc_id)
    if doc is None:
        raise SearchError(f"no document {doc_id!r}")
    weights: dict[str, float] = {}
    for term, tf in index.forward(doc_id):
        weights[term] = weights.get(term, 0.0) + tf * idf(index, term)
    top = sorted(weights, key=lambda t: (-weights[t], t))[:max_terms]
    if not top:
        return []
    hits = execute(index, " ".join(top), limit=limit + 1)
    return [h for h in hits if h.doc_id != doc_id][:limit]
