"""Lucene-classic TF-IDF scoring with field boosts.

score(q, d) = sum over query terms t of
    sqrt(tf(t, d, f)) * idf(t)^2 * boost(f) / sqrt(field_length)

summed over fields f, with idf(t) = 1 + ln(N / (df + 1)) -- the practical
scoring function of Lucene 2.x/3.x, which is what Nutch used in 2012.
"""

from __future__ import annotations

import math

from .index import InvertedIndex

#: default per-field boosts for the video portal's documents
DEFAULT_BOOSTS: dict[str, float] = {
    "title": 2.5,
    "tags": 1.8,
    "description": 1.0,
    "uploader": 0.8,
}


def idf(index: InvertedIndex, term: str) -> float:
    n = index.doc_count
    df = index.doc_frequency(term)
    return 1.0 + math.log((n + 1) / (df + 1))


def score_term(index: InvertedIndex, term: str) -> dict[str, float]:
    """Partial scores per doc for one term, under :data:`DEFAULT_BOOSTS`.

    The index computes them once per generation; the caller always gets
    its own copy.
    """
    scores = index.score_cache.get(term)
    if scores is None:
        w_idf = idf(index, term) ** 2
        scores = index.score_cache[term] = {}
        for p in index.postings.get(term, []):
            boost = DEFAULT_BOOSTS.get(p.field, 1.0)
            length = index.field_lengths.get((p.doc_id, p.field), 1) or 1
            partial = math.sqrt(p.tf) * w_idf * boost / math.sqrt(length)
            scores[p.doc_id] = scores.get(p.doc_id, 0.0) + partial
    return dict(scores)


def combine(*term_scores: dict[str, float]) -> dict[str, float]:
    """Sum partial scores; a doc scores on whatever terms it matches (OR)."""
    out: dict[str, float] = {}
    for scores in term_scores:
        for doc_id, s in scores.items():
            out[doc_id] = out.get(doc_id, 0.0) + s
    return out


def coordination_factor(matched: int, total: int) -> float:
    """Lucene's coord(): reward docs matching more of the query terms."""
    return matched / total if total else 1.0
