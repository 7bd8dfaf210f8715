"""The index's per-generation caches must never be observable.

Every query-side call on a long-lived index (whose document frequencies,
term scores, forward index and results are cached) must equal the same
call on an uncached rebuild of it, after every mutator, and no returned
object may alias a cache.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SearchError
from repro.search import (
    Document,
    InvertedIndex,
    Posting,
    analyze,
    execute,
    more_like_this,
    paginate,
    query,
    score_term,
    suggest,
)

WORDS = ["cloud", "video", "kvm", "nebula", "stream", "music", "dance", "lecture"]
FIELDS = ["description", "tags", "title", "uploader"]


def rebuild(idx: InvertedIndex) -> InvertedIndex:
    return InvertedIndex.from_bytes(idx.to_bytes())


def observe(idx: InvertedIndex, queries: list[str]) -> dict:
    """Everything the query side can tell about *idx*."""
    seen: dict = {}
    for q in queries:
        seen[("execute", q)] = execute(idx, q)
        seen[("execute3", q)] = execute(idx, q, limit=3)
        for page in (1, 2):
            seen[("page", q, page)] = paginate(idx, q, page=page, per_page=2)
        seen[("suggest", q)] = suggest(idx, q)
    for doc_id in sorted(idx.docs):
        seen[("mlt", doc_id)] = more_like_this(idx, doc_id, limit=3)
    for word in WORDS:
        seen[("df", word)] = idx.doc_frequency(word)
        seen[("score", word)] = score_term(idx, word)
    return seen


# Documents get ascending ids and sorted field names, so every mutator
# keeps postings in (doc, field) order and the rebuild sums each score's
# floats in the same order as the live index.
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join)
field_sets = st.lists(st.sampled_from(FIELDS), min_size=1, max_size=4, unique=True)
doc_specs = st.lists(st.tuples(field_sets, st.lists(texts, min_size=4, max_size=4)),
                     min_size=1, max_size=4)
queries = st.lists(
    st.one_of(
        st.sampled_from(WORDS),
        st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(" ".join),
        st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(
            lambda t: f'"{t[0]} {t[1]}"'),
        st.sampled_from(WORDS).map(lambda w: f"title:{w}"),
        st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(
            lambda t: f"+{t[0]} -{t[1]}"),
        st.sampled_from(WORDS).map(lambda w: w[:-1] + "x"),  # typo for suggest
    ),
    min_size=1, max_size=4,
)
ops = st.lists(st.sampled_from(["add", "merge", "assemble", "remove", "finalize"]),
               min_size=1, max_size=6)


class _Docs:
    def __init__(self, specs) -> None:
        self.specs = specs
        self.n = 0

    def next(self) -> Document:
        fields, bodies = self.specs[self.n % len(self.specs)]
        self.n += 1
        return Document(f"d{self.n:03d}",
                        {f: bodies[i] for i, f in enumerate(sorted(fields))})


def _mutations(idx: InvertedIndex, op: str, docs: _Docs, pick: int):
    """Apply *op* to *idx* one mutator call at a time (a generator)."""
    if op == "add":
        idx.add(docs.next())
        yield
    elif op == "merge":
        other = InvertedIndex()
        other.add(docs.next())
        other.add(docs.next())
        other.finalize()
        idx.merge(other)
        yield
    elif op == "assemble":
        doc = docs.next()
        lengths = {f: len(analyze(text)) for f, text in doc.fields.items()}
        idx.register_doc(doc, lengths)
        yield
        for fname, text in doc.fields.items():
            by_term: dict[str, list[int]] = {}
            for term, pos in analyze(text):
                by_term.setdefault(term, []).append(pos)
            for term, positions in by_term.items():
                idx.add_posting(term, Posting(doc.doc_id, fname, len(positions),
                                              tuple(positions)))
                yield
    elif op == "remove" and idx.docs:
        ids = sorted(idx.docs)
        idx.remove(ids[pick % len(ids)])
        yield
    elif op == "finalize":
        idx.finalize()
        yield


class TestCoherence:
    @given(doc_specs, queries, ops, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_cached_index_matches_uncached_rebuild(self, specs, qs, op_list, pick):
        docs = _Docs(specs)
        idx = InvertedIndex()
        for _ in range(3):
            idx.add(docs.next())
        idx.finalize()
        assert observe(idx, qs) == observe(rebuild(idx), qs)
        for op in op_list:
            for _ in _mutations(idx, op, docs, pick):
                assert observe(idx, qs) == observe(rebuild(idx), qs)

    def test_repeated_calls_hit_the_cache(self):
        idx = InvertedIndex()
        idx.add(Document("v1", {"title": "cloud video", "tags": "kvm"}))
        idx.add(Document("v2", {"title": "cloud lecture"}))
        idx.finalize()
        execute(idx, "cloud")
        assert ("cloud", 10) in idx.result_cache
        assert "cloud" in idx.score_cache
        idx.add(Document("v3", {"title": "cloud"}))
        assert not idx.result_cache and not idx.score_cache
        hits = execute(idx, "cloud")
        assert hits[0].doc_id == "v3"
        assert hits == execute(rebuild(idx), "cloud")

    def test_result_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(query, "RESULT_CACHE_MAX", 2)
        idx = InvertedIndex()
        idx.add(Document("v1", {"title": "cloud video kvm"}))
        idx.finalize()
        for q in ("cloud", "video", "kvm", "cloud video"):
            assert [h.doc_id for h in execute(idx, q)] == ["v1"]
            assert len(idx.result_cache) <= 2


class TestNoAliasing:
    @pytest.fixture()
    def idx(self):
        idx = InvertedIndex()
        idx.add(Document("v1", {"title": "cloud video", "tags": "kvm cloud"}))
        idx.add(Document("v2", {"title": "cloud lecture", "description": "video"}))
        idx.add(Document("v3", {"title": "dance video"}))
        idx.finalize()
        return idx

    def test_hit_list(self, idx):
        first = execute(idx, "cloud video")
        expected = list(first)
        first.clear()
        assert execute(idx, "cloud video") == expected

    def test_page_hits(self, idx):
        page = paginate(idx, "video", per_page=2)
        expected = list(page.hits)
        page.hits.append(page.hits[0])
        assert paginate(idx, "video", per_page=2).hits == expected

    def test_related_list(self, idx):
        related = more_like_this(idx, "v1")
        expected = list(related)
        related.pop()
        assert more_like_this(idx, "v1") == expected

    def test_score_dict(self, idx):
        scores = score_term(idx, "cloud")
        expected = dict(scores)
        scores["v1"] = 1e9
        scores["ghost"] = 1.0
        assert score_term(idx, "cloud") == expected

    def test_forward_is_read_only(self, idx):
        assert isinstance(idx.forward("v1"), tuple)
        assert idx.forward("ghost") == ()


class TestRemove:
    def test_drops_doc_postings_and_lengths(self):
        idx = InvertedIndex()
        idx.add(Document("v1", {"title": "cloud kvm"}))
        idx.add(Document("v2", {"title": "cloud"}))
        idx.finalize()
        idx.remove("v1")
        assert set(idx.docs) == {"v2"}
        assert "kvm" not in idx.postings
        assert [p.doc_id for p in idx.postings["cloud"]] == ["v2"]
        assert ("v1", "title") not in idx.field_lengths
        assert idx.doc_frequency("cloud") == 1

    def test_unknown_doc_rejected(self):
        with pytest.raises(SearchError):
            InvertedIndex().remove("ghost")
