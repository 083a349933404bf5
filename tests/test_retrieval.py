import hashlib
import math
import random

import numpy as np
import pytest

from biotriplets import pipeline
from biotriplets.candidates import CandidatePair
from biotriplets.classifier import ChatEndpoint, load_exemplars
from biotriplets.config import DEFAULT_RELATIONS, RetrievalConfig
from biotriplets.docmodel import Section
from biotriplets.errors import EndpointRejected, EndpointUnavailable
from biotriplets.mockserver import MOCK_EMBED_DIM, mock_embedding
from biotriplets.pipeline import run_extraction
from biotriplets.retrieval import (
    Chunk,
    EmbeddingEndpoint,
    chunk_for_candidate,
    retrieve_top_k,
    unit_rows,
)

from test_pipeline import drug_candidates, long_section_page

CFG = RetrievalConfig()


def words(n, prefix="w"):
    return [f"{prefix}{i}" for i in range(n)]


def check_coverage(chunks, n):
    """Independent word-index accounting of the chunking contract."""
    covered = set()
    for c in chunks:
        start, end = c.word_span
        assert 0 <= start < end <= n
        assert len(c.text.split()) == end - start
        covered.update(range(start, end))
    assert covered == set(range(n))
    anchors = [c for c in chunks if c.is_anchor]
    assert len(anchors) == 1
    non_anchor = [c for c in chunks if not c.is_anchor]
    for c in non_anchor:
        assert c.word_span[1] - c.word_span[0] <= CFG.chunk_words
    # consecutive windows on the same side of the anchor overlap by exactly 32
    for a, b in zip(non_anchor, non_anchor[1:]):
        if a.word_span[1] <= anchors[0].word_span[0] and \
           b.word_span[1] <= anchors[0].word_span[0] or \
           a.word_span[0] >= anchors[0].word_span[1] and \
           b.word_span[0] >= anchors[0].word_span[1]:
            if b.word_span[0] > a.word_span[0]:
                assert a.word_span[1] - b.word_span[0] == CFG.overlap_words


class TestChunking:
    def test_short_text_single_anchor(self):
        chunks = chunk_for_candidate(words(100), 40, CFG, {})
        assert len(chunks) == 1
        assert chunks[0].is_anchor
        assert chunks[0].word_span == (0, 100)

    def test_long_text_windows(self):
        chunks = chunk_for_candidate(words(1000), 600, CFG, {})
        anchor = next(c for c in chunks if c.is_anchor)
        assert anchor.word_span[1] - anchor.word_span[0] == 512
        assert anchor.word_span[0] <= 600 < anchor.word_span[1]
        check_coverage(chunks, 1000)

    def test_match_at_text_start(self):
        chunks = chunk_for_candidate(words(600), 0, CFG, {})
        anchor = next(c for c in chunks if c.is_anchor)
        assert anchor.word_span == (0, 512)
        check_coverage(chunks, 600)

    def test_match_at_text_end(self):
        chunks = chunk_for_candidate(words(600), 599, CFG, {})
        anchor = next(c for c in chunks if c.is_anchor)
        assert anchor.word_span == (88, 600)
        check_coverage(chunks, 600)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"word index 10 outside \[0, 10\)"):
            chunk_for_candidate(words(10), 10, CFG, {})

    def test_randomized_invariants(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 3000)
            m = rng.randint(0, n - 1)
            check_coverage(chunk_for_candidate(words(n), m, CFG, {}), n)


def reference_chunks(words, match, cfg):
    """The chunking rule written out naively, in text order: an anchor of
    `anchor_min_words` words (the whole text, if shorter) centred on the
    match and clamped to the text, and on each side of it windows of
    `chunk_words` words, each starting `chunk_words - overlap_words` words
    after the one before, as many as it takes to reach the anchor or the
    end of the text, the last cut short there."""
    n = len(words)
    size = min(n, cfg.anchor_min_words)
    start = min(max(match - cfg.anchor_min_words // 2, 0), n - size)
    step = cfg.chunk_words - cfg.overlap_words

    def windows(lo, hi):
        count = 0 if hi == lo else max(0, -(-(hi - lo - cfg.chunk_words) // step)) + 1
        return [Chunk(" ".join(words[a:min(a + cfg.chunk_words, hi)]),
                      (a, min(a + cfg.chunk_words, hi)))
                for a in range(lo, lo + count * step, step)]

    anchor = Chunk(" ".join(words[start:start + size]), (start, start + size), True)
    return windows(0, start) + [anchor] + windows(start + size, n)


def random_section(rng, n):
    """A section whose flattened text has `n` words from a small vocabulary,
    so distinct spans can share a text; sometimes a child section holds the
    tail, under a one-word heading. Returns it and its words."""
    ws = rng.choices(["fever", "rash", "cough", "pain", "rest"], k=n)
    gaps = [rng.choice([" ", "  ", "\n", "\t "]) for _ in range(n)]

    def text(part, offset):
        return "".join(w + gap for w, gap in zip(part, gaps[offset:])).rstrip()

    k = rng.randrange(n)
    if rng.random() < 0.3:
        child = Section(ws[k], 3, text(ws[k + 1:], k + 1))
        return Section("S", 2, text(ws[:k], 0), [child]), ws
    return Section("S", 2, text(ws, 0)), ws


class TestSectionChunks:
    """`_section_plan`'s chunks and texts against `reference_chunks`."""

    CONFIGS = [
        RetrievalConfig(),
        RetrievalConfig(anchor_min_words=6, chunk_words=3, overlap_words=1),
        RetrievalConfig(anchor_min_words=40, chunk_words=7, overlap_words=0),
        RetrievalConfig(anchor_min_words=16, chunk_words=16, overlap_words=5),
        RetrievalConfig(anchor_min_words=1, chunk_words=1, overlap_words=0),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: "{}-{}-{}".format(
        cfg.anchor_min_words, cfg.chunk_words, cfg.overlap_words))
    def test_matches_the_reference(self, cfg):
        for seed in range(30):
            rng = random.Random(seed)
            edge = cfg.anchor_min_words + seed % 2  # a text of exactly it, or one more
            n = edge if seed % 3 == 0 else rng.randint(1, 3000)
            section, ws = random_section(rng, n)
            matches = [0, n - 1] + [rng.randrange(n) for _ in range(rng.randint(0, 38))]
            rng.shuffle(matches)
            members = [
                CandidatePair(candidate_id=f"c{j}", site_id="s1", page_url="https://x/p",
                              relation="treatment", head_surface="h", head_concept_id=f"C{j}",
                              tail_title="T", section_path="T > S", section_index=0,
                              match_word_index=m)
                for j, m in enumerate(matches[:rng.randint(1, 40)])]
            questions = [f"question {rng.randrange(5)}?" for _ in members]
            chunks, texts = pipeline._section_plan(section, members, questions, cfg)
            expected = [reference_chunks(ws, c.match_word_index, cfg) for c in members]
            assert chunks == expected, seed
            embedded = {}
            for question, its in zip(questions, expected):
                if len(its) > 1:
                    embedded[question] = None
                    embedded.update(dict.fromkeys(chunk.text for chunk in its))
            assert texts == list(embedded), seed
            # one span of a section is one chunk, whichever candidates share it
            by_span = {}
            for chunk in (chunk for its in chunks for chunk in its):
                assert by_span.setdefault((chunk.word_span, chunk.is_anchor), chunk) is chunk, seed


def default_question(head, relation_id, tail):
    relation = next(r for r in DEFAULT_RELATIONS if r.id == relation_id)
    return relation.question(head, tail)


class TestBuildQuery:
    def test_manifestation(self):
        q = default_question("nausea", "manifestation",
                             "Clostridioides difficile–Induced Diarrhea")
        assert q == ("Is nausea an informative manifestation of "
                     "Clostridioides difficile–Induced Diarrhea?")

    def test_diagnosis(self):
        q = default_question("CBC", "diagnosis", "Hemolytic-uremic syndrome")
        assert q == ("Is CBC an informative diagnostic procedure for "
                     "Hemolytic-uremic syndrome?")

    def test_treatment(self):
        q = default_question("streptomycin", "treatment", "Plague")
        assert q == ("Is streptomycin an informative therapeutic procedure "
                     "or drug for Plague?")


def scored_chunks(scores, anchor_index=0):
    """Chunks whose cosine against the unit query equals the given scores."""
    out = []
    for i, s in enumerate(scores):
        vec = np.array([s, math.sqrt(max(0.0, 1 - s * s))])
        out.append((Chunk(f"c{i}", (i * 10, i * 10 + 5), i == anchor_index), vec))
    return out


QUERY = np.array([1.0, 0.0])


class TestTopK:
    def test_fewer_than_k(self):
        chunks = scored_chunks([0.2, 0.9, 0.5])
        got = retrieve_top_k(QUERY, chunks, CFG)
        assert [c.text for c in got] == ["c1", "c2", "c0"]

    def test_anchor_forced_in(self):
        # anchor ranked 12th of 15
        scores = [0.9 - 0.05 * i for i in range(15)]
        chunks = scored_chunks(scores, anchor_index=11)
        got = retrieve_top_k(QUERY, chunks, CFG)
        assert len(got) == 10
        assert any(c.is_anchor for c in got)
        others = [c.text for c in got if not c.is_anchor]
        assert others == [f"c{i}" for i in range(9)]

    def test_tie_break_by_start(self):
        chunks = scored_chunks([0.5, 0.5])
        got = retrieve_top_k(QUERY, chunks, CFG)
        assert [c.text for c in got] == ["c0", "c1"]

    def test_mixed_dimensions_rejected(self):
        # a truncated dot product would score the longer vector by its prefix
        chunks = [(c, list(v)) for c, v in scored_chunks([0.2, 0.9])]
        chunks[1] = (chunks[1][0], chunks[1][1] + [0.0])
        with pytest.raises(EndpointRejected, match=r"mixed dimensions \[2, 3\]"):
            retrieve_top_k(list(QUERY), chunks, CFG)

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            vecs = rng.normal(size=(15, 6))
            query = rng.normal(size=6)
            chunks = [
                (Chunk(f"c{i}", (i, i + 1), i == 3), vecs[i]) for i in range(15)
            ]
            scaled = [(c, v * 7.5) for c, v in chunks]
            a = [c.text for c in retrieve_top_k(query, chunks, CFG)]
            b = [c.text for c in retrieve_top_k(query, scaled, CFG)]
            assert a == b

    def test_output_size(self):
        rng = np.random.default_rng(5)
        for count in (1, 3, 10, 25):
            vecs = rng.normal(size=(count, 4))
            chunks = [(Chunk(f"c{i}", (i, i + 1), i == 0), vecs[i])
                      for i in range(count)]
            got = retrieve_top_k(rng.normal(size=4), chunks, CFG)
            assert len(got) == min(CFG.top_k, count)
            assert any(c.is_anchor for c in got)


def cosine_top_k(query_vec, chunks, cfg):
    """The ranking as it was before unit vectors: a cosine per chunk, a sort
    by descending cosine then earlier start, and the anchor forced in."""
    def cosine(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    def key(sc):
        return -sc[0], sc[1].word_span[0]

    scored = sorted(((cosine(query_vec, vec), chunk) for chunk, vec in chunks), key=key)
    selected = scored[: cfg.top_k]
    if not any(c.is_anchor for _, c in selected):
        selected[-1] = next(sc for sc in scored if sc[1].is_anchor)
        selected.sort(key=key)
    return [c for _, c in selected]


class TestUnitRanking:
    def test_matches_cosine_ranking(self):
        """Unit rows and one product select and order the chunks as the
        cosine formula did, on random sets with repeated chunk texts (equal
        vectors, so exact ties) and anchors ranked below top_k."""
        rng = np.random.default_rng(2024)
        ties = forced = 0
        for _ in range(400):
            count = int(rng.integers(1, 30))
            dim = int(rng.choice([3, 8, 32, 64]))
            cfg = RetrievalConfig(top_k=int(rng.integers(1, 12)))
            anchor = int(rng.integers(0, count))
            texts = [f"t{rng.integers(0, max(1, count - 3))}" for _ in range(count)]
            by_text = {t: rng.normal(size=dim) * rng.uniform(0.1, 20) for t in texts}
            query = rng.normal(size=dim)
            chunks = [(Chunk(t, (i * 7, i * 7 + 9), i == anchor), by_text[t])
                      for i, t in enumerate(texts)]
            units = unit_rows([query] + [vec for _, vec in chunks])
            unit_chunks = [(chunk, vec) for (chunk, _), vec in zip(chunks, units[1:])]
            assert retrieve_top_k(units[0], unit_chunks, cfg) == cosine_top_k(query, chunks, cfg)
            ties += len(set(texts)) < count
            ranked = cosine_top_k(query, chunks, RetrievalConfig(top_k=count))
            forced += ranked.index(chunks[anchor][0]) >= cfg.top_k
        assert ties > 100 and forced > 20, (ties, forced)

    def test_equal_vectors_tie_exactly(self):
        # a matrix-vector product can round equal rows differently; equal
        # vectors must still tie and fall back to the earlier start
        rng = np.random.default_rng(7)
        for count in range(2, 40):
            vecs = unit_rows(rng.normal(size=(count, 32)))
            vecs[count - 1] = vecs[0]
            chunks = [(Chunk(f"c{i}", (count - i, count - i + 1), i == 0), vecs[i])
                      for i in range(count)]
            got = retrieve_top_k(unit_rows([rng.normal(size=32)])[0], chunks,
                                 RetrievalConfig(top_k=count))
            assert got.index(chunks[count - 1][0]) < got.index(chunks[0][0])

    def test_unit_rows(self):
        rows = unit_rows([np.array([3.0, 4.0]), np.array([0.0, -2.0])])
        assert np.allclose(rows, [[0.6, 0.8], [0.0, -1.0]])


def numpy_mock_embedding(text, dim=MOCK_EMBED_DIM):
    """The mock's embedding as it was computed with numpy."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % dim] += 1.0 if digest[4] % 2 == 0 else -1.0
    if not vec.any():
        vec[0] = 1.0
    vec /= np.linalg.norm(vec)
    return vec.tolist()


def test_mock_embedding_matches_numpy_formula_bit_for_bit():
    rng = random.Random(8)
    vocab = [f"t{i}" for i in range(300)] + ["Fever", "fever", "FEVER", "é", "naïve"]
    texts = ["", "   \n\t", "a", "a a a a a a", "x y x y x y y"]
    texts += [" ".join(rng.choices(vocab, k=rng.randint(0, 40))) for _ in range(200)]
    texts += [" ".join(rng.choices(vocab[: rng.randint(1, 20)], k=rng.randint(512, 1600)))
              for _ in range(40)]
    for text in texts:
        got, expected = mock_embedding(text), numpy_mock_embedding(text)
        assert [x.hex() for x in got] == [x.hex() for x in expected], text[:60]


class TestEmbedClient:
    def test_arity(self, mock_server):
        server = mock_server()
        ep = EmbeddingEndpoint(base_url=server.base_url, model="m")
        vectors = ep.embed(["a"])
        assert len(vectors) == 1
        assert len(vectors[0]) == 32

    def test_one_request_in_input_order(self, mock_server):
        server = mock_server()

        class ReversingHandler(server.httpd.RequestHandlerClass):
            def _send_json(self, status, body):
                if "data" in body:  # the reply lists its indices last to first
                    body = {"data": body["data"][::-1]}
                super()._send_json(status, body)

        server.httpd.RequestHandlerClass = ReversingHandler
        ep = EmbeddingEndpoint(base_url=server.base_url, model="m", batch_limit=128)
        texts = [f"text number {i}" for i in range(128)]
        vectors = ep.embed(texts)
        sizes = [e["n_inputs"] for e in server.log.entries if e["kind"] == "embed"]
        assert sizes == [128]
        # each vector is its own text's deterministic mock embedding
        assert vectors == [mock_embedding(text) for text in texts]

    @staticmethod
    def extract(server, embed, tmp_path):
        """`run_extraction` of the candidates of one long section, whose
        texts go in one request before any chat; a retry waits on the run's
        heap. Every candidate must be classified."""
        doc = long_section_page()
        candidates = [c for c in drug_candidates([doc]) if c.section_index == 0]
        chat = ChatEndpoint(base_url=server.base_url, model="m")
        classified = run_extraction(candidates, [doc], chat, embed, CFG, load_exemplars(),
                                    DEFAULT_RELATIONS, journal_path=tmp_path / "j.jsonl",
                                    workers=1)
        assert classified == len(candidates)

    def test_retries_exhausted(self, mock_server, tmp_path):
        server = mock_server({"statuses": [503, 503, 503]})
        ep = EmbeddingEndpoint(base_url=server.base_url, model="m",
                               max_retries=2, retry_backoff=0.0)
        with pytest.raises(EndpointUnavailable):
            self.extract(server, ep, tmp_path)
        assert [e["status"] for e in server.log.entries] == [503, 503, 503]

    def test_retry_then_success(self, mock_server, tmp_path):
        server = mock_server({"statuses": [503]})
        ep = EmbeddingEndpoint(base_url=server.base_url, model="m",
                               max_retries=2, retry_backoff=0.0)
        self.extract(server, ep, tmp_path)
        embeds = [e for e in server.log.entries if e["kind"] == "embed"]
        assert [e["status"] for e in embeds] == [503, 200]
        assert embeds[0]["inputs"] == embeds[1]["inputs"]
