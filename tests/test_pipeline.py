import base64
import dataclasses
import hashlib
import json
import random
import signal
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest

from biotriplets import endpoint, pipeline
from biotriplets.candidates import CandidatePair, enumerate_candidates, token_starts, word_index
from biotriplets.classifier import ChatEndpoint, build_prompt, load_exemplars
from biotriplets.config import DEFAULT_RELATIONS, RetrievalConfig
from biotriplets.docmodel import (
    Section,
    SiteProfile,
    WebDocument,
    flatten_section_text,
    json_line,
    preprocess_html,
)
from biotriplets.endpoint import RetryLater
from biotriplets.errors import ConfigError, EndpointRejected, EndpointUnavailable
from biotriplets.matcher import MatcherAutomaton, Thesaurus
from biotriplets.mockserver import mock_embedding
from biotriplets.pipeline import (
    Journal,
    Verdict,
    report_table,
    run_extraction,
    summarize,
)
from biotriplets.retrieval import (
    EmbeddingEndpoint,
    chunk_for_candidate,
    retrieve_top_k,
)

pytestmark = pytest.mark.usefixtures("no_backoff")

PROFILE = SiteProfile(site_id="s1")
RELATIONS = DEFAULT_RELATIONS


def question(c):
    """The question of candidate `c` of a default relation."""
    relation = next(r for r in RELATIONS if r.id == c.relation)
    return relation.question(c.head_surface, c.tail_title)


def automaton_from(rows):
    th = Thesaurus()
    for surface, concept, types in rows:
        th.add(surface, concept, types)
    return MatcherAutomaton(th)


def doc_from(html, url="https://x/p", profile=PROFILE):
    return preprocess_html(html, profile, url)


class TestEnumerate:
    def test_relation_filter(self):
        a = automaton_from([("streptomycin", "C1", ["Chemical or Drug"])])
        doc = doc_from("<h1>Plague</h1><h2>Treatment</h2><p>give streptomycin now</p>")
        candidates = enumerate_candidates([doc], a, RELATIONS)
        assert len(candidates) == 1
        assert candidates[0].relation == "treatment"
        assert candidates[0].tail_title == "Plague"
        assert candidates[0].section_path == "Plague > Treatment"

    def test_per_page_collapse(self):
        a = automaton_from([("fever", "C1", ["Sign, Symptom, or Finding"])])
        doc = doc_from(
            "<h1>D</h1><h2>A</h2><p>fever and fever</p><h2>B</h2><p>more fever</p>"
        )
        candidates = enumerate_candidates([doc], a, RELATIONS)
        assert len(candidates) == 1
        # anchored at the first mention
        assert candidates[0].section_path == "D > A"

    def test_additivity_across_docs(self):
        a = automaton_from([
            ("fever", "C1", ["Sign, Symptom, or Finding"]),
            ("dialysis", "C2", ["Therapeutic or Preventive Procedure"]),
        ])
        docs = [
            doc_from("<h1>D1</h1><h2>S</h2><p>fever then dialysis</p>", url="https://x/1"),
            doc_from("<h1>D2</h1><h2>S</h2><p>fever then dialysis</p>", url="https://x/2"),
        ]
        assert len(enumerate_candidates(docs, a, RELATIONS)) == 4

    def test_match_word_index_points_at_surface(self):
        a = automaton_from([("blood culture", "C1", ["Laboratory Procedure"])])
        doc = doc_from("<h1>D</h1><h2>W</h2><p>order a blood culture today</p>")
        c = enumerate_candidates([doc], a, RELATIONS)[0]
        section, _ = list(doc.walk_sections())[c.section_index]
        words = flatten_section_text(section).split()
        assert words[c.match_word_index] == "blood"


class TestWordIndex:
    @staticmethod
    def split_formula(text, offset):
        index = len(text[:offset].split())
        if offset > 0 and not text[offset - 1].isspace():
            index -= 1
        return index

    def test_matches_split_formula(self):
        rng = random.Random(4242)
        alphabet = "ab-.é世" + " \t\n\u00a0\u2003\x1c"
        inside = 0
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            starts = token_starts(text)
            for offset in range(len(text)):
                assert word_index(text, starts, offset) == self.split_formula(text, offset)
                if offset and not text[offset].isspace() and not text[offset - 1].isspace():
                    inside += 1
        assert inside > 1000  # offsets in the middle of a token were covered


class TestJournal:
    RECORDS = [
        Verdict("a", "Yes", "listed", "m"),
        Verdict("b", "No", "fièvre 世界", "m"),
        Verdict("c", "Yes", "named", "m"),
    ]

    def test_append_after_torn_tail_at_every_byte(self, tmp_path):
        a, b, c = self.RECORDS
        line_a, line_b = (json_line(r).encode("utf-8") for r in (a, b))
        for cut in range(len(line_b) + 1):
            path = tmp_path / f"journal{cut}.jsonl"
            path.write_bytes(line_a + line_b[:cut])
            Journal(path).append(c)
            loaded = Journal(path).load()
            # b survives only when no more than its newline was lost
            expected = {"a", "c"} | ({"b"} if cut >= len(line_b) - 1 else set())
            assert set(loaded) == expected, cut
            assert loaded["a"] == a and loaded["c"] == c

    def test_blank_lines_are_skipped(self, tmp_path):
        a, b, _ = (json_line(r).encode("utf-8") for r in self.RECORDS)
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"\n" + a + b"  \r\n\n" + b)
        assert list(Journal(path).load()) == ["a", "b"]

    def test_append_creates_file(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        for record in self.RECORDS:
            journal.append(record)
        assert list(journal.load()) == ["a", "b", "c"]


def make_candidates(count, relation="treatment", site_id="s1"):
    names = [f"drugname{i}" for i in range(count)]
    return [
        CandidatePair(
            candidate_id=f"cand{i:04d}",
            site_id=site_id,
            page_url=f"https://x/{i}",
            relation=relation,
            head_surface=names[i],
            head_concept_id=f"C{i}",
            tail_title="Disease",
            section_path="Disease > Treatment",
            section_index=0,
            match_word_index=1,
        )
        for i in range(count)
    ]


def make_documents(count, site_id="s1"):
    """The pages `make_candidates(count)` point at: one section each."""
    return [
        WebDocument(
            site_id=site_id,
            page_url=f"https://x/{i}",
            main_title="Disease",
            sections=[Section("Treatment", 2, f"take drugname{i} twice daily")],
        )
        for i in range(count)
    ]


def endpoints(server):
    chat = ChatEndpoint(base_url=server.base_url, model="mock")
    embed = EmbeddingEndpoint(base_url=server.base_url, model="mock-embed")
    return chat, embed


DRUGS = ["streptomycin", "doxycycline", "gentamicin", "ciprofloxacin", "dialysis",
         "chloramphenicol", "transfusion"]


def long_section_page(url="https://x/p", seed=9, title="Plague"):
    """A page with a long section (well over the 512-word anchor) naming
    five drugs at different places, then a short one naming the other two."""
    rng = random.Random(seed)
    filler = ["the", "patient", "was", "given", "care", "after", "days", "of", "rest"]
    words = [rng.choice(filler) for _ in range(1400)]
    for k, name in enumerate(DRUGS[:5]):
        words[100 + k * 280] = name
    return doc_from(
        f"<h1>{title}</h1><h2>Treatment</h2><p>" + " ".join(words) + "</p>"
        "<h2>Other</h2><p>more chloramphenicol or transfusion and streptomycin</p>",
        url=url,
    )


def drug_candidates(docs):
    a = automaton_from([(name, f"C{i}", ["Chemical or Drug"])
                        for i, name in enumerate(DRUGS)])
    return enumerate_candidates(docs, a, RELATIONS)


def long_section_site():
    """One `long_section_page` and its candidates."""
    doc = long_section_page()
    return doc, drug_candidates([doc])


def long_sections_site():
    """Two `long_section_page`s of different filler and title, and their
    candidates."""
    docs = [long_section_page(f"https://x/p{seed}", seed, title)
            for seed, title in ((9, "Plague"), (10, "Pestis"))]
    return docs, drug_candidates(docs)


def section_texts(doc, candidates, cfg=RetrievalConfig()):
    """Per section, in first-seen order: the distinct query and chunk
    texts of the given candidates that have more than one chunk. A section
    whose candidates have one chunk each is left out: it sends no request."""
    sections = [section for section, _ in doc.walk_sections()]
    out = {}
    for c in candidates:
        words = flatten_section_text(sections[c.section_index]).split()
        chunks = chunk_for_candidate(words, c.match_word_index, cfg, {})
        if len(chunks) == 1:
            continue
        texts = out.setdefault(c.section_index, {})
        texts[question(c)] = None
        texts.update(dict.fromkeys(chunk.text for chunk in chunks))
    return {index: list(texts) for index, texts in out.items()}


def run_texts(docs, candidates, cfg=RetrievalConfig()):
    """The distinct texts a run over `docs` embeds, in plan order."""
    texts = {}
    for doc in docs:
        page = [c for c in candidates if c.page_url == doc.page_url]
        for section in section_texts(doc, page, cfg).values():
            texts.update(dict.fromkeys(section))
    return list(texts)


def embed_requests(server):
    return [e["inputs"] for e in server.log.entries if e["kind"] == "embed"]


class TestSectionEmbedding:
    def run(self, doc, candidates, server, journal, **kw):
        chat, embed = endpoints(server)
        return run_extraction(
            candidates, [doc], chat, embed, RetrievalConfig(), load_exemplars(), RELATIONS,
            journal_path=journal, workers=2, **kw,
        )

    @pytest.mark.parametrize("batch_limit", [128, 8])
    def test_each_text_embedded_once_per_run(self, tmp_path, mock_server, batch_limit):
        docs, candidates = long_sections_site()
        # a copy of the first page under another URL, planned while the
        # first page's texts are sent: its candidates are new, their texts not
        docs.insert(1, long_section_page("https://x/copy"))
        candidates = drug_candidates(docs)
        assert len({(c.page_url, c.section_index) for c in candidates}) == 6
        server = mock_server()
        chat, embed = endpoints(server)
        embed.batch_limit = batch_limit
        classified = run_extraction(
            candidates, docs, chat, embed, RetrievalConfig(), load_exemplars(), RELATIONS,
            journal_path=tmp_path / "j.jsonl", workers=2)
        assert classified == len(candidates)
        expected = run_texts(docs, candidates)
        requests = embed_requests(server)
        assert sorted(sum(requests, [])) == sorted(expected), "a text embedded twice"
        # requests are filled across sections: only the last is short
        assert all(len(inputs) == batch_limit for inputs in requests[:-1])
        assert len(requests) == -(-len(expected) // batch_limit)
        if len(expected) <= batch_limit:  # both long pages' texts in one request
            assert requests == [expected]
        per_candidate = sum(
            1 + len(section_texts(doc, [c]).get(c.section_index, []))
            for doc in docs for c in candidates if c.page_url == doc.page_url)
        assert len(expected) < per_candidate
        assert not (tmp_path / "embeddings.jsonl").exists()

    def test_long_section_context_is_its_top_k_chunks(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        cfg = RetrievalConfig(top_k=4)  # of the 10 chunks a candidate has here
        exemplars = load_exemplars()
        prompts = {}

        class RecordingChat(ChatEndpoint):
            def complete(self, messages):
                prompt = messages[-1]["content"]
                prompts[prompt.rsplit("\n\n", 1)[1]] = prompt  # keyed by question
                return super().complete(messages)

        server = mock_server()
        chat = RecordingChat(base_url=server.base_url, model="mock")
        embed = EmbeddingEndpoint(base_url=server.base_url, model="mock-embed",
                                  batch_limit=3)
        run_extraction(candidates, [doc], chat, embed, cfg, exemplars, RELATIONS,
                       journal_path=tmp_path / "j.jsonl", workers=2)
        # the ranked vectors came from many requests of at most 3 inputs
        texts = run_texts([doc], candidates, cfg)
        requests = embed_requests(server)
        assert all(len(inputs) <= 3 for inputs in requests)
        assert len(requests) == -(-len(texts) // 3)
        assert sorted(sum(requests, [])) == sorted(texts)
        # test_retrieval imports this module, so this import cannot be at the top
        from test_retrieval import reference_chunks

        words = flatten_section_text(next(doc.walk_sections())[0]).split()
        reordered = 0
        for c in (c for c in candidates if c.section_index == 0):
            chunks = reference_chunks(words, c.match_word_index, cfg)
            assert len(chunks) > cfg.top_k
            query = question(c)
            expected = retrieve_top_k(
                mock_embedding(query),
                [(chunk, mock_embedding(chunk.text)) for chunk in chunks], cfg)
            reordered += expected != chunks[: cfg.top_k]
            sent = build_prompt(c, query, expected, exemplars).to_messages()[-1]["content"]
            assert prompts[query] == sent
        assert reordered, "the vectors set the context of some candidate"

    def test_limit_embeds_only_classified_candidates(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        classified = self.run(doc, candidates, server, tmp_path / "j.jsonl", limit=3)
        assert classified == 3
        expected = section_texts(doc, candidates[:3])
        assert sorted(embed_requests(server)) == sorted(expected.values())

    def test_no_worker_waits_on_another_workers_section(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        short = [question(c)
                 for c in candidates if c.section_index == 1]
        answered = threading.Event()
        waited = []

        class SignallingChat(ChatEndpoint):
            def complete(self, messages):
                reply = super().complete(messages)
                if any(q in messages[-1]["content"] for q in short):
                    answered.set()
                return reply

        class WaitingEmbedder(EmbeddingEndpoint):
            def embed(self, texts):
                # the long section's embedding waits for the short section
                waited.append(answered.wait(timeout=5))
                return super().embed(texts)

        server = mock_server()
        chat = SignallingChat(base_url=server.base_url, model="mock")
        embed = WaitingEmbedder(base_url=server.base_url, model="mock-embed")
        classified = run_extraction(candidates, [doc], chat, embed, RetrievalConfig(),
                                    load_exemplars(), RELATIONS,
                                    journal_path=tmp_path / "j.jsonl", workers=2)
        assert waited == [True], "the short section waited on the long one"
        assert classified == len(candidates)

    def test_failed_embedding_keeps_journal(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        journal = tmp_path / "j.jsonl"
        server = mock_server({"default": {"answer": "Yes", "reason": "r"}})
        self.run(doc, candidates, server, journal, limit=1)
        before = journal.read_bytes()
        server.script.statuses = [503] * 10
        chat, embed = endpoints(server)
        embed.max_retries = 0
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                run_extraction, candidates, [doc], chat, embed, RetrievalConfig(),
                load_exemplars(), RELATIONS, journal_path=journal, workers=3,
            )
            with pytest.raises(EndpointUnavailable):
                future.result(timeout=30)
        assert journal.read_bytes() == before
        # the short section's chats may run meanwhile; the long section,
        # whose embedding failed, sends none
        failed = [question(c)
                  for c in candidates if c.section_index == 0]
        chats = [e for e in server.log.entries if e["kind"] == "chat"]
        assert not any(q in e["prompt_tail"] for e in chats[1:] for q in failed)


    def test_failed_request_wakes_waiting_workers(self, tmp_path, mock_server):
        docs, candidates = long_sections_site()
        server = mock_server()
        sent = []

        class FailingEmbedder(EmbeddingEndpoint):
            def embed(self, texts):
                sent.append(texts)
                time.sleep(0.2)  # the second long section's worker waits meanwhile
                raise EndpointUnavailable("POST /v1/embeddings: HTTP 503")

        chat, _ = endpoints(server)
        embed = FailingEmbedder(base_url=server.base_url, model="mock-embed")
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                run_extraction, candidates, docs, chat, embed, RetrievalConfig(),
                load_exemplars(), RELATIONS, journal_path=tmp_path / "j.jsonl", workers=3)
            with pytest.raises(EndpointUnavailable):
                future.result(timeout=30)
        # the one request held both long sections' texts; none started after it failed
        assert len(sent) == 1 and len(sent[0]) == len(run_texts(docs, candidates))
        # the short sections' chats succeeded, so only the failed request ended the wait
        assert {e["status"] for e in server.log.entries} == {200}
        assert not (tmp_path / "embeddings.jsonl").exists()


    def test_failed_request_is_the_runs_last_request(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        sent = []

        class FailingEmbedder(EmbeddingEndpoint):
            def embed(self, texts):
                sent.append(texts)
                if len(sent) == 1:
                    raise EndpointUnavailable("POST /v1/embeddings: HTTP 503")
                return super().embed(texts)

        chat, _ = endpoints(server)
        # the long section's texts fill many requests, all submitted before it
        embed = FailingEmbedder(base_url=server.base_url, model="mock-embed", batch_limit=3)
        assert len(run_texts([doc], candidates)) > 2 * 3
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                run_extraction, candidates, [doc], chat, embed, RetrievalConfig(),
                load_exemplars(), RELATIONS, journal_path=tmp_path / "j.jsonl", workers=1)
            with pytest.raises(EndpointUnavailable):
                future.result(timeout=30)
        assert len(sent) == 1, "a request was sent after one failed"
        long = [question(c) for c in candidates if c.section_index == 0]
        chats = [e for e in server.log.entries if e["kind"] == "chat"]
        assert not any(q in e["prompt_tail"] for e in chats for q in long)

    def test_many_workers_embed_each_text_once(self, tmp_path, mock_server):
        # more workers than cores and a short switch interval, so the
        # requests and sections interleave as much as they can
        docs = [long_section_page(f"https://x/p{i}", seed=9 + i % 3) for i in range(6)]
        candidates = drug_candidates(docs)
        server = mock_server()
        chat, embed = endpoints(server)
        embed.batch_limit = 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(
                    run_extraction, candidates, docs, chat, embed, RetrievalConfig(),
                    load_exemplars(), RELATIONS, journal_path=tmp_path / "j.jsonl",
                    workers=8)
                assert future.result(timeout=60) == len(candidates)
        finally:
            sys.setswitchinterval(interval)
        requests = embed_requests(server)
        assert all(len(inputs) <= 5 for inputs in requests)
        assert sorted(sum(requests, [])) == sorted(run_texts(docs, candidates))
        assert set(Journal(tmp_path / "j.jsonl").load()) == {
            c.candidate_id for c in candidates}


class TestPlanning:
    def test_planning_error_stops_the_run(self, tmp_path, mock_server, monkeypatch):
        first, other, bad = make_candidates(3)
        # two candidates in the first section; planning the last one fails
        section = [first, dataclasses.replace(other, page_url=first.page_url)]
        started, raised = threading.Event(), threading.Event()
        held = []
        real = pipeline._section_plan

        def plan(section, members, *rest):
            if members[0] is bad:
                started.wait(timeout=5)  # the first section's first chat is held
                raised.set()
                raise ConfigError(f"candidate {bad.candidate_id}: rerun match")
            return real(section, members, *rest)

        class HoldingChat(ChatEndpoint):
            def complete(self, messages):
                if not held:
                    started.set()
                    held.append(raised.wait(timeout=5))
                return super().complete(messages)

        monkeypatch.setattr(pipeline, "_section_plan", plan)
        server = mock_server()
        chat = HoldingChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        with pytest.raises(ConfigError, match="rerun match"):
            run_extraction(section + [bad], make_documents(3), chat, embed,
                           RetrievalConfig(), load_exemplars(), RELATIONS,
                           journal_path=tmp_path / "j.jsonl", workers=2)
        assert held == [True], "the first chat was not held until the planning error"
        assert [e["kind"] for e in server.log.entries] == ["chat"]

    def test_bad_match_of_a_later_candidate_is_named(self, tmp_path, mock_server):
        # the section's first candidate is fine; the check names its second
        doc, candidates = long_section_site()
        first, second, *rest = [c for c in candidates if c.section_index == 0]
        bad = dataclasses.replace(second, match_word_index=10**6)
        server = mock_server()
        chat, embed = endpoints(server)
        with pytest.raises(ConfigError, match=rf"candidate {bad.candidate_id}: word "
                           r"index 1000000 outside \[0, \d+\) .*; rerun match"):
            run_extraction([first, bad, *rest], [doc], chat, embed, RetrievalConfig(),
                           load_exemplars(), RELATIONS,
                           journal_path=tmp_path / "j.jsonl", workers=2)
        assert server.log.entries == []

    def test_planning_stays_a_bounded_distance_ahead(self, tmp_path, mock_server,
                                                     monkeypatch):
        workers = 2
        calls = []
        holding = threading.Semaphore(0)
        release = threading.Event()
        real = pipeline._section_plan

        def plan(*args):
            calls.append(args)
            return real(*args)

        class HeldChat(ChatEndpoint):
            def complete(self, messages):
                holding.release()
                assert release.wait(timeout=10)
                return super().complete(messages)

        monkeypatch.setattr(pipeline, "_section_plan", plan)
        server = mock_server()
        chat = HeldChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        candidates = make_candidates(12)
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                run_extraction, candidates, make_documents(12), chat, embed,
                RetrievalConfig(), load_exemplars(), RELATIONS,
                journal_path=tmp_path / "j.jsonl", workers=workers)
            try:
                for _ in range(workers):
                    assert holding.acquire(timeout=10)
                time.sleep(0.2)  # time to plan further, were planning unbounded
                # no section is planned while `workers` wait on their chats
                assert len(calls) <= workers
            finally:
                release.set()
            assert future.result(timeout=30) == len(candidates)
        assert len(calls) == len(candidates)


class HeldKeys:
    """A stand-in for the embedding checkpoint that already holds `texts`."""

    def __init__(self, texts):
        self.offsets = dict.fromkeys(map(self.key, texts), 0)

    def key(self, text):
        return text.encode()


def random_sections(rng, count):
    """`count` one-section pages of one to three candidates each. Words,
    heads and titles come from small sets, so sections share texts."""
    sections = []
    for i in range(count):
        words = rng.choices(["fever", "rash", "cough", "pain"], k=rng.randint(2, 16))
        members = [
            CandidatePair(candidate_id=f"c{i}.{j}", site_id="s1", page_url=f"https://x/{i}",
                          relation=rng.choice(RELATIONS).id, head_surface=rng.choice("ab"),
                          head_concept_id=f"C{j}", tail_title=rng.choice("TU"),
                          section_path="T > S", section_index=0,
                          match_word_index=rng.randrange(len(words)))
            for j in range(rng.randint(1, 3))]
        sections.append((Section("S", 2, " ".join(words)), members))
    return sections


class TestPlanner:
    """`plan_extraction` alone: no endpoint, no thread."""

    # sections of more than 6 words have several chunks, so texts to embed
    CFG = RetrievalConfig(anchor_min_words=6, chunk_words=3, overlap_words=1)

    @pytest.mark.parametrize("batch_limit", range(1, 9))
    def test_batches_and_sections_in_plan_order(self, batch_limit):
        for seed in range(25):
            rng = random.Random(seed * 10 + batch_limit)
            sections = random_sections(rng, rng.randint(1, 12))
            texts = [pipeline._section_plan(section, members, list(map(question, members)),
                                            self.CFG)[1]
                     for section, members in sections]
            planned = list(dict.fromkeys(text for its in texts for text in its))
            checkpoint = HeldKeys(rng.sample(planned, len(planned) // 3))
            needed = [text for text in planned if text.encode() not in checkpoint.offsets]
            items = []

            def batched():
                return {text for item in items if isinstance(item, dict)
                        for text in item.values()}

            def lazily():
                for index, section in enumerate(sections):
                    # the next section is read only when nothing planned is ready
                    yielded = {id(item[0]) for item in items if isinstance(item, tuple)}
                    waiting = {text for its in texts[:index] for text in its
                               if text in needed and text not in batched()}
                    assert len(waiting) < batch_limit, seed
                    assert all(id(members) in yielded or waiting.intersection(its)
                               for (_, members), its in zip(sections, texts[:index])), seed
                    yield section

            for item in pipeline.plan_extraction(lazily(), RELATIONS, self.CFG, checkpoint,
                                                 batch_limit):
                if isinstance(item, tuple):  # after every batch that holds its texts
                    assert set(item[3]).intersection(needed) <= batched(), seed
                items.append(item)
            batches = [item for item in items if isinstance(item, dict)]
            assert [text for batch in batches for text in batch.values()] == needed, seed
            assert all(list(batch) == [text.encode() for text in batch.values()]
                       for batch in batches), seed
            assert all(len(batch) == batch_limit for batch in batches[:-1]), seed
            plans = {id(item[0]): item for item in items if isinstance(item, tuple)}
            assert len(plans) == len(items) - len(batches) == len(sections), seed
            assert [plans[id(members)][3] for _, members in sections] == texts, seed


class TestWorkers:
    def test_no_more_threads_than_pending_sections(self, tmp_path, mock_server,
                                                   monkeypatch):
        threads = set()
        both = threading.Barrier(2, timeout=10)
        real = pipeline.plan_extraction

        def plan(*args):
            threads.add(threading.get_ident())
            for item in real(*args):
                yield item
                threads.add(threading.get_ident())

        class HeldChat(ChatEndpoint):
            def complete(self, messages):
                both.wait()  # the two sections run at once
                time.sleep(0.1)  # time to start more threads, were they not capped
                return super().complete(messages)

        monkeypatch.setattr(pipeline, "plan_extraction", plan)
        server = mock_server()
        chat = HeldChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        assert run_extraction(make_candidates(2), make_documents(2), chat, embed,
                              RetrievalConfig(), load_exemplars(), RELATIONS,
                              journal_path=tmp_path / "j.jsonl", workers=16) == 2
        assert len(threads) == 2

    def test_an_interrupt_stops_every_worker(self, tmp_path, mock_server, monkeypatch,
                                             sigint_raises):
        chats = []
        real = pipeline._section_plan

        def plan(*args):
            if len(chats) >= 3 and threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt  # Ctrl-C, which only the main thread gets
            return real(*args)

        class SlowChat(ChatEndpoint):
            def complete(self, messages):
                chats.append(messages)
                time.sleep(0.01)
                return super().complete(messages)

        monkeypatch.setattr(pipeline, "_section_plan", plan)
        server = mock_server()
        chat = SlowChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        with pytest.raises(KeyboardInterrupt):
            run_extraction(make_candidates(40), make_documents(40), chat, embed,
                           RetrievalConfig(), load_exemplars(), RELATIONS,
                           journal_path=tmp_path / "j.jsonl", workers=2)
        time.sleep(0.2)  # time for 20 more chats, were a worker going on
        assert len(chats) < 10

        # every worker waits for a retry due in 30 s when the signal comes
        deferred = []

        class BusyChat(ChatEndpoint):
            def complete(self, messages):
                deferred.append(messages)
                raise RetryLater("POST /v1/chat/completions: HTTP 429", retry_after=30)

        running = threading.Event()

        def interrupt():
            deadline = time.monotonic() + 10
            while len(deferred) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # both workers are back waiting on the heap
            if running.is_set():  # a signal outside the run would end the suite
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        monkeypatch.setattr(pipeline, "_section_plan", real)
        chat = BusyChat(base_url=server.base_url, model="mock")
        signaller = threading.Thread(target=interrupt)
        running.set()
        signaller.start()
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_extraction(make_candidates(2), make_documents(2), chat, embed,
                               RetrievalConfig(), load_exemplars(), RELATIONS,
                               journal_path=tmp_path / "k.jsonl", workers=2)
        finally:
            running.clear()
            signaller.join()
        # both workers stopped at once: the pool's join did not wait out the 30 s
        assert time.monotonic() - started < 10
        assert len(deferred) == 2

    def test_an_interrupt_in_the_pools_join_stops_the_workers(self, tmp_path, mock_server,
                                                              sigint_raises):
        # two sections of five: the main thread's chats are quick, the other
        # worker's slow, so the main thread is joining the pool when Ctrl-C comes
        main = threading.main_thread()
        other_started, signalled = threading.Event(), threading.Event()
        other_chats, main_chats = [], []

        class UnevenChat(ChatEndpoint):
            def complete(self, messages):
                if threading.current_thread() is main:
                    assert other_started.wait(timeout=10)  # each took a section
                    main_chats.append(messages)
                else:
                    other_chats.append(signalled.is_set())
                    other_started.set()
                    time.sleep(0.2)
                return super().complete(messages)

        running = threading.Event()

        def interrupt():
            deadline = time.monotonic() + 10
            while len(main_chats) < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # the main thread ran out of work and joins the pool
            if running.is_set():  # a signal outside the run would end the suite
                signalled.set()
                signal.pthread_kill(main.ident, signal.SIGINT)

        candidates = make_candidates(10)
        pages = [candidates[0].page_url] * 5 + [candidates[5].page_url] * 5
        sections = [dataclasses.replace(c, page_url=url) for c, url in zip(candidates, pages)]
        server = mock_server()
        chat = UnevenChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        signaller = threading.Thread(target=interrupt)
        running.set()
        signaller.start()
        before = threading.enumerate()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_extraction(sections, make_documents(10), chat, embed, RetrievalConfig(),
                               load_exemplars(), RELATIONS,
                               journal_path=tmp_path / "j.jsonl", workers=2)
            # no worker of the run can send another chat (the mock server's
            # request threads, daemons, may still be closing their sockets)
            assert [t for t in threading.enumerate()
                    if t not in before and not t.daemon] == []
        finally:
            running.clear()
            signaller.join()
        assert len(main_chats) == 5
        assert other_chats.count(True) == 0, "a worker started a chat after Ctrl-C"
        assert len(other_chats) < 5

    @pytest.mark.parametrize("failure", ["request", "chat"])
    def test_a_failure_ends_every_wait(self, tmp_path, mock_server, failure):
        # four sections on four threads: each page's short section, the
        # embedding request of both long ones, then the two long sections,
        # which wait on it
        docs, candidates = long_sections_site()
        server = mock_server()
        chat_failed = threading.Event()
        failing = next(question(c) for c in candidates
                       if c.section_index == 1 and c.page_url == docs[0].page_url)

        class FailingChat(ChatEndpoint):
            def complete(self, messages):
                if failure == "chat" and failing in messages[-1]["content"]:
                    time.sleep(0.3)  # the long sections wait meanwhile
                    chat_failed.set()
                    raise EndpointUnavailable("POST /v1/chat/completions: HTTP 503")
                return super().complete(messages)

        class FailingEmbedder(EmbeddingEndpoint):
            def embed(self, texts):
                if failure == "chat":  # the reply comes after the failed chat
                    assert chat_failed.wait(timeout=10)
                    return super().embed(texts)
                time.sleep(0.3)  # the long sections wait meanwhile
                raise EndpointUnavailable("POST /v1/embeddings: HTTP 503")

        chat = FailingChat(base_url=server.base_url, model="mock")
        embed = FailingEmbedder(base_url=server.base_url, model="mock-embed")
        outcome = []

        def extract():
            try:
                outcome.append(run_extraction(
                    candidates, docs, chat, embed, RetrievalConfig(), load_exemplars(),
                    RELATIONS, journal_path=tmp_path / "j.jsonl", workers=4))
            except Exception as exc:
                outcome.append(exc)

        # a daemon thread, so that a lost wakeup fails this test, not the suite
        runner = threading.Thread(target=extract, daemon=True)
        runner.start()
        runner.join(timeout=20)
        assert not runner.is_alive(), "a waiting section was not woken"
        assert len(outcome) == 1 and isinstance(outcome[0], EndpointUnavailable)
        long = [question(c) for c in candidates if c.section_index == 0]
        chats = [e for e in server.log.entries if e["kind"] == "chat"]
        assert not any(q in e["prompt_tail"] for e in chats for q in long)

    def test_one_classify_section_call_per_pending_section(self, tmp_path, mock_server,
                                                           monkeypatch):
        docs, candidates = long_sections_site()
        server = mock_server()
        chat, embed = endpoints(server)
        journal = tmp_path / "j.jsonl"
        run_extraction(candidates, docs, chat, embed, RetrievalConfig(), load_exemplars(),
                       RELATIONS, journal_path=journal, workers=2, limit=3)
        pending = [c for c in candidates if c.candidate_id not in Journal(journal).load()]
        calls = []
        real = pipeline._Extraction.classify_section

        def classify_section(run, members, *rest):
            calls.append(members)
            return real(run, members, *rest)

        monkeypatch.setattr(pipeline._Extraction, "classify_section", classify_section)
        assert run_extraction(candidates, docs, chat, embed, RetrievalConfig(),
                              load_exemplars(), RELATIONS, journal_path=journal,
                              workers=2) == len(pending)
        sections = {(c.page_url, c.section_index) for c in pending}
        assert len(calls) == len(sections) > 1
        assert all(len({(c.page_url, c.section_index) for c in members}) == 1
                   for members in calls)
        assert sorted(c.candidate_id for members in calls for c in members) == sorted(
            c.candidate_id for c in pending)

    def test_no_worker_outlives_the_run(self, tmp_path, sigint_raises):
        main = threading.main_thread()
        other_started, main_done = threading.Event(), threading.Event()

        class OfflineChat(ChatEndpoint):
            """Replies Yes without a request; `script` may fail or interrupt."""
            script = None

            def complete(self, messages):
                if self.script == "fail" and "Is drugname3 " in messages[-1]["content"]:
                    raise EndpointUnavailable("POST /v1/chat/completions: HTTP 503")
                if self.script == "interrupt" and threading.current_thread() is main:
                    assert other_started.wait(timeout=10)  # each took a section
                    main_done.set()
                elif self.script == "interrupt":
                    other_started.set()
                    assert main_done.wait(timeout=10)
                    time.sleep(0.1)  # the main thread ran out of work and joins the pool
                    signal.pthread_kill(main.ident, signal.SIGINT)
                    time.sleep(0.2)  # the reply comes after Ctrl-C
                time.sleep(0.01)
                return '{"answer": "Yes", "reason": "r"}'

        chat = OfflineChat(base_url="http://127.0.0.1:9", model="offline")
        embed = EmbeddingEndpoint(base_url="http://127.0.0.1:9", model="offline-embed")

        def extract(name, count):
            return run_extraction(make_candidates(count), make_documents(count), chat, embed,
                                  RetrievalConfig(), load_exemplars(), RELATIONS,
                                  journal_path=tmp_path / name, workers=4)

        before = threading.enumerate()
        assert extract("ok.jsonl", 8) == 8
        assert [t for t in threading.enumerate() if t not in before] == []
        chat.script = "fail"
        with pytest.raises(EndpointUnavailable):
            extract("fail.jsonl", 8)
        assert [t for t in threading.enumerate() if t not in before] == []
        chat.script = "interrupt"
        with pytest.raises(KeyboardInterrupt):
            extract("interrupt.jsonl", 2)
        assert [t for t in threading.enumerate() if t not in before] == []
        assert len(Journal(tmp_path / "interrupt.jsonl").load()) == 2


def prompts_about(log, question):
    """The chats of `log`, a list of prompts, that ask `question`."""
    return [prompt for prompt in log if question in prompt]


class TestDeferral:
    """A request that meets a 429, 5xx or transport error waits on the
    run's heap, not on the worker that sent it."""

    def test_a_retry_waits_without_its_worker(self, tmp_path, mock_server):
        server = mock_server({"rules": [{"contains": "Is drugname0 ", "statuses": [503]}]})
        base = server.httpd.RequestHandlerClass

        class RetryAfterHandler(base):
            def _send_json(self, status, body):
                if status != 503:
                    return super()._send_json(status, body)
                self.send_response(503)
                self.send_header("Retry-After", "1")
                self.send_header("Content-Length", "0")
                self.end_headers()

        server.httpd.RequestHandlerClass = RetryAfterHandler
        sent = []

        class TimedChat(ChatEndpoint):
            def complete(self, messages):
                sent.append((time.monotonic(), messages[-1]["content"]))
                return super().complete(messages)

        chat = TimedChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        assert run_extraction(make_candidates(3), make_documents(3), chat, embed,
                              RetrievalConfig(), load_exemplars(), RELATIONS,
                              journal_path=tmp_path / "j.jsonl", workers=1) == 3
        attempts = [i for i, (_, prompt) in enumerate(sent) if "Is drugname0 " in prompt]
        assert len(sent) == 4 and len(attempts) == 2
        first, retry = attempts
        assert retry - first > 1, "no other chat was sent while the retry waited"
        assert sent[retry][0] - sent[first][0] >= 1.0

    def test_journaled_latency_counts_from_the_first_attempt(self, tmp_path, mock_server,
                                                             monkeypatch):
        monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 0.3)
        server = mock_server({"rules": [{"contains": "Is drugname0 ", "statuses": [503]}]})
        chat = ChatEndpoint(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)

        def journal(name, **kw):
            run_extraction(make_candidates(3), make_documents(3), chat, embed,
                           RetrievalConfig(), load_exemplars(), RELATIONS,
                           journal_path=tmp_path / name, workers=1, **kw)
            # latency_ms is in the journal's lines only: no loader reads it
            lines = (tmp_path / name).read_text().splitlines()
            return {r["candidate_id"]: r for r in map(json.loads, lines)}

        timed = journal("timed.jsonl")
        assert [e["status"] for e in server.log.entries].count(503) == 1
        assert timed["cand0000"]["latency_ms"] >= 300
        for record in timed.values():
            assert type(record["latency_ms"]) is int and record["latency_ms"] >= 0
            assert record["model_id"] == "mock"
        untimed = journal("untimed.jsonl", deterministic=True)
        assert len(untimed) == 3
        assert not any("latency_ms" in record for record in untimed.values())

    def test_a_due_retry_goes_before_the_next_candidate(self, tmp_path, mock_server):
        # one section of four candidates; the first one's 503 is due at once
        server = mock_server({"rules": [{"contains": "Is drugname0 ", "statuses": [503]}]})
        first, *rest = make_candidates(4)
        section = [first] + [dataclasses.replace(c, page_url=first.page_url) for c in rest]
        chat, embed = endpoints(server)
        assert run_extraction(section, make_documents(1), chat, embed, RetrievalConfig(),
                              load_exemplars(), RELATIONS, journal_path=tmp_path / "j.jsonl",
                              workers=1) == 4
        asked = [e["prompt_tail"].rsplit("Is ", 1)[1].split()[0] for e in server.log.entries]
        assert asked == ["drugname0", "drugname0", "drugname1", "drugname2", "drugname3"]

    def test_workers_bound_the_requests_in_flight_through_many_retries(
            self, tmp_path, mock_server, monkeypatch):
        backoff = 0.4
        monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", backoff)
        faults = [[503], [429]] * 5  # for 10 of the 12 candidates
        server = mock_server({"rules": [{"contains": f"Is drugname{i} ", "statuses": list(f)}
                                        for i, f in enumerate(faults)]})
        lock = threading.Lock()
        in_flight, peak = [0], [0]
        base = server.httpd.RequestHandlerClass

        class CountingHandler(base):
            def do_POST(self):
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                time.sleep(0.005)
                super().do_POST()

            def _send_json(self, status, body):
                with lock:  # before the reply: its client may send again at once
                    in_flight[0] -= 1
                super()._send_json(status, body)

        server.httpd.RequestHandlerClass = CountingHandler
        chat = ChatEndpoint(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        started = time.monotonic()
        assert run_extraction(make_candidates(12), make_documents(12), chat, embed,
                              RetrievalConfig(), load_exemplars(), RELATIONS,
                              journal_path=tmp_path / "j.jsonl", workers=2) == 12
        elapsed = time.monotonic() - started
        statuses = [e["status"] for e in server.log.entries]
        assert len(statuses) == 12 + sum(map(len, faults))
        assert statuses.count(200) == 12
        assert 1 <= peak[0] <= 2
        # the waits overlap: 10 backoffs slept out on 2 workers would take 2 s
        assert elapsed < 3 * backoff

    def test_a_deferred_batch_holds_only_the_sections_that_need_it(
            self, tmp_path, mock_server):
        docs, candidates = long_sections_site()
        server = mock_server()
        lock = threading.Lock()
        embeds, chats = [], []  # (time, texts) and (time, prompt) of each attempt

        class OnceBusyEmbedder(EmbeddingEndpoint):
            def embed(self, texts):
                with lock:
                    embeds.append((time.monotonic(), texts))
                    first = len(embeds) == 1
                if first:
                    raise RetryLater("POST /v1/embeddings: HTTP 503", retry_after=1.0)
                return super().embed(texts)

        class TimedChat(ChatEndpoint):
            def complete(self, messages):
                chats.append((time.monotonic(), messages[-1]["content"]))
                return super().complete(messages)

        chat = TimedChat(base_url=server.base_url, model="mock")
        embed = OnceBusyEmbedder(base_url=server.base_url, model="mock-embed", batch_limit=3)
        assert run_extraction(candidates, docs, chat, embed, RetrievalConfig(),
                              load_exemplars(), RELATIONS, journal_path=tmp_path / "j.jsonl",
                              workers=2) == len(candidates)
        busy = embeds[0][1]
        (retried,) = [at for at, texts in embeds[1:] if texts == busy]
        assert retried - embeds[0][0] >= 1.0
        texts = {}
        for doc in docs:
            on_page = [c for c in candidates if c.page_url == doc.page_url]
            texts.update({(doc.page_url, index): its
                          for index, its in section_texts(doc, on_page).items()})
        needs = {question(c) for c in candidates
                 if set(busy) & set(texts.get((c.page_url, c.section_index), ()))}
        assert 0 < len(needs) < len(candidates)
        asked = [(at, next(q for q in map(question, candidates) if q in prompt))
                 for at, prompt in chats]
        # the sections that need the batch wait for it; the others go on
        assert all(at > retried for at, q in asked if q in needs)
        assert all(at < retried for at, q in asked if q not in needs)

    def test_many_workers_send_each_retry_once(self, tmp_path, mock_server, monkeypatch):
        # more workers than cores and a short switch interval, so the
        # deferrals, the heap and the waits interleave as much as they can
        faults = [[503], [429, 503], [429], [503, 503]] * 8  # for 32 of 40 candidates
        server = mock_server({"rules": [{"contains": f"Is drugname{i} ", "statuses": list(f)}
                                        for i, f in enumerate(faults)]})
        monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 0.001)
        chat = ChatEndpoint(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        journal = tmp_path / "j.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(
                    run_extraction, make_candidates(40), make_documents(40), chat, embed,
                    RetrievalConfig(), load_exemplars(), RELATIONS, journal_path=journal,
                    workers=8)
                assert future.result(timeout=60) == 40
        finally:
            sys.setswitchinterval(interval)
        ids = [json.loads(line)["candidate_id"] for line in journal.read_text().splitlines()]
        assert sorted(ids) == [c.candidate_id for c in make_candidates(40)]
        statuses = [e["status"] for e in server.log.entries]
        assert statuses.count(200) == 40
        assert len(statuses) == 40 + sum(map(len, faults))

    def test_a_request_past_max_retries_ends_the_run(self, tmp_path, mock_server,
                                                     monkeypatch):
        # drugname0's first attempt is deferred by 10 s; drugname1 fails three
        # times, 0.1 s and 0.2 s apart; drugname2's chat is in flight then
        far, outage, late = "Is drugname0 ", "Is drugname1 ", "Is drugname2 "
        sent = []
        third = threading.Event()

        class ScriptedChat(ChatEndpoint):
            def complete(self, messages):
                prompt = messages[-1]["content"]
                sent.append(prompt)
                if outage in prompt:
                    if len(prompts_about(sent, outage)) == 3:
                        third.set()
                    raise RetryLater("POST /v1/chat/completions: HTTP 503")
                if far in prompt and len(prompts_about(sent, far)) == 1:
                    raise RetryLater("POST /v1/chat/completions: HTTP 429", retry_after=10)
                if late in prompt:
                    assert third.wait(timeout=10)
                    time.sleep(0.2)  # the reply comes after the run failed
                return super().complete(messages)

        server = mock_server()
        monkeypatch.setattr(endpoint, "RETRY_BACKOFF_S", 0.1)
        chat = ScriptedChat(base_url=server.base_url, model="mock")
        _, embed = endpoints(server)
        candidates = make_candidates(5)
        journal = tmp_path / "j.jsonl"
        started = time.monotonic()
        with pytest.raises(EndpointUnavailable, match="HTTP 503"):
            run_extraction(candidates, make_documents(5), chat, embed, RetrievalConfig(),
                           load_exemplars(), RELATIONS, journal_path=journal, workers=2)
        assert time.monotonic() - started < 5, "the run waited for a deferred request"
        assert len(prompts_about(sent, outage)) == 3
        assert len(prompts_about(sent, far)) == 1, "a deferred request was sent"
        assert sorted(Journal(journal).load()) == ["cand0002", "cand0003", "cand0004"]
        # the resume sends each candidate left pending exactly once more
        chat, embed = endpoints(server)
        logged = len(server.log.entries)
        assert run_extraction(candidates, make_documents(5), chat, embed, RetrievalConfig(),
                              load_exemplars(), RELATIONS, journal_path=journal,
                              workers=2) == 2
        resumed = [e["prompt_tail"] for e in server.log.entries[logged:]]
        assert len(resumed) == 2
        assert len(prompts_about(resumed, far)) == len(prompts_about(resumed, outage)) == 1


def abort_after_embedding(tmp_path, server, docs, candidates, **kw):
    """Run until the chat about gentamicin, a drug of the first page's long
    section, fails three times; returns the journal path."""
    treatment = next(r for r in RELATIONS if r.id == "treatment")
    server.script.rules.insert(0, {"contains": treatment.question("gentamicin", "Plague"),
                                   "statuses": [503] * 3})
    chat, embed = endpoints(server)
    journal = tmp_path / "j.jsonl"
    with pytest.raises(EndpointUnavailable):
        run_extraction(candidates, docs, chat, embed, RetrievalConfig(), load_exemplars(),
                       RELATIONS, journal_path=journal, workers=2, **kw)
    return journal


class TestEmbeddingCheckpoint:
    def run(self, docs, candidates, server, journal, **kw):
        chat, embed = endpoints(server)
        return run_extraction(candidates, docs, chat, embed, RetrievalConfig(),
                              load_exemplars(), RELATIONS, journal_path=journal,
                              workers=2, **kw)

    def test_resume_embeds_no_text_again(self, tmp_path, mock_server):
        docs, candidates = long_sections_site()
        server = mock_server()
        journal = abort_after_embedding(tmp_path, server, docs, candidates)
        checkpoint = tmp_path / "embeddings.jsonl"
        texts = run_texts(docs, candidates)
        assert len(checkpoint.read_text().splitlines()) == len(texts)
        sent = len(embed_requests(server))
        left = len(candidates) - len(Journal(journal).load())
        assert self.run(docs, candidates, server, journal) == left
        requests = embed_requests(server)
        assert len(requests) == sent, "the resume sent an embedding request"
        assert sorted(sum(requests, [])) == sorted(texts), "a text embedded twice"
        assert not checkpoint.exists()

    def test_torn_last_line_embeds_only_its_text(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        journal = abort_after_embedding(tmp_path, server, [doc], candidates)
        checkpoint = tmp_path / "embeddings.jsonl"
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[:-40])  # as a kill in the middle of the last line
        sent = len(embed_requests(server))
        self.run([doc], candidates, server, journal)
        # lines are appended in plan order, so the torn one holds a text of
        # the last long-section candidate, which the failure left pending
        assert embed_requests(server)[sent:] == [run_texts([doc], candidates)[-1:]]
        assert not checkpoint.exists()

    def test_limit_keeps_the_checkpoint(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        journal = tmp_path / "j.jsonl"
        checkpoint = tmp_path / "embeddings.jsonl"
        assert self.run([doc], candidates, server, journal, limit=3) == 3
        assert len(checkpoint.read_text().splitlines()) == len(
            run_texts([doc], candidates[:3]))
        # a limit that reaches every pending candidate leaves none pending
        rest = len(candidates) - 3
        assert self.run([doc], candidates, server, journal, limit=rest) == rest
        assert not checkpoint.exists()
        requests = sum(embed_requests(server), [])
        assert sorted(requests) == sorted(run_texts([doc], candidates))

    def test_vector_of_another_length_is_rejected(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        journal = abort_after_embedding(tmp_path, server, [doc], candidates)
        checkpoint = tmp_path / "embeddings.jsonl"
        # the pending gentamicin candidate's question gets 16 dimensions, not 32
        pending = next(c for c in candidates if c.head_surface == "gentamicin")
        key = hashlib.sha1(f"mock-embed\x00{question(pending)}".encode()).hexdigest()
        records = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        short = base64.b64encode(array("d", [1.0] * 16).tobytes()).decode()
        assert sum(r["key"] == key for r in records) == 1
        checkpoint.write_text("".join(
            json.dumps({**r, "vector": short} if r["key"] == key else r) + "\n"
            for r in records))
        sent = len(server.log.entries)
        with pytest.raises(EndpointRejected, match="mixed dimensions"):
            self.run([doc], candidates, server, journal)
        assert not any(e["kind"] == "embed" for e in server.log.entries[sent:])
        assert checkpoint.exists()

    def test_vector_of_part_of_a_float64_is_embedded_again(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        journal = abort_after_embedding(tmp_path, server, [doc], candidates)
        checkpoint = tmp_path / "embeddings.jsonl"
        pending = next(c for c in candidates if c.head_surface == "gentamicin")
        key = hashlib.sha1(f"mock-embed\x00{question(pending)}".encode()).hexdigest()
        records = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        # 31.5 float64s: base64 that decodes, to bytes that are no vector
        torn = base64.b64encode(array("d", [1.0] * 32).tobytes()[:-4]).decode()
        checkpoint.write_text("".join(
            json.dumps({**r, "vector": torn} if r["key"] == key else r) + "\n"
            for r in records))
        sent = len(embed_requests(server))
        self.run([doc], candidates, server, journal)
        assert embed_requests(server)[sent:] == [[question(pending)]]
        assert not checkpoint.exists()

    def test_no_more_requests_in_flight_than_workers(self, tmp_path, mock_server):
        docs = [long_section_page(f"https://x/p{seed}", seed) for seed in range(4)]
        candidates = drug_candidates(docs)
        server = mock_server()
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]
        base = server.httpd.RequestHandlerClass

        class CountingHandler(base):
            def do_POST(self):
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                time.sleep(0.005)
                super().do_POST()

            def _send_json(self, status, body):
                with lock:  # before the reply: its client may send again at once
                    in_flight[0] -= 1
                super()._send_json(status, body)

        server.httpd.RequestHandlerClass = CountingHandler
        chat, embed = endpoints(server)
        embed.batch_limit = 8
        classified = run_extraction(candidates, docs, chat, embed, RetrievalConfig(),
                                    load_exemplars(), RELATIONS,
                                    journal_path=tmp_path / "j.jsonl", workers=3)
        assert classified == len(candidates)
        assert len(embed_requests(server)) > 3
        assert 1 <= peak[0] <= 3


class TestRunExtraction:
    RELATIONS = ["manifestation", "diagnosis", "treatment"]

    def run(self, candidates, server, journal, documents=None, **kw):
        """Classify, then summarise the journal: (classified, triplets,
        report, malformed)."""
        chat, embed = endpoints(server)
        if documents is None:
            documents = make_documents(len(candidates))
        classified = run_extraction(
            candidates, documents, chat, embed, RetrievalConfig(), load_exemplars(), RELATIONS,
            journal_path=journal, workers=2, **kw,
        )
        triplets, _, report, malformed = summarize(
            candidates, Journal(journal).load(), self.RELATIONS, [])
        return classified, triplets, report, malformed

    def test_counting_contract(self, tmp_path, mock_server):
        server = mock_server({
            "default": {"answer": "No", "reason": "nope"},
            "rules": [
                {"contains": "Is drugname0", "answer": "Yes", "reason": "a"},
                {"contains": "Is drugname2", "answer": "Yes", "reason": "b"},
                {"contains": "Is drugname3", "raw": "not json"},
            ],
        })
        _, triplets, report, malformed = self.run(make_candidates(4), server,
                                                  tmp_path / "j.jsonl")
        assert len(triplets) == 2
        cell = report["sites"]["s1"]["cells"]["treatment"]
        counts = (cell["candidates"], cell["positives"], cell["negatives"], cell["malformed"])
        assert counts == (4, 2, 1, 1)
        assert len(malformed) == 1
        # conservation
        assert cell["positives"] + cell["negatives"] + cell["malformed"] == cell["candidates"]

    def test_empty_candidates(self, tmp_path, mock_server):
        server = mock_server()
        _, triplets, report, _ = self.run([], server, tmp_path / "j.jsonl")
        assert triplets == []
        assert report["sites"] == {}
        assert set(report["totals"].values()) == {0}

    def test_resume_skips_journaled(self, tmp_path, mock_server):
        server = mock_server({"default": {"answer": "Yes", "reason": "r"}})
        journal = tmp_path / "j.jsonl"
        candidates = make_candidates(4)
        first, *_ = self.run(candidates, server, journal, limit=2)
        assert first == 2
        second, triplets, _, _ = self.run(candidates, server, journal)
        assert second == 2
        chat_requests = [e for e in server.log.entries if e["kind"] == "chat"]
        assert len(chat_requests) == 4
        assert len(triplets) == 4

    def test_endpoint_failure_preserves_journal(self, tmp_path, mock_server):
        server = mock_server({
            "default": {"answer": "Yes", "reason": "r"},
            "statuses": [503, 503, 503],
        })
        journal = tmp_path / "j.jsonl"
        candidates = make_candidates(3)
        chat, embed = endpoints(server)
        chat.max_retries = 0
        embed.max_retries = 0
        with pytest.raises(EndpointUnavailable):
            run_extraction(
                candidates, make_documents(3), chat, embed, RetrievalConfig(),
                load_exemplars(), RELATIONS, journal_path=journal, workers=1,
            )
        done_before = len(journal.read_text().splitlines()) if journal.exists() else 0
        # resume finishes the rest without re-doing journaled work
        classified, *_ = self.run(candidates, server, journal)
        assert classified == 3 - done_before

    def test_no_candidate_started_after_a_failure(self, tmp_path, mock_server):
        server = mock_server({"rules": [{"contains": "Is drugname0", "statuses": [400]}]})
        chat, embed = endpoints(server)
        with pytest.raises(EndpointRejected):
            run_extraction(
                make_candidates(30), make_documents(30), chat, embed, RetrievalConfig(),
                load_exemplars(), RELATIONS, journal_path=tmp_path / "j.jsonl", workers=1,
            )
        assert [e["status"] for e in server.log.entries] == [400]

    def test_triplet_provenance_complete(self, tmp_path, mock_server):
        server = mock_server({"default": {"answer": "Yes", "reason": "because"}})
        _, triplets, _, _ = self.run(make_candidates(2), server, tmp_path / "j.jsonl")
        for t in triplets:
            assert t["reason"]
            assert t["section_path"]
            assert t["model_id"] == "mock"


def yes(concept="C1", relation="treatment", tail="Plague", site="s1", answer="Yes"):
    return concept, relation, tail, site, answer


def journaled(specs):
    """Candidates and their journal records, from (concept, relation, tail,
    site, answer) tuples in candidate order; an answer of None is pending."""
    candidates, records = [], {}
    for i, (concept, relation, tail, site, answer) in enumerate(specs):
        c = CandidatePair(
            candidate_id=f"c{i}", site_id=site, page_url=f"https://{site}/{i}",
            relation=relation, head_surface=f"term{i}", head_concept_id=concept,
            tail_title=tail, section_path=f"{tail} > S", section_index=0,
            match_word_index=0,
        )
        candidates.append(c)
        if answer is not None:
            records[c.candidate_id] = Verdict(c.candidate_id, answer, f"r{i}", "m")
    return candidates, records


def dedupe(specs, site_priority=()):
    """summarize's kept triplets and duplicate count."""
    candidates, records = journaled(specs)
    triplets, duplicates, _, _ = summarize(candidates, records, [r.id for r in RELATIONS],
                                           site_priority)
    return triplets, duplicates


def reference_dedupe(triplets, site_priority):
    """The two-pass rule that summarize folded into its one loop: a copy of
    the former `dedupe_triplets`, over triplet dicts in candidate order."""
    priority = {site: i for i, site in enumerate(site_priority or [])}
    best = {}
    duplicates = 0
    for order, t in enumerate(triplets):
        key = (t["head_concept_id"], t["relation"], t["tail_title"].casefold())
        rank = (priority.get(t["site_id"], len(priority)), order)
        if key in best:
            duplicates += 1
            if rank < best[key][:2]:
                best[key] = (*rank, t)
        else:
            best[key] = (*rank, t)
    deduped = [entry[2] for entry in sorted(best.values(), key=lambda e: e[1])]
    return deduped, duplicates


class TestDedupe:
    def test_cross_site_duplicate(self):
        kept, dupes = dedupe([yes(site="s1"), yes(site="s2")], site_priority=["s1", "s2"])
        assert len(kept) == 1
        assert dupes == 1
        assert kept[0]["site_id"] == "s1"

    def test_priority_order_wins(self):
        kept, _ = dedupe([yes(site="s2"), yes(site="s1")], site_priority=["s1", "s2"])
        assert kept[0]["site_id"] == "s1"

    def test_concept_key_not_surface(self):
        kept, dupes = dedupe([yes(concept="C1"), yes(concept="C2")])
        assert len(kept) == 2 and dupes == 0

    def test_case_folded_tail(self):
        kept, dupes = dedupe([yes(tail="Plague"), yes(tail="PLAGUE")])
        assert len(kept) == 1 and dupes == 1

    def test_distinct_kept(self):
        kept, dupes = dedupe([yes(concept=c) for c in "ABC"])
        assert len(kept) == 3 and dupes == 0

    def test_no_two_kept_triplets_share_a_key(self):
        specs = [yes(site=s, concept=c, tail=t)
                 for s in ("s1", "s2", "s3") for c in "AB" for t in ("Straße", "STRASSE")]
        kept, dupes = dedupe(specs, site_priority=["s2"])
        keys = {(t["head_concept_id"], t["relation"], t["tail_title"].casefold())
                for t in kept}
        assert len(keys) == len(kept) == 2 and dupes == len(specs) - 2
        assert {t["site_id"] for t in kept} == {"s2"}

    def test_matches_two_pass_reference(self):
        rng = random.Random(1616)
        sites = ["a", "b", "c", "d"]
        tails = ["Plague", "plague", "PLAGUE", "Fever", "Straße", "STRASSE"]
        answers = ["Yes", "Yes", "No", "Malformed", None]
        duplicated = 0
        for _ in range(300):
            priority = rng.sample(sites, rng.randint(0, len(sites)))
            specs = [(rng.choice(["C1", "C2", "C3"]), rng.choice(RELATIONS).id,
                      rng.choice(tails), rng.choice(sites), rng.choice(answers))
                     for _ in range(rng.randint(0, 30))]
            candidates, records = journaled(specs)
            yes_triplets = [
                {"head_concept_id": c.head_concept_id, "head_surface": c.head_surface,
                 "relation": c.relation, "tail_title": c.tail_title, "site_id": c.site_id,
                 "page_url": c.page_url, "section_path": c.section_path,
                 "reason": records[c.candidate_id].reason, "model_id": "m"}
                for c in candidates
                if c.candidate_id in records and records[c.candidate_id].answer == "Yes"
            ]
            expected, expected_dupes = reference_dedupe(yes_triplets, priority)
            kept, dupes = dedupe(specs, priority)
            # json.dumps pins each triplet's key order too
            assert [json.dumps(t) for t in kept] == [json.dumps(t) for t in expected]
            assert dupes == expected_dupes
            duplicated += dupes > 0
        assert duplicated > 100


def summary_table(relation, answers, pending=0):
    """report.txt and report of one site whose candidates of `relation`
    were journaled with `answers`, plus `pending` candidates without a
    record."""
    candidates = make_candidates(len(answers) + pending, relation=relation, site_id="s")
    records = {c.candidate_id: Verdict(c.candidate_id, answer, "r", "m")
               for c, answer in zip(candidates, answers)}
    _, _, report, _ = summarize(candidates, records, [relation], [])
    return report_table(report), report


class TestRenderReport:
    def test_cell_format(self):
        text, as_dict = summary_table("manifestation", ["Yes"] * 80910 + ["No"] * 28576)
        assert "80910(73.9%)" in text
        assert as_dict["sites"]["s"]["cells"]["manifestation"]["display"] == "80910(73.9%)"

    def test_zero_candidates(self):
        text, _ = summary_table("diagnosis", [], pending=1)
        assert "0(0.0%)" in text

    def test_rate_to_one_decimal(self):
        text, _ = summary_table("manifestation", ["Yes"] * 9354 + ["No"] * 1638)  # 85.1%
        assert "9354(85.1%)" in text

    def test_json_conservation(self):
        _, as_dict = summary_table("treatment", ["Yes"] * 6 + ["No"] * 3 + ["Malformed"])
        c = as_dict["sites"]["s"]["cells"]["treatment"]
        assert c["positives"] + c["negatives"] + c["malformed"] == c["candidates"]
