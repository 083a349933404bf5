import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from biotriplets.classifier import CandidatePair, ChatEndpoint, build_prompt, load_exemplars
from biotriplets.docmodel import (
    Section,
    SiteProfile,
    WebDocument,
    flatten_section_text,
    preprocess_html,
)
from biotriplets.errors import EndpointRejected, EndpointUnavailable
from biotriplets.matcher import MatcherAutomaton, Thesaurus
from biotriplets.mockserver import mock_embedding
from biotriplets.pipeline import (
    CellCounts,
    ExtractionReport,
    Journal,
    RelationTriplet,
    default_relations,
    dedupe_triplets,
    enumerate_candidates,
    render_report,
    run_extraction,
    token_starts,
    word_index,
)
from biotriplets.retrieval import (
    EmbeddingEndpoint,
    RetrievalConfig,
    build_query,
    chunk_for_candidate,
    retrieve_top_k,
)

PROFILE = SiteProfile(site_id="s1")
RELATIONS = default_relations()


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
        section = list(doc.walk_sections())[c.section_index]
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
        {"candidate_id": "a", "answer": "Yes", "reason": "listed", "model_id": "m"},
        {"candidate_id": "b", "answer": "No", "reason": "fièvre 世界", "model_id": "m"},
        {"candidate_id": "c", "answer": "Yes", "reason": "named", "model_id": "m"},
    ]

    def test_append_after_torn_tail_at_every_byte(self, tmp_path):
        a, b, c = self.RECORDS
        line_a, line_b = ((json.dumps(r, ensure_ascii=False) + "\n").encode("utf-8")
                          for r in (a, b))
        for cut in range(len(line_b) + 1):
            path = tmp_path / f"journal{cut}.jsonl"
            path.write_bytes(line_a + line_b[:cut])
            Journal(path).append(c)
            loaded = Journal(path).load()
            # b survives only when no more than its newline was lost
            expected = {"a", "c"} | ({"b"} if cut >= len(line_b) - 1 else set())
            assert set(loaded) == expected, cut
            assert loaded["a"] == a and loaded["c"] == c

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
            head_semantic_types=frozenset({"Chemical or Drug"}),
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
    chat = ChatEndpoint(base_url=server.base_url, model="mock", retry_backoff=0.0)
    embed = EmbeddingEndpoint(base_url=server.base_url, model="mock-embed",
                              retry_backoff=0.0)
    return chat, embed


DRUGS = ["streptomycin", "doxycycline", "gentamicin", "ciprofloxacin", "dialysis",
         "chloramphenicol", "transfusion"]


def long_section_site():
    """One page: a long section (well over the 512-word anchor) naming five
    drugs at different places, then a short one naming the other two."""
    a = automaton_from([(name, f"C{i}", ["Chemical or Drug"])
                        for i, name in enumerate(DRUGS)])
    rng = random.Random(9)
    filler = ["the", "patient", "was", "given", "care", "after", "days", "of", "rest"]
    words = [rng.choice(filler) for _ in range(1400)]
    for k, name in enumerate(DRUGS[:5]):
        words[100 + k * 280] = name
    doc = doc_from(
        "<h1>Plague</h1><h2>Treatment</h2><p>" + " ".join(words) + "</p>"
        "<h2>Other</h2><p>more chloramphenicol or transfusion and streptomycin</p>"
    )
    return doc, enumerate_candidates([doc], a, RELATIONS)


def section_texts(doc, candidates, cfg=RetrievalConfig()):
    """Per section, in first-seen order: the distinct query and chunk
    texts of the given candidates that have more than one chunk. A section
    whose candidates have one chunk each is left out: it sends no request."""
    sections = list(doc.walk_sections())
    out = {}
    for c in candidates:
        flat = flatten_section_text(sections[c.section_index])
        chunks = chunk_for_candidate(flat, c.match_word_index, cfg)
        if len(chunks) == 1:
            continue
        texts = out.setdefault(c.section_index, {})
        texts[build_query(c.head_surface, c.relation, c.tail_title)] = None
        texts.update(dict.fromkeys(chunk.text for chunk in chunks))
    return {index: list(texts) for index, texts in out.items()}


def embed_requests(server):
    return [e["inputs"] for e in server.log.entries if e["kind"] == "embed"]


class TestSectionEmbedding:
    def run(self, doc, candidates, server, journal, **kw):
        chat, embed = endpoints(server)
        return run_extraction(
            candidates, [doc], chat, embed, RetrievalConfig(), load_exemplars(),
            journal_path=journal, workers=2, **kw,
        )

    def test_each_text_embedded_once_per_section(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        assert len({c.section_index for c in candidates}) == 2
        assert sum(c.section_index == 0 for c in candidates) == 5
        server = mock_server()
        result = self.run(doc, candidates, server, tmp_path / "j.jsonl")
        assert result.classified == len(candidates)
        requests = embed_requests(server)
        for inputs in requests:
            assert len(inputs) == len(set(inputs)), "a text sent twice in one request"
        # one request per section of more than one chunk, carrying its
        # distinct queries plus chunks; the short "Other" section sends none
        expected = section_texts(doc, candidates)
        assert list(expected) == [0]
        assert sorted(requests) == sorted(expected.values())
        per_candidate = sum(
            1 + len(section_texts(doc, [c]).get(c.section_index, [])) for c in candidates
        )
        assert sum(map(len, requests)) < per_candidate

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
        embed = EmbeddingEndpoint(base_url=server.base_url, model="mock-embed")
        run_extraction(candidates, [doc], chat, embed, cfg, exemplars,
                       journal_path=tmp_path / "j.jsonl", workers=2)
        flat = flatten_section_text(list(doc.walk_sections())[0])
        reordered = 0
        for c in (c for c in candidates if c.section_index == 0):
            chunks = chunk_for_candidate(flat, c.match_word_index, cfg)
            assert len(chunks) > cfg.top_k
            query = build_query(c.head_surface, c.relation, c.tail_title)
            expected = retrieve_top_k(
                np.array(mock_embedding(query)),
                [(chunk, np.array(mock_embedding(chunk.text))) for chunk in chunks], cfg)
            reordered += expected != chunks[: cfg.top_k]
            sent = build_prompt(c, expected, exemplars).to_messages()[-1]["content"]
            assert prompts[query] == sent
        assert reordered, "the vectors set the context of some candidate"

    def test_limit_embeds_only_classified_candidates(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        server = mock_server()
        result = self.run(doc, candidates, server, tmp_path / "j.jsonl", limit=3)
        assert result.classified == 3
        expected = section_texts(doc, candidates[:3])
        assert sorted(embed_requests(server)) == sorted(expected.values())

    def test_no_worker_waits_on_another_workers_section(self, tmp_path, mock_server):
        doc, candidates = long_section_site()
        short = [build_query(c.head_surface, c.relation, c.tail_title)
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
        result = run_extraction(candidates, [doc], chat, embed, RetrievalConfig(),
                                load_exemplars(), journal_path=tmp_path / "j.jsonl",
                                workers=2)
        assert waited == [True], "the short section waited on the long one"
        assert result.classified == len(candidates)

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
                load_exemplars(), journal_path=journal, workers=3,
            )
            with pytest.raises(EndpointUnavailable):
                future.result(timeout=30)
        assert journal.read_bytes() == before
        # the short section's chats may run meanwhile; the long section,
        # whose embedding failed, sends none
        failed = [build_query(c.head_surface, c.relation, c.tail_title)
                  for c in candidates if c.section_index == 0]
        chats = [e for e in server.log.entries if e["kind"] == "chat"]
        assert not any(q in e["prompt_tail"] for e in chats[1:] for q in failed)


class TestRunExtraction:
    def run(self, candidates, server, journal, documents=None, **kw):
        chat, embed = endpoints(server)
        if documents is None:
            documents = make_documents(len(candidates))
        return run_extraction(
            candidates, documents, chat, embed, RetrievalConfig(), load_exemplars(),
            journal_path=journal, relations=["manifestation", "diagnosis", "treatment"],
            workers=2, **kw,
        )

    def test_counting_contract(self, tmp_path, mock_server):
        server = mock_server({
            "default": {"answer": "No", "reason": "nope"},
            "rules": [
                {"contains": "Is drugname0", "answer": "Yes", "reason": "a"},
                {"contains": "Is drugname2", "answer": "Yes", "reason": "b"},
                {"contains": "Is drugname3", "raw": "not json"},
            ],
        })
        result = self.run(make_candidates(4), server, tmp_path / "j.jsonl")
        assert len(result.triplets) == 2
        cell = result.report.cell("s1", "treatment")
        assert (cell.candidates, cell.positives, cell.negatives, cell.malformed) == (4, 2, 1, 1)
        assert len(result.malformed) == 1
        # conservation
        assert cell.positives + cell.negatives + cell.malformed == cell.candidates

    def test_empty_candidates(self, tmp_path, mock_server):
        server = mock_server()
        result = self.run([], server, tmp_path / "j.jsonl")
        assert result.triplets == []
        assert result.report.cells == {}

    def test_resume_skips_journaled(self, tmp_path, mock_server):
        server = mock_server({"default": {"answer": "Yes", "reason": "r"}})
        journal = tmp_path / "j.jsonl"
        candidates = make_candidates(4)
        first = self.run(candidates, server, journal, limit=2)
        assert first.classified == 2
        second = self.run(candidates, server, journal)
        assert second.classified == 2
        chat_requests = [e for e in server.log.entries if e["kind"] == "chat"]
        assert len(chat_requests) == 4
        assert len(second.triplets) == 4

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
                load_exemplars(), journal_path=journal, workers=1,
            )
        done_before = len(journal.read_text().splitlines()) if journal.exists() else 0
        # resume finishes the rest without re-doing journaled work
        result = self.run(candidates, server, journal)
        assert result.classified == 3 - done_before

    def test_no_candidate_started_after_a_failure(self, tmp_path, mock_server):
        server = mock_server({"rules": [{"contains": "Is drugname0", "statuses": [400]}]})
        chat, embed = endpoints(server)
        with pytest.raises(EndpointRejected):
            run_extraction(
                make_candidates(30), make_documents(30), chat, embed, RetrievalConfig(),
                load_exemplars(), journal_path=tmp_path / "j.jsonl", workers=1,
            )
        assert [e["status"] for e in server.log.entries] == [400]

    def test_triplet_provenance_complete(self, tmp_path, mock_server):
        server = mock_server({"default": {"answer": "Yes", "reason": "because"}})
        result = self.run(make_candidates(2), server, tmp_path / "j.jsonl")
        for t in result.triplets:
            assert t.reason
            assert t.section_path
            assert t.model_id == "mock"


def triplet(concept="C1", relation="treatment", tail="Plague", site="s1", reason="r"):
    return RelationTriplet(
        head_concept_id=concept, head_surface="x", relation=relation,
        tail_title=tail, site_id=site, page_url="u", section_path="p",
        reason=reason, model_id="m",
    )


class TestDedupe:
    def test_cross_site_duplicate(self):
        triplets = [triplet(site="s1"), triplet(site="s2")]
        deduped, dupes = dedupe_triplets(triplets, site_priority=["s1", "s2"])
        assert len(deduped) == 1
        assert dupes == 1
        assert deduped[0].site_id == "s1"

    def test_priority_order_wins(self):
        triplets = [triplet(site="s2"), triplet(site="s1")]
        deduped, _ = dedupe_triplets(triplets, site_priority=["s1", "s2"])
        assert deduped[0].site_id == "s1"

    def test_concept_key_not_surface(self):
        triplets = [triplet(concept="C1"), triplet(concept="C2")]
        deduped, dupes = dedupe_triplets(triplets)
        assert len(deduped) == 2 and dupes == 0

    def test_case_folded_tail(self):
        triplets = [triplet(tail="Plague"), triplet(tail="PLAGUE")]
        deduped, dupes = dedupe_triplets(triplets)
        assert len(deduped) == 1 and dupes == 1

    def test_distinct_kept(self):
        triplets = [triplet(concept=c) for c in "ABC"]
        deduped, dupes = dedupe_triplets(triplets)
        assert len(deduped) == 3 and dupes == 0

    def test_idempotent(self):
        triplets = [triplet(site=s, concept=c) for s in ("s1", "s2") for c in "AB"]
        once, _ = dedupe_triplets(triplets)
        twice, dupes = dedupe_triplets(once)
        assert twice == once and dupes == 0


class TestRenderReport:
    def test_cell_format(self):
        report = ExtractionReport(relations=["manifestation"])
        cell = report.cell("medsite", "manifestation")
        cell.candidates = 109486
        cell.positives = 80910
        cell.negatives = 28576
        text, as_dict = render_report(report)
        assert "80910(73.9%)" in text
        assert as_dict["sites"]["medsite"]["cells"]["manifestation"]["display"] == "80910(73.9%)"

    def test_zero_candidates(self):
        report = ExtractionReport(relations=["diagnosis"])
        report.cell("s", "diagnosis")
        text, _ = render_report(report)
        assert "0(0.0%)" in text

    def test_rate_to_one_decimal(self):
        report = ExtractionReport(relations=["manifestation"])
        cell = report.cell("s", "manifestation")
        cell.candidates = 10992
        cell.positives = 9354  # 85.1%
        text, _ = render_report(report)
        assert "9354(85.1%)" in text

    def test_json_conservation(self):
        report = ExtractionReport(relations=["treatment"])
        cell = report.cell("s", "treatment")
        cell.candidates, cell.positives, cell.negatives, cell.malformed = 10, 6, 3, 1
        _, as_dict = render_report(report)
        c = as_dict["sites"]["s"]["cells"]["treatment"]
        assert c["positives"] + c["negatives"] + c["malformed"] == c["candidates"]
