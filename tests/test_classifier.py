import json
import random
import string

import pytest

from biotriplets.candidates import CandidatePair
from biotriplets.classifier import (
    ChatEndpoint,
    build_prompt,
    classify,
    load_exemplars,
    parse_judgment,
)
from biotriplets.endpoint import RetryLater
from biotriplets.errors import ConfigError, EndpointUnavailable
from biotriplets.pipeline import Journal, run_extraction
from biotriplets.config import DEFAULT_RELATIONS, RetrievalConfig
from biotriplets.retrieval import Chunk, EmbeddingEndpoint
from test_pipeline import make_candidates, make_documents


def make_candidate(**overrides):
    defaults = dict(
        candidate_id="abc123",
        site_id="fixture",
        page_url="https://example.org/p",
        relation="treatment",
        head_surface="streptomycin",
        head_concept_id="C0201",
        tail_title="Plague",
        section_path="Plague > Treatment",
        section_index=0,
        match_word_index=0,
    )
    defaults.update(overrides)
    return CandidatePair(**defaults)


TREATMENT = next(r for r in DEFAULT_RELATIONS if r.id == "treatment")
QUESTION = TREATMENT.question("streptomycin", "Plague")
CHUNKS = [
    Chunk("streptomycin and doxycycline are options", (0, 6), True),
    Chunk("supportive care is also given", (6, 11)),
]


class TestExemplars:
    def test_default_set_has_three_per_relation(self):
        exemplars = load_exemplars()
        for relation in ("manifestation", "diagnosis", "treatment"):
            assert len(exemplars[relation]) == 3

    def test_wrong_count_rejected(self, tmp_path):
        bad = tmp_path / "ex.json"
        bad.write_text(json.dumps({
            "treatment": [{"question": "q", "answer": "Yes", "reason": "r"}]
        }))
        with pytest.raises(ConfigError, match="has 1 exemplars, expected 3"):
            load_exemplars(bad)

    def test_unknown_relation(self):
        with pytest.raises(ConfigError, match=r"no exemplars for relations \['causes'\]"):
            load_exemplars(relations=["treatment", "causes"])


class TestBuildPrompt:
    def test_structure(self):
        bundle = build_prompt(make_candidate(), QUESTION, CHUNKS, load_exemplars())
        assert len(bundle.exemplars) == 3
        assert CHUNKS[0].text in bundle.context_block
        assert CHUNKS[1].text in bundle.context_block
        assert bundle.question == ("Is streptomycin an informative therapeutic "
                                   "procedure or drug for Plague?")
        messages = bundle.to_messages()
        assert [m["role"] for m in messages] == [
            "system", "user", "assistant", "user", "assistant",
            "user", "assistant", "user",
        ]

    def test_main_title_always_disclosed(self):
        # tail absent from every chunk, still named in the prompt
        chunks = [Chunk("no disease name here", (0, 4), True)]
        bundle = build_prompt(make_candidate(), QUESTION, chunks, load_exemplars())
        assert "main title: Plague" in bundle.context_block
        assert "Plague" in bundle.system_preamble

    def test_section_path_prefixes_chunks(self):
        bundle = build_prompt(make_candidate(), QUESTION, CHUNKS, load_exemplars())
        assert "[Plague > Treatment]" in bundle.context_block

    def test_prompt_determinism(self):
        a = build_prompt(make_candidate(), QUESTION, CHUNKS, load_exemplars())
        b = build_prompt(make_candidate(), QUESTION, CHUNKS, load_exemplars())
        assert a == b


class TestParseJudgment:
    def test_plain_answer_json(self):
        raw = ('{"answer": "Yes", "reason": "A complete blood count is an '
               'informative diagnostic procedure for this disease."}')
        j = parse_judgment(raw)
        assert j.answer == "Yes"
        assert "complete blood count" in j.reason
        assert j.raw_output == raw

    def test_json_wrapped_in_prose(self):
        j = parse_judgment('Sure! Here you go: {"answer":"No","reason":"x"} hope that helps')
        assert (j.answer, j.reason) == ("No", "x")

    def test_no_json_is_malformed(self):
        j = parse_judgment("I think yes.")
        assert j.answer == "Malformed"
        assert j.reason == ""
        assert j.raw_output == "I think yes."

    def test_case_insensitive_answers(self):
        assert parse_judgment('{"answer":"YES","reason":"r"}').answer == "Yes"
        assert parse_judgment('{"answer":"no","reason":"r"}').answer == "No"

    def test_non_binary_answer_is_malformed(self):
        assert parse_judgment('{"answer":"maybe","reason":"r"}').answer == "Malformed"

    def test_skips_earlier_irrelevant_objects(self):
        raw = '{"foo": 1} then {"answer": "Yes", "reason": "ok"}'
        j = parse_judgment(raw)
        assert (j.answer, j.reason) == ("Yes", "ok")

    def test_nested_braces_in_reason(self):
        raw = '{"answer": "No", "reason": "uses {braces} inside"}'
        assert parse_judgment(raw).reason == "uses {braces} inside"

    def test_round_trip(self):
        for answer, reason in [("Yes", "r1"), ("No", 'with "quotes" and {x}')]:
            raw = json.dumps({"answer": answer, "reason": reason})
            j = parse_judgment(raw)
            assert (j.answer, j.reason) == (answer, reason)

    def test_totality_fuzz(self):
        rng = random.Random(12345)
        alphabet = string.printable + '{}"\\'
        for _ in range(2000):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            j = parse_judgment(raw)
            assert j.answer in ("Yes", "No", "Malformed")

    def test_truncated_json(self):
        j = parse_judgment('{"answer": "Yes", "reason": "cut off')
        assert j.answer == "Malformed"


class TestClassify:
    def test_scripted_yes(self, mock_server, tmp_path):
        server = mock_server({"default": {"answer": "Yes", "reason": "scripted"}})
        endpoint = ChatEndpoint(base_url=server.base_url, model="mock")
        j = classify(make_candidate(), QUESTION, CHUNKS, endpoint, load_exemplars())
        assert j.answer == "Yes"
        assert j.reason == "scripted"
        (record,) = self.journaled(endpoint, tmp_path).values()
        assert record.model_id == "mock"

    @staticmethod
    def journaled(endpoint, tmp_path):
        """The journal of a `run_extraction` of one one-chunk candidate
        through `endpoint`: a retry waits on the run's heap."""
        embed = EmbeddingEndpoint(base_url=endpoint.base_url, model="e")  # sends nothing
        run_extraction(make_candidates(1), make_documents(1), endpoint, embed,
                       RetrievalConfig(), load_exemplars(), DEFAULT_RELATIONS,
                       journal_path=tmp_path / "j.jsonl", workers=1)
        return Journal(tmp_path / "j.jsonl").load()

    def test_retry_on_429_then_success(self, mock_server, tmp_path):
        server = mock_server({"statuses": [429, 429],
                              "default": {"answer": "Yes", "reason": "r"}})
        endpoint = ChatEndpoint(base_url=server.base_url, model="mock",
                                max_retries=2, retry_backoff=0.0)
        (j,) = self.journaled(endpoint, tmp_path).values()
        assert j.answer == "Yes"
        statuses = [e["status"] for e in server.log.entries]
        assert statuses == [429, 429, 200]

    def test_endpoint_unavailable_after_retries(self, mock_server, tmp_path):
        server = mock_server({"statuses": [503, 503, 503]})
        endpoint = ChatEndpoint(base_url=server.base_url, model="mock",
                                max_retries=2, retry_backoff=0.0)
        with pytest.raises(RetryLater):  # classify sends one attempt
            classify(make_candidate(), QUESTION, CHUNKS, endpoint, load_exemplars())
        server.script.statuses = [503, 503, 503]
        with pytest.raises(EndpointUnavailable):
            self.journaled(endpoint, tmp_path)
        assert [e["status"] for e in server.log.entries] == [503] * 4

    def test_prose_reply_is_malformed(self, mock_server):
        server = mock_server({"default": {}, "rules": [
            {"contains": "Is streptomycin", "raw": "cannot answer in json, sorry"}
        ]})
        endpoint = ChatEndpoint(base_url=server.base_url, model="mock")
        j = classify(make_candidate(), QUESTION, CHUNKS, endpoint, load_exemplars())
        assert j.answer == "Malformed"
        assert j.raw_output == "cannot answer in json, sorry"

    def test_reproducible_against_mock(self, mock_server):
        server = mock_server({"default": {"answer": "No", "reason": "stable"}})
        endpoint = ChatEndpoint(base_url=server.base_url, model="mock")
        a = classify(make_candidate(), QUESTION, CHUNKS, endpoint, load_exemplars())
        b = classify(make_candidate(), QUESTION, CHUNKS, endpoint, load_exemplars())
        assert (a.answer, a.reason) == (b.answer, b.reason)
