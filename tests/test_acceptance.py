"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with `pytest -s` to see them).

Each criterion also carries a wall-clock budget that the run must beat.
"""

import json
import random
import re
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from biotriplets import cli
from biotriplets.classifier import parse_judgment
from biotriplets.evaluation import ConfusionMatrix, cohen_kappa, metrics, round3
from biotriplets.matcher import MatcherAutomaton, corpus_tokens, load_thesaurus, match_terms
from biotriplets.docmodel import write_documents
from biotriplets.candidates import write_candidates
from biotriplets.config import RetrievalConfig
from biotriplets.retrieval import (
    Chunk,
    chunk_for_candidate,
    retrieve_top_k,
    unit_rows,
)
from conftest import (
    GOLDEN_CHAT_SCRIPT,
    write_config,
    write_fixture_site,
    write_thesaurus,
)
from test_evaluation import MODEL_ROWS, brute_force_matrix
from test_matcher import make_automaton, oracle_match
from test_pipeline import make_candidates, make_documents


class Timer:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"{self.label}: {elapsed:.2f}s exceeded {self.limit_s}s budget"
            )
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL")


def test_criterion_1_metric_reproduction():
    with Timer("1 metric reproduction", 1.0):
        hits = brute_force_matrix(155, 0.800, 0.821, 0.950, 0.881)
        assert hits == [(115, 6, 25, 9)], "search oracle must find a unique matrix"
        m = metrics(ConfusionMatrix(115, 6, 25, 9))
        assert round3(m["accuracy"]) == 0.800
        assert round3(m["recall"]) == 0.821
        assert round3(m["precision"]) == 0.950
        assert round3(m["f1"]) == 0.881


def test_criterion_2_f1_harmonic_consistency():
    with Timer("2 f1 harmonic-mean consistency", 1.0):
        for model, (_, recall, precision, f1) in MODEL_ROWS.items():
            harmonic = 2 * precision * recall / (precision + recall)
            assert abs(harmonic - f1) <= 0.001, model


def test_criterion_3_matcher_oracle_equivalence(tmp_path):
    # both the full thesaurus and the one loaded for the text's tokens
    vocab = ["ab", "cd", "efg", "hi", "jklm", "n", "op", "qr", "stu", "vw",
             "xyz", "a1b", "c2"]
    rng = random.Random(1337)
    tsv = tmp_path / "t.tsv"
    with Timer("3 matcher oracle equivalence", 30.0):
        mismatches = 0
        for _ in range(1000):
            n_terms = rng.randint(1, 50)
            surfaces = set()
            while len(surfaces) < n_terms:
                surface = " ".join(
                    rng.choice(vocab) for _ in range(rng.randint(1, 3))
                )
                if len(surface) >= 3:
                    surfaces.add(surface)
            surfaces = sorted(surfaces)
            text = " ".join(
                rng.choice(vocab + ["zz", "||", "|1|", "-", "q"])
                for _ in range(rng.randint(0, 320))
            )[:2000]
            tsv.write_text("".join(f"{s}\tC{i}\tT\n" for i, s in enumerate(surfaces)))
            filtered = MatcherAutomaton(load_thesaurus(tsv, corpus_tokens([text])))
            expected = oracle_match(surfaces, text)
            for automaton in (make_automaton(surfaces), filtered):
                got = [m.span for m in match_terms(automaton, text)]
                if got != expected:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_4_chunking_invariants():
    cfg = RetrievalConfig()
    rng = random.Random(2024)
    with Timer("4 chunking invariants", 10.0):
        for _ in range(500):
            n = rng.randint(1, 4000)
            m = rng.randint(0, n - 1)
            words = [f"w{i}" for i in range(n)]
            chunks = chunk_for_candidate(words, m, cfg, {})
            covered = set()
            anchors = []
            for c in chunks:
                start, end = c.word_span
                covered.update(range(start, end))
                if c.is_anchor:
                    anchors.append(c)
                else:
                    assert end - start <= cfg.chunk_words
            assert covered == set(range(n)), "full word coverage"
            assert len(anchors) == 1, "exactly one anchor"
            a0, a1 = anchors[0].word_span
            assert a1 - a0 == min(n, cfg.anchor_min_words)
            assert a0 <= m < a1, "anchor contains the match"
            non_anchor = [c for c in chunks if not c.is_anchor]
            for x, y in zip(non_anchor, non_anchor[1:]):
                same_side = (
                    x.word_span[1] <= a0 and y.word_span[1] <= a0
                ) or (x.word_span[0] >= a1 and y.word_span[0] >= a1)
                if same_side:
                    assert x.word_span[1] - y.word_span[0] == cfg.overlap_words


def test_criterion_5_retrieval_contract():
    cfg = RetrievalConfig()
    rng = np.random.default_rng(55)
    with Timer("5 retrieval contract", 5.0):
        for _ in range(200):
            count = int(rng.integers(1, 30))
            anchor_index = int(rng.integers(0, count))
            vecs = rng.normal(size=(count, 8))
            chunks = [Chunk(f"c{i}", (i * 5, i * 5 + 5), i == anchor_index)
                      for i in range(count)]
            query = rng.normal(size=8)

            def ranked(factors, query_factor):
                # scaled to unit length on arrival, as the pipeline does
                rows = unit_rows(list(vecs * factors[:, None]))
                query_vec = unit_rows([query * query_factor])[0]
                return retrieve_top_k(query_vec, list(zip(chunks, rows)), cfg)

            got = ranked(np.ones(count), 1.0)
            assert len(got) == min(cfg.top_k, count)
            assert any(c.is_anchor for c in got), "anchor always present"
            # each vector scaled by its own positive factor
            factors = rng.uniform(0.1, 50.0, size=count)
            assert ranked(factors, float(rng.uniform(0.1, 50.0))) == got, (
                "ranking invariant under positive scaling")


def test_criterion_6_kappa_properties():
    rng = random.Random(66)
    with Timer("6 kappa properties", 5.0):
        a = ["Yes", "Yes", "Yes", "No"]
        b = ["Yes", "No", "Yes", "No"]
        assert abs(cohen_kappa(a, b) - 0.5) < 1e-9  # p_o=0.75, p_e=0.5
        for _ in range(1000):
            n = rng.randint(1, 50)
            x = [rng.choice(["Yes", "No"]) for _ in range(n)]
            y = [rng.choice(["Yes", "No"]) for _ in range(n)]
            k = cohen_kappa(x, y)
            assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12
            assert cohen_kappa(x, y) == cohen_kappa(y, x)
            if len(set(x)) > 1:
                assert cohen_kappa(x, x) == 1.0


# The golden run's outputs, pinned: a change that alters any byte of them
# fails criterion 7 instead of passing as long as two runs agree.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILES = ("report.txt", "report.json", "triplets.jsonl", "malformed.jsonl")


def _golden_run(root, server_url):
    write_fixture_site(root)
    write_thesaurus(root / "thesaurus.tsv")
    config = write_config(root, server_url)
    assert cli.main(["--config", str(config), "preprocess"]) == 0
    assert cli.main(["--config", str(config), "match"]) == 0
    assert cli.main(["--config", str(config), "extract", "--deterministic"]) == 0
    return root / "work"


def test_criterion_7_end_to_end_golden_run(tmp_path, mock_server):
    with Timer("7 end-to-end golden run", 30.0):
        server_a = mock_server(GOLDEN_CHAT_SCRIPT)
        server_b = mock_server(GOLDEN_CHAT_SCRIPT)
        work_a = _golden_run(tmp_path / "a", server_a.base_url)
        work_b = _golden_run(tmp_path / "b", server_b.base_url)
        bytes_a = (work_a / "triplets.jsonl").read_bytes()
        bytes_b = (work_b / "triplets.jsonl").read_bytes()
        assert bytes_a and bytes_a == bytes_b, "byte-identical triplets output"
        for name in GOLDEN_FILES:
            assert (work_a / name).read_bytes() == (GOLDEN / name).read_bytes(), (
                f"{name} differs from the pinned golden output")
        report_text = (work_a / "report.txt").read_text()
        assert re.search(r"\b\d+\(\d+\.\d%\)", report_text), "count(rate%) cells"
        report = json.loads((work_a / "report.json").read_text())
        for sdata in report["sites"].values():
            for cell in sdata["cells"].values():
                assert (
                    cell["positives"] + cell["negatives"] + cell["malformed"]
                    == cell["candidates"]
                ), "conservation in every cell"


def test_criterion_8_resume_safety(tmp_path, mock_server):
    with Timer("8 resume safety", 30.0):
        log_path = tmp_path / "requests.jsonl"
        server = mock_server(
            {"default": {"answer": "Yes", "reason": "r"}}, log_path=log_path
        )
        write_thesaurus(tmp_path / "thesaurus.tsv")
        (tmp_path / "manifest.jsonl").write_text("")
        config = write_config(tmp_path, server.base_url)
        (tmp_path / "work").mkdir()
        write_candidates(make_candidates(20), tmp_path / "work" / "candidates.jsonl")
        write_documents(make_documents(20), tmp_path / "work" / "documents.jsonl")

        def run_extract(*extra):
            return subprocess.run(
                [sys.executable, "-m", "biotriplets.cli", "--config", str(config),
                 "extract", "--deterministic", *extra],
                capture_output=True, text=True, timeout=120,
            )

        first = run_extract("--limit", "10")
        assert first.returncode == 0, first.stderr
        second = run_extract()
        assert second.returncode == 0, second.stderr
        chat_requests = [
            json.loads(line) for line in log_path.read_text().splitlines()
            if json.loads(line)["kind"] == "chat"
        ]
        assert len(chat_requests) == 20, "exactly one request per candidate"


def test_criterion_9_parse_judgment_totality():
    rng = random.Random(909)
    alphabet = string.printable + '{}[]"\\é世'
    with Timer("9 parse_judgment totality", 10.0):
        for _ in range(10000):
            kind = rng.randrange(4)
            if kind == 0:
                raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            elif kind == 1:  # truncated JSON
                full = json.dumps({"answer": rng.choice(["Yes", "No"]),
                                   "reason": "x" * rng.randint(0, 30)})
                raw = full[: rng.randint(0, len(full))]
            elif kind == 2:  # nested braces
                raw = "{" * rng.randint(1, 25) + "answer" + "}" * rng.randint(0, 25)
            else:  # escape-heavy payloads
                raw = '{"answer": "\\u00' + rng.choice("0123456789abcdefzz") + \
                      rng.choice(['", "reason": "\\\\"}', "", "\\"])
            j = parse_judgment(raw)
            assert j.answer in ("Yes", "No", "Malformed")

        # published answer-JSON shape parses to its stated answer
        cases = [
            ('{"answer": "Yes", "reason": "A complete blood count (CBC) is an '
              'informative diagnostic procedure for this syndrome."}', "Yes"),
            ('{"answer": "No", "reason": "The context states this symptom is '
              'rare for the disorder."}', "No"),
            ('{"answer": "Yes", "reason": "These medications serve as both '
              'prophylaxis and treatment."}', "Yes"),
            ('{"answer": "No", "reason": "The term is a general category, not '
              'a specific procedure."}', "No"),
        ]
        for raw, expected in cases:
            assert parse_judgment(raw).answer == expected
