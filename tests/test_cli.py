import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from importlib import resources
from pathlib import Path

import pytest

from biotriplets import cli
from conftest import (
    GOLDEN_CHAT_SCRIPT,
    write_config,
    write_fixture_site,
    write_thesaurus,
)


@pytest.fixture
def site(tmp_path, mock_server):
    """Fixture site on disk plus a running mock endpoint and config."""
    server = mock_server(GOLDEN_CHAT_SCRIPT)
    write_fixture_site(tmp_path)
    write_thesaurus(tmp_path / "thesaurus.tsv")
    config = write_config(tmp_path, server.base_url)
    return tmp_path, config, server


def run(config, *argv):
    return cli.main(["--config", str(config), *argv])


class TestPreprocess:
    def test_writes_one_line_per_page(self, site):
        root, config, _ = site
        assert run(config, "preprocess") == 0
        lines = (root / "work" / "documents.jsonl").read_text().splitlines()
        assert len(lines) == 5
        doc = json.loads(lines[0])
        assert set(doc) == {"site_id", "page_url", "main_title", "sections"}

    def test_unreadable_file_partial_failure(self, site, capsys):
        root, config, _ = site
        manifest = root / "manifest.jsonl"
        entries = manifest.read_text().splitlines()
        entries.append(json.dumps({
            "site_id": "fixture", "url": "https://x/missing",
            "path": str(root / "pages" / "missing.html"),
        }))
        manifest.write_text("\n".join(entries) + "\n")
        assert run(config, "preprocess") == 1
        assert "missing.html" in capsys.readouterr().err
        lines = (root / "work" / "documents.jsonl").read_text().splitlines()
        assert len(lines) == 5

    def test_empty_manifest_warns(self, site, capsys):
        root, config, _ = site
        (root / "manifest.jsonl").write_text("")
        assert run(config, "preprocess") == 0
        assert "empty" in capsys.readouterr().err

    def test_missing_manifest_config_error(self, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text("[paths]\nworkdir = \"work\"\n")
        assert cli.main(["--config", str(cfg), "preprocess"]) == 2

    @pytest.mark.parametrize("damage,expected", [
        (lambda m: m.write_text(m.read_text() + "not json\n"), "line 6"),
        (lambda m: m.write_text('["not", "an", "object"]\n'), "line 1"),
        (lambda m: m.unlink(), "cannot read manifest"),
    ], ids=["not-json", "not-object", "missing"])
    def test_unreadable_manifest(self, site, capsys, damage, expected):
        root, config, _ = site
        damage(root / "manifest.jsonl")
        assert run(config, "preprocess") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err and "manifest.jsonl" in err and expected in err
        assert not (root / "work" / "documents.jsonl").exists()


class TestConfig:
    @pytest.mark.parametrize("line,expected", [
        ('list_marker_style = "bullets"', "unknown list_marker_style: bullets"),
        ("list_marker_style = plain", "Invalid value (at line"),
        ('list_marker_style = "plain', "config.toml"),
    ], ids=["unknown-marker-style", "bare-word", "unterminated-string"])
    def test_unusable_config_exits_2_with_one_line(self, site, capsys, line, expected):
        root, config, server = site
        text = config.read_text()
        assert 'list_marker_style = "plain"' in text
        config.write_text(text.replace('list_marker_style = "plain"', line))
        for stage in ("preprocess", "match", "extract"):
            assert run(config, stage) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert str(config) in err and expected in err and "Traceback" not in err
        assert not (root / "work").exists() and not server.log.entries


class TestMatch:
    def test_candidates_written_with_counts(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        assert run(config, "match") == 0
        out = capsys.readouterr().out
        assert "fixture treatment" in out
        lines = (root / "work" / "candidates.jsonl").read_text().splitlines()
        assert lines
        c = json.loads(lines[0])
        assert {"candidate_id", "relation", "head_surface", "section_index"} <= set(c)

    def assert_config_error(self, root, config, capsys, *expected):
        capsys.readouterr()
        assert run(config, "match") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        for text in expected:
            assert text in err
        assert not (root / "work" / "candidates.jsonl").exists()

    def test_missing_thesaurus(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        (root / "thesaurus.tsv").unlink()
        self.assert_config_error(root, config, capsys, "thesaurus.tsv")

    def test_thesaurus_row_with_two_columns(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        write_thesaurus(root / "thesaurus.tsv", [("fever", "C1", "A")])
        with open(root / "thesaurus.tsv", "a", encoding="utf-8") as fh:
            fh.write("only two\tcolumns\n")
        self.assert_config_error(root, config, capsys, "line 2")

    def test_thesaurus_with_every_row_skipped(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        write_thesaurus(root / "thesaurus.tsv", [("of", "C1", "A"), ("fever", "C2", " ")])
        self.assert_config_error(root, config, capsys, "empty thesaurus")

    def test_missing_documents(self, site, capsys):
        root, config, _ = site
        self.assert_config_error(root, config, capsys, "documents.jsonl",
                                 "rerun preprocess")

    def test_thesaurus_not_utf8(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        (root / "thesaurus.tsv").write_bytes(b"fi\xe8vre\tC1\tSign, Symptom, or Finding\n")
        self.assert_config_error(root, config, capsys, "thesaurus.tsv", "UTF-8")

    def test_documents_line_not_json(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        with open(root / "work" / "documents.jsonl", "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        self.assert_config_error(root, config, capsys, "documents.jsonl line 6",
                                 "rerun preprocess")


class TestExtract:
    def test_end_to_end(self, site):
        root, config, _ = site
        run(config, "preprocess")
        run(config, "match")
        assert run(config, "extract", "--deterministic") == 0
        work = root / "work"
        triplets = [json.loads(l) for l in
                    (work / "triplets.jsonl").read_text().splitlines()]
        assert triplets
        surfaces = {t["head_surface"] for t in triplets}
        assert "streptomycin" in surfaces
        for t in triplets:
            assert t["reason"]
            assert t["section_path"]
        report = json.loads((work / "report.json").read_text())
        for sdata in report["sites"].values():
            for c in sdata["cells"].values():
                assert c["positives"] + c["negatives"] + c["malformed"] == c["candidates"]
        # nausea answered with prose -> malformed record, not a triplet
        malformed = (work / "malformed.jsonl").read_text().splitlines()
        assert len(malformed) == 1
        assert "nausea" not in surfaces

    def test_golden_run_sends_no_embedding_request(self, site):
        # every fixture section is shorter than the 512-word anchor, so each
        # candidate's one chunk is its context whatever the vectors
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        assert run(config, "extract", "--deterministic") == 0
        kinds = [e["kind"] for e in server.log.entries]
        assert "chat" in kinds and "embed" not in kinds

    def test_limit_and_resume(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        total = len((root / "work" / "candidates.jsonl").read_text().splitlines())
        assert run(config, "extract", "--deterministic", "--limit", "3") == 0
        assert run(config, "extract", "--deterministic") == 0
        chat = [e for e in server.log.entries if e["kind"] == "chat"]
        assert len(chat) == total

    def test_deterministic_runs_with_two_workers(self, tmp_path, mock_server):
        works = []
        for name in ("a", "b"):
            root = tmp_path / name
            server = mock_server(GOLDEN_CHAT_SCRIPT)
            write_fixture_site(root)
            write_thesaurus(root / "thesaurus.tsv")
            config = write_config(root, server.base_url)
            assert "workers = 2" in config.read_text()
            for stage in ("preprocess", "match"):
                assert run(config, stage) == 0
            assert run(config, "extract", "--deterministic") == 0
            works.append(root / "work")
        work_a, work_b = works
        for name in ("triplets.jsonl", "report.txt", "report.json", "malformed.jsonl"):
            assert (work_a / name).read_bytes() == (work_b / name).read_bytes(), name
        # journal records are appended in completion order: same set, any order
        journals = [sorted((w / "journal.jsonl").read_text().splitlines()) for w in works]
        assert journals[0] and journals[0] == journals[1]

    def test_rejected_request_stops_run(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        assert run(config, "extract", "--deterministic", "--limit", "3") == 0
        journal = (root / "work" / "journal.jsonl").read_bytes()
        sent = len(server.log.entries)
        server.script.statuses.append(400)
        capsys.readouterr()
        assert run(config, "extract", "--deterministic", "--limit", "1") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "HTTP 400" in err and "Traceback" not in err
        assert [e["status"] for e in server.log.entries[sent:]] == [400]
        assert (root / "work" / "journal.jsonl").read_bytes() == journal

    def test_documents_line_not_json(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        documents = root / "work" / "documents.jsonl"
        documents.write_text("not json\n" + documents.read_text())
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "documents.jsonl line 1" in err and "rerun preprocess" in err
        assert "Traceback" not in err
        assert not server.log.entries

    @pytest.mark.parametrize("write,expected", [
        (lambda p, data: p.write_text(json.dumps(
            {**data, "treatment": data["treatment"][:1]})), "1 exemplars"),
        (lambda p, data: p.write_text(json.dumps(
            {k: v for k, v in data.items() if k != "diagnosis"})), "'diagnosis'"),
        (lambda p, data: None, "No such file"),
        (lambda p, data: p.write_text("not json"), "Expecting value"),
        (lambda p, data: p.write_text(json.dumps(
            {**data, "manifestation": [{k: v for k, v in item.items() if k != "reason"}
                                       for item in data["manifestation"]]})),
         "lacks 'reason'"),
    ], ids=["wrong-count", "relation-missing", "missing-file", "not-json", "no-reason"])
    def test_unusable_exemplars(self, tmp_path, mock_server, capsys, write, expected):
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        write_fixture_site(tmp_path)
        write_thesaurus(tmp_path / "thesaurus.tsv")
        config = write_config(tmp_path, server.base_url,
                              paths='exemplars = "exemplars.json"')
        data = json.loads(resources.files("biotriplets.data")
                          .joinpath("exemplars.json").read_text(encoding="utf-8"))
        write(tmp_path / "exemplars.json", data)
        run(config, "preprocess")
        run(config, "match")
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "exemplars.json" in err and expected in err and "Traceback" not in err
        assert not server.log.entries, "no request before the exemplars are checked"

    def assert_rerun_match(self, config, server, capsys):
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "rerun" in err and "match" in err and "Traceback" not in err
        assert not server.log.entries, "no request before the inputs are checked"

    def test_missing_documents(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        (root / "work" / "documents.jsonl").unlink()
        self.assert_rerun_match(config, server, capsys)

    def test_candidate_section_missing_from_documents(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        documents = root / "work" / "documents.jsonl"
        docs = [json.loads(line) for line in documents.read_text().splitlines()]
        docs[0]["sections"] = docs[0]["sections"][:1]
        documents.write_text("".join(json.dumps(d) + "\n" for d in docs))
        self.assert_rerun_match(config, server, capsys)

    def test_section_text_shorter_than_match(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        run(config, "match")
        documents = root / "work" / "documents.jsonl"
        docs = [json.loads(line) for line in documents.read_text().splitlines()]
        for doc in docs:
            for section in doc["sections"]:
                section["text"] = "x"
        documents.write_text("".join(json.dumps(d) + "\n" for d in docs))
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "rerun match" in err

    def test_candidates_in_old_format(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        path = root / "work" / "candidates.jsonl"
        old = []
        for line in path.read_text().splitlines():
            c = json.loads(line)
            del c["section_index"]
            c["section_text"] = "copied section text"
            old.append(json.dumps(c) + "\n")
        path.write_text("".join(old))
        self.assert_rerun_match(config, server, capsys)


class TestEval:
    def make_benchmark(self, path):
        rows = []
        for i in range(12):
            gold = "Yes" if i % 2 == 0 else "No"
            rows.append({
                "sample_id": f"s{i}",
                "gold": gold,
                "predictions": {
                    "model-a": {"answer": gold, "reason": "agrees"},
                    "model-b": {"answer": "Yes" if i % 3 else "No", "reason": "varies"},
                },
            })
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    def test_metrics_and_agreement_written(self, site, capsys):
        root, config, _ = site
        bench = root / "bench.jsonl"
        self.make_benchmark(bench)
        assert run(config, "eval", str(bench), "--reference", "model-a") == 0
        out = capsys.readouterr().out
        assert "model-a" in out and "model-b" in out
        metrics = json.loads((root / "work" / "metrics.json").read_text())
        by_model = {m["model"]: m for m in metrics}
        assert by_model["model-a"]["f1"] == 1.0
        agreement = json.loads((root / "work" / "agreement.json").read_text())
        assert agreement["model_ids"] == ["model-a", "model-b"]
        assert agreement["kappa"][0][0] == 1.0

    def test_bad_benchmark_line_reported(self, site, capsys):
        root, config, _ = site
        bench = root / "bench.jsonl"
        bench.write_text('{"sample_id": "x"}\n')
        assert run(config, "eval", str(bench)) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_benchmark_exits_1_with_one_line(self, site, capsys):
        root, config, _ = site
        bench = root / "absent.jsonl"
        assert run(config, "eval", str(bench)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(bench) in err

    @pytest.mark.parametrize("line", [
        "[1]",
        '{"sample_id": "x", "gold": "maybe", "predictions": {"model-a": {"answer": "Yes"}}}',
    ], ids=["not-an-object", "gold-maybe"])
    def test_unusable_sample_exits_1_with_one_line(self, site, capsys, line):
        root, config, _ = site
        bench = root / "bench.jsonl"
        self.make_benchmark(bench)
        with open(bench, "a") as fh:
            fh.write(line + "\n")
        assert run(config, "eval", str(bench)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{bench} line 13 " in err

    def test_unknown_reference(self, site):
        root, config, _ = site
        bench = root / "bench.jsonl"
        self.make_benchmark(bench)
        assert run(config, "eval", str(bench), "--reference", "nope") == 2


def post_chat(base_url, content):
    """POST one chat request with the standard library; (status, reply body)."""
    request = urllib.request.Request(
        f"{base_url}/v1/chat/completions",
        data=json.dumps({
            "model": "m", "messages": [{"role": "user", "content": content}],
        }).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


class TestMockServe:
    def test_unscripted_default_is_no(self, mock_server):
        server = mock_server()
        _, body = post_chat(server.base_url, "anything")
        content = body["choices"][0]["message"]["content"]
        assert json.loads(content)["answer"] == "No"

    def test_failure_sequence_logged(self, mock_server):
        server = mock_server({"statuses": [503, 503],
                              "default": {"answer": "Yes", "reason": "r"}})
        codes = []
        for _ in range(3):
            status, _ = post_chat(server.base_url, "q")
            codes.append(status)
        assert codes == [503, 503, 200]
        assert [e["status"] for e in server.log.entries] == [503, 503, 200]


def test_cli_import_loads_no_third_party_http_client():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import biotriplets.cli, sys; "
         "print(' '.join(m for m in ('requests', 'urllib3', 'charset_normalizer') "
         "if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert loaded.split() == []
