import ast
import base64
import importlib.util
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from array import array
from importlib import resources
from pathlib import Path

import pytest

from biotriplets import cli, pipeline
from biotriplets.config import DEFAULT_RELATIONS
from test_acceptance import GOLDEN, GOLDEN_FILES
from test_perfbench import ABSENT_MATCH_TARGETS
from conftest import (
    GOLDEN_CHAT_SCRIPT,
    THESAURUS_ROWS,
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


def add_entry(manifest, drop=None, **fields):
    """Append a manifest line for a page of the fixture site, with `fields`
    replaced and the key `drop` left out."""
    entry = {"site_id": "fixture", "url": "https://x/extra",
             "path": str(manifest.parent / "pages" / "plague.html"), **fields}
    entry.pop(drop, None)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


# modules preprocess and match have no use for: the HTTP client and the
# thread pool of extract, the mock server, eval's decimal, and logging
UNUSED_MODULES = ("http.client", "ssl", "urllib.request", "http.server", "decimal",
                        "importlib.resources", "concurrent.futures", "logging")


# each stage loads only its own layer: preprocess the HTML parser, match the
# matcher and the candidates, extract all but the HTML parser and the matcher
NOT_PREPROCESS = ("biotriplets.matcher", "biotriplets.candidates", "biotriplets.pipeline",
                  "biotriplets.classifier", "biotriplets.endpoint", "biotriplets.retrieval")
NOT_MATCH = ("biotriplets.pipeline", "biotriplets.classifier", "biotriplets.endpoint",
             "biotriplets.retrieval", "html.parser")
NOT_EXTRACT = ("html.parser", "biotriplets.matcher")


def unused_modules_loaded(config, stage, modules=UNUSED_MODULES):
    """The `modules` that `stage` loads, run in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; from biotriplets import cli; "
         f"assert cli.main(['--config', {str(config)!r}, {stage!r}]) == 0; "
         f"print(' '.join(m for m in {modules!r} if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    return loaded[-1].split()


class TestPreprocess:
    def test_loads_no_http_client(self, site):
        root, config, _ = site
        assert unused_modules_loaded(config, "preprocess") == []
        assert (root / "work" / "documents.jsonl").exists()

    def test_loads_no_module_of_another_stage(self, site):
        root, config, _ = site
        assert unused_modules_loaded(config, "preprocess", NOT_PREPROCESS) == []
        assert (root / "work" / "documents.jsonl").exists()

    def test_valueless_class_attribute_with_class_selector(self, site):
        root, config, _ = site
        text = config.read_text()
        config.write_text(text.replace('list_marker_style = "plain"',
                                       'list_marker_style = "plain"\nstrip_selectors = [".ad"]'))
        page = root / "pages" / "valueless.html"
        page.write_text('<h1>Valueless</h1><h2>S</h2><div class>kept</div>'
                        '<div class="ad">dropped</div>', encoding="utf-8")
        add_entry(root / "manifest.jsonl", url="https://x/valueless", path=str(page))
        assert run(config, "preprocess") == 0
        lines = (root / "work" / "documents.jsonl").read_text().splitlines()
        assert len(lines) == 6
        doc = json.loads(lines[-1])
        assert doc["main_title"] == "Valueless" and doc["sections"][0]["text"] == "kept"

    def test_unknown_marked_section_is_a_comment(self, site):
        root, config, _ = site
        page = root / "pages" / "marked.html"
        page.write_text("<h1>Marked</h1><h2>S</h2><p>kept</p><![foo[ b ]]><p>too</p><![;",
                        encoding="utf-8")
        add_entry(root / "manifest.jsonl", url="https://x/marked", path=str(page))
        assert run(config, "preprocess") == 0
        lines = (root / "work" / "documents.jsonl").read_text().splitlines()
        assert len(lines) == 6
        doc = json.loads(lines[-1])
        assert doc["main_title"] == "Marked" and doc["sections"][0]["text"].startswith("kept too")

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

    def test_page_nested_deeply_written(self, site, capsys):
        # about 1000 unclosed inline tags, once past the recursion limit of
        # a tree walk, are read in one pass like any other page
        root, config, _ = site
        deep = root / "pages" / "deep.html"
        deep.write_text("<h1>Deep</h1><h2>S</h2>" + "<font>w " * 1000, encoding="utf-8")
        add_entry(root / "manifest.jsonl", path=str(deep))
        assert run(config, "preprocess") == 0
        assert capsys.readouterr().err == ""
        lines = (root / "work" / "documents.jsonl").read_text().splitlines()
        assert len(lines) == 6
        doc = json.loads(lines[-1])
        assert doc["main_title"] == "Deep" and doc["sections"][0]["text"] == " ".join(["w"] * 1000)

    def test_empty_manifest_warns(self, site, capsys):
        root, config, _ = site
        (root / "manifest.jsonl").write_text("")
        assert run(config, "preprocess") == 0
        assert "empty" in capsys.readouterr().err

    def test_failed_write_exits_1_with_one_line(self, site, capsys):
        root, config, _ = site
        (root / "work" / "documents.jsonl").mkdir(parents=True)
        assert run(config, "preprocess") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot write {root / 'work' / 'documents.jsonl'}" in err
        assert "Traceback" not in err and (root / "work" / "documents.jsonl").is_dir()

    def test_missing_manifest_config_error(self, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text("[paths]\nworkdir = \"work\"\n")
        assert cli.main(["--config", str(cfg), "preprocess"]) == 2

    @pytest.mark.parametrize("damage,expected", [
        (lambda m: m.write_text(m.read_text() + "not json\n"), "line 6"),
        (lambda m: m.write_text('["not", "an", "object"]\n'), "line 1"),
        (lambda m: m.unlink(), "cannot read {manifest}: "),
        (lambda m: m.write_text("[" * 200_000 + "\n"), "line 1"),
        (lambda m: add_entry(m, site_id=["fixture"]), "line 6 is not a manifest entry "
                                                      "(site_id is list, not str)"),
        (lambda m: add_entry(m, url=None), "url is NoneType, not str"),
        (lambda m: add_entry(m, path=3), "path is int, not str"),
        (lambda m: add_entry(m, drop="path"), "line 6 is not a manifest entry ('path')"),
    ], ids=["not-json", "not-object", "missing", "nested-past-recursion-limit",
            "site-id-list", "url-null", "path-number", "path-missing"])
    def test_unreadable_manifest(self, site, capsys, damage, expected):
        root, config, _ = site
        damage(root / "manifest.jsonl")
        assert run(config, "preprocess") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        expected = expected.format(manifest=root / "manifest.jsonl")
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

    @pytest.mark.parametrize("how", ["option", "config"])
    def test_workdir_that_is_a_file_exits_2(self, site, capsys, how):
        root, config, server = site
        work = root / "work"
        work.write_text("not a directory")
        argv = ["--workdir", str(work)] if how == "option" else []
        (root / "bench.jsonl").write_text("")
        for stage in (["preprocess"], ["match"], ["extract"], ["eval", str(root / "bench.jsonl")]):
            assert cli.main(["--config", str(config), *argv, *stage]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert f"workdir {work}" in err and "Traceback" not in err
        assert work.read_text() == "not a directory" and not server.log.entries


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

    def test_counts_printed(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        rows = THESAURUS_ROWS + [("Fever", "C9", "A"), ("of", "C8", "A"), ("cough", "", "A")]
        write_thesaurus(root / "thesaurus.tsv", rows)
        capsys.readouterr()
        assert run(config, "match") == 0
        assert (f"loaded {len(THESAURUS_ROWS)} surfaces "
                "(1 rows skipped, 1 too short, 1 concept conflicts)") in capsys.readouterr().out

    def test_preprocess_and_match_write_the_golden_stage_files(self, tmp_path, mock_server):
        golden_site(tmp_path, mock_server(GOLDEN_CHAT_SCRIPT))
        for name in ("documents.jsonl", "candidates.jsonl"):
            assert (tmp_path / "work" / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_loads_no_http_client(self, site):
        root, config, _ = site
        assert run(config, "preprocess") == 0
        assert unused_modules_loaded(config, "match") == []
        assert (root / "work" / "candidates.jsonl").exists()

    def test_loads_no_module_of_another_stage(self, site):
        root, config, _ = site
        assert run(config, "preprocess") == 0
        assert unused_modules_loaded(config, "match", NOT_MATCH) == []
        assert (root / "work" / "candidates.jsonl").exists()

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

    def test_empty_corpus_indexes_no_row(self, site, capsys):
        root, config, _ = site
        (root / "work").mkdir()
        (root / "work" / "documents.jsonl").write_text("")
        assert run(config, "match") == 0
        out = capsys.readouterr().out
        assert (f"loaded 0 surfaces (0 rows skipped, 0 too short, 0 concept conflicts), "
                f"left out {len(THESAURUS_ROWS)} rows whose first token is in no document"
                ) in out
        assert "wrote 0 candidates" in out
        assert (root / "work" / "candidates.jsonl").read_text() == ""

    def test_every_row_unusable_on_empty_corpus(self, site, capsys):
        # the check is on the rows read, not on the rows the corpus reaches
        root, config, _ = site
        (root / "work").mkdir()
        (root / "work" / "documents.jsonl").write_text("")
        write_thesaurus(root / "thesaurus.tsv", [("of", "C1", "A"), ("fever", "C2", " ")])
        self.assert_config_error(root, config, capsys, "empty thesaurus")

    def test_documents_reported_before_thesaurus(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        with open(root / "work" / "documents.jsonl", "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        (root / "thesaurus.tsv").unlink()
        self.assert_config_error(root, config, capsys, "documents.jsonl line 6")

    def test_unreadable_documents_exits_2(self, site, capsys):
        root, config, _ = site
        (root / "work" / "documents.jsonl").mkdir(parents=True)
        self.assert_config_error(root, config, capsys,
                                 f"cannot read {root / 'work' / 'documents.jsonl'}")

    def test_failed_write_exits_1_with_one_line(self, site, capsys):
        root, config, _ = site
        run(config, "preprocess")
        (root / "work" / "candidates.jsonl").mkdir()
        capsys.readouterr()
        assert run(config, "match") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot write {root / 'work' / 'candidates.jsonl'}" in err
        assert "Traceback" not in err and (root / "work" / "candidates.jsonl").is_dir()

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

    @pytest.mark.parametrize("damage,expected", [
        (lambda d: d["sections"][0].update(text=["fever"]), "text is list, not str"),
        (lambda d: d["sections"][0].update(text=5), "text is int, not str"),
        (lambda d: d.update(main_title=7), "main_title is int, not str"),
        (lambda d: d.update(site_id=None), "site_id is NoneType, not str"),
        (lambda d: d["sections"][0].update(heading=2), "heading is int, not str"),
        (lambda d: d["sections"][0].update(level=True), "level is bool, not int"),
        (lambda d: d["sections"][0].update(level="2"), "level is str, not int"),
        (lambda d: d.update(sections={"a": 1}), "sections is dict, not list"),
        (lambda d: d["sections"][0].update(children="none"), "children is str, not list"),
        (lambda d: d["sections"].append(5), "expected a JSON object, got int"),
        (lambda d: d["sections"][0]["children"].append([]), "expected a JSON object, got list"),
    ], ids=["text-list", "text-number", "main-title-number", "site-id-null",
            "heading-number", "level-bool", "level-string", "sections-object",
            "children-string", "section-number", "child-list"])
    def test_documents_field_of_wrong_type(self, site, capsys, damage, expected):
        root, config, _ = site
        run(config, "preprocess")
        path = root / "work" / "documents.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        damage(docs[1])
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        self.assert_config_error(root, config, capsys, "documents.jsonl line 2",
                                 expected, "rerun preprocess")

    def test_documents_keys_left_out_keep_their_defaults(self, site):
        root, config, _ = site
        run(config, "preprocess")
        run(config, "match")
        work = root / "work"
        candidates = (work / "candidates.jsonl").read_bytes()
        docs = [json.loads(line) for line in (work / "documents.jsonl").read_text().splitlines()]
        for d in docs:
            for section in d["sections"]:
                del section["children"]
            d["sections"].append({"heading": "See also", "level": 2})
        (work / "documents.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        assert run(config, "match") == 0
        assert (work / "candidates.jsonl").read_bytes() == candidates


class TestExtract:
    def test_loads_no_html_parser(self, site):
        root, config, _ = site
        run(config, "preprocess")
        run(config, "match")
        assert unused_modules_loaded(config, "extract", NOT_EXTRACT) == []
        assert (root / "work" / "triplets.jsonl").exists()

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

    def test_negative_limit_exits_2_before_any_request(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        capsys.readouterr()
        assert run(config, "extract", "--deterministic", "--limit", "-1") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --limit must be at least 0, not -1"]
        assert not server.log.entries and not (root / "work" / "journal.jsonl").exists()
        assert run(config, "extract", "--deterministic", "--limit", "0") == 0
        assert not server.log.entries

    def test_outputs_written_whole(self, site, capsys, monkeypatch):
        root, config, _ = site
        work = root / "work"
        run(config, "preprocess")
        run(config, "match")
        assert run(config, "extract", "--deterministic", "--limit", "3") == 0
        outputs = ("triplets.jsonl", "report.txt", "report.json", "malformed.jsonl")
        before = {name: (work / name).read_bytes() for name in outputs}
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "report.json":
                raise OSError(28, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot write {work / 'report.json'}" in err and "Traceback" not in err
        assert (work / "report.json").read_bytes() == before["report.json"]
        assert (work / "triplets.jsonl").read_bytes() != before["triplets.jsonl"]
        monkeypatch.setattr(os, "replace", replace)
        assert run(config, "extract", "--deterministic") == 0
        golden = Path(__file__).parent / "golden"
        for name in outputs:
            assert (work / name).read_bytes() == (golden / name).read_bytes(), name
        # nothing but the stages' files: no temporary file is left behind
        assert sorted(p.name for p in work.iterdir()) == sorted(
            ["documents.jsonl", "candidates.jsonl", "journal.jsonl", *outputs])

    def test_failed_write_replaces_no_output(self, site, capsys):
        root, config, _ = site
        work = root / "work"
        run(config, "preprocess")
        run(config, "match")
        assert run(config, "extract", "--deterministic", "--limit", "3") == 0
        outputs = ("triplets.jsonl", "report.txt", "report.json", "malformed.jsonl")
        before = {name: (work / name).read_bytes() for name in outputs}
        (work / "report.json.tmp").mkdir()
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot write {work / 'report.json'}" in err and "Traceback" not in err
        assert {name: (work / name).read_bytes() for name in outputs} == before
        # the temporary files written before the failure are gone
        assert [p.name for p in work.glob("*.tmp")] == ["report.json.tmp"]

    @pytest.mark.parametrize("argv,name,action", [
        (["match"], "documents.jsonl", "rerun preprocess and match"),
        (["extract", "--deterministic"], "documents.jsonl", "rerun preprocess and match"),
        (["extract", "--deterministic"], "candidates.jsonl", "rerun match"),
    ], ids=["match-documents", "extract-documents", "extract-candidates"])
    def test_missing_input_exits_2(self, site, capsys, argv, name, action):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        (root / "work" / name).unlink()
        capsys.readouterr()
        assert run(config, *argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: cannot read {root / 'work' / name}: "), err
        assert err.rstrip().endswith(f"; {action}"), err
        assert not server.log.entries

    def test_unknown_candidate_key_is_ignored(self, tmp_path, mock_server):
        config = golden_site(tmp_path, mock_server(GOLDEN_CHAT_SCRIPT))
        path = tmp_path / "work" / "candidates.jsonl"
        path.write_text("".join(json.dumps({**json.loads(line), "note": "from a later version"})
                                + "\n" for line in path.read_text().splitlines()))
        assert run(config, "extract", "--deterministic") == 0
        assert_golden_outputs(tmp_path / "work")

    @pytest.mark.parametrize("name", ["candidates.jsonl", "documents.jsonl"])
    def test_unreadable_input_exits_2(self, site, capsys, name):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        (root / "work" / name).unlink()
        (root / "work" / name).mkdir()
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot read {root / 'work' / name}" in err and "Traceback" not in err
        assert not server.log.entries

    def test_default_run_is_golden(self, tmp_path, mock_server):
        # the journal times each verdict, but no output carries the time
        config = golden_site(tmp_path, mock_server(GOLDEN_CHAT_SCRIPT))
        assert run(config, "extract") == 0
        work = tmp_path / "work"
        assert_golden_outputs(work)
        records = [json.loads(line) for line in
                   (work / "journal.jsonl").read_text().splitlines()]
        assert records and all(type(r["latency_ms"]) is int for r in records)

    def test_journal_line_format(self, tmp_path, mock_server):
        # journals already written must keep loading: each line is the
        # verdict's four fields in this order, then latency_ms when timed
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        config = golden_site(tmp_path, server)
        config.write_text(config.read_text().replace("workers = 2", "workers = 1"))
        journal = tmp_path / "work" / "journal.jsonl"
        keys = ("candidate_id", "answer", "reason", "model_id")
        for flags, timed in ((["--deterministic"], False), ([], True)):
            journal.unlink(missing_ok=True)
            assert run(config, "extract", *flags) == 0
            lines = journal.read_text(encoding="utf-8").splitlines()
            assert len(lines) == len(
                (tmp_path / "work" / "candidates.jsonl").read_text().splitlines())
            for line in lines:
                record = json.loads(line)
                fields = {key: record[key] for key in keys}
                if timed:
                    assert type(record["latency_ms"]) is int
                    fields["latency_ms"] = record["latency_ms"]
                assert line == json.dumps(fields, ensure_ascii=False)

    def test_unknown_journal_key_reaches_no_output(self, tmp_path, mock_server):
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        config = golden_site(tmp_path, server)
        assert run(config, "extract", "--deterministic") == 0
        journal = tmp_path / "work" / "journal.jsonl"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert any(r["answer"] == "Malformed" for r in records)
        journal.write_text("".join(json.dumps({**r, "note": "from a later version"}) + "\n"
                                   for r in records))
        sent = len(server.log.entries)
        assert run(config, "extract", "--deterministic") == 0
        assert len(server.log.entries) == sent  # every extended record loaded as done
        assert_golden_outputs(tmp_path / "work")

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

    @pytest.mark.parametrize("old,new", [
        ('"mock-chat"', '"mock-chat"\ntimeout = -1'),
        ('"mock-chat"', '"mock-chat"\ntimeout = nan'),
        ('"mock-embed"', '"mock-embed"\ntimeout = inf'),
        ('"mock-chat"', '"mock-chat"\ntimeout = 0'),
        ("max_retries = 2", "max_retries = -1"),
        ("batch_limit = 128", "batch_limit = 0"),
        # {url} is the mock's address; the base_url line moves below model
        ('base_url = "{url}"\nmodel = "mock-chat"',
         'model = "mock-chat"\nbase_url = "http://127.0.0.1:99999"'),
        ('base_url = "{url}"\nmodel = "mock-embed"',
         'model = "mock-embed"\nbase_url = "http://h:abc"'),
        ('base_url = "{url}"\nmodel = "mock-chat"',
         'model = "mock-chat"\nbase_url = "http://[::1"'),
    ], ids=["timeout-negative", "timeout-nan", "timeout-inf", "timeout-zero",
            "max-retries-negative", "batch-limit-zero", "base-url-port-out-of-range",
            "base-url-port-not-a-number", "base-url-unclosed-ipv6"])
    def test_unusable_endpoint_value(self, site, capsys, old, new):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        text = config.read_text()
        old = old.replace("{url}", server.base_url)
        assert text.count(old) == 1
        config.write_text(text.replace(old, new))
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        key = new.rpartition("\n")[2].partition(" =")[0]
        assert len(err.splitlines()) == 1, err
        assert f"endpoint {key} must be" in err and "Traceback" not in err
        assert not server.log.entries, "no request before the endpoints are checked"

    @pytest.mark.parametrize("record,expected", [
        (lambda cid: [1], "(expected a JSON object, got list)"),
        (lambda cid: {"candidate_id": cid}, "(lacks 'answer')"),
        (lambda cid: {"candidate_id": cid, "answer": "Yes", "reason": "r", "model_id": 7},
         "(model_id is int, not str)"),
    ], ids=["not-an-object", "no-answer", "model-id-not-str"])
    def test_journal_line_not_a_verdict(self, site, capsys, record, expected):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        assert run(config, "extract", "--deterministic", "--limit", "2") == 0
        candidates = (root / "work" / "candidates.jsonl").read_text().splitlines()
        journal = root / "work" / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record(json.loads(candidates[-1])["candidate_id"])) + "\n")
        sent = len(server.log.entries)
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"{journal} line 3 is not a verdict record {expected}; delete that line" in err
        assert "Traceback" not in err
        assert len(server.log.entries) == sent, "no request after the journal is read"

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
        (lambda p, data: p.write_text(exemplar_changed(data, question=5)),
         "question is int, not str"),
        (lambda p, data: p.write_text(exemplar_changed(data, answer=["Yes"])),
         "answer is list, not str"),
        (lambda p, data: p.write_text(exemplar_changed(data, reason=None)),
         "reason is NoneType, not str"),
    ], ids=["wrong-count", "relation-missing", "missing-file", "not-json", "no-reason",
            "question-number", "answer-list", "reason-null"])
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

    def test_custom_relation(self, tmp_path, mock_server):
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        write_fixture_site(tmp_path)
        write_thesaurus(tmp_path / "thesaurus.tsv")
        config = write_config(tmp_path, server.base_url,
                              paths='exemplars = "exemplars.json"')
        with open(config, "a", encoding="utf-8") as fh:
            fh.write('[relations.causes]\nphrase = "a cause of"\n'
                     'semantic_types = ["Sign, Symptom, or Finding"]\n'
                     # a default relation without a phrase keeps its own
                     '[relations.treatment]\nsemantic_types = ["Chemical or Drug"]\n')
        data = json.loads(resources.files("biotriplets.data")
                          .joinpath("exemplars.json").read_text(encoding="utf-8"))
        data["causes"] = [{"question": f"Is symptom {i} a cause of disease {i}?",
                           "answer": "Yes", "reason": "r"} for i in range(3)]
        (tmp_path / "exemplars.json").write_text(json.dumps(data), encoding="utf-8")
        for stage in ("preprocess", "match"):
            assert run(config, stage) == 0
        assert run(config, "extract", "--deterministic") == 0
        questions = {e["prompt_tail"].rpartition("\n\n")[2]
                     for e in server.log.entries if e["kind"] == "chat"}
        assert "Is fever a cause of Plague?" in questions
        assert ("Is streptomycin an informative therapeutic procedure or drug for Plague?"
                in questions)
        report = json.loads((tmp_path / "work" / "report.json").read_text())
        assert report["relations"] == ["causes", "treatment"]

    def assert_rerun_match(self, config, server, capsys):
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "rerun" in err and "match" in err and "Traceback" not in err
        assert not server.log.entries, "no request before the inputs are checked"
        return err

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

    def test_word_index_past_the_section_exits_before_any_request(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        path = root / "work" / "candidates.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        c = json.loads(lines[-1])
        c["match_word_index"] = 10000
        path.write_text("".join(lines[:-1]) + json.dumps(c) + "\n")
        err = self.assert_rerun_match(config, server, capsys)
        assert f"candidate {c['candidate_id']}: word index 10000 outside [0, " in err

    def test_candidates_of_unconfigured_relation(self, site, capsys):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        with open(config, "a", encoding="utf-8") as fh:
            fh.write('\n[relations.treatment]\nsemantic_types = ["Chemical or Drug"]\n')
        err = self.assert_rerun_match(config, server, capsys)
        assert "diagnosis, manifestation" in err
        assert not (root / "work" / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("section_index", "1"), ("match_word_index", True), ("head_surface", 3),
    ])
    def test_candidate_field_of_wrong_type(self, site, capsys, key, value):
        root, config, server = site
        run(config, "preprocess")
        run(config, "match")
        path = root / "work" / "candidates.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        c = json.loads(lines[-1])
        c[key] = value
        path.write_text("".join(lines[:-1]) + json.dumps(c) + "\n")
        err = self.assert_rerun_match(config, server, capsys)
        assert f"line {len(lines)}" in err and key in err

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


LONG_TITLE = "Sylvatic Plague"
TREATMENT = next(r for r in DEFAULT_RELATIONS if r.id == "treatment")


def long_page_site(root, server_url):
    """The fixture site plus a page whose Treatment section is well over
    the 512-word anchor, naming four drugs; returns the config path."""
    write_fixture_site(root)
    write_thesaurus(root / "thesaurus.tsv")
    rng = random.Random(5)
    filler = ["the", "patient", "was", "given", "care", "after", "days", "of", "rest"]
    words = [rng.choice(filler) for _ in range(1400)]
    for k, name in enumerate(["streptomycin", "doxycycline", "gentamicin", "ciprofloxacin"]):
        words[100 + k * 350] = name
    page = root / "pages" / "long.html"
    page.write_text(f"<html><body><h1>{LONG_TITLE}</h1><h2>Treatment</h2>"
                    f"<p>{' '.join(words)}</p></body></html>", encoding="utf-8")
    add_entry(root / "manifest.jsonl", url="https://example.org/long.html", path=str(page))
    config = write_config(root, server_url)
    for stage in ("preprocess", "match"):
        assert run(config, stage) == 0
    return config


def long_page_script(statuses):
    """The golden script, with `statuses` for the chat about the long page's
    first candidate alone: the others are sent while its retries wait."""
    rule = {"contains": f"Is streptomycin {TREATMENT.phrase} {LONG_TITLE}?",
            "statuses": statuses, "answer": "Yes", "reason": "Named in the long section."}
    return {**GOLDEN_CHAT_SCRIPT, "rules": [rule, *GOLDEN_CHAT_SCRIPT["rules"]]}


class TestCheckpoint:
    OUTPUTS = ("triplets.jsonl", "report.txt", "report.json")

    def test_kill_after_embedding_resumes_without_embedding(self, tmp_path, mock_server):
        # two 503s hold the long page's first chat for 0.6 s of backoff,
        # after its texts are embedded and checkpointed
        whole = tmp_path / "whole"
        config = long_page_site(whole, mock_server(long_page_script([503, 503])).base_url)
        assert run(config, "extract", "--deterministic") == 0

        root = tmp_path / "killed"
        server = mock_server(long_page_script([503, 503]))
        config = long_page_site(root, server.base_url)
        checkpoint = root / "work" / "embeddings.jsonl"
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "biotriplets.cli", "--config", str(config),
             "extract", "--deterministic"],
            cwd=root, env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while proc.poll() is None and time.monotonic() < deadline:
                if checkpoint.exists() and b"\n" in checkpoint.read_bytes():
                    proc.kill()
                    break
                time.sleep(0.005)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert [e["kind"] for e in server.log.entries].count("embed") == 1
        sent = len(server.log.entries)
        assert run(config, "extract", "--deterministic") == 0
        assert not any(e["kind"] == "embed" for e in server.log.entries[sent:])
        assert not checkpoint.exists()
        for name in self.OUTPUTS:
            assert (root / "work" / name).read_bytes() == (whole / "work" / name).read_bytes()

    def test_checkpoint_vector_of_another_length_exits_1(self, tmp_path, mock_server, capsys):
        server = mock_server(long_page_script([503] * 3))
        config = long_page_site(tmp_path, server.base_url)
        assert run(config, "extract", "--deterministic") == 1
        checkpoint = tmp_path / "work" / "embeddings.jsonl"
        # the first line holds the question of the long page's first
        # candidate, which the failure left pending
        lines = checkpoint.read_text().splitlines()
        short = base64.b64encode(array("d", [1.0] * 16).tobytes()).decode()
        lines[0] = json.dumps({**json.loads(lines[0]), "vector": short})
        checkpoint.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "mixed dimensions [16, 32]" in err and "Traceback" not in err


    def test_unreadable_checkpoint_exits_2(self, tmp_path, mock_server, capsys):
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        config = long_page_site(tmp_path, server.base_url)
        checkpoint = tmp_path / "work" / "embeddings.jsonl"
        checkpoint.mkdir()
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot read {checkpoint}" in err and "Traceback" not in err
        assert not server.log.entries

    def test_unreadable_journal_exits_2(self, tmp_path, mock_server, capsys):
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        config = long_page_site(tmp_path, server.base_url)
        journal = tmp_path / "work" / "journal.jsonl"
        journal.mkdir()
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot read {journal}" in err and "Traceback" not in err
        assert not server.log.entries

    def test_failed_checkpoint_write_exits_1(self, tmp_path, mock_server, capsys,
                                             monkeypatch):
        server = mock_server(GOLDEN_CHAT_SCRIPT)
        config = long_page_site(tmp_path, server.base_url)

        def full_disk(self, keys, vectors):
            raise OSError(28, "No space left on device", str(self.path))

        monkeypatch.setattr(pipeline.EmbeddingCheckpoint, "add", full_disk)
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "No space left on device" in err and "Traceback" not in err


def exemplar_changed(data, **fields):
    """The exemplar file `data` as JSON, with `fields` replaced in the first
    diagnosis exemplar."""
    first = {**data["diagnosis"][0], **fields}
    return json.dumps({**data, "diagnosis": [first, *data["diagnosis"][1:]]})


def faulted_script(faults):
    """The golden script with failure statuses for single candidates:
    `faults` maps a question to its statuses, and each such rule then
    answers as the golden script does."""
    rules = [{**next((r for r in GOLDEN_CHAT_SCRIPT["rules"] if r["contains"] in question),
                     GOLDEN_CHAT_SCRIPT["default"]),
              "contains": question, "statuses": list(statuses)}
             for question, statuses in faults.items()]
    return {**GOLDEN_CHAT_SCRIPT, "rules": rules + GOLDEN_CHAT_SCRIPT["rules"]}


def golden_site(root, server):
    """The fixture site, preprocessed and matched against `server`."""
    write_fixture_site(root)
    write_thesaurus(root / "thesaurus.tsv")
    config = write_config(root, server.base_url)
    for stage in ("preprocess", "match"):
        assert run(config, stage) == 0
    return config


def assert_golden_outputs(work):
    for name in GOLDEN_FILES:
        assert (work / name).read_bytes() == (GOLDEN / name).read_bytes(), name


class TestRetries:
    def test_outage_exits_1_and_the_rerun_writes_the_golden_outputs(
            self, tmp_path, mock_server, capsys):
        # shaped like the benchmark's remote-outage: single 503s and 429s,
        # and one candidate whose three 503s use up max_retries (2)
        faults = {
            "Is blood culture an informative diagnostic procedure for Plague?": [503],
            "Is streptomycin an informative therapeutic procedure or drug for Plague?": [429],
            "Is dialysis an informative therapeutic procedure or drug for "
            "Hemolytic-uremic syndrome?": [429, 503],
            "Is nausea an informative manifestation of Clostridioides difficile "
            "Infection?": [503],
            "Is lumbar puncture an informative diagnostic procedure for "
            "Bacterial Meningitis?": [503, 503, 503],
        }
        server = mock_server(faulted_script(faults))
        config = golden_site(tmp_path, server)
        candidates = len((tmp_path / "work" / "candidates.jsonl").read_text().splitlines())
        capsys.readouterr()
        assert run(config, "extract", "--deterministic") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "HTTP 503 (journal preserved, rerun to resume)" in err
        assert run(config, "extract", "--deterministic") == 0
        assert_golden_outputs(tmp_path / "work")
        chats = [e["status"] for e in server.log.entries if e["kind"] == "chat"]
        assert chats.count(200) == candidates
        assert len(chats) == candidates + sum(map(len, faults.values()))

    def test_interrupt_exits_1_with_one_line_and_the_rerun_resumes(
            self, tmp_path, mock_server):
        # two 503s hold one chat for 0.6 s of backoff; the first chat after
        # the first 503 is held, so the run is still going when SIGINT comes
        question = "Is headache an informative manifestation of Plague?"
        server = mock_server(faulted_script({question: [503, 503]}))
        held, release, lock = threading.Event(), threading.Event(), threading.Lock()
        base = server.httpd.RequestHandlerClass

        class HoldingHandler(base):
            def do_POST(self):
                if self.path == "/v1/chat/completions":
                    with lock:
                        hold = not held.is_set() and any(
                            e["status"] == 503 for e in server.log.entries)
                        if hold:
                            held.set()
                    if hold:
                        release.wait(timeout=30)
                super().do_POST()

        server.httpd.RequestHandlerClass = HoldingHandler
        config = golden_site(tmp_path, server)
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "biotriplets.cli", "--config", str(config),
             "extract", "--deterministic"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            assert held.wait(timeout=30)
            proc.send_signal(signal.SIGINT)
            release.set()
            _, err = proc.communicate(timeout=30)
        finally:
            release.set()
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        assert err == "error: interrupted (journal preserved, rerun to resume)\n"
        assert run(config, "extract", "--deterministic") == 0
        assert_golden_outputs(tmp_path / "work")


class TestTracedRun:
    INPROC = Path(__file__).resolve().parents[1] / "perfbench" / "inproc.py"

    def test_every_traced_function_is_on_the_path(self, tmp_path, mock_server):
        # a function that keeps its name but is no longer called would leave
        # its benchmark metrics absent without failing the name check
        spec = importlib.util.spec_from_file_location("perfbench_inproc", self.INPROC)
        inproc = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inproc)
        config = long_page_site(tmp_path, mock_server(GOLDEN_CHAT_SCRIPT).base_url)
        out = tmp_path / "trace.json"
        src = Path(cli.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, str(self.INPROC), "--config", str(config), "--out", str(out),
             "--trace"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
            stdout=subprocess.DEVNULL, timeout=120)
        result = json.loads(out.read_text())
        assert result["missing"] == ABSENT_MATCH_TARGETS
        assert result["exits"] == [["preprocess", 0], ["match", 0], ["extract", 0]]
        traced = {name for _, name, *_ in result["spans"]}
        assert ([name for name, *_ in inproc.Tracer().targets() if name not in traced]
                == ABSENT_MATCH_TARGETS)
        # the long Treatment section gives its candidates several chunks
        assert max(info.get("chunks", 0) for *_, info in result["spans"]) > 1


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
        assert len(err.splitlines()) == 1 and f"cannot read {bench}: " in err

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

    def test_model_missing_from_a_sample_exits_1_with_one_line(self, site, capsys):
        root, config, _ = site
        bench = root / "bench.jsonl"
        self.make_benchmark(bench)
        with open(bench, "a") as fh:
            fh.write(json.dumps({"sample_id": "s12", "gold": "No",
                                 "predictions": {"model-a": {"answer": "No"}}}) + "\n")
        assert run(config, "eval", str(bench)) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: sample s12 has no prediction for model-b"]
        assert not (root / "work" / "metrics.json").exists()

    @pytest.mark.parametrize("text", [
        "", json.dumps({"sample_id": "1", "gold": "Yes", "predictions": {}}) + "\n",
    ], ids=["empty-file", "no-prediction"])
    def test_benchmark_without_predictions_exits_1_with_one_line(self, site, capsys, text):
        root, config, _ = site
        bench = root / "bench.jsonl"
        bench.write_text(text)
        assert run(config, "eval", str(bench)) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {bench} holds no prediction"]
        assert not (root / "work" / "metrics.json").exists()

    def test_unknown_reference(self, site):
        root, config, _ = site
        bench = root / "bench.jsonl"
        self.make_benchmark(bench)
        assert run(config, "eval", str(bench), "--reference", "nope") == 2

    def test_outputs_match_golden(self, tmp_path, capsys):
        # three models; "Malformed" and "maybe" answers; the reference is
        # malformed on s6 and s9; gamma never answers Yes
        golden = Path(__file__).parent / "golden" / "eval"
        work = tmp_path / "work"
        assert cli.main(["--workdir", str(work), "eval",
                         str(golden / "benchmark.jsonl"), "--reference", "beta"]) == 0
        for name in ("metrics.txt", "metrics.json", "agreement.json"):
            assert (work / name).read_bytes() == (golden / name).read_bytes(), name
        out = capsys.readouterr().out
        assert out == ((golden / "metrics.txt").read_text() + "agreement matrix over "
                       f"3 models (reference: beta) written to {work / 'agreement.json'}\n")

    def test_failed_write_keeps_previous_outputs(self, site, capsys):
        root, config, _ = site
        work = root / "work"
        bench = root / "bench.jsonl"
        self.make_benchmark(bench)
        assert run(config, "eval", str(bench)) == 0
        before = {name: (work / name).read_bytes()
                  for name in ("metrics.json", "agreement.json")}
        (work / "metrics.txt").unlink()
        (work / "metrics.txt").mkdir()
        with open(bench, "a") as fh:  # a second run with other outputs
            fh.write(json.dumps({"sample_id": "s12", "gold": "No", "predictions": {
                "model-a": {"answer": "Yes"}, "model-b": {"answer": "No"}}}) + "\n")
        capsys.readouterr()
        assert run(config, "eval", str(bench)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot write {work / 'metrics.txt'}" in err and "Traceback" not in err
        assert {name: (work / name).read_bytes() for name in before} == before
        assert not list(work.glob("*.tmp"))


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
    @pytest.mark.parametrize("text", [None, "not json", "[1]"],
                             ids=["missing", "not-json", "not-an-object"])
    def test_unreadable_script_exits_2_with_one_line(self, tmp_path, capsys, text):
        script = tmp_path / "script.json"
        if text is not None:
            script.write_text(text)
        assert cli.main(["mock-serve", "--script", str(script)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"cannot read mock script {script}" in err and "Traceback" not in err

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_port_out_of_range_exits_2_with_one_line(self, capsys, port):
        assert cli.main(["mock-serve", "--port", port]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot bind port {port}: not in 0-65535\n"

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


def test_every_error_class_is_handled_and_exit_2_decided_in_main():
    # an exception class that no handler tells apart is one too many
    src = Path(cli.__file__).resolve().parent
    errors = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    handled = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            handled.update(n.id for n in names if isinstance(n, ast.Name))
    assert sorted(classes - handled - {"BiotripletsError"}) == []
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "EXIT_CONFIG"]
    in_main = [n for n in ast.walk(main) if isinstance(n, ast.Name) and n.id == "EXIT_CONFIG"]
    assert len(uses) == 2 and len(in_main) == 1  # its definition and main's handler


def test_cli_import_loads_no_third_party_package():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, biotriplets.cli, biotriplets.pipeline, "
         "biotriplets.retrieval, biotriplets.mockserver; "
         "print(' '.join(m for m in ('requests', 'urllib3', 'charset_normalizer', 'numpy') "
         "if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert loaded.split() == []
