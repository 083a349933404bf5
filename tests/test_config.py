import re
from pathlib import Path

import pytest

from biotriplets.config import load_config
from biotriplets.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def config_file(tmp_path, text):
    path = tmp_path / "config.toml"
    path.write_text(text, encoding="utf-8")
    return path


def test_readme_example_loads(tmp_path):
    (block,) = re.findall(r"```toml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    cfg = load_config(config_file(tmp_path, block))
    assert cfg.thesaurus_path == tmp_path / "thesaurus.tsv"
    assert cfg.manifest_path == tmp_path / "manifest.jsonl"
    assert cfg.workdir == tmp_path / "work"
    assert cfg.site_profile("medsite").list_marker_style == "numbered"
    assert (cfg.retrieval.anchor_min_words, cfg.retrieval.top_k) == (512, 10)
    assert cfg.embedding_endpoint().batch_limit == 128
    assert cfg.chat_endpoint().model == "my-model"
    assert (cfg.workers, cfg.site_priority) == (4, ["medsite", "othersite"])


def test_comment_after_a_string(tmp_path):
    cfg = load_config(config_file(tmp_path, """
[sites.s]
list_marker_style = "numbered"  # or "plain"
strip_selectors = [
    "nav",   # menus
    ".ads",
]
"""))
    profile = cfg.site_profile("s")
    assert profile.list_marker_style == "numbered"
    assert profile.strip_selectors == ["nav", ".ads"]


@pytest.mark.parametrize("text,expected", [
    ('[retrieval]\ntop_k = "10"', "retrieval.top_k must be an integer"),
    ("[retrieval]\ntop_k = 2.5", "retrieval.top_k must be an integer"),
    ("[pipeline]\nworkers = true", "pipeline.workers must be an integer"),
    ("[pipeline]\nsite_priority = \"a\"", "pipeline.site_priority must be a list"),
    ("[paths]\nthesaurus = 3", "paths.thesaurus must be a string"),
    ('[chat]\nbase_url = "http://x"\ntimeout = "5"', "chat.timeout must be a number"),
    ("[embedding]\nbatch_limit = [1]", "embedding.batch_limit must be an integer"),
    ('[sites.s]\nstrip_selectors = "nav"', "sites.s.strip_selectors must be a list"),
    ("[sites.s]\nstrip_selectors = [1]", "sites.s.strip_selectors must be a list"),
    ('sites = "s"', "sites must be a table"),
    ('[relations]\ncauses = "x"', "relations.causes must be a table"),
    ('[relations.causes]\nsemantic_types = "Finding"',
     "relations.causes.semantic_types must be a list"),
], ids=["string-int", "float-int", "bool-int", "string-list", "int-string",
        "string-number", "list-int", "string-list-in-site", "int-list",
        "string-table", "string-user-table", "string-list-in-relation"])
def test_value_of_wrong_type(tmp_path, text, expected):
    path = config_file(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(expected)) as info:
        load_config(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text,expected", [
    ('[sites.s]\nlist_marker_style = "bullets"', "unknown list_marker_style"),
    ("[retrieval]\nchunk_words = 64\noverlap_words = 64", "overlap_words must be <"),
    ("[pipeline]\nworkers = 0", "workers must be at least 1"),
    ("[relations.causes]\nphrase = \"a cause of\"", "needs semantic_types"),
    ('[relations.causes]\nsemantic_types = ["Disease"]', "'causes' needs a phrase"),
    ('[relations.treatment]\nphrase = ""\nsemantic_types = ["Drug"]',
     "'treatment' needs a phrase"),
    ("[relations]", "relations lists no relation"),
    ("[retrieval]\noverlap_words = -200\nanchor_min_words = 128\nchunk_words = 128",
     "overlap_words must be >= 0"),
    ("[retrieval]\nchunk_words = 0\noverlap_words = -1", "chunk_words must be >= 1"),
    ("[retrieval]\ntop_k = 0", "top_k must be >= 1"),
], ids=["marker-style", "overlap", "workers", "relation-types", "relation-phrase",
        "empty-phrase", "no-relation", "negative-overlap", "chunk-below-1", "top-k-0"])
def test_unusable_value(tmp_path, text, expected):
    with pytest.raises(ConfigError, match=expected):
        load_config(config_file(tmp_path, text))


def test_int_is_a_number_and_unread_keys_are_ignored(tmp_path):
    cfg = load_config(config_file(tmp_path, """
[chat]
base_url = "http://x"
timeout = 5
max_concurrency = "retired"

[unknown]
anything = [1, "mixed"]
"""))
    assert cfg.chat_endpoint().timeout == 5


@pytest.mark.parametrize("text", [
    'thesaurus = "thesaurus.tsv   # unterminated',
    "[paths]\nworkdir = work",
    "[chat]\nmodel = 'a'\nmodel = 'b'",
], ids=["unterminated", "bare-word", "duplicate-key"])
def test_malformed_file(tmp_path, text):
    path = config_file(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(path)
