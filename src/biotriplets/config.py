"""Unified run configuration loaded from a TOML file.

The file is read with the standard library's `tomllib`. Every key the
pipeline reads is checked for its type, and a value it cannot use is a
ConfigError; keys it does not read are ignored. Secrets never live in the
file; API keys come from the CHAT_API_KEY / EMBED_API_KEY environment
variables.

The types the tables decode into live here: `RelationType` (with the
`DEFAULT_RELATIONS`) and `RetrievalConfig`. The endpoints are built by
`chat_endpoint` and `embedding_endpoint`, which import the `endpoint` module
when called, so a stage that sends no request does not load it.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .docmodel import SiteProfile
from .errors import ConfigError

if TYPE_CHECKING:
    from .endpoint import ChatEndpoint, EmbeddingEndpoint


@dataclass(frozen=True)
class RelationType:
    """A relation: its id, its question's phrase, and its heads' semantic types."""

    id: str
    phrase: str
    allowed_semantic_types: frozenset[str]

    def question(self, head: str, tail: str) -> str:
        """The yes/no question; used both for retrieval and as the final prompt."""
        return f"Is {head} {self.phrase} {tail}?"


DEFAULT_RELATIONS = (
    RelationType("manifestation", "an informative manifestation of",
                 frozenset({"Sign, Symptom, or Finding"})),
    RelationType("diagnosis", "an informative diagnostic procedure for",
                 frozenset({"Diagnostic Procedure", "Laboratory Procedure"})),
    RelationType("treatment", "an informative therapeutic procedure or drug for",
                 frozenset({"Therapeutic or Preventive Procedure", "Chemical or Drug"})),
)


@dataclass(frozen=True)
class RetrievalConfig:
    anchor_min_words: int = 512
    chunk_words: int = 128
    overlap_words: int = 32
    top_k: int = 10

    def __post_init__(self):
        if self.chunk_words < 1:
            raise ValueError("chunk_words must be >= 1")
        if self.overlap_words < 0:
            raise ValueError("overlap_words must be >= 0")
        if self.overlap_words >= self.chunk_words:
            raise ValueError("overlap_words must be < chunk_words")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.anchor_min_words < self.chunk_words:
            raise ValueError("anchor_min_words must be >= chunk_words")

_ENDPOINT = {"base_url": str, "model": str, "max_retries": int, "timeout": float}

# The type of every key the pipeline reads, per table; "*" stands for the
# tables named by the user.
_SCHEMA: dict[str, dict[str, type]] = {
    "paths": dict.fromkeys(("workdir", "thesaurus", "manifest", "exemplars"), str),
    "chat": _ENDPOINT,
    "embedding": {**_ENDPOINT, "batch_limit": int},
    "retrieval": dict.fromkeys(
        ("anchor_min_words", "chunk_words", "overlap_words", "top_k"), int),
    "pipeline": {"workers": int, "site_priority": list},
    "sites.*": {"list_marker_style": str, "strip_selectors": list},
    "relations.*": {"phrase": str, "semantic_types": list},
}

# What each type accepts, and its name; a bool is no number.
_KINDS = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number"),
          list: (list, "a list of strings"), dict: (dict, "a table")}


def _need(value, kind: type, name: str) -> None:
    types, what = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind is list and not all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{name} must be {what}, not {value!r}")


def _check(data: dict) -> None:
    """Raise ConfigError for the first key of _SCHEMA, or table holding
    one, whose value has another type, naming it by its dotted path."""
    for table, keys in _SCHEMA.items():
        parent, _, star = table.partition(".")
        if parent not in data:
            continue
        _need(data[parent], dict, parent)
        tables = data[parent].items() if star else [(None, data[parent])]
        for name, values in tables:
            prefix = parent if name is None else f"{parent}.{name}"
            _need(values, dict, prefix)
            for key, kind in keys.items():
                if key in values:
                    _need(values[key], kind, f"{prefix}.{key}")


@dataclass
class Config:
    workdir: Path = Path("work")
    thesaurus_path: Optional[Path] = None
    manifest_path: Optional[Path] = None
    exemplars_path: Optional[Path] = None
    sites: dict[str, SiteProfile] = field(default_factory=dict)
    relations: tuple[RelationType, ...] = DEFAULT_RELATIONS
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    chat: dict = field(default_factory=dict)
    embedding: dict = field(default_factory=dict)
    workers: int = 4
    site_priority: list[str] = field(default_factory=list)

    def site_profile(self, site_id: str) -> SiteProfile:
        return self.sites.get(site_id, SiteProfile(site_id=site_id))

    def chat_endpoint(self) -> ChatEndpoint:
        from .endpoint import ChatEndpoint

        return _endpoint(ChatEndpoint, "chat", self.chat, "CHAT_API_KEY")

    def embedding_endpoint(self) -> EmbeddingEndpoint:
        from .endpoint import EmbeddingEndpoint

        return _endpoint(EmbeddingEndpoint, "embedding", self.embedding,
                         "EMBED_API_KEY", "batch_limit")


def _endpoint(cls, section: str, table: dict, key_variable: str, *keys: str):
    """`cls` built from the `[section]` table; the API key comes from the
    environment, and a key the table leaves out keeps the class default."""
    if "base_url" not in table:
        raise ConfigError(f"{section}.base_url is not configured")
    return cls(
        model=table.get("model", "default"),
        api_key=os.environ.get(key_variable, ""),
        **_given(table, ("base_url", "max_retries", "timeout", *keys)),
    )


def _given(table: dict, keys) -> dict:
    """The entries of `table` under `keys`; a key the table leaves out is
    not passed, so it keeps the default of the class it is passed to."""
    return {k: table[k] for k in keys if k in table}


def load_config(path: str | Path) -> Config:
    """The configuration in the TOML file at `path`. A file that cannot be
    read or parsed, and a value of the wrong type or out of range, raise
    ConfigError naming the file."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    try:
        _check(data)
        return _config(data, path.parent)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}") from None


def _config(data: dict, base: Path) -> Config:
    cfg = Config()

    def resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    paths = data.get("paths", {})
    if "workdir" in paths:
        cfg.workdir = resolve(paths["workdir"])
    if "thesaurus" in paths:
        cfg.thesaurus_path = resolve(paths["thesaurus"])
    if "manifest" in paths:
        cfg.manifest_path = resolve(paths["manifest"])
    if "exemplars" in paths:
        cfg.exemplars_path = resolve(paths["exemplars"])

    for site_id, raw in data.get("sites", {}).items():
        cfg.sites[site_id] = SiteProfile(site_id=site_id, **_given(raw, _SCHEMA["sites.*"]))

    if "relations" in data:
        if not data["relations"]:
            raise ConfigError("relations lists no relation")
        phrases = {r.id: r.phrase for r in DEFAULT_RELATIONS}
        relations = []
        for rid, raw in data["relations"].items():
            # a default relation that leaves out its phrase keeps the default one
            phrase = raw.get("phrase", phrases.get(rid, ""))
            if not phrase.strip():
                raise ConfigError(f"relation {rid!r} needs a phrase")
            types = raw.get("semantic_types")
            if not types:
                raise ConfigError(f"relation {rid!r} needs semantic_types")
            relations.append(RelationType(rid, phrase, frozenset(types)))
        cfg.relations = tuple(relations)

    cfg.retrieval = RetrievalConfig(**_given(data.get("retrieval", {}), _SCHEMA["retrieval"]))

    cfg.chat = data.get("chat", {})
    cfg.embedding = data.get("embedding", {})

    p = data.get("pipeline", {})
    cfg.workers = p.get("workers", cfg.workers)
    if cfg.workers < 1:
        raise ConfigError(f"pipeline.workers must be at least 1, not {cfg.workers}")
    cfg.site_priority = p.get("site_priority", cfg.site_priority)
    return cfg
