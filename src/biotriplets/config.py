"""Unified run configuration loaded from a small TOML-style file.

Python 3.10 has no tomllib and the mirror carries no TOML reader, so this
module parses the subset the config actually uses: [dotted.section]
headers and key = value lines with strings, numbers, booleans, and flat
arrays. Secrets never live in the file; API keys come from the
CHAT_API_KEY / EMBED_API_KEY environment variables.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .classifier import ChatEndpoint
from .docmodel import SiteProfile
from .errors import ConfigError
from .pipeline import RelationType, default_relations
from .retrieval import EmbeddingEndpoint, RetrievalConfig

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.+)$")


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse value: {token!r}") from None


def _split_array(body: str) -> list[str]:
    items, depth, current, in_str = [], 0, "", False
    for ch in body:
        if ch == '"' and (not current or current[-1] != "\\"):
            in_str = not in_str
        if ch == "," and not in_str:
            items.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        items.append(current)
    return items


def parse_toml_subset(text: str) -> dict:
    """Parse [section] headers and scalar/array key = value assignments."""
    root: dict = {}
    table = root
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            table = root
            for part in m.group(1).split("."):
                table = table.setdefault(part, {})
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise ConfigError(f"config line {line_no}: cannot parse {raw!r}")
        key, value = m.group(1), m.group(2).strip()
        # strip trailing comment outside strings
        if "#" in value and not value.startswith('"'):
            value = value.split("#", 1)[0].strip()
        if value.startswith("[") and value.endswith("]"):
            table[key] = [_parse_scalar(tok) for tok in _split_array(value[1:-1])]
        else:
            table[key] = _parse_scalar(value)
    return root


@dataclass
class Config:
    workdir: Path = Path("work")
    thesaurus_path: Optional[Path] = None
    manifest_path: Optional[Path] = None
    exemplars_path: Optional[Path] = None
    sites: dict[str, SiteProfile] = field(default_factory=dict)
    relations: list[RelationType] = field(default_factory=default_relations)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    chat: dict = field(default_factory=dict)
    embedding: dict = field(default_factory=dict)
    workers: int = 4
    site_priority: list[str] = field(default_factory=list)

    def site_profile(self, site_id: str) -> SiteProfile:
        return self.sites.get(site_id, SiteProfile(site_id=site_id))

    def chat_endpoint(self) -> ChatEndpoint:
        return _endpoint(ChatEndpoint, "chat", self.chat, "CHAT_API_KEY")

    def embedding_endpoint(self) -> EmbeddingEndpoint:
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
        **{k: table[k] for k in ("base_url", "max_retries", "timeout", *keys) if k in table},
    )


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        data = parse_toml_subset(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    cfg = Config()
    base = path.parent

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
        cfg.sites[site_id] = SiteProfile(
            site_id=site_id,
            list_marker_style=raw.get("list_marker_style", "plain"),
            strip_selectors=list(raw.get("strip_selectors", [])),
        )

    if "relations" in data:
        relations = []
        for rid, raw in data["relations"].items():
            types = raw.get("semantic_types")
            if not types:
                raise ConfigError(f"relation {rid!r} needs semantic_types")
            relations.append(
                RelationType(rid, raw.get("phrase", rid), frozenset(types))
            )
        ids = [r.id for r in relations]
        if len(ids) != len(set(ids)):
            raise ConfigError("relation ids must be unique")
        cfg.relations = relations

    r = data.get("retrieval", {})
    cfg.retrieval = RetrievalConfig(
        anchor_min_words=r.get("anchor_min_words", 512),
        chunk_words=r.get("chunk_words", 128),
        overlap_words=r.get("overlap_words", 32),
        top_k=r.get("top_k", 10),
    )

    cfg.chat = data.get("chat", {})
    cfg.embedding = data.get("embedding", {})

    p = data.get("pipeline", {})
    cfg.workers = p.get("workers", 4)
    cfg.site_priority = list(p.get("site_priority", []))
    return cfg
