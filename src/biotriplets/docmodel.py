"""Normalize raw article HTML into a marker-annotated section tree.

The output keeps what matters downstream: the page's main title (used as
the tail entity of every candidate relation), the heading hierarchy, and
list structure inlined as balanced marker tokens (``|1|``/``|2|``/``|3|``
by nesting depth for NUMBERED profiles, ``||`` at every depth for PLAIN).
Everything else (scripts, navigation chrome, tags) is stripped.

The HTML parser is in `htmltree`, which reads a page straight into its
section tree and which `preprocess_html` imports when called: `match` and
`extract` read documents.jsonl through this module and do not load it.
This module is also the codec of the stage files: `read_jsonl` reads
them, `record` decodes each line's record and `json_line` encodes it. The
one exception is extract's `embeddings.jsonl`, whose lines
`pipeline.EmbeddingCheckpoint` writes and reads itself.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import Iterable, Iterator, get_args, get_origin, get_type_hints

from .errors import ConfigError


@dataclass
class Section:
    heading: str
    level: int
    text: str = ""
    children: list[Section] = field(default_factory=list)


@dataclass
class WebDocument:
    site_id: str
    page_url: str
    main_title: str
    sections: list[Section] = field(default_factory=list)

    def walk_sections(self) -> Iterator[tuple[Section, str]]:
        """Each section in document order, with its breadcrumb: the main
        title and the headings down to the section, blank ones left out."""

        def walk(sections: list[Section], trail: str) -> Iterator[tuple[Section, str]]:
            for s in sections:
                here = f"{trail} > {s.heading}" if s.heading else trail
                yield s, here
                yield from walk(s.children, here)

        return walk(self.sections, self.main_title)


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest line: the page at `path`, preprocessed as `url` with
    the profile of `site_id`."""

    site_id: str
    url: str
    path: str


@dataclass
class SiteProfile:
    site_id: str
    list_marker_style: str = "plain"  # "numbered" | "plain"
    strip_selectors: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.list_marker_style not in ("numbered", "plain"):
            raise ValueError(f"unknown list_marker_style: {self.list_marker_style}")


# --------------------------------------------------------------------------
# Main entry points.


def preprocess_html(html: str, profile: SiteProfile, url: str) -> WebDocument:
    """Turn one raw page into a WebDocument: `htmltree.outline` reads it
    into its section tree in one pass, and `record` decodes the tree as it
    decodes a line of documents.jsonl.

    Tolerates tag soup, nested as deep as it likes; raises DocumentError
    when the input has no tags at all or no main title can be found.
    """
    from .htmltree import outline  # only preprocess parses HTML

    main_title, sections = outline(html, profile.strip_selectors,
                                   profile.list_marker_style, url)
    return record(WebDocument, {"site_id": profile.site_id, "page_url": url,
                                "main_title": main_title, "sections": sections})


def flatten_section_text(section: Section) -> str:
    """Section text plus all descendant texts, heading lines interleaved."""
    parts: list[str] = []
    if section.text:
        parts.append(section.text)
    for child in section.children:
        if child.heading:
            parts.append(child.heading)
        flat = flatten_section_text(child)
        if flat:
            parts.append(flat)
    return "\n".join(parts)


# --------------------------------------------------------------------------
# File I/O.


def read_jsonl(path, parse, what: str, action: str, error=ConfigError) -> list:
    """`parse` of each non-blank JSON line of `path`, the one reader of every
    stage file. A file that cannot be opened or read (missing, a directory,
    no permission) raises `error` as "cannot read <path>: <reason>; <action>".
    A line that is not JSON (or nests past the recursion limit), or that
    `parse` rejects with ValueError, KeyError or TypeError, raises `error`
    naming the file, the line, what is wrong and the `action` to take."""
    out = []
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    out.append(parse(json.loads(line)))
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise error(
                        f"{path} line {line_no} is not {what} ({exc}); {action}"
                    ) from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}; {action}") from None
    return out


def json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def record(cls, value):
    """The dataclass `cls` decoded from the JSON object `value`, the one
    decoder of every stage-file record. Each field is read from the key of
    its name and checked against its declared type: str, int (a bool is no
    int), or a list of records, each decoded in turn. A key that `value`
    leaves out keeps the field's default; other keys are ignored. Raises
    KeyError on a missing key without a default, and TypeError on a value
    of another type or a `value` that is no object."""
    d = json_object(value)
    args = {}
    for name, kind, item, optional in _record_fields(cls):
        if optional and name not in d:
            continue  # the dataclass builds the default, a new list each time
        v = d[name]
        if isinstance(v, bool) or not isinstance(v, kind):
            raise TypeError(f"{name} is {type(v).__name__}, not {kind.__name__}")
        args[name] = v if item is None else [record(item, x) for x in v]
    return cls(**args)


@cache
def _record_fields(cls) -> tuple[tuple[str, type, type | None, bool], ...]:
    """(name, type, record type of its items or None, has a default) of
    each field of `cls`, a string annotation resolved."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = get_origin(hints[f.name]) or hints[f.name]
        item = get_args(hints[f.name])[0] if kind is list else None
        optional = f.default is not MISSING or f.default_factory is not MISSING
        out.append((f.name, kind, item, optional))
    return tuple(out)


def json_line(row) -> str:
    """`row` as one stage-file line, the one encoder of every record: a
    dataclass is its fields in declaration order, nested records included."""
    return json.dumps(row, ensure_ascii=False, default=vars) + "\n"


def write_jsonl(rows: Iterable, path: str | Path) -> None:
    """Write each of `rows` to `path` as its `json_line`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(json_line, rows))


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Manifest is JSON lines, each a `ManifestEntry` decoded by `record`:
    {site_id, url, path}, each a string; see `read_jsonl` for errors."""
    return read_jsonl(path, partial(record, ManifestEntry), "a manifest entry",
                      "fix the manifest")


def read_html_file(path: str | Path) -> str:
    return Path(path).read_bytes().decode("utf-8", errors="replace")


write_documents = write_jsonl  # the name preprocess writes documents.jsonl by


def read_documents(path: str | Path) -> list[WebDocument]:
    """The documents `write_documents` wrote, each decoded by `record` with
    its sections; see `read_jsonl` for errors."""
    return read_jsonl(path, partial(record, WebDocument), "a document record",
                      "rerun preprocess and match")
