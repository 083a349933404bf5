"""Normalize raw article HTML into a marker-annotated section tree.

The output keeps what matters downstream: the page's main title (used as
the tail entity of every candidate relation), the heading hierarchy, and
list structure inlined as balanced marker tokens (``|1|``/``|2|``/``|3|``
by nesting depth for NUMBERED profiles, ``||`` at every depth for PLAIN).
Everything else (scripts, navigation chrome, tags) is stripped.

The HTML parser is in `htmltree`, which `preprocess_html` imports when
called: `match` and `extract` read documents.jsonl through this module and
do not load it. This module also reads and writes the stage files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

from .errors import ConfigError, DocumentError


@dataclass
class Section:
    heading: str
    level: int
    text: str = ""
    children: list["Section"] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "heading": self.heading,
            "level": self.level,
            "text": self.text,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Section":
        return cls(
            heading=_field(d, "heading", str),
            level=_field(d, "level", int),
            text=_field(d, "text", str, ""),
            children=[cls.from_dict(c) for c in _field(d, "children", list, [])],
        )


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

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "page_url": self.page_url,
            "main_title": self.main_title,
            "sections": [s.to_dict() for s in self.sections],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WebDocument":
        return cls(
            site_id=_field(d, "site_id", str),
            page_url=_field(d, "page_url", str),
            main_title=_field(d, "main_title", str),
            sections=[Section.from_dict(s) for s in _field(d, "sections", list, [])],
        )


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
    """Turn one raw page into a WebDocument.

    Tolerates tag soup; raises DocumentError when the input has no tags at
    all, when no main title can be found, and when its elements nest too
    deeply for the recursive renderers (about 1000 unclosed inline tags).
    """
    try:
        return _document(html, profile, url)
    except RecursionError:
        raise DocumentError(f"elements nested too deeply in {url}") from None


def _document(html: str, profile: SiteProfile, url: str) -> WebDocument:
    from .htmltree import outline  # only preprocess parses HTML

    main_title, blocks = outline(html, profile.strip_selectors,
                                 profile.list_marker_style, url)
    doc = WebDocument(site_id=profile.site_id, page_url=url, main_title=main_title)

    # Headings open sections, and the text between headings goes into the
    # innermost open section.
    open_stack: list[Section] = []  # innermost last
    pending: list[str] = []

    def flush():
        text = " ".join(pending)
        pending.clear()
        if not text:
            return
        if not open_stack:
            intro = Section(heading="", level=2, text=text)
            doc.sections.append(intro)
            open_stack.append(intro)
        else:
            sec = open_stack[-1]
            sec.text = f"{sec.text} {text}".strip() if sec.text else text

    for level, text in blocks:
        if not level:
            pending.append(text)
            continue
        flush()
        while open_stack and open_stack[-1].level >= level:
            open_stack.pop()
        # never jump more than one level deeper than the parent
        parent_level = open_stack[-1].level if open_stack else 1
        sec = Section(heading=text, level=min(level, parent_level + 1))
        if open_stack:
            open_stack[-1].children.append(sec)
        else:
            doc.sections.append(sec)
        open_stack.append(sec)
    flush()
    return doc


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


def _field(d: dict, key: str, kind: type, default=None):
    """`d[key]`, or `default` when given and the key is absent; raises
    TypeError unless it is a `kind` (a bool is no int)."""
    value = d[key] if default is None else d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key} is {type(value).__name__}, not {kind.__name__}")
    return value


def record(cls, value):
    """The flat dataclass `cls` decoded from the JSON object `value`: each
    field is read from the key of its name and checked with `_field`
    against its declared type (str, or int and not bool); other keys are
    ignored. Raises KeyError on a missing key, and TypeError on a value of
    another type or a `value` that is no object."""
    d = json_object(value)
    return cls(*[_field(d, name, kind) for name, kind in _record_fields(cls)])


@cache
def _record_fields(cls) -> tuple[tuple[str, type], ...]:
    """(name, type) of each field of `cls`, a string annotation resolved."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _manifest_entry(value) -> dict:
    entry = json_object(value)
    for key in ("site_id", "url", "path"):
        _field(entry, key, str)
    return entry


def read_manifest(path: str | Path) -> list[dict]:
    """Manifest is JSON lines: {site_id, url, path}, each a string."""
    return read_jsonl(path, _manifest_entry, "a manifest entry", "fix the manifest")


def read_html_file(path: str | Path) -> str:
    return Path(path).read_bytes().decode("utf-8", errors="replace")


def write_documents(docs: Iterable[WebDocument], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_dict(), ensure_ascii=False) + "\n")


def read_documents(path: str | Path) -> list[WebDocument]:
    """The documents `write_documents` wrote; see `read_jsonl` for errors."""
    return read_jsonl(path, WebDocument.from_dict, "a document record",
                      "rerun preprocess and match")
