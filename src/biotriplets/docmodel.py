"""Normalize raw article HTML into a marker-annotated section tree.

The output keeps what matters downstream: the page's main title (used as
the tail entity of every candidate relation), the heading hierarchy, and
list structure inlined as balanced marker tokens (``|1|``/``|2|``/``|3|``
by nesting depth for NUMBERED profiles, ``||`` at every depth for PLAIN).
Everything else (scripts, navigation chrome, tags) is stripped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import ConfigError, EmptyDocument, ParseFailure, SectionNotInDocument

MAX_SECTION_LEVEL = 4

# Tags whose content never carries article text.
_DROP_TAGS = {
    "script", "style", "noscript", "template", "iframe", "svg",
    "nav", "header", "footer", "aside", "form", "button", "select",
}

_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

# Opening one of these implicitly closes a same-tag sibling still on the
# stack (tag soup like <li>a<li>b is routine on real pages).
_SELF_CLOSING_SIBLINGS = {"li", "p", "td", "th", "tr", "option", "dt", "dd"}

_HEADING_LEVELS = {"h2": 2, "h3": 3, "h4": 4, "h5": 4, "h6": 4}

_WS_RE = re.compile(r"\s+")


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
            heading=d["heading"],
            level=d["level"],
            text=d.get("text", ""),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )

    def walk(self) -> Iterator["Section"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class WebDocument:
    site_id: str
    page_url: str
    main_title: str
    sections: list[Section] = field(default_factory=list)

    def walk_sections(self) -> Iterator[Section]:
        for s in self.sections:
            yield from s.walk()

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
            site_id=d["site_id"],
            page_url=d["page_url"],
            main_title=d["main_title"],
            sections=[Section.from_dict(s) for s in d.get("sections", [])],
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
# Lenient HTML parsing into a throwaway mini-DOM.


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[dict] = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list = []  # _Node | str


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.stack = [self.root]
        self.saw_tag = False

    def handle_starttag(self, tag, attrs):
        self.saw_tag = True
        if tag in _SELF_CLOSING_SIBLINGS:
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t == tag:
                    del self.stack[i:]
                    break
                if t in ("ul", "ol", "table", "tr", "dl") or t.startswith("h"):
                    break
        node = _Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.saw_tag = True
        self.stack[-1].children.append(_Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray close tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def _parse_tree(html: str) -> _Node:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    if not builder.saw_tag:
        raise ParseFailure("no HTML tags found in input")
    return builder.root


def _matches_selector(node: _Node, selector: str) -> bool:
    if selector.startswith("."):
        classes = node.attrs.get("class", "").split()
        return selector[1:] in classes
    if selector.startswith("#"):
        return node.attrs.get("id") == selector[1:]
    return node.tag == selector


def _prune(node: _Node, selectors: list[str]) -> None:
    kept = []
    for child in node.children:
        if isinstance(child, _Node):
            if child.tag in _DROP_TAGS:
                continue
            if any(_matches_selector(child, s) for s in selectors):
                continue
            _prune(child, selectors)
        kept.append(child)
    node.children = kept


def _iter_nodes(node: _Node) -> Iterator[_Node]:
    for child in node.children:
        if isinstance(child, _Node):
            yield child
            yield from _iter_nodes(child)


def _collapse(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def _plain_text(node: _Node) -> str:
    parts = []
    for child in node.children:
        if isinstance(child, str):
            parts.append(child)
        else:
            parts.append(_plain_text(child))
    return _collapse(" ".join(parts))


# --------------------------------------------------------------------------
# Text rendering with inline list markers.


def _list_marker(style: str, depth: int) -> str:
    if style == "numbered":
        return f"|{min(depth, 3)}|"
    return "||"


def _render_text(node: _Node, style: str, list_depth: int = 0) -> str:
    """Render a node's content to one whitespace-collapsed text run."""
    parts: list[str] = []
    for child in node.children:
        if isinstance(child, str):
            parts.append(_collapse(child))
            continue
        tag = child.tag
        if tag in ("ul", "ol", "dl"):
            parts.append(_render_text(child, style, list_depth + 1))
        elif tag in ("li", "dt", "dd"):
            marker = _list_marker(style, max(list_depth, 1))
            body = _render_text(child, style, list_depth)
            if body.endswith("|"):
                body += " "
            parts.append(f"{marker}{body}{marker}")
        elif tag == "tr":
            cells = [
                _render_text(c, style, list_depth)
                for c in child.children
                if isinstance(c, _Node) and c.tag in ("td", "th")
            ]
            parts.append(" | ".join(c for c in cells if c))
        else:
            parts.append(_render_text(child, style, list_depth))
    return _collapse(" ".join(p for p in parts if p))


# --------------------------------------------------------------------------
# Main entry points.


def preprocess_html(html: str, profile: SiteProfile, url: str) -> WebDocument:
    """Turn one raw page into a WebDocument.

    Tolerates tag soup; raises ParseFailure when the input has no tags at
    all and EmptyDocument when no main title can be found.
    """
    root = _parse_tree(html)
    _prune(root, profile.strip_selectors)

    main_title = ""
    for node in _iter_nodes(root):
        if node.tag == "h1":
            main_title = _plain_text(node)
            if main_title:
                break
    if not main_title:
        for node in _iter_nodes(root):
            if node.tag == "title":
                main_title = _plain_text(node)
                break
    if not main_title:
        raise EmptyDocument(f"no main title found in {url}")

    doc = WebDocument(site_id=profile.site_id, page_url=url, main_title=main_title)

    # Walk block-level order: headings open sections, everything between
    # headings renders into the innermost open section.
    open_stack: list[Section] = []  # innermost last
    pending: list[str] = []

    def flush():
        text = _collapse(" ".join(p for p in pending if p))
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

    def open_section(heading: str, level: int):
        flush()
        while open_stack and open_stack[-1].level >= level:
            open_stack.pop()
        # never jump more than one level deeper than the parent
        parent_level = open_stack[-1].level if open_stack else 1
        level = min(level, parent_level + 1)
        sec = Section(heading=heading, level=level)
        if open_stack:
            open_stack[-1].children.append(sec)
        else:
            doc.sections.append(sec)
        open_stack.append(sec)

    def visit(node: _Node):
        for child in node.children:
            if isinstance(child, str):
                pending.append(_collapse(child))
                continue
            tag = child.tag
            if tag == "h1" or tag == "title":
                continue
            if tag in _HEADING_LEVELS:
                heading = _plain_text(child)
                if heading:
                    open_section(heading, _HEADING_LEVELS[tag])
                continue
            if tag in ("ul", "ol", "dl", "table"):
                wrapper = _Node("#block")
                wrapper.children = [child]
                pending.append(_render_text(wrapper, profile.list_marker_style))
                continue
            visit(child)

    visit(root)
    flush()
    return doc


def section_path(doc: WebDocument, section: Section) -> str:
    """Breadcrumb from the main title down to the given section."""

    def find(nodes: list[Section], trail: list[str]) -> Optional[list[str]]:
        for s in nodes:
            here = trail + ([s.heading] if s.heading else [])
            if s is section:
                return here
            hit = find(s.children, here)
            if hit is not None:
                return hit
        return None

    trail = find(doc.sections, [])
    if trail is None:
        raise SectionNotInDocument(f"section {section.heading!r} not in {doc.page_url}")
    return " > ".join([doc.main_title] + trail)


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
    """`parse` of each non-blank JSON line of `path`. A line that is not
    JSON, or that `parse` rejects with ValueError, KeyError or TypeError,
    raises `error` naming the file, the line and the `action` to take."""
    out = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise error(
                    f"{path} line {line_no} is not {what} ({exc}); {action}"
                ) from None
    return out


def json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def read_manifest(path: str | Path) -> list[dict]:
    """Manifest is JSON lines: {site_id, url, path}."""
    try:
        return read_jsonl(path, json_object, "a manifest entry", "fix the manifest")
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from None


def read_html_file(path: str | Path) -> str:
    return Path(path).read_bytes().decode("utf-8", errors="replace")


def write_documents(docs: Iterable[WebDocument], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_dict(), ensure_ascii=False) + "\n")


def read_documents(path: str | Path) -> list[WebDocument]:
    return read_jsonl(path, WebDocument.from_dict, "a document record", "rerun preprocess")
