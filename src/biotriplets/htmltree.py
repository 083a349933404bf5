"""Lenient HTML parsing into a throwaway mini-DOM, read as a page outline.

`outline` gives the page's main title and, in document order, its headings
and the text between them, with lists and tables rendered inline between
marker tokens; `docmodel.preprocess_html` builds the section tree from
them. Only `preprocess` loads this module, and with it `html.parser`:
`docmodel` imports it when a page is parsed.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
from typing import Iterator, Optional

from .errors import DocumentError

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


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[dict] = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list = []  # _Node | str


class _TreeBuilder(HTMLParser):
    """Builds the mini-DOM without the elements that `_DROP_TAGS` or one of
    `selectors` names. Such an element still opens and closes on the stack,
    so the tag-soup rules see it, but no parent holds it or its content."""

    def __init__(self, selectors: list[str]):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.stack = [self.root]
        self.saw_tag = False
        self.selectors = selectors

    def _attach(self, node: _Node) -> None:
        if node.tag in _DROP_TAGS or any(_matches_selector(node, s) for s in self.selectors):
            return
        self.stack[-1].children.append(node)

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
        self._attach(node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.saw_tag = True
        self._attach(_Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray close tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)

    def parse_html_declaration(self, i):
        # `<![` that opens no marked section the parser knows (`<![;`,
        # `<![foo[`) fails an assertion; a browser reads it as a comment
        try:
            return super().parse_html_declaration(i)
        except AssertionError:
            return self.parse_bogus_comment(i)


def _parse_tree(html: str, selectors: list[str]) -> _Node:
    builder = _TreeBuilder(selectors)
    builder.feed(html)
    builder.close()
    if not builder.saw_tag:
        raise DocumentError("no HTML tags found in input")
    return builder.root


def _matches_selector(node: _Node, selector: str) -> bool:
    if selector.startswith("."):
        # a valueless attribute (<div class>) parses as None
        classes = (node.attrs.get("class") or "").split()
        return selector[1:] in classes
    if selector.startswith("#"):
        return node.attrs.get("id") == selector[1:]
    return node.tag == selector


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
# The page outline.


def _main_title(root: _Node) -> str:
    """The text of the first h1 that has any, else of the first title."""
    for node in _iter_nodes(root):
        if node.tag == "h1":
            title = _plain_text(node)
            if title:
                return title
    for node in _iter_nodes(root):
        if node.tag == "title":
            return _plain_text(node)
    return ""


def outline(html: str, selectors: list[str], style: str,
            url: str) -> tuple[str, list[tuple[int, str]]]:
    """The page's main title, and its content in document order: (level,
    heading) for each h2-h6 heading with text, and (0, text) for each
    non-empty run of text outside them, a list or table rendered whole with
    `style`'s markers. h1 and title elements are left out. Raises
    DocumentError when the input has no tags or no main title."""
    root = _parse_tree(html, selectors)
    title = _main_title(root)
    if not title:
        raise DocumentError(f"no main title found in {url}")
    blocks: list[tuple[int, str]] = []

    def visit(node: _Node):
        for child in node.children:
            if isinstance(child, str):
                text = _collapse(child)
            elif child.tag in ("h1", "title"):
                continue
            elif child.tag in _HEADING_LEVELS:
                heading = _plain_text(child)
                if heading:
                    blocks.append((_HEADING_LEVELS[child.tag], heading))
                continue
            elif child.tag in ("ul", "ol", "dl", "table"):
                wrapper = _Node("#block")
                wrapper.children = [child]
                text = _render_text(wrapper, style)
            else:
                visit(child)
                continue
            if text:
                blocks.append((0, text))

    visit(root)
    return title, blocks
