"""Lenient HTML parsing, read straight into the page's section tree.

`outline` gives the page's main title and its sections, the plain dicts
that documents.jsonl holds, built in one pass: the text between headings,
lists and tables rendered inline between marker tokens, goes into the
innermost open section. Only `preprocess` loads this module, and with it
`html.parser`: `docmodel` imports it when a page is parsed.
"""

from __future__ import annotations

import re
from collections import defaultdict
from html.parser import HTMLParser

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

# ...but not across one of these, nor any tag that starts with "h".
_SIBLING_BOUNDS = {"ul", "ol", "table", "tr", "dl"}

_HEADING_LEVELS = {"h2": 2, "h3": 3, "h4": 4, "h5": 4, "h6": 4}

_LIST_TAGS = {"ul", "ol", "dl"}

_WS_RE = re.compile(r"\s+")

# A tag, comment or declaration that the page leaves unterminated at its
# end, where the parser stops. Any other `<` is text.
_UNTERMINATED_RE = re.compile(r"<[a-zA-Z!/?]")

# Where an open element's content goes: nowhere (a dropped element), into
# the open section's text, into its plain text only (h1, title,
# headings, and a row's children that are no cells), or into the list or
# table block being rendered. An element keeps its parent's mode unless it
# begins another, so all inside a dropped element is dropped.
_DROPPED, _OUTLINE, _PLAIN, _BLOCK = range(4)

_ITEM_TAGS = {"li", "dt", "dd"}


def _matches_selector(tag: str, attrs: dict, selector: str) -> bool:
    if selector.startswith("."):
        # a valueless attribute (<div class>) parses as None
        classes = (attrs.get("class") or "").split()
        return selector[1:] in classes
    if selector.startswith("#"):
        return attrs.get("id") == selector[1:]
    return tag == selector


def _collapse(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


class _OutlineReader(HTMLParser):
    """Builds the section tree while it parses. An element that `_DROP_TAGS`
    or one of `selectors` names still opens and closes on the stack, so the
    tag-soup rules see it, but none of its content is read.

    A list or table is written as it arrives into one block, `out`. Its
    elements join their non-empty parts with a space (a row its cells with
    " | "), and an item wraps its part in markers, so each part is written
    after the separator that its element asks for once it has content."""

    def __init__(self, selectors: list[str], style: str):
        super().__init__(convert_charrefs=True)
        self.selectors = selectors
        self.style = style
        self.saw_tag = False
        self.texts: list[str] = []  # every text that is read, in order
        self.out: list[str] = []  # the list or table block being written
        # [start, end) in `texts` of each h1 and title, in opening order
        self.spans: dict[str, list[list[int]]] = {"h1": [], "title": []}
        # innermost last, the page itself first as the level-1 section
        self.open_sections: list[dict] = [{"level": 1, "children": []}]
        self.pending: list[str] = []  # the innermost one's texts, joined once
        # the open elements, innermost last: [tag, mode, list depth, its
        # span in `texts` or None, whether its block content has begun]
        self.stack: list[list] = [["#root", _OUTLINE, 0, None, False]]
        # the positions in `stack` of each open tag, and of the bounds
        self.open_at: defaultdict[str, list[int]] = defaultdict(list)
        self.bounds: list[int] = [0]

    def _open(self, tag: str, attrs: list) -> None:
        parent, mode, depth, _, _ = self.stack[-1]
        span = None
        if tag in _DROP_TAGS or self.selectors and any(
                _matches_selector(tag, dict(attrs), s) for s in self.selectors):
            mode = _DROPPED
        elif mode == _OUTLINE and (tag in _LIST_TAGS or tag == "table"):
            mode, self.out = _BLOCK, []
        elif mode == _BLOCK and parent == "tr" and tag not in ("td", "th"):
            mode = _PLAIN  # a row keeps only its cells
        elif mode == _OUTLINE and (tag in _HEADING_LEVELS or tag in self.spans):
            mode = _PLAIN
        if mode == _BLOCK:
            depth += tag in _LIST_TAGS
            if tag in _ITEM_TAGS:
                self._write(self._marker(depth))
        if mode != _DROPPED and (tag in _HEADING_LEVELS or tag in self.spans):
            span = [len(self.texts)]
            if tag in self.spans:
                self.spans[tag].append(span)
        self.open_at[tag].append(len(self.stack))
        if tag in _SIBLING_BOUNDS or tag[0] == "h":
            self.bounds.append(len(self.stack))
        self.stack.append([tag, mode, depth, span, False])

    def _close(self) -> None:
        tag, mode, depth, span, begun = self.stack.pop()
        self.open_at[tag].pop()
        if self.bounds[-1] == len(self.stack):
            self.bounds.pop()
        if span:
            span.append(len(self.texts))
        parent_mode = self.stack[-1][1]
        if mode == _PLAIN and tag in _HEADING_LEVELS and parent_mode == _OUTLINE:
            heading = self._plain_text(span)
            if heading:
                self._open_section(heading, _HEADING_LEVELS[tag])
        elif mode == _BLOCK:
            if tag in _ITEM_TAGS:
                if begun and self.out[-1].endswith("|"):
                    self.out.append(" ")
                self.out.append(self._marker(depth))
            if parent_mode == _OUTLINE and self.out:
                self._add_text("".join(self.out))

    def _open_section(self, heading: str, level: int) -> None:
        """Close the open sections of `level` or deeper; the new one sits
        at most one level below its parent."""
        self._end_text()
        opened = self.open_sections
        while opened[-1]["level"] >= level:
            opened.pop()
        section = {"heading": heading, "level": min(level, opened[-1]["level"] + 1),
                   "text": "", "children": []}
        opened[-1]["children"].append(section)
        opened.append(section)

    def _add_text(self, text: str) -> None:
        if len(self.open_sections) == 1:  # text before any heading
            self._open_section("", 2)
        self.pending.append(text)

    def _end_text(self) -> None:
        """Set the innermost open section's text: its pending texts."""
        if self.pending:
            self.open_sections[-1]["text"] = " ".join(self.pending)
            self.pending.clear()

    def _write(self, part: str) -> None:
        """Append `part` to the block. The innermost open element that
        already has content gets its separator first, and the elements
        inside it now have content too. An item ends the walk: its markers
        were written when it opened."""
        for entry in reversed(self.stack):
            tag, mode, _, _, begun = entry
            if mode != _BLOCK:
                break
            if begun:
                self.out.append(" | " if tag == "tr" else " ")
                break
            entry[4] = True
            if tag in _ITEM_TAGS:
                break
        self.out.append(part)

    def _marker(self, depth: int) -> str:
        return f"|{min(max(depth, 1), 3)}|" if self.style == "numbered" else "||"

    def _close_to(self, index: int) -> None:
        """Close the open elements from `index` in the stack up."""
        while len(self.stack) > index:
            self._close()

    def _plain_text(self, span: list[int]) -> str:
        return _collapse(" ".join(self.texts[span[0]:span[1]]))

    def handle_starttag(self, tag, attrs):
        self.saw_tag = True
        # close the innermost open `tag` unless a bound opened inside it
        at = self.open_at.get(tag) if tag in _SELF_CLOSING_SIBLINGS else None
        if at and at[-1] >= self.bounds[-1]:
            self._close_to(at[-1])
        self._open(tag, attrs)
        if tag in _VOID_TAGS:
            self._close()

    def handle_startendtag(self, tag, attrs):
        self.saw_tag = True
        self._open(tag, attrs)
        self._close()

    def handle_endtag(self, tag):
        at = self.open_at.get(tag)
        if at:  # else a stray close tag: ignored
            self._close_to(at[-1])

    def handle_data(self, data):
        tag, mode, _, _, _ = self.stack[-1]
        if mode == _DROPPED:
            return
        self.texts.append(data)
        if mode == _PLAIN or (mode == _BLOCK and tag == "tr"):
            return  # a row keeps only its cells
        text = _collapse(data)
        if text and mode == _OUTLINE:
            self._add_text(text)
        elif text:
            self._write(text)

    def parse_html_declaration(self, i):
        # `<![` that opens no marked section the parser knows (`<![;`,
        # `<![foo[`) fails an assertion; a browser reads it as a comment
        try:
            return super().parse_html_declaration(i)
        except AssertionError:
            return self.parse_bogus_comment(i)


def outline(html: str, selectors: list[str], style: str,
            url: str) -> tuple[str, list[dict]]:
    """The page's main title, and its sections as documents.jsonl holds
    them: {heading, level, text, children}, a list or table rendered into
    the text whole with `style`'s markers. h1 and title elements are left
    out. The main title is the text of the first h1 that has any, else of
    the first title. Raises DocumentError when the input has no tags or no
    main title."""
    reader = _OutlineReader(selectors, style)
    reader.feed(html)
    if not _UNTERMINATED_RE.match(reader.rawdata):
        reader.close()  # which would emit such a tail as text; a browser drops it
    if not reader.saw_tag:
        raise DocumentError("no HTML tags found in input")
    reader._close_to(1)
    reader._end_text()
    h1s = map(reader._plain_text, reader.spans["h1"])
    titles = reader.spans["title"]
    title = next(filter(None, h1s), "") or (
        reader._plain_text(titles[0]) if titles else "")
    if not title:
        raise DocumentError(f"no main title found in {url}")
    return title, reader.open_sections[0]["children"]
