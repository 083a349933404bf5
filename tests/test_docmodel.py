import json
import random
import re
import time
from html.parser import HTMLParser

import pytest

from biotriplets import htmltree
from biotriplets.docmodel import (
    Section,
    SiteProfile,
    WebDocument,
    flatten_section_text,
    json_line,
    preprocess_html,
    record,
)
from biotriplets.errors import DocumentError
from conftest import HTML_PAGES

PLAIN = SiteProfile(site_id="msd", list_marker_style="plain")
NUMBERED = SiteProfile(site_id="medscape", list_marker_style="numbered")


class TestPreprocess:
    def test_plain_list_markers(self):
        doc = preprocess_html(
            "<h1>Plague</h1><h2>Treatment</h2>"
            "<ul><li>streptomycin</li><li>doxycycline</li></ul>",
            PLAIN, "u",
        )
        assert doc.main_title == "Plague"
        sections = [s for s, _ in doc.walk_sections()]
        assert len(sections) == 1
        assert sections[0].heading == "Treatment"
        assert sections[0].level == 2
        assert sections[0].text == "||streptomycin|| ||doxycycline||"

    def test_title_only_page(self):
        doc = preprocess_html("<h1>X</h1>", PLAIN, "u")
        assert doc.main_title == "X"
        assert doc.sections == []

    def test_numbered_marker_depth_matches_dom_nesting(self):
        html = (
            "<h1>T</h1><h2>S</h2><ul>"
            "<li>one<ul><li>two<ul><li>three</li></ul></li></ul></li>"
            "</ul>"
        )
        doc = preprocess_html(html, NUMBERED, "u")
        text = next(doc.walk_sections())[0].text
        # independent check: DOM nesting depth of each item via a direct walk
        assert text.count("|1|") == 2
        assert text.count("|2|") == 2
        assert text.count("|3|") == 2
        assert "|3|three|3|" in text

    def test_title_element_fallback(self):
        doc = preprocess_html(
            "<html><head><title>From Title</title></head><body><p>x</p></body></html>",
            PLAIN, "u",
        )
        assert doc.main_title == "From Title"

    def test_empty_document(self):
        with pytest.raises(DocumentError, match="no main title"):
            preprocess_html("<p>no title here</p>", PLAIN, "u")

    def test_parse_failure_on_non_html(self):
        with pytest.raises(DocumentError, match="no HTML tags"):
            preprocess_html("just plain text, nothing else", PLAIN, "u")

    def test_boilerplate_removed(self):
        doc = preprocess_html(
            "<h1>T</h1><nav>menu</nav><script>var x=1;</script>"
            "<h2>S</h2><p>body text</p><footer>foot</footer>",
            PLAIN, "u",
        )
        text = " ".join(s.text for s, _ in doc.walk_sections())
        assert "menu" not in text
        assert "var x" not in text
        assert "foot" not in text
        assert "body text" in text

    def test_profile_selectors(self):
        profile = SiteProfile(site_id="s", strip_selectors=[".ad", "#promo"])
        doc = preprocess_html(
            '<h1>T</h1><h2>S</h2><div class="ad">buy now</div>'
            '<div id="promo">deal</div><p>keep me</p>',
            profile, "u",
        )
        text = next(doc.walk_sections())[0].text
        assert text == "keep me"

    def test_valueless_class_attribute_with_class_selector(self):
        profile = SiteProfile(site_id="s", strip_selectors=[".ad"])
        doc = preprocess_html('<h1>T</h1><div class>x</div><div class="ad">y</div>',
                              profile, "u")
        assert next(doc.walk_sections())[0].text == "x"

    @pytest.mark.parametrize("html,text", [
        ("<h1>T</h1><h2>S</h2><p>a</p><![foo[ b ]]><p>c</p>", "a c"),
        ("<h1>T</h1><h2>S</h2><p>a</p><![; b ]><p>c</p>", "a c"),
    ], ids=["unknown-keyword", "no-name"])
    def test_unknown_marked_section_is_a_comment(self, html, text):
        # html.parser fails an assertion on these; a browser skips them
        doc = preprocess_html(html, PLAIN, "u")
        assert next(doc.walk_sections())[0].text == text

    @pytest.mark.parametrize("tail,text", [
        ("<!-- open", "a"), ("<!foo", "a"), ("<x", "a"), ("<![;", "a"),
        ("<?pi", "a"), ("</p", "a"), ("b <", "a b <"), ("x < y", "a x < y"),
    ], ids=["comment", "declaration", "tag", "marked-section", "pi", "close-tag",
            "lone-lt", "lt-in-text"])
    def test_unterminated_tail_dropped(self, tail, text):
        # a browser drops markup left open at the end; any other < is text
        doc = preprocess_html(f"<h1>T</h1><h2>S</h2><p>a</p>{tail}", PLAIN, "u")
        assert next(doc.walk_sections())[0].text == text

    def test_no_html_residue(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>S</h2><p>a <b>bold</b> claim <br> more</p><!-- open",
            PLAIN, "u",
        )
        for s, _ in doc.walk_sections():
            assert not re.search(r"<\s*[a-zA-Z/!?]", s.text)
            assert not re.search(r"<\s*[a-zA-Z/!?]", s.heading)

    def test_deep_page_read_whole(self):
        # 100,000 unclosed tags, far past any recursion limit
        doc = preprocess_html("<h1>Deep</h1><h2>S</h2>" + "<font>w " * 100_000,
                              PLAIN, "u")
        assert doc.main_title == "Deep"
        assert next(doc.walk_sections())[0].text.split() == ["w"] * 100_000

    def test_deep_list_read_whole(self):
        doc = preprocess_html("<h1>Deep</h1><h2>S</h2>" + "<ul><li>w " * 20_000,
                              NUMBERED, "u")
        text = next(doc.walk_sections())[0].text
        assert text.startswith("|1|w |2|w |3|w |3|w ") and text.endswith("|3| |2| |1|")
        assert text.count("w") == 20_000
        assert (text.count("|1|"), text.count("|2|"), text.count("|3|")) == (2, 2, 39_996)

    @pytest.mark.parametrize("body, words", [
        ("<font>w " * 10_000 + "<p>x</p>" * 10_000, ["w"] * 10_000 + ["x"] * 10_000),
        ("<font>w " * 10_000 + "</x>" * 10_000, ["w"] * 10_000),
        # the open p sits below a list, so no later p closes it
        ("<p><ul><li>" + "<font>w " * 5_000 + "<p>x</p>" * 5_000,
         ["||w"] + ["w"] * 4_999 + ["x"] * 4_999 + ["x||"]),
    ], ids=["siblings", "stray-closes", "siblings-past-a-list"])
    def test_unclosed_elements_parsed_in_linear_time(self, body, words):
        # a close or a sibling must not walk the 10,000 unclosed tags below it
        start = time.perf_counter()
        doc = preprocess_html("<h1>T</h1><h2>S</h2>" + body, PLAIN, "u")
        assert time.perf_counter() - start < 2.0
        assert doc.sections[0].text.split() == words

    def test_whitespace_collapsed(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>S</h2><p>a\n\n   b\t\tc</p>", PLAIN, "u"
        )
        assert next(doc.walk_sections())[0].text == "a b c"

    def test_heading_levels_never_jump(self):
        # h4 straight after h2 clamps to level 3
        doc = preprocess_html(
            "<h1>T</h1><h2>A</h2><p>x</p><h4>Deep</h4><p>y</p>", PLAIN, "u"
        )
        prev = 1
        for s, _ in doc.walk_sections():
            assert s.level <= prev + 1
            prev = s.level

    def test_child_level_is_parent_plus_one(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>A</h2><h3>B</h3><h4>C</h4>", PLAIN, "u"
        )

        def check(sections):
            for s in sections:
                for c in s.children:
                    assert c.level == s.level + 1
                check(s.children)

        check(doc.sections)

    def test_marker_balance(self):
        html = (
            "<h1>T</h1><h2>S</h2>"
            "<ul><li>a<ul><li>b</li><li>c</li></ul></li><li>d</li></ul>"
        )
        for profile in (PLAIN, NUMBERED):
            doc = preprocess_html(html, profile, "u")
            for s, _ in doc.walk_sections():
                for token in ("|1|", "|2|", "|3|"):
                    assert s.text.count(token) % 2 == 0
                if profile is PLAIN:
                    assert len(re.findall(r"(?<!\|)\|\|(?!\|)", " " + s.text + " ")) % 2 == 0

    def test_tag_soup_tolerated(self):
        doc = preprocess_html(
            "<h1>T<h2>S</h2><p>unclosed para<li>stray item", PLAIN, "u"
        )
        assert doc.main_title  # no crash, something extracted

    def test_table_linearized(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>S</h2>"
            "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>",
            PLAIN, "u",
        )
        text = next(doc.walk_sections())[0].text
        assert "a | b" in text and "c | d" in text

    def test_lossy_utf8_input(self):
        raw = "<h1>Caf\xe9</h1><h2>S</h2><p>ok</p>"
        doc = preprocess_html(raw, PLAIN, "u")
        assert doc.main_title == "Caf\xe9"

    def test_normalization_idempotent(self):
        html = "<h1>T</h1><h2>S</h2><p>a   b</p><ul><li>c</li></ul>"
        doc1 = preprocess_html(html, PLAIN, "u")
        # render the produced text back into trivial HTML and re-run
        body = "".join(
            f"<h2>{s.heading}</h2><p>{s.text}</p>" for s, _ in doc1.walk_sections()
        )
        doc2 = preprocess_html(f"<h1>{doc1.main_title}</h1>{body}", PLAIN, "u")
        assert [s.text for s, _ in doc2.walk_sections()] == [
            s.text for s, _ in doc1.walk_sections()
        ]


SOUP_TAGS = ["div", "p", "li", "li", "ul", "ol", "dl", "dt", "dd", "span", "b",
             "h1", "title", "h2", "h3", "h5", "table", "tr", "td", "th", "br",
             "img", "script", "nav", "aside", "form", "svg"]
SOUP_ATTRS = ["", "", " class", ' class="ad"', ' class="note ad"', ' class="note"',
              ' id="promo"']
SOUP_TEXTS = ["fever", "cough and rash", " ", "a &amp; b", "x < y", "dose |"]
SOUP_TITLES = ["<h1>Title</h1>", "<h1>Title</h1>", "<h1> </h1>", "<title>Page</title>",
               "<title/>", ""]
SOUP_HEADINGS = ["<h2>Causes</h2>", "<h3>Dose", "<h4>Adults</h4>", "<h5> </h5>",
                 "<h6>Children</h6>", "<h3>Signs</h3>"]


def soup_page(rng):
    """A seeded tag-soup page: unclosed and stray tags, lists nested deep,
    rows with stray cells, h1 and title anywhere, headings of every level,
    void and self-closed elements, drop tags and selector-matching
    attributes."""
    parts = [rng.choice(SOUP_TITLES)]
    for _ in range(rng.randint(5, 80)):
        tag, roll = rng.choice(SOUP_TAGS), rng.random()
        if roll < 0.03:
            parts.append("<ul><li>drug" * rng.randint(2, 6))
        elif roll < 0.13:
            parts.append(rng.choice(SOUP_HEADINGS))
        elif roll < 0.45:
            parts.append(f"<{tag}{rng.choice(SOUP_ATTRS)}>")
        elif roll < 0.7:
            parts.append(f"</{tag}>")
        elif roll < 0.75:
            parts.append(f"<{tag}{rng.choice(SOUP_ATTRS)}/>")
        else:
            parts.append(rng.choice(SOUP_TEXTS))
    return "".join(parts)


# The naive reference: the whole page built as a tree by the same stack
# rules, pruned after it is built, then rendered by recursive walks.


class Node:
    def __init__(self, tag, attrs=None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children = []  # Node | str


class TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("#root")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        if tag in htmltree._SELF_CLOSING_SIBLINGS:
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t == tag:
                    del self.stack[i:]
                    break
                if t in ("ul", "ol", "table", "tr", "dl") or t.startswith("h"):
                    break
        node = Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag not in htmltree._VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def naive_prune(node, drop_tags, selectors):
    """The tree without each element that a drop tag or a selector names,
    found by walking the whole tree after it was built."""
    kept = []
    for child in node.children:
        if not isinstance(child, str):
            if child.tag in drop_tags or any(
                    htmltree._matches_selector(child.tag, child.attrs, s) for s in selectors):
                continue
            naive_prune(child, drop_tags, selectors)
        kept.append(child)
    node.children = kept
    return node


def preorder(node):
    for child in node.children:
        if isinstance(child, Node):
            yield child
            yield from preorder(child)


def collapse(text):
    return re.sub(r"\s+", " ", text).strip()


def plain_text(node):
    return collapse(" ".join(c if isinstance(c, str) else plain_text(c)
                             for c in node.children))


def render_text(node, style, list_depth=0):
    parts = []
    for child in node.children:
        if isinstance(child, str):
            parts.append(collapse(child))
        elif child.tag in ("ul", "ol", "dl"):
            parts.append(render_text(child, style, list_depth + 1))
        elif child.tag in ("li", "dt", "dd"):
            depth = max(list_depth, 1)
            marker = f"|{min(depth, 3)}|" if style == "numbered" else "||"
            body = render_text(child, style, list_depth)
            if body.endswith("|"):
                body += " "
            parts.append(f"{marker}{body}{marker}")
        elif child.tag == "tr":
            cells = [render_text(c, style, list_depth) for c in child.children
                     if isinstance(c, Node) and c.tag in ("td", "th")]
            parts.append(" | ".join(c for c in cells if c))
        else:
            parts.append(render_text(child, style, list_depth))
    return collapse(" ".join(p for p in parts if p))


def reference_outline(html, selectors, style, drop_tags=htmltree._DROP_TAGS):
    builder = TreeBuilder()
    builder.feed(html)
    builder.close()
    root = naive_prune(builder.root, drop_tags, selectors)
    h1s = [plain_text(n) for n in preorder(root) if n.tag == "h1"]
    titles = [plain_text(n) for n in preorder(root) if n.tag == "title"]
    title = next((t for t in h1s if t), None)
    if title is None:
        title = titles[0] if titles else ""
    if not title:
        return "no main title"
    blocks = []

    def visit(node):
        for child in node.children:
            if isinstance(child, str):
                text = collapse(child)
            elif child.tag in ("h1", "title"):
                continue
            elif child.tag in htmltree._HEADING_LEVELS:
                heading = plain_text(child)
                if heading:
                    blocks.append((htmltree._HEADING_LEVELS[child.tag], heading))
                continue
            elif child.tag in ("ul", "ol", "dl", "table"):
                wrapper = Node("#block")
                wrapper.children = [child]
                text = render_text(wrapper, style)
            else:
                visit(child)
                continue
            if text:
                blocks.append((0, text))

    visit(root)
    return title, blocks


def reference_document(html, selectors, style, drop_tags=htmltree._DROP_TAGS):
    """The reference outline's blocks built into sections by a second pass:
    headings open sections, and the text between headings goes into the
    innermost open section."""
    outline = reference_outline(html, selectors, style, drop_tags)
    if outline == "no main title":
        return outline
    title, blocks = outline
    doc = WebDocument(site_id="s", page_url="u", main_title=title)
    open_stack = []  # innermost last
    pending = []

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


def one_pass_document(html, selectors, style):
    try:
        return preprocess_html(html, SiteProfile("s", style, selectors), "u")
    except DocumentError:
        return "no main title"


@pytest.mark.parametrize("style", ["plain", "numbered"])
@pytest.mark.parametrize("selectors", [[], [".ad", "#promo", "table"]],
                         ids=["no-selectors", "selectors"])
def test_one_pass_outline_as_the_built_tree(selectors, style):
    rng = random.Random(3100 + len(selectors) + len(style))
    pages = [soup_page(rng) for _ in range(750)]
    expected = [reference_document(html, selectors, style) for html in pages]
    assert [one_pass_document(html, selectors, style) for html in pages] == expected
    # many pages have a main title, many of those nested sections, so their
    # trees are compared, and pruning changes many trees, so its check is
    # not vacuous
    titled = [e for e in expected if e != "no main title"]
    assert len(titled) > len(pages) // 3
    assert sum(any(s.children for s in e.sections) for e in titled) > len(titled) // 10
    whole = [reference_document(html, [], style, drop_tags=set()) for html in pages]
    assert sum(e != w for e, w in zip(expected, whole)) > len(pages) // 3


def reference_walk(doc):
    """(section, breadcrumb) in document order, each breadcrumb found by
    searching the whole tree for the section, as a per-section lookup did
    before the walk built them."""

    def preorder(sections):
        for s in sections:
            yield s
            yield from preorder(s.children)

    def section_path(section):
        def find(nodes, trail):
            for s in nodes:
                here = trail + ([s.heading] if s.heading else [])
                if s is section:
                    return here
                hit = find(s.children, here)
                if hit is not None:
                    return hit
            return None

        return " > ".join([doc.main_title] + find(doc.sections, []))

    return [(s, section_path(s)) for s in preorder(doc.sections)]


class TestSectionPath:
    def make_doc(self):
        return preprocess_html(
            "<h1>X</h1><h2>Workup</h2><p>a</p><h3>Imaging</h3><p>b</p>",
            PLAIN, "u",
        )

    def test_single_level(self):
        doc = preprocess_html("<h1>Plague</h1><h2>Treatment</h2><p>x</p>", PLAIN, "u")
        assert list(doc.walk_sections()) == [(doc.sections[0], "Plague > Treatment")]

    def test_nested(self):
        doc = self.make_doc()
        imaging = doc.sections[0].children[0]
        assert [path for s, path in doc.walk_sections() if s is imaging] == [
            "X > Workup > Imaging"]

    def test_walk_matches_tree_search(self):
        docs = [preprocess_html(html, PLAIN, name) for name, html in HTML_PAGES.items()]
        docs.append(preprocess_html(
            "<h1>T</h1><p>intro</p><h2>A</h2><p>a</p><h3>B</h3><p>b</p>"
            "<h4>C</h4><p>c</p><h5>D</h5><p>d</p><h3>E</h3><h2>F</h2><h4>G</h4><p>g</p>",
            PLAIN, "nested"))
        # blank headings below the top level, which preprocessing never makes
        docs.append(WebDocument("s", "blank", "T", [Section("A", 2, children=[
            Section("", 3, "x", [Section("B", 4), Section("", 4)]), Section("C", 3)])]))
        for doc in docs:
            walked = list(doc.walk_sections())
            expected = reference_walk(doc)
            assert [id(s) for s, _ in walked] == [id(s) for s, _ in expected]
            assert [p for _, p in walked] == [p for _, p in expected], doc.page_url
        assert [p for _, p in docs[-2].walk_sections()] == [
            "T", "T > A", "T > A > B", "T > A > B > C", "T > A > B > D",
            "T > A > E", "T > F", "T > F > G"]


class TestFlatten:
    def test_leaf_identity(self):
        doc = preprocess_html("<h1>T</h1><h2>S</h2><p>abc</p>", PLAIN, "u")
        assert flatten_section_text(doc.sections[0]) == "abc"

    def test_parent_child_order(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>A</h2><p>pa</p><h3>B</h3><p>cb</p>", PLAIN, "u"
        )
        assert flatten_section_text(doc.sections[0]) == "pa\nB\ncb"

    def test_empty_parent_two_children(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>A</h2><h3>B</h3><p>x</p><h3>C</h3><p>y</p>", PLAIN, "u"
        )

        # independent recursive reference walk
        def reference(section):
            parts = [section.text] if section.text else []
            for child in section.children:
                if child.heading:
                    parts.append(child.heading)
                sub = reference(child)
                if sub:
                    parts.append(sub)
            return "\n".join(parts)

        root = doc.sections[0]
        assert flatten_section_text(root) == reference(root) == "B\nx\nC\ny"


class TestSerialization:
    def test_round_trip(self):
        doc = preprocess_html(
            "<h1>T</h1><h2>A</h2><p>x</p><h3>B</h3><ul><li>i</li></ul>", PLAIN, "u"
        )
        assert doc.sections[0].children  # a nested record goes through too
        clone = record(WebDocument, json.loads(json_line(doc)))
        assert clone == doc
        assert json_line(clone) == json_line(doc)

    def test_line_is_the_fields_in_declaration_order(self):
        doc = WebDocument("s", "u", "T", [Section("A", 2, "fièvre", [Section("B", 3)])])
        assert json_line(doc) == (
            '{"site_id": "s", "page_url": "u", "main_title": "T", "sections": '
            '[{"heading": "A", "level": 2, "text": "fièvre", "children": '
            '[{"heading": "B", "level": 3, "text": "", "children": []}]}]}\n')

    def test_left_out_keys_keep_their_defaults(self):
        doc = record(WebDocument, {"site_id": "s", "page_url": "u", "main_title": "T",
                                   "sections": [{"heading": "A", "level": 2},
                                                {"heading": "B", "level": 2}]})
        a, b = doc.sections
        assert a == Section("A", 2, "", []) and b == Section("B", 2, "", [])
        # each record gets a list of its own, not one shared default
        assert a.children is not b.children
        assert record(WebDocument, {"site_id": "s", "page_url": "u",
                                    "main_title": "T"}).sections == []
