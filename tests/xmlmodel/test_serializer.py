"""Tests for the XML serializer: exact text, deep trees, fragments."""

from __future__ import annotations

import pytest

from repro.dtd import dtd, validate_document
from repro.xmlmodel import (
    Document,
    Element,
    elem,
    parse_document,
    serialize_document,
    serialize_element,
    text_elem,
)
from repro.xmlmodel.serializer import join_document


def section_chain(depth: int) -> Document:
    """``doc`` over ``depth`` nested sections, each with a title."""
    node = Element("section", [text_elem("title", "bottom")])
    for level in range(depth - 1):
        node = Element("section", [text_elem("title", f"t{level}"), node])
    return Document(Element("doc", [node]))


class TestExactText:
    def test_layout_escaping_and_attributes(self):
        root = elem(
            "pub",
            text_elem("title", "a < b & c > d"),
            elem("empty"),
            elem("list", text_elem("item", "")),
        )
        root.attributes.update({"venue": 'say "ICDE" & <more>', "a": "1"})
        assert serialize_document(Document(root)) == (
            '<?xml version="1.0"?>\n'
            '<pub a="1" venue="say &quot;ICDE&quot; &amp; &lt;more&gt;">\n'
            "  <title>a &lt; b &amp; c &gt; d</title>\n"
            "  <empty/>\n"
            "  <list>\n"
            "    <item></item>\n"
            "  </list>\n"
            "</pub>\n"
        )

    def test_ids_and_levels(self):
        root = elem("a", text_elem("b", "x", id="e2"), id="e1")
        assert serialize_element(root, indent=1, include_ids=True) == (
            '<a id="e1">\n <b id="e2">x</b>\n</a>'
        )
        assert serialize_element(root.children[0], level=2) == "    <b>x</b>"

    @pytest.mark.parametrize(
        "root",
        [
            elem("a"),
            elem("a", text_elem("b", "1")),
            elem("a", elem("b", elem("c")), text_elem("d", "&")),
            text_elem("leaf", "only text"),
        ],
    )
    def test_join_document_matches_serialize_document(self, root):
        fragments = [
            serialize_element(child, level=1) for child in root.children
        ]
        assert join_document(root, fragments) == serialize_document(
            Document(root)
        )


class TestDeepDocuments:
    def test_5000_deep_chain_round_trips(self):
        # Far past the interpreter's recursion limit.  Indent 0 keeps
        # the text linear in the depth (indentation is quadratic).
        document = section_chain(5000)
        text = serialize_document(document, indent=0)
        again = parse_document(text)
        assert again.root.structurally_equal(document.root)
        assert serialize_document(again, indent=0) == text

    def test_deep_chain_with_default_indent(self):
        document = section_chain(1200)
        text = serialize_document(document)
        assert text.count("<section>") == 1200
        # the innermost title sits under doc and 1200 sections
        assert "\n" + " " * 2 * 1201 + "<title>bottom</title>\n" in text
        assert parse_document(text).root.structurally_equal(document.root)

    def test_deep_chain_validates(self):
        schema = dtd(
            {
                "doc": "section",
                "section": "title, section?",
                "title": "#PCDATA",
            },
            root="doc",
        )
        document = section_chain(5000)
        assert validate_document(document, schema).ok
        # the violation deep down reports its full path
        deepest = document.root.children[0]
        for _ in range(2999):
            deepest = deepest.children[1]
        deepest.children[0].set_content([])
        report = validate_document(document, schema)
        assert len(report.violations) == 1
        path = report.violations[0].path
        assert path.startswith("doc/section[0]/section[1]/")
        assert path.count("/") == 3001
        assert path.endswith("/title[0]")
