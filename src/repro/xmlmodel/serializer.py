"""Serialization of documents back to XML text.

One explicit-stack walk renders every element (like
:meth:`Element.iter`), so documents nested deeper than the
interpreter's recursion limit serialize as well as they parse.  Lines
are appended to one list and joined once.

:func:`join_document` assembles a document's text from fragments
rendered per top-level child: the materialized-view cache keeps one
fragment per pick and re-renders only the picks a delta splices, and
the joined text is byte-identical to :func:`serialize_document`.
"""

from __future__ import annotations

from typing import Sequence

from .element import Document, Element

_DECLARATION = '<?xml version="1.0"?>\n'


def _escape(text: str) -> str:
    # Ampersand first, so the entities the later replacements insert
    # are not escaped again; most strings contain none of the three.
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _tag_body(element: Element, include_ids: bool) -> str:
    """``name`` plus its rendered attributes (ID first, then sorted)."""
    body = element.name
    if include_ids:
        body += f' id="{element.id}"'
    attributes = element.attributes
    if attributes:
        for attr_name in sorted(attributes):
            value = _escape(attributes[attr_name])
            if '"' in value:
                value = value.replace('"', "&quot;")
            body += f' {attr_name}="{value}"'
    return body


def serialize_element(
    element: Element,
    indent: int = 2,
    include_ids: bool = False,
    level: int = 0,
) -> str:
    """Render an element as XML text, indented ``level`` steps.

    ``include_ids`` emits the ID attributes (off by default: generated
    IDs are noise in goldens and examples).
    """
    lines: list[str] = []
    append = lines.append
    pads: list[str] = []
    # (element, level) pairs still to open, and the closing lines of
    # the elements opened so far, innermost on top
    stack: list[str | tuple[Element, int]] = [(element, level)]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        if isinstance(item, str):
            append(item)
            continue
        node, depth = item
        try:
            pad = pads[depth]
        except IndexError:
            pads.extend(
                " " * (indent * step) for step in range(len(pads), depth + 1)
            )
            pad = pads[depth]
        name = node.name
        body = (
            _tag_body(node, include_ids)
            if include_ids or node.attributes
            else name
        )
        content = node.content
        if isinstance(content, str):
            append(f"{pad}<{body}>{_escape(content)}</{name}>")
        elif not content:
            append(f"{pad}<{body}/>")
        else:
            append(f"{pad}<{body}>")
            push(f"{pad}</{name}>")
            child_depth = depth + 1
            for child in reversed(content):
                push((child, child_depth))
    return "\n".join(lines)


def join_document(root: Element, fragments: Sequence[str]) -> str:
    """A document's text from its root and its children's fragments.

    ``fragments`` must be ``serialize_element(child, indent, level=1)``
    of each child of ``root``, in order; the result is then
    ``serialize_document(document, indent)``, byte for byte.
    """
    if isinstance(root.content, str):
        body = serialize_element(root)
    elif not fragments:
        body = f"<{_tag_body(root, False)}/>"
    else:
        inner = "\n".join(fragments)
        body = f"<{_tag_body(root, False)}>\n{inner}\n</{root.name}>"
    return f"{_DECLARATION}{body}\n"


def serialize_document(
    document: Document,
    indent: int = 2,
    include_ids: bool = False,
) -> str:
    """Render a document (root element) as XML text with a declaration."""
    body = serialize_element(document.root, indent, include_ids)
    return f"{_DECLARATION}{body}\n"
