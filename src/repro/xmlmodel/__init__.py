"""XML document model (the abstraction of Section 2 / Appendix A).

Elements are name + unique ID + content, where content is a child
sequence or a PCDATA string; no attributes (beyond ID), no mixed
content, no entities -- exactly the class of documents whose structure
a DTD fully types.
"""

from .element import (
    Document,
    Element,
    elem,
    fresh_id,
    mutated_since,
    mutation_stamp,
    text_elem,
)
from .index import DocumentIndex, document_index
from .parser import parse_document, parse_element
from .serializer import serialize_document, serialize_element

__all__ = [
    "Document",
    "DocumentIndex",
    "Element",
    "document_index",
    "elem",
    "fresh_id",
    "mutated_since",
    "mutation_stamp",
    "parse_document",
    "parse_element",
    "serialize_document",
    "serialize_element",
    "text_elem",
]
