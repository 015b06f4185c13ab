"""Evaluation of pick-element XMAS queries over documents.

Semantics (Section 2.1):

* The tree condition is matched against the *document root*.
* Nesting in the condition means direct-child containment; a
  ``recursive`` step matches a chain of nested elements and applies its
  child conditions at the chain's end.
* Sibling conditions bind to pairwise-distinct children (the paper's
  standing assumption); explicit ``AND v1 != v2`` clauses additionally
  constrain variable bindings to distinct elements (ID inequality, the
  only negation in the language).
* The answer is a new document whose root is named after the view and
  whose content is the elements bound to the pick variable, in document
  order (depth-first left-to-right), each element contributed once.

These functions are the public face of the one evaluator,
:mod:`repro.xmas.engine`: queries compile once into a plan that runs
over a document index.  Every evaluation goes through
``engine.evaluate_many_compiled``, looked up on the module at call
time so instrumentation that wraps it sees every call.
"""

from __future__ import annotations

from typing import Iterator

from ..xmlmodel import Document, Element
from ..xmlmodel.index import document_index
from . import engine
from .ast import Query
from .engine import Answer

Binding = dict[str, Element]


def bindings(query: Query, document: Document) -> Iterator[Binding]:
    """All complete variable environments matching the query."""
    index = document_index(document)
    for env in engine.position_bindings(query, document):
        yield {name: index.element_at(pos) for name, pos in env.items()}


def picked_elements(query: Query, document: Document) -> list[Element]:
    """Elements bound to the pick variable, document order, no repeats."""
    return engine.compiled_picked_elements(query, document)


def evaluate(query: Query, document: Document) -> Answer:
    """Run the query: the view document with the picked elements.

    The picked elements are deep-copied with fresh IDs so the result
    is itself a well-formed document (unique IDs).
    """
    return engine.evaluate_many_compiled(query, [document])


def evaluate_many(query: Query, documents: list[Document]) -> Answer:
    """Run the query over several documents of the same source.

    Pick-element queries apply to one source; a source may hold many
    documents, whose picks are concatenated in document order.  The
    query is compiled once and the plan reused across every document.
    """
    return engine.evaluate_many_compiled(query, documents)
