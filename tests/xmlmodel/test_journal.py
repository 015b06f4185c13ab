"""Tests for the mutation journal (:mod:`repro.xmlmodel.element`).

Every journalled edit advances the global mutation clock and records
the edited object, so caches ask "what changed since my stamp?" instead
of scanning their trees.  The journal is bounded: a stamp older than
``JOURNAL_SIZE`` edits reads as "unknown", and the caller must treat
everything as changed.
"""

import sys
import threading

import pytest

from repro.regex import kernel
from repro.regex.language import clear_caches
from repro.xmlmodel import (
    Document,
    document_index,
    elem,
    mutated_since,
    mutation_stamp,
    text_elem,
)
from repro.xmlmodel.element import JOURNAL_SIZE, _journal_since


@pytest.fixture(autouse=True)
def fresh():
    clear_caches()
    yield
    clear_caches()


def small_document() -> Document:
    return Document(
        elem(
            "list",
            elem("publication", text_elem("title", "one")),
            elem("publication", text_elem("title", "two")),
        )
    )


def index_stats() -> dict:
    return kernel.kernel_stats()["caches"]["engine.doc_index"]


class TestJournal:
    def test_records_each_edit_in_order(self):
        leaf = text_elem("title", "t")
        parent = elem("publication")
        start = mutation_stamp()
        leaf.set_text("u")
        parent.append_child(leaf)
        leaf.set_text("v")
        assert mutation_stamp() == start + 3
        changed = mutated_since(start)
        assert changed is not None and len(changed) == 3
        assert all(
            obj is expected
            for obj, expected in zip(changed, (leaf, parent, leaf))
        )
        assert mutated_since(mutation_stamp()) == []

    def test_concurrent_stamps_strictly_increase(self):
        threads = 8
        edits = 2000
        leaves = [text_elem("title", "t") for _ in range(threads)]
        barrier = threading.Barrier(threads)

        def edit(leaf):
            barrier.wait(timeout=30)
            for count in range(edits):
                leaf.set_text(str(count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = mutation_stamp()
            workers = [
                threading.Thread(target=edit, args=(leaf,))
                for leaf in leaves
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        end = mutation_stamp()
        assert end == start + threads * edits  # no lost increment
        records = _journal_since(end - JOURNAL_SIZE)
        assert records is not None
        assert [stamp for stamp, _ in records] == list(
            range(end - JOURNAL_SIZE + 1, end + 1)
        )
        assert all(
            any(obj is leaf for leaf in leaves) for _, obj in records
        )

    def test_replace_root_is_journalled(self):
        document = small_document()
        start = mutation_stamp()
        document.replace_root(elem("list"))
        changed = mutated_since(start)
        assert changed is not None
        assert len(changed) == 1 and changed[0] is document

    def test_overflow_returns_none(self):
        leaf = text_elem("title", "t")
        start = mutation_stamp()
        for count in range(JOURNAL_SIZE):
            leaf.set_text(str(count))
        assert mutated_since(start) is not None  # exactly reaches back
        leaf.set_text("one more")
        assert mutated_since(start) is None
        assert mutated_since(start + 1) is not None


class TestIndexRearm:
    def test_untouched_document_rearms_without_rebuilding(self):
        document = small_document()
        index = document_index(document)
        other = small_document()
        for count in range(10):
            other.root.children[0].children[0].set_text(str(count))
        other.root.append_child(elem("publication"))
        assert document_index(document) is index
        assert index.stamp == mutation_stamp()
        stats = index_stats()
        assert stats["invalidations"] == 0
        assert stats["content_rearms"] == 0

    def test_overflow_rebuilds_the_index(self):
        # Too many edits to know whether this document was among them:
        # the index is rebuilt, never trusted.
        document = small_document()
        index = document_index(document)
        noise = text_elem("title", "t")
        for count in range(JOURNAL_SIZE + 1):
            noise.set_text(str(count))
        rebuilt = document_index(document)
        assert rebuilt is not index
        assert len(rebuilt.labelled("title")) == 2
        assert index_stats()["invalidations"] == 1

    def test_unrelated_edits_touch_nothing(self):
        document = small_document()
        index = document_index(document)
        stamp = mutation_stamp()
        noise = text_elem("title", "t")
        noise.set_text("x")
        assert index.touched(mutated_since(stamp)) == []
        for count in range(JOURNAL_SIZE):
            noise.set_text(str(count))
        assert mutated_since(stamp) is None

    def test_touched_finds_an_indexed_edit(self):
        document = small_document()
        index = document_index(document)
        stamp = mutation_stamp()
        document.root.children[1].children[0].set_text("renamed")
        assert index.touched(mutated_since(stamp)) == [
            index.labelled("title")[1]
        ]
