"""Materialized-view answer cache with provenance-based maintenance.

The mediator of the paper is *on-demand*: every ``materialize_union``
or ``query_view`` call fans out to the sources and re-evaluates, even
when nothing changed.  Two earlier pieces make materialization sound:

* the inferred view DTD says what a valid answer looks like, and
* the global mutation clock and journal (:mod:`repro.xmlmodel.element`)
  record every document edit, so "nothing changed" is an O(1) question
  and "what changed" costs the number of edits, not the corpus size.

A :class:`MatViewCache` keeps validated answers keyed by (kind, view
name, compiled-plan signature) and revalidates hits with exactly the
fast-path/re-arm discipline of
:func:`repro.xmlmodel.index.document_index`:

1. **O(1) fast path** -- the global clock has not moved since the
   entry was last validated: serve the answer.
2. **Re-arm** -- the clock moved, but none of the objects the journal
   names since the entry's stamp (``mutated_since``) is the served
   master's, a contributing document, or an element of a contributing
   document's index (one identity probe per edit and contributing
   document, :meth:`DocumentIndex.position_of`): re-stamp the entry
   and serve.
3. **Delta maintenance** -- some contributing documents are dirty, and
   each one's leg has a ``delta_query`` and the entry knows which slice
   of the answer each document produced (the engine's
   :class:`~repro.xmas.engine.PickOrigin` provenance): re-run
   pick-projection over each dirty document alone, splice all their
   fresh picks into one new root, re-validate the fresh subtrees
   (and the root's child word, when the splice changed it) against
   the inferred view DTD once, re-stamp.  When several fragments
   change, only they and the root's child word need re-checking
   (Abiteboul, Gottlob and Manna, *Distributed XML Design*).
   Validation failure (``MED007``) falls back to a full recompute.
4. **Invalidate** -- anything else: changed document lists
   (``docs-changed``), a caller edit of the served master
   (``answer-mutated``), a dirty document whose leg has no
   ``delta_query`` or no provenance (``stale``), or more edits since
   the entry's stamp than the journal remembers
   (``journal-overflow``): drop the entry and recompute.

Served answers are **shared snapshots**: every hit returns the same
record over the cached master's root (an
:class:`~repro.xmas.engine.Answer` marked ``"hit"``, built once per
entry version) rather than a per-hit deep copy (the copy would cost
more than the recompute it saves on small answers, and dominates the
hit path on large ones).  This is sound under the model's own
mutation contract -- edits MUST go through the journalled ``Element``
APIs -- because an edit to a served answer is journalled, and the next
probe looks every journalled element up in the master's element set: a
poisoned master is invalidated, never served.  Delta maintenance never
edits a served master in place either; it builds a *new* root sharing
the untouched pick subtrees, so answers held from earlier hits stay
stable.

Served text is cached the same way.  The first hit of an entry version
renders the master once, as one fragment per top-level pick plus
their join, and every later hit carries that text in
``Answer.text``.  A delta re-renders only the fresh picks it splices
(and only when the entry was rendered before); an invalidated entry
drops its text with it.  The text is not charged to ``max_bytes``.

Entries are LRU-bounded by an answer-size byte budget and the cache is
thread-safe: one warm cache is shared by ``ParallelTransport`` workers
and ``MediatorServer`` handler threads.  Counters fold into
``kernel_stats()`` (section ``"matview"``) and reset with
``clear_caches()`` through the :mod:`repro.regex.kernel` registry.
Delta maintenance is mediator-local: it re-evaluates over the
mediator's own reference to the dirty document, never through the
source transport -- no retries, no latency, deterministic under
``FakeClock``.

See docs/PERFORMANCE.md (caching section) and ``ISSUE`` PR 8.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .. import obs
from ..errors import STALE_DELTA_FALLBACK
from ..regex import kernel
from ..xmas import Query, evaluate_many
from ..xmas.engine import Answer, CompiledPlan, PickOrigin, compile_query
from ..xmlmodel import Document, Element, fresh_id
from ..xmlmodel.element import mutated_since, mutation_stamp
from ..xmlmodel.index import DocumentIndex, document_index
from ..xmlmodel.serializer import join_document, serialize_element


if TYPE_CHECKING:
    from ..dtd import Dtd
    from .source import Source


# ---------------------------------------------------------------------------
# policy and keying
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatViewPolicy:
    """Knobs for a mediator's materialized-view cache.

    ``enabled=False`` keeps the cache object but never serves from it
    (the cheap comparator for the disabled-overhead benchmark gate);
    ``delta=False`` disables splicing, so any mutation of a
    contributing document costs a full recompute; ``validate_deltas``
    re-validates every spliced answer against the inferred view DTD
    before release (the soundness belt -- leave it on outside
    benchmarks); ``max_bytes`` bounds the sum of cached answer-size
    estimates (LRU eviction).
    """

    enabled: bool = True
    delta: bool = True
    validate_deltas: bool = True
    max_bytes: int = 8 << 20


def plan_signature(plan: CompiledPlan) -> tuple:
    """A stable, hashable fingerprint of a compiled plan.

    Two queries with the same signature materialize the same answer
    over the same documents, so the signature (not the query object)
    keys cache entries.
    """
    return (
        tuple(
            (
                None
                if node.names is None
                else tuple(sorted(node.names)),
                node.variable,
                node.pcdata,
                node.recursive,
                node.parent,
                node.end,
            )
            for node in plan.nodes
        ),
        plan.pick_path,
        plan.projectable,
    )


def query_signature(query: Query) -> tuple:
    """``plan_signature`` of a query (compiled through the plan cache)."""
    return plan_signature(compile_query(query))


@dataclass(frozen=True)
class CacheLeg:
    """One source's contribution to a cached view.

    ``delta_query`` is a query that, evaluated over a *single* source
    document, yields exactly that document's contribution to the
    answer (a union branch's query, or a composed source query).
    ``None`` marks the leg recompute-only: mutations under it always
    invalidate.
    """

    source_name: str
    source: "Source"
    delta_query: Query | None


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


class _DocState:
    """One contributing document's slice of a cached answer.

    ``start:stop`` is the half-open range of top-level answer children
    this document produced (``-1`` when unknown -- entry is then
    recompute-only); ``index`` is the document's
    :class:`DocumentIndex` as of the entry's last build or splice, kept
    so staleness is decided with the same completeness argument as
    :func:`~repro.xmlmodel.index.document_index`: new elements
    necessarily hang off an edited indexed parent.  A store-backed
    index answers from its on-disk generation counter instead.
    """

    __slots__ = ("leg", "document", "index", "start", "stop")

    def __init__(
        self,
        leg: int,
        document: Document,
        index: DocumentIndex,
        start: int,
        stop: int,
    ) -> None:
        self.leg = leg
        self.document = document
        self.index = index
        self.start = start
        self.stop = stop


class _Entry:
    __slots__ = (
        "key",
        "view_name",
        "dtd",
        "answer",
        "served",
        "elements",
        "fragments",
        "text",
        "bytes",
        "stamp",
        "legs",
        "leg_docs",
        "docs",
        "stored_docs",
        "spliceable",
    )

    def __init__(
        self,
        key: tuple,
        view_name: str,
        dtd: Optional["Dtd"],
        answer: Answer,
        legs: tuple[CacheLeg, ...],
        leg_docs: tuple[tuple[Document, ...], ...],
        docs: list[_DocState],
        stamp: int,
        spliceable: bool,
    ) -> None:
        self.key = key
        self.view_name = view_name
        self.dtd = dtd
        self.answer = answer
        self.served = _served(answer)
        # The master is served by reference, so a caller edit (through
        # the journalled APIs) must be detectable: keep the master's
        # elements as an identity set, so each journalled edit is one
        # lookup.  New elements can only appear under an edited (hence
        # journalled, hence caught) parent.
        self.elements: set[Element] = set(answer.root.iter())
        # The served text, rendered by the first hit of this entry
        # version (a miss or a delta never renders a whole answer): one
        # fragment per top-level pick, so a delta re-renders only the
        # picks it splices.
        self.fragments: list[str] | None = None
        self.text: str | None = None
        self.bytes = estimate_bytes(answer)
        #: the mutation clock up to which the entry is known current
        self.stamp = stamp
        self.legs = legs
        self.leg_docs = leg_docs
        self.docs = docs
        self.stored_docs = [
            state
            for state in docs
            if not isinstance(state.index, DocumentIndex)
        ]
        self.spliceable = spliceable

    def render(self) -> None:
        """Render the master's text and serve it from now on.

        Called only once the master is proven intact (a fast hit, or a
        re-arm hit past :meth:`answer_intact`), so the text is the
        master's serialization for as long as the entry version lives.
        """
        self.fragments = [
            _render_pick(pick) for pick in self.answer.root.children
        ]
        self.text = join_document(self.answer.root, self.fragments)
        self.served = _served(self.answer, self.text)

    def answer_intact(self, edited: set[object]) -> bool:
        """Whether no element of the master is among ``edited``."""
        return (
            self.served.root is self.answer.root
            and self.elements.isdisjoint(edited)
        )

    def dirty_docs(self, edited: set[object], stamp: int) -> list[_DocState]:
        """The contributing documents touched since ``stamp``, in
        answer order; ``edited`` is the journal since ``stamp``."""
        dirty = {
            state
            for state in self.stored_docs
            if not state.index.fresh_at(stamp)
        }
        for obj in edited:
            if isinstance(obj, Element):
                dirty.update(
                    state
                    for state in self.docs
                    if state.index.position_of(obj) is not None
                )
            else:  # a document-level edit (``replace_root``)
                dirty.update(
                    state for state in self.docs if state.document is obj
                )
        if not dirty:
            return []
        return [state for state in self.docs if state in dirty]

    def provenance(self) -> list[tuple[str, int, tuple[int, int]]]:
        """Per contributing document: (source, picks, answer slice)."""
        return [
            (
                self.legs[state.leg].source_name,
                max(0, state.stop - state.start),
                (state.start, state.stop),
            )
            for state in self.docs
        ]


def _served(master: Answer, text: str | None = None) -> Answer:
    """The record every hit on ``master`` returns: built once per entry
    version, so a hit allocates nothing and repeat hits share it."""
    return Answer(
        master.root,
        provenance=master.provenance,
        report=master.report,
        cache="hit",
        text=text,
    )


def _render_pick(pick: Element) -> str:
    """One top-level pick's text, indented as a child of the answer root."""
    return serialize_element(pick, level=1)


def estimate_bytes(document: Document) -> int:
    """A cheap, deterministic answer-size estimate for the byte budget."""
    total = 0
    for element in document.root.iter():
        total += 56 + len(element.name)
        if isinstance(element.content, str):
            total += len(element.content)
    return total


def _estimate_subtrees(elements) -> int:
    """:func:`estimate_bytes` over a slice of pick subtrees.

    Lets delta maintenance adjust an entry's byte estimate by walking
    only the swapped picks instead of the whole answer.
    """
    total = 0
    for root in elements:
        for element in root.iter():
            total += 56 + len(element.name)
            if isinstance(element.content, str):
                total += len(element.content)
    return total


@dataclass
class _MissToken:
    """Handed out on a miss; redeemed by :meth:`MatViewCache.store`.

    ``stamp`` is the mutation clock *before* the caller started
    evaluating: a mutation landing mid-evaluation leaves the stored
    entry conservatively stale, so the next lookup re-checks it.
    """

    key: tuple
    view_name: str
    dtd: Optional["Dtd"]
    legs: tuple[CacheLeg, ...]
    stamp: int


@dataclass
class CacheOutcome:
    """What a :meth:`MatViewCache.probe` decided.

    ``status`` is ``"hit"`` / ``"delta"`` / ``"miss"``; on a miss
    ``reason`` says why (``cold`` / ``stale`` / ``docs-changed`` /
    ``stale-delta`` / ``disabled``) and ``token`` (when cacheable)
    should be passed to :meth:`MatViewCache.store` with the computed
    answer.
    """

    status: str
    answer: Answer | None = None
    token: _MissToken | None = None
    reason: str = ""


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class MatViewCache:
    """A thread-safe LRU answer cache for one (or several) mediators."""

    def __init__(self, policy: MatViewPolicy | None = None) -> None:
        self.policy = policy or MatViewPolicy()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.deltas = 0
        self.recomputes = 0
        self.evictions = 0
        self.stale_delta_fallbacks = 0
        self.bypasses = 0
        _LIVE_CACHES.add(self)

    # -- inspection ------------------------------------------------------

    def info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "deltas": self.deltas,
                "recomputes": self.recomputes,
                "evictions": self.evictions,
                "stale_delta_fallbacks": self.stale_delta_fallbacks,
                "bypasses": self.bypasses,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }

    def provenance(
        self, key: tuple
    ) -> list[tuple[str, int, tuple[int, int]]] | None:
        """The per-document provenance of a cached answer (or None)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.provenance() if entry is not None else None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            self.deltas = 0
            self.recomputes = 0
            self.evictions = 0
            self.stale_delta_fallbacks = 0
            self.bypasses = 0

    def note_bypass(self) -> None:
        """Count an explicit per-request cache bypass (``MED006``)."""
        with self._lock:
            self.bypasses += 1

    # -- the decision procedure ------------------------------------------

    def _docs_unchanged(self, entry: _Entry) -> bool:
        for leg, stored in zip(entry.legs, entry.leg_docs):
            current = leg.source.documents
            if len(current) != len(stored):
                return False
            for live, kept in zip(current, stored):
                if live is not kept:
                    return False
        return True

    def _classify(
        self, entry: _Entry
    ) -> tuple[str, list[_DocState], int]:
        """``(verdict, dirty docs, stamp)`` for a held entry, without
        mutating it; ``stamp`` is the clock the verdict holds up to.

        Verdicts: ``fast-hit`` (clock unmoved), ``rearm-hit`` (moved,
        entry untouched), ``delta`` (every dirty document spliceable),
        ``docs-changed``, ``answer-mutated`` (a caller edited the
        served master), ``journal-overflow`` (too many edits since the
        entry's stamp to know which), ``stale`` (a dirty document whose
        leg cannot be spliced).
        """
        if not self._docs_unchanged(entry):
            return "docs-changed", [], 0
        stamp = mutation_stamp()
        if stamp == entry.stamp:
            return "fast-hit", [], stamp
        changed = mutated_since(entry.stamp)
        if changed is None:
            return "journal-overflow", [], stamp
        edited = set(changed)
        if not entry.answer_intact(edited):
            return "answer-mutated", [], stamp
        dirty = entry.dirty_docs(edited, entry.stamp)
        if not dirty:
            return "rearm-hit", [], stamp
        if (
            self.policy.delta
            and entry.spliceable
            and all(
                entry.legs[state.leg].delta_query is not None
                for state in dirty
            )
        ):
            return "delta", dirty, stamp
        return "stale", [], stamp

    def peek(self, key: tuple, legs: Sequence[CacheLeg]) -> str:
        """Non-mutating classification for ``explain()`` and
        :meth:`Mediator.union_cached`.

        Returns ``"hit"``, ``"delta"``, ``"recompute"``, or ``"cold"``.
        """
        if not self.policy.enabled:
            return "disabled"
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return "cold"
            verdict, _, _ = self._classify(entry)
        if verdict in ("fast-hit", "rearm-hit"):
            return "hit"
        if verdict == "delta":
            return "delta"
        return "recompute"

    def probe(
        self,
        key: tuple,
        view_name: str,
        dtd: Optional["Dtd"],
        legs: Sequence[CacheLeg],
    ) -> CacheOutcome:
        """Look up (and, when possible, delta-maintain) a cached answer.

        Returns a hit/delta outcome carrying the shared master answer
        (a stable snapshot -- see the module docstring), or a miss
        outcome whose token the caller redeems with :meth:`store`
        after recomputing.
        """
        legs = tuple(legs)
        if not self.policy.enabled:
            return CacheOutcome("miss", reason="disabled")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return self._miss(
                    key, view_name, dtd, legs, "cold"
                )
            verdict, dirty, stamp = self._classify(entry)
            if verdict in ("fast-hit", "rearm-hit"):
                if verdict == "rearm-hit":
                    entry.stamp = stamp
                if entry.text is None:
                    entry.render()
                self.hits += 1
                self._entries.move_to_end(key)
                with obs.span("matview.hit") as sp:
                    sp.set_attribute("view", view_name)
                    sp.set_attribute("bytes", entry.bytes)
                    sp.set_attribute(
                        "elements", len(entry.answer.root.children)
                    )
                return CacheOutcome("hit", answer=entry.served)
            if verdict == "delta":
                maintained = self._maintain(entry, dirty, stamp)
                if maintained is not None:
                    self.deltas += 1
                    self._entries.move_to_end(key)
                    return CacheOutcome("delta", answer=maintained)
                # stale-delta fallback (MED007): entry already dropped
                self.stale_delta_fallbacks += 1
                self.misses += 1
                return self._miss(
                    key, view_name, dtd, legs, "stale-delta"
                )
            # docs-changed, answer-mutated, journal-overflow or stale:
            # drop and recompute
            self._drop(key)
            self.invalidations += 1
            self.misses += 1
            return self._miss(key, view_name, dtd, legs, verdict)

    def _miss(
        self,
        key: tuple,
        view_name: str,
        dtd: Optional["Dtd"],
        legs: tuple[CacheLeg, ...],
        reason: str,
    ) -> CacheOutcome:
        with obs.span("matview.miss") as sp:
            sp.set_attribute("view", view_name)
            sp.set_attribute("reason", reason)
        token = _MissToken(key, view_name, dtd, legs, mutation_stamp())
        return CacheOutcome("miss", token=token, reason=reason)

    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.bytes

    # -- delta maintenance ----------------------------------------------

    @staticmethod
    def _splice_validates(
        root, new_children, schema, word_changed: bool
    ) -> bool:
        """Validate only what the splice could have broken.

        The untouched picks are shared with the previous master, which
        validated when it was built (inference soundness), so a delta
        only needs (a) the root's content model over the *new* child
        word -- and only when the splice changed that word: fresh picks
        with the names of the picks they replace leave it as accepted
        as before -- and (b) a deep check of the fresh subtrees.  IDs
        need no re-check: every answer element carries a ``fresh_id``,
        unique by construction.
        """
        from ..dtd import Pcdata, validate_element
        from ..regex import to_dfa

        if root.name not in schema:
            return False
        declared = schema.type_of(root.name)
        if isinstance(declared, Pcdata):
            return False
        if word_changed:
            word = [(child.name, 0) for child in root.children]
            if not to_dfa(declared).accepts(word):
                return False
        return all(
            validate_element(child, schema).ok
            for child in new_children
        )

    def _maintain(
        self, entry: _Entry, dirty: list[_DocState], stamp: int
    ) -> Answer | None:
        """Splice every dirty document's fresh picks into the answer.

        Each dirty document is re-evaluated alone (its leg's
        ``delta_query``) and its slice of the answer replaced; the
        untouched picks in between are shared by reference.  The
        master is never edited in place -- answers served from earlier
        hits must stay stable -- so maintenance builds a *new* root.
        The spliced answer is validated once, over the new root's child
        word plus all fresh subtrees.  Returns the new master, or
        ``None`` after dropping the entry when the spliced answer no
        longer validates against the inferred view DTD (``MED007``).
        A rendered entry re-renders only the fresh picks; the new
        master and the new hit record share its text.  ``stamp`` is
        the clock :meth:`_classify` checked up to.
        """
        with obs.span("matview.delta") as sp:
            sp.set_attribute("view", entry.view_name)
            sources = {entry.legs[state.leg].source_name for state in dirty}
            sp.set_attribute("source", ",".join(sorted(sources)))
            sp.set_attribute("documents", len(dirty))
            fresh: dict[_DocState, list[Element]] = {}
            for state in dirty:
                query = entry.legs[state.leg].delta_query
                assert query is not None
                fresh[state] = list(
                    evaluate_many(query, [state.document]).root.children
                )
            old = entry.answer.root.content
            assert isinstance(old, list)
            # Splice right to left, so each dirty slice's recorded
            # offsets are still valid when it is replaced.
            children = list(old)
            added: list[Element] = []
            removed: list[Element] = []
            for state in reversed(dirty):
                picks = fresh[state]
                removed.extend(old[state.start : state.stop])
                added.extend(picks)
                children[state.start : state.stop] = picks
            maintained = Answer(
                Element(entry.answer.root.name, children, fresh_id()),
                report=entry.answer.report,
                cache="delta",
            )
            sp.set_attribute("spliced_elements", len(added))
            sp.set_attribute("shift", len(children) - len(old))
            if entry.dtd is not None and self.policy.validate_deltas:
                word_changed = any(
                    [pick.name for pick in old[state.start : state.stop]]
                    != [pick.name for pick in fresh[state]]
                    for state in dirty
                )
                if not self._splice_validates(
                    maintained.root, added, entry.dtd, word_changed
                ):
                    sp.add_event(
                        "stale_delta_fallback",
                        code=STALE_DELTA_FALLBACK,
                    )
                    self._drop(entry.key)
                    return None
            if entry.fragments is not None:
                # Untouched picks passed answer_intact() in _classify,
                # so their fragments still hold: render the fresh ones.
                for state in reversed(dirty):
                    entry.fragments[state.start : state.stop] = [
                        _render_pick(pick) for pick in fresh[state]
                    ]
                entry.text = join_document(maintained.root, entry.fragments)
                maintained.text = entry.text
            if any(
                len(fresh[state]) != state.stop - state.start
                for state in dirty
            ):
                # Some slice changed length: re-derive every offset.
                moved = 0
                for state in entry.docs:
                    length = state.stop - state.start
                    state.start += moved
                    picks = fresh.get(state)
                    if picks is not None:
                        moved += len(picks) - length
                        length = len(picks)
                    state.stop = state.start + length
            for state in dirty:
                state.index = document_index(state.document)
            elements = entry.elements
            elements.discard(entry.answer.root)
            for pick in removed:
                elements.difference_update(pick.iter())
            for pick in added:
                elements.update(pick.iter())
            elements.add(maintained.root)
            entry.answer = maintained
            entry.served = _served(maintained, entry.text)
            entry.stamp = stamp
            self._bytes -= entry.bytes
            entry.bytes += _estimate_subtrees(added) - _estimate_subtrees(
                removed
            )
            self._bytes += entry.bytes
            sp.set_attribute("bytes", entry.bytes)
        self._evict()
        return entry.answer

    # -- population ------------------------------------------------------

    def store(
        self,
        token: _MissToken,
        answer: Answer,
        origins_per_leg: Sequence[tuple[PickOrigin, ...] | None],
    ) -> None:
        """Redeem a miss token with the freshly computed answer.

        The answer document becomes the entry's master *by reference*
        (the caller hands ownership to the cache and receives the same
        shared-snapshot semantics as a hit).  ``origins_per_leg``
        aligns with the token's legs: each entry is the engine
        provenance of that leg's answer (``None`` when unavailable --
        the stored entry is then recompute-only).  Degraded answers
        must not be stored; the mediator checks.
        """
        legs = token.legs
        docs: list[_DocState] = []
        leg_docs: list[tuple[Document, ...]] = []
        spliceable = True
        offset = 0
        for leg_index, (leg, origins) in enumerate(
            zip(legs, origins_per_leg)
        ):
            documents = tuple(leg.source.documents)
            leg_docs.append(documents)
            if origins is None:
                # No provenance for this leg: the entry can still be
                # validated and invalidated, but never spliced, so the
                # (now meaningless) answer offsets stay at -1.
                spliceable = False
                for document in documents:
                    docs.append(
                        _DocState(
                            leg_index,
                            document,
                            document_index(document),
                            -1,
                            -1,
                        )
                    )
                continue
            counts = [0] * len(documents)
            for origin in origins:
                counts[origin.doc] += 1
            for ordinal, document in enumerate(documents):
                start = offset
                offset += counts[ordinal]
                docs.append(
                    _DocState(
                        leg_index,
                        document,
                        document_index(document),
                        start,
                        offset,
                    )
                )
        entry = _Entry(
            token.key,
            token.view_name,
            token.dtd,
            answer,
            legs,
            tuple(leg_docs),
            docs,
            token.stamp,
            spliceable,
        )
        with obs.span("matview.recompute") as sp:
            sp.set_attribute("view", token.view_name)
            sp.set_attribute("bytes", entry.bytes)
            sp.set_attribute("elements", len(answer.root.children))
            with self._lock:
                if entry.bytes > self.policy.max_bytes:
                    self.evictions += 1
                    return
                self._drop(token.key)
                self._entries[token.key] = entry
                self._bytes += entry.bytes
                self.recomputes += 1
                self._evict()

    def _evict(self) -> None:
        with self._lock:
            while (
                self._bytes > self.policy.max_bytes
                and len(self._entries) > 1
            ):
                _, entry = self._entries.popitem(last=False)
                self._bytes -= entry.bytes
                self.evictions += 1


# ---------------------------------------------------------------------------
# kernel-registry integration
# ---------------------------------------------------------------------------

_LIVE_CACHES: "weakref.WeakSet[MatViewCache]" = weakref.WeakSet()


def _clear_live_caches() -> None:
    for cache in list(_LIVE_CACHES):
        cache.clear()


def _aggregate() -> dict:
    totals = {
        "hits": 0,
        "misses": 0,
        "invalidations": 0,
        "deltas": 0,
        "recomputes": 0,
        "evictions": 0,
        "stale_delta_fallbacks": 0,
        "bypasses": 0,
        "entries": 0,
        "bytes": 0,
    }
    for cache in list(_LIVE_CACHES):
        info = cache.info()
        for name in totals:
            totals[name] += info[name]
    return totals


def _registry_info() -> dict:
    totals = _aggregate()
    return {
        "hits": totals["hits"],
        "misses": totals["misses"],
        "invalidations": totals["invalidations"],
        "size": totals["entries"],
    }


kernel.register_cache(
    "mediator.matview", _clear_live_caches, _registry_info
)
kernel.register_stats_section("matview", _aggregate)
