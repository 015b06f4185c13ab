"""The three served federations and the corpora they serve.

The client (``run.py``) generates a workload's corpus from ``--seed``
and writes it as XML text (``store-evict``: ingests it into a
``DocumentStore`` file); the server process (``server.py``) parses that
text (or reopens that store) and builds the federation from the repo's
public pieces (``Mediator``, ``Source``, ``ShardedSource``,
``DocumentStore``), so the program only ever sees the generated
documents.  The client builds the same federation in process from the
same documents as its oracle.

The seed varies document *content*; each document's size and pick
count are held in a narrow band (rejection sampling over the
generator), so every seed asks the program for the same amount of
work.  Unbanded, the same generators give answers from 0.9 KB to
4.7 KB across eight seeds, and run-to-run spread would measure the
seed rather than the program.
"""

from __future__ import annotations

import json
import os
import random

from repro.dtd import generate_document
from repro.mediator import (
    FanoutPolicy,
    MatViewPolicy,
    Mediator,
    ShardedSource,
    Source,
    partition_documents,
)
from repro.serve import VIEW_NAME
from repro.workloads import bibdb
from repro.workloads import paper as paper_workload
from repro.xmas import evaluate_many, parse_query
from repro.xmlmodel import parse_document, serialize_document

WORKLOADS = ("hot-hit", "sharded-write", "store-evict")

#: the non-projectable twin of ``journals`` served by ``store-evict``:
#: same picks, but the path inequality forces the engine's fallback
TWIN_VIEW = "journals_neq"

#: the paper federation: 4 sources x 2 documents of the D1 schema
PAPER_SOURCES = 4
PAPER_DOCS = 2
#: per document: exactly this many picks, size and answer bytes banded
PAPER_PICKS = 4
PAPER_SIZE = (85, 105)
PAPER_ANSWER_BYTES = (585, 615)

#: the sharded bibliography: 4 sites x 4 shards x 16 documents, the
#: first 2 of each site journal-only, the rest conference-only
SHARDED_SITES = 4
SHARDED_SHARDS = 4
SHARDED_DOCS = 16
SHARDED_JOURNAL_DOCS = 2
SHARDED_SIZE = (360, 460)
SHARDED_PICKS = (6, 9)
SHARDED_ANSWER_BYTES = (2350, 2650)
BIBDB_STAR_MEAN = 1.4
BIBDB_STRINGS = (
    "TODS", "TKDE", "VLDB J.", "ICDE", "SIGMOD",
    "Papakonstantinou", "Velikhov", "Widom", "Abiteboul",
    "10.1109/x", "1999", "San Diego",
)

#: payload rows per store page; small enough that the corpus spans
#: several dozen pages, so a budget of half of them is meaningful
STORE_PAGE_SIZE = 16

_PAPER_BRANCH = (
    "{view} = SELECT P WHERE {binding}<department> <professor>"
    " P:<publication><journal/></publication> </> </>{condition}"
)


def paper_branch(view: str, source: str, twin: bool = False):
    """The paper union's branch query (``repro serve``'s, or its twin)."""
    text = _PAPER_BRANCH.format(
        view=view,
        binding="D:" if twin else "",
        condition=" AND D != P" if twin else "",
    )
    return parse_query(text, source=source)


def views_for(workload: str) -> tuple[str, ...]:
    """The union views a workload's reads address."""
    if workload == "store-evict":
        return (VIEW_NAME, TWIN_VIEW)
    return (VIEW_NAME,)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def _banded(generate, query, size, picks, answer_bytes):
    """Draw documents until one falls in every band."""
    while True:
        document = generate()
        if not size[0] <= document.size() <= size[1]:
            continue
        answer = evaluate_many(query, [document])
        if not picks[0] <= len(answer.root.children) <= picks[1]:
            continue
        n_bytes = len(serialize_document(answer))
        if answer_bytes[0] <= n_bytes <= answer_bytes[1]:
            return document


def generate_corpus(workload: str, seed: int) -> dict:
    """``{source: [(kind, Document), ...]}`` for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    corpus: dict[str, list] = {}
    if workload in ("hot-hit", "store-evict"):
        schema = paper_workload.d1()
        query = paper_branch(VIEW_NAME, "dept")
        for i in range(PAPER_SOURCES):
            corpus[f"dept{i}"] = [
                ("paper", _banded(
                    lambda: generate_document(schema, rng), query,
                    PAPER_SIZE, (PAPER_PICKS, PAPER_PICKS),
                    PAPER_ANSWER_BYTES,
                ))
                for _ in range(PAPER_DOCS)
            ]
        return corpus
    if workload == "sharded-write":
        query = bibdb.branch_journal_query("bib", VIEW_NAME)
        kinds = (
            ("journal", bibdb.journal_fragment_dtd(), SHARDED_PICKS,
             SHARDED_ANSWER_BYTES),
            ("conference", bibdb.conference_fragment_dtd(), (0, 0),
             (0, 1 << 20)),
        )
        for i in range(SHARDED_SITES):
            documents = []
            for kind, schema, picks, answer_bytes in kinds:
                count = (
                    SHARDED_JOURNAL_DOCS if kind == "journal"
                    else SHARDED_DOCS - SHARDED_JOURNAL_DOCS
                )
                documents += [
                    (kind, _banded(
                        lambda: generate_document(
                            schema, rng, star_mean=BIBDB_STAR_MEAN,
                            string_pool=BIBDB_STRINGS,
                        ),
                        query, SHARDED_SIZE, picks, answer_bytes,
                    ))
                    for _ in range(count)
                ]
            corpus[f"bib{i}"] = documents
        return corpus
    raise ValueError(f"unknown workload {workload!r}")


def corpus_to_json(corpus: dict) -> str:
    """The corpus as ``{source: [[kind, xml_text], ...]}`` JSON; the
    federation builders accept either form."""
    return json.dumps({
        name: [[kind, serialize_document(document)]
               for kind, document in documents]
        for name, documents in corpus.items()
    })


# ---------------------------------------------------------------------------
# federations
# ---------------------------------------------------------------------------


def _as_documents(entries):
    return [
        document if not isinstance(document, str)
        else parse_document(document)
        for _, document in entries
    ]


def _paper_federation(corpus: dict, serving: bool) -> Mediator:
    schema = paper_workload.d1()
    mediator = Mediator(
        "paper-federation",
        fanout=FanoutPolicy() if serving else None,
        cache=MatViewPolicy() if serving else None,
    )
    for name, entries in corpus.items():
        mediator.add_source(
            Source(name, schema, _as_documents(entries), validate=False)
        )
    mediator.register_union_view(
        [paper_branch(VIEW_NAME, name) for name in corpus], VIEW_NAME
    )
    return mediator


def _sharded_federation(corpus: dict, serving: bool) -> Mediator:
    """Sites sharded as ``bibdb.sharded_source`` shards them: contiguous
    fragments, each typed by its venue-kind fragment DTD when pure."""
    schema = bibdb.bibdb_dtd()
    fragment_dtds = {
        "journal": bibdb.journal_fragment_dtd(),
        "conference": bibdb.conference_fragment_dtd(),
    }
    fanout = FanoutPolicy() if serving else None
    mediator = Mediator(
        "bibdb-federation",
        fanout=fanout,
        cache=MatViewPolicy() if serving else None,
    )
    for name, entries in corpus.items():
        documents = _as_documents(entries)
        kinds = [kind for kind, _ in entries]
        shards = []
        for index, (chunk, chunk_kinds) in enumerate(zip(
            partition_documents(documents, SHARDED_SHARDS),
            partition_documents(kinds, SHARDED_SHARDS),
        )):
            kind_set = set(chunk_kinds)
            fragment_dtd = (
                fragment_dtds[chunk_kinds[0]] if len(kind_set) == 1
                else schema
            )
            shards.append(
                Source(f"{name}/s{index}", fragment_dtd, chunk,
                       validate=False)
            )
        mediator.add_source(
            ShardedSource(name, schema, shards, fanout=fanout,
                          validate=False)
        )
    mediator.register_union_view(
        [bibdb.branch_journal_query(name, VIEW_NAME) for name in corpus],
        VIEW_NAME,
    )
    return mediator


def _register_twin_views(mediator: Mediator, names: list[str]) -> None:
    for view, twin in ((VIEW_NAME, False), (TWIN_VIEW, True)):
        mediator.register_union_view(
            [paper_branch(view, name, twin) for name in names], view
        )


def _memory_twin_federation(corpus: dict) -> Mediator:
    """The ``store-evict`` views over the corpus in memory (the oracle)."""
    schema = paper_workload.d1()
    mediator = Mediator("store-evict")
    for name, entries in corpus.items():
        mediator.add_source(
            Source(name, schema, _as_documents(entries), validate=False)
        )
    _register_twin_views(mediator, list(corpus))
    return mediator


def ingest_store(corpus: dict, store_path: str) -> None:
    """Write ``corpus`` into a new store at ``store_path``, once, before
    any server opens it (a restarted store-backed server only reopens)."""
    from repro.store import DocumentStore, StorePolicy

    if os.path.exists(store_path):
        os.remove(store_path)
    with DocumentStore(store_path,
                       StorePolicy(page_size=STORE_PAGE_SIZE)) as store:
        for name, entries in corpus.items():
            for _, document in entries:
                store.ingest_text(serialize_document(document), source=name)


def open_store_federation(store_path: str):
    """``(mediator, store)``: the ``store-evict`` views paged from the
    store at ``store_path``, whose page budget holds about half the
    corpus's element rows.  The matview cache is off: each read runs
    the engine."""
    from repro.store import DocumentStore, StorePolicy

    with DocumentStore(store_path) as probe:
        n_elements = probe.n_elements()
    budget = max(1, round(n_elements / (2 * STORE_PAGE_SIZE)))
    store = DocumentStore(
        store_path,
        StorePolicy(page_size=STORE_PAGE_SIZE, max_pages=budget),
    )
    # Source order is ingest order, as in the corpus.
    names = list(dict.fromkeys(
        document.source for document in store.documents()
    ))
    schema = paper_workload.d1()
    mediator = Mediator("store-evict", fanout=FanoutPolicy())
    for name in names:
        mediator.add_source(
            Source.from_store(name, schema, store, source=name)
        )
    _register_twin_views(mediator, names)
    return mediator, store


def build(workload: str, corpus: dict, serving: bool = False) -> Mediator:
    """The federation serving ``corpus``.

    ``serving`` (the server) configures the matview cache and parallel
    fan-out as ``repro serve`` configures them.  Without it (the
    client's oracle) the federation is plain; its answers are what the
    served ones must equal.  ``store-evict`` is served from a store
    (:func:`open_store_federation`); here it is built in memory.
    """
    if workload == "hot-hit":
        return _paper_federation(corpus, serving)
    if workload == "sharded-write":
        return _sharded_federation(corpus, serving)
    if workload == "store-evict" and not serving:
        return _memory_twin_federation(corpus)
    raise ValueError(f"no {'served ' if serving else ''}federation "
                     f"for {workload!r}")


def title_targets(mediator: Mediator) -> list:
    """Every ``title`` element of every source document, in a stable
    order (source registration, document, preorder).  ``sharded-write``
    mutates these by index."""
    return [
        element
        for source in mediator.sources.values()
        for document in source.documents
        for element in document.root.iter()
        if element.name == "title"
    ]


#: ``sharded-write``: connection ``c`` writes the targets ``t`` with
#: ``t % WRITERS == c``
WRITERS = 2


def op_stream(workload: str, seed: int, conn: int, n_targets: int):
    """The endless seeded request stream of one connection.

    Yields ``("read", view, None)`` or ``("write", target, text)``.
    ``sharded-write`` mixes 80% reads with 20% writes; connection ``c``
    writes only the targets congruent to ``c`` modulo ``WRITERS``, so
    the final text of every title is the last write its one writer
    acknowledged.
    ``store-evict`` alternates its two views.
    """
    rng = random.Random(f"ops:{workload}:{seed}:{conn}")
    views = views_for(workload)
    if workload == "sharded-write":
        owned = range(conn, n_targets, WRITERS)
        seq = 0
        while True:
            if rng.random() < 0.2:
                seq += 1
                yield ("write", rng.choice(owned), f"w{conn}.{seq}")
            else:
                yield ("read", views[0], None)
    turn = rng.randrange(len(views))
    while True:
        yield ("read", views[turn % len(views)], None)
        turn += 1
