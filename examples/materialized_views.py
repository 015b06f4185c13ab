#!/usr/bin/env python3
"""Materialized union views: serve repeats from cache, splice edits.

A mediator that answers every ``materialize_union`` by re-fanning out
to its sources does redundant work when nothing changed.  This demo
registers the DBLP-style ``journalArticles`` union view over four
bibliography sites and shows the materialized-view answer cache at
work:

* the **cold** call fans out, evaluates every site, and stores the
  answer with its per-document provenance (which source document
  produced which slice of the answer),
* the **warm** repeat is served from cache without a single wrapper
  call — a mutation-clock stamp check, not a tree walk,
* an **edit** to one source document is served by *delta
  maintenance*: only the dirty document is re-evaluated and its fresh
  picks are spliced into the cached answer between the untouched
  subtrees; every other site stays untouched,
* the spliced answer still **validates** against the inferred union
  view DTD (when it would not, the cache falls back to a full
  recompute — diagnostic ``MED007``).

`explain_union` reports what the cache *would* do before each call
without touching sources.  See docs/PERFORMANCE.md for the policy
knobs and the benchmark gates.

Run:  python examples/materialized_views.py
"""

from repro.dtd import validate_document
from repro.mediator import MatViewPolicy
from repro.workloads import bibdb

VIEW = "journalArticles"


def total_calls(mediator) -> int:
    return sum(
        transport.health()["calls"]
        for transport in mediator.transports.values()
    )


def main() -> None:
    mediator = bibdb.union_federation(
        n_sources=4, n_docs=4, cache=MatViewPolicy()
    )
    registration = mediator.union_views[VIEW]
    mediator.warm()

    print("=" * 72)
    print("Four bibliography sites, one cached union view")
    print("=" * 72)
    print(f"cache before the first call: "
          f"{mediator.explain_union(VIEW).cache_status}")
    answer = mediator.materialize_union(VIEW)
    print(f"cold materialization: {len(answer.root.children)} articles "
          f"from {total_calls(mediator)} wrapper calls "
          f"({answer.cache})")

    calls_before = total_calls(mediator)
    again = mediator.materialize_union(VIEW)
    print(f"warm repeat: served the same master answer "
          f"({again.cache}, answer shares the master's tree: "
          f"{again.root is answer.root}) with "
          f"{total_calls(mediator) - calls_before} wrapper calls")

    print()
    print("=" * 72)
    print("One site edits one document")
    print("=" * 72)
    document = mediator.sources["bib0"].documents[0]
    title = next(
        element
        for element in document.root.iter()
        if element.name == "title"
    )
    title.set_text("Mediators, Second Edition")
    print(f"explain_union now says: "
          f"{mediator.explain_union(VIEW).cache_status}")
    calls_before = total_calls(mediator)
    maintained = mediator.materialize_union(VIEW)
    print(f"served by {maintained.cache} maintenance: "
          f"re-evaluated only bib0's dirty document, "
          f"{total_calls(mediator) - calls_before} wrapper calls")
    titles = [
        element.content
        for element in maintained.root.iter()
        if element.name == "title"
    ]
    print(f"the spliced answer carries the edit: "
          f"{'Mediators, Second Edition' in titles}")
    print(f"held answers from earlier hits stay stable: "
          f"{maintained is not answer}")
    print(f"...and the spliced answer still validates against the "
          f"inferred view DTD: "
          f"{validate_document(maintained, registration.dtd).ok}")

    print()
    print("=" * 72)
    print("The cache's own accounting")
    print("=" * 72)
    info = mediator.matview.info()
    for key in ("hits", "misses", "recomputes", "deltas",
                "invalidations", "entries", "bytes"):
        print(f"  {key:14s} {info[key]}")


if __name__ == "__main__":
    main()
