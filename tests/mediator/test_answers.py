"""Answers as values: a partial shard gather is degraded end to end.

A sharded site in partial mode (``ShardPolicy(partial=True)``) that
loses a shard releases the surviving shards' merge.  The view answer
built on top of it is partial too, so it must be labelled degraded
(naming the dead shard under ``MED008`` and the shard's own failure
code), validated against the view DTD, and never cached -- otherwise
the cache would keep serving the partial answer as complete after the
shard recovers.  Every fact is read from the returned
:class:`~repro.xmas.engine.Answer`, on both fan-out paths, through
``query_view`` and through a serve ``union`` request.
"""

from __future__ import annotations

import pytest

from repro.mediator import (
    FakeClock,
    FanoutPolicy,
    FaultPlan,
    FaultySource,
    MatViewPolicy,
    ShardPolicy,
)
from repro.mediator import mediator as mediator_module
from repro.regex.language import clear_caches
from repro.serve import MediatorServer, ServeClient, ServePolicy
from repro.workloads import bibdb
from repro.xmas import parse_query

VIEW = "journalArticles"
SITE_VIEW = "bib0Journals"
CLIENT = f"titles = SELECT A WHERE <{SITE_VIEW}> A:<article/> </>"
FANOUTS = [None, FanoutPolicy()]


@pytest.fixture(autouse=True)
def fresh():
    clear_caches()
    yield
    clear_caches()


def federation(fanout, cache=True):
    """The sharded bibliography federation, with ``bib0/s0`` dead."""
    clock = FakeClock()
    mediator = bibdb.sharded_federation(
        clock=clock,
        fanout=fanout,
        cache=MatViewPolicy() if cache else None,
        shard_policy=ShardPolicy(partial=True, prune=False),
    )
    mediator.register_view(
        bibdb.branch_journal_query("bib0", SITE_VIEW), "bib0"
    )
    site = mediator.sources["bib0"]
    shard = site.shards[0]
    dead = FaultySource(
        shard.name,
        shard.dtd,
        list(shard.documents),
        plan=FaultPlan(dead=True),
        clock=clock,
        validate=False,
    )
    site.shards[0] = dead
    site.transports[0].source = dead
    return mediator, dead


def recover(mediator, dead):
    dead.plan = FaultPlan()
    # wait out the shard's breaker, tripped by the dead calls
    mediator.clock.advance(mediator.policy.breaker.reset_timeout)


def assert_names_dead_shard(answer):
    assert answer.degraded
    reason = answer.report.skipped["bib0/s0"]
    assert reason.startswith("MED008: MED003")
    assert answer.report.nested["bib0"].skipped["bib0/s0"].startswith(
        "MED003"
    )


@pytest.mark.parametrize("fanout", FANOUTS, ids=["inline", "parallel"])
class TestPartialShardUnion:
    def test_partial_union_is_degraded_validated_and_never_cached(
        self, fanout, monkeypatch
    ):
        validated = []
        validate = mediator_module.validate_document

        def spy(document, schema):
            validated.append(document)
            return validate(document, schema)

        monkeypatch.setattr(mediator_module, "validate_document", spy)
        mediator, dead = federation(fanout)
        complete, revived = federation(fanout, cache=False)
        recover(complete, revived)
        oracle = complete.materialize_union(VIEW)
        assert not oracle.degraded
        validated.clear()

        for _ in range(2):
            answer = mediator.materialize_union(VIEW)
            assert answer.cache == "miss"
            assert_names_dead_shard(answer)
            assert "bib0" in answer.report.answered
            assert validated[-1] is answer and answer.report.answer_valid
            assert len(answer.root.children) < len(oracle.root.children)
            info = mediator.matview.info()
            assert info["entries"] == 0 and info["recomputes"] == 0
        assert mediator.stats.degraded_answers == 2

        recover(mediator, dead)
        healed = mediator.materialize_union(VIEW)
        assert healed.cache == "miss"
        assert not healed.degraded
        assert healed.root.structurally_equal(oracle.root)
        assert mediator.materialize_union(VIEW).cache == "hit"
        mediator.close()
        complete.close()

    def test_single_source_query_view_is_degraded_and_never_cached(
        self, fanout
    ):
        mediator, dead = federation(fanout)
        client = parse_query(CLIENT)
        for _ in range(2):
            answer = mediator.query_view(client, SITE_VIEW)
            assert answer.cache == "miss"
            assert_names_dead_shard(answer)
            assert mediator.matview.info()["entries"] == 0
        recover(mediator, dead)
        healed = mediator.query_view(client, SITE_VIEW)
        assert healed.cache == "miss"
        assert not healed.degraded
        assert len(healed.root.children) > len(answer.root.children)
        assert mediator.query_view(client, SITE_VIEW).cache == "hit"
        mediator.close()


def test_serve_union_reply_lists_the_dead_shard():
    mediator, _ = federation(FanoutPolicy())
    with MediatorServer(mediator, ServePolicy()) as server:
        host, port = server.address
        with ServeClient(host, port) as client:
            reply = client.union(VIEW)
    mediator.close()
    assert reply["degraded"] is True
    assert reply["cache"] == "miss"
    assert reply["skipped"]["bib0/s0"].startswith("MED008: MED003")
    assert "bib0" in reply["answered"]
