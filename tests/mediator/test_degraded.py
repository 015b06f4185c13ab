"""Degradation mode: partial answers, health reporting, deadlines.

Covers the acceptance scenario of the resilience work: a 3-source
federated view with one flaky (30% error) and one permanently dead
source still answers — retried calls succeed, the dead source trips
its breaker, and the degraded answer validates against the inferred
union view DTD.  All on the fake clock; no real sleeps.
"""

import pytest

from repro.dtd import validate_document
from repro.errors import DegradedAnswer, SourceTimeout, SourceUnavailable
from repro.mediator import (
    BreakerPolicy,
    FakeClock,
    FaultPlan,
    FaultySource,
    Mediator,
    RetryPolicy,
    TransportPolicy,
    render_health,
)
from repro.workloads import flaky
from repro.workloads.paper import d1, q3
from repro.dtd import generate_document
import random


def federation(clock, **kwargs):
    kwargs.setdefault(
        "policy", TransportPolicy(retry=RetryPolicy(attempts=4))
    )
    return flaky.build_flaky_federation(clock, **kwargs)


class TestAcceptanceScenario:
    """Seeded FaultPlan, 30% errors, one dead source, 3-source view."""

    def test_degraded_federation_answers(self):
        clock = FakeClock()
        mediator = federation(clock)
        answer = mediator.materialize_union("journals")
        report = answer.report
        assert report is not None and report.degraded
        # the dead source was skipped; the flaky one answered (retried)
        assert set(report.skipped) == {"site2"}
        assert report.answered == ["site0", "site1"]
        assert "MED003" in report.skipped["site2"]
        # the partial answer is SOUND: it validates against the
        # inferred union view DTD
        registration = mediator.union_views["journals"]
        assert validate_document(answer, registration.dtd).ok
        assert report.answer_valid
        # the flaky source needed retries; the dead one tripped open
        health = mediator.health()
        assert health["site1"]["retries"] >= 1
        assert health["site1"]["successes"] == 1
        assert health["site2"]["breaker"] == "open"
        assert mediator.stats.degraded_answers == 1

    def test_breaker_makes_followup_queries_fail_fast(self):
        clock = FakeClock()
        mediator = federation(clock)
        mediator.materialize_union("journals")
        dead = mediator.sources["site2"]
        attempts_before = mediator.transports["site2"].stats.attempts
        answer = mediator.materialize_union("journals")
        # breaker open: the dead source was not even attempted
        assert mediator.transports["site2"].stats.attempts == attempts_before
        assert mediator.transports["site2"].stats.breaker_rejections == 1
        assert dead.plan.dead  # still dead, still skipped soundly
        assert answer.degraded

    def test_no_degrade_propagates_the_failure(self):
        clock = FakeClock()
        mediator = federation(clock)
        with pytest.raises(SourceUnavailable):
            mediator.materialize_union("journals", degrade=False)

    def test_health_table_renders(self):
        clock = FakeClock()
        mediator = federation(clock)
        mediator.materialize_union("journals")
        table = render_health(mediator.health())
        lines = table.splitlines()
        assert lines[0].startswith("source")
        assert len(lines) == 4  # header + three sites
        assert any("open" in line for line in lines[1:])


class TestDeadlineFanOut:
    def test_budget_exhausted_mid_fanout_degrades(self):
        """A slow early source eats the shared budget; later legs are
        skipped with a deadline diagnostic, not attempted."""
        clock = FakeClock()
        plans = {
            "site0": FaultPlan(latency=2.0),  # answers, but slowly
            "site1": FaultPlan(),
            "site2": FaultPlan(),
        }
        mediator = federation(clock, plans=plans)
        deadline = mediator.deadline(1.0)
        answer = mediator.materialize_union("journals", deadline=deadline)
        report = answer.report
        assert answer.degraded
        # site0's answer arrived after the budget: discarded (timeout);
        # by then the budget was spent, so site1/site2 were never tried
        assert set(report.skipped) == {"site0", "site1", "site2"}
        assert all("MED002" in why for why in report.skipped.values())
        assert mediator.transports["site1"].stats.attempts == 0
        assert mediator.transports["site2"].stats.attempts == 0
        assert answer.root.children == []

    def test_generous_budget_answers_fully(self):
        clock = FakeClock()
        plans = {name: FaultPlan(latency=0.1) for name in
                 ("site0", "site1", "site2")}
        mediator = federation(clock, plans=plans)
        deadline = mediator.deadline(10.0)
        answer = mediator.materialize_union("journals", deadline=deadline)
        assert not answer.degraded
        for name in ("site0", "site1", "site2"):
            assert mediator.transports[name].stats.successes == 1

    def test_no_degrade_deadline_raises_timeout(self):
        clock = FakeClock()
        plans = {"site0": FaultPlan(latency=5.0)}
        mediator = federation(clock, plans=plans)
        with pytest.raises(SourceTimeout):
            mediator.materialize_union(
                "journals",
                deadline=mediator.deadline(1.0),
                degrade=False,
            )


class TestSingleSourceDegradation:
    def make_mediator(self, plan, **med_kwargs):
        clock = FakeClock()
        rng = random.Random(17)
        docs = [generate_document(d1(), rng, star_mean=1.6)]
        med_kwargs.setdefault(
            "policy",
            TransportPolicy(
                retry=RetryPolicy(attempts=2, base_delay=0.01, jitter=0.0)
            ),
        )
        mediator = Mediator("mix", clock=clock, **med_kwargs)
        mediator.add_source(
            FaultySource(
                "dept", d1(), docs, plan=plan, clock=clock, validate=False
            )
        )
        mediator.register_view(q3(), "dept")
        return mediator

    def test_query_view_degrades_to_empty_answer(self):
        mediator = self.make_mediator(FaultPlan(dead=True))
        from repro.xmas import parse_query

        client = parse_query(
            "titles = SELECT T WHERE <publist> <publication>"
            " T:<title/> </> </>"
        )
        answer = mediator.query_view(client, "publist")
        assert answer.root.name == "titles"
        assert answer.root.children == []
        report = answer.report
        assert answer.degraded and set(report.skipped) == {"dept"}
        assert mediator.stats.degraded_answers == 1

    def test_query_view_no_degrade_raises(self):
        mediator = self.make_mediator(FaultPlan(dead=True))
        from repro.xmas import parse_query

        client = parse_query(
            "titles = SELECT T WHERE <publist> <publication>"
            " T:<title/> </> </>"
        )
        with pytest.raises(SourceUnavailable):
            mediator.query_view(client, "publist", degrade=False)

    def test_successful_answer_clears_stale_degradation(self):
        mediator = self.make_mediator(FaultPlan(fail_first=2))
        from repro.xmas import parse_query

        client = parse_query(
            "titles = SELECT T WHERE <publist> <publication>"
            " T:<title/> </> </>"
        )
        assert mediator.query_view(client, "publist").degraded
        # breaker may have tripped; wait out the reset and let the
        # now-healthy source answer
        mediator.clock.advance(mediator.policy.breaker.reset_timeout)
        assert not mediator.query_view(client, "publist").degraded

    def test_explain_reports_breaker_state(self):
        mediator = self.make_mediator(FaultPlan(dead=True))
        from repro.xmas import parse_query

        client = parse_query(
            "titles = SELECT T WHERE <publist> <publication>"
            " T:<title/> </> </>"
        )
        mediator.query_view(client, "publist")
        plan = mediator.explain(client, "publist")
        assert plan.source_health and plan.source_health[0]["source"] == "dept"
        assert "breaker" in plan.describe()


class TestDegradationSoundness:
    def test_unsound_degradation_is_refused(self):
        """When a branch's contribution is required (non-nullable),
        skipping it would violate the view DTD: DegradedAnswer."""
        from repro.dtd import dtd
        from repro.xmas import parse_query

        clock = FakeClock()
        # a site whose every entry HAS a journal publication: the
        # branch list type is publication+ (non-nullable)
        schema = dtd(
            {
                "site": "publication+",
                "publication": "title, journal",
                "title": "#PCDATA",
                "journal": "#PCDATA",
            },
            root="site",
        )
        from repro.xmlmodel import parse_document

        doc = parse_document(
            "<site><publication><title>t</title>"
            "<journal>j</journal></publication></site>"
        )
        mediator = Mediator(
            "strict",
            clock=clock,
            policy=TransportPolicy(
                retry=RetryPolicy(attempts=1),
                breaker=BreakerPolicy(min_calls=1, failure_rate=1.0),
            ),
        )
        mediator.add_source(
            FaultySource(
                "must", schema, [doc], plan=FaultPlan(dead=True), clock=clock
            )
        )
        query = parse_query(
            "pubs = SELECT P WHERE <site> P:<publication/> </>",
            source="must",
        )
        mediator.register_union_view([query], "pubs")
        with pytest.raises(DegradedAnswer) as excinfo:
            mediator.materialize_union("pubs")
        error = excinfo.value
        assert error.report is not None and not error.report.answer_valid
        assert error.document is not None
        assert mediator.stats.degraded_answers == 0
