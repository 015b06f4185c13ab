"""E21: the resilience ladder — fault-tolerant fan-out, measured.

Four rungs:

1. **Happy-path overhead** — the transport wrapper (breaker admission,
   clock reads, accounting) versus calling ``Source.query`` directly,
   on the PR 3 compiled-engine serving path.  The gate: < 5% overhead
   (the policy must be free when nothing fails).
2. **Retry ladder** — a federated materialization at increasing
   injected error rates; ``extra_info`` records the attempts/retries
   the policy spent buying the answer.
3. **Breaker fail-fast** — the cost of a call rejected by an open
   breaker (no source touched): the "broken source stops hurting" rung.
4. **Degraded federation** — the acceptance scenario (one flaky
   source at 30%, one dead): the answer must still validate against
   the inferred union view DTD.

Fault time runs on :class:`FakeClock`, so injected latency and backoff
are free; the timings here measure the *machinery*, not the faults.
"""

from __future__ import annotations

import pytest

from measure import overhead_ratio
from repro.dtd import validate_document
from repro.errors import SourceUnavailable
from repro.mediator import (
    BreakerPolicy,
    FakeClock,
    FaultPlan,
    FaultySource,
    RetryPolicy,
    Source,
    SourceTransport,
    SystemClock,
    TransportPolicy,
)
from repro.workloads import flaky
from repro.xmas import Query


def build_plain_source(n_docs: int = 6) -> tuple[Source, Query]:
    name, schema, documents, query = flaky.federation_branches(
        n_sources=1, n_docs=n_docs, seed=11, star_mean=2.5
    )[0]
    source = Source(name, schema, documents, validate=False)
    source.warm_indexes()
    return source, query


class TestHappyPathOverhead:
    def test_transport_overhead_under_5_percent(self, benchmark):
        """The transport wrapper must cost < 5% on the happy path."""
        source, query = build_plain_source()
        transport = SourceTransport(source, TransportPolicy(), SystemClock())

        # warm both paths (plan cache, document indexes)
        source.query(query)
        transport.call(query)

        direct, wrapped, overhead = overhead_ratio(
            lambda: source.query(query), lambda: transport.call(query)
        )
        answer = benchmark(lambda: transport.call(query))
        assert answer.root.name == "journals"
        benchmark.extra_info["direct_us"] = round(direct * 1e6, 2)
        benchmark.extra_info["wrapped_us"] = round(wrapped * 1e6, 2)
        benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
        assert overhead < 0.05, (
            f"transport wrapper costs {overhead:.1%} on the happy path"
        )


class TestRetryLadder:
    @pytest.mark.parametrize("error_rate", [0.0, 0.1, 0.3])
    def test_federation_under_error_rate(self, benchmark, error_rate):
        """Cost of answering as wrappers get flakier (seeded, FakeClock)."""
        clock = FakeClock()
        plans = {
            f"site{i}": FaultPlan(error_rate=error_rate, seed=31 + i)
            for i in range(3)
        }
        mediator = flaky.build_flaky_federation(
            clock,
            policy=TransportPolicy(
                retry=RetryPolicy(attempts=6, base_delay=0.01),
                breaker=BreakerPolicy(failure_rate=0.95),
            ),
            plans=plans,
        )

        answer = benchmark(lambda: mediator.materialize_union("journals"))
        assert answer.root.name == "journals"
        health = mediator.health()
        calls = sum(h["calls"] for h in health.values())
        attempts = sum(h["attempts"] for h in health.values())
        benchmark.extra_info["error_rate"] = error_rate
        benchmark.extra_info["attempts_per_call"] = round(
            attempts / max(1, calls), 3
        )
        benchmark.extra_info["retries"] = sum(
            h["retries"] for h in health.values()
        )

    def test_attempt_inflation_matches_error_rate(self):
        """Sanity (not timed): attempts/call grows with the error rate
        roughly like the geometric expectation 1/(1-p)."""
        ladder = {}
        for error_rate in (0.0, 0.1, 0.3):
            clock = FakeClock()
            plans = {
                f"site{i}": FaultPlan(error_rate=error_rate, seed=31 + i)
                for i in range(3)
            }
            mediator = flaky.build_flaky_federation(
                clock,
                policy=TransportPolicy(
                    retry=RetryPolicy(attempts=8, base_delay=0.01),
                    breaker=BreakerPolicy(failure_rate=0.95),
                ),
                plans=plans,
            )
            for _ in range(60):
                mediator.materialize_union("journals")
            health = mediator.health()
            calls = sum(h["calls"] for h in health.values())
            attempts = sum(h["attempts"] for h in health.values())
            ladder[error_rate] = attempts / calls
        assert ladder[0.0] == 1.0
        assert ladder[0.0] < ladder[0.1] < ladder[0.3]
        assert ladder[0.3] == pytest.approx(1 / 0.7, rel=0.15)


class TestBreakerFailFast:
    def test_open_breaker_rejects_in_microseconds(self, benchmark):
        """Once the breaker is open a dead source costs ~nothing."""
        clock = FakeClock()
        source, query = build_plain_source(n_docs=2)
        dead = FaultySource(
            "dead",
            source.dtd,
            source.documents,
            plan=FaultPlan(dead=True),
            clock=clock,
            validate=False,
        )
        transport = SourceTransport(
            dead,
            TransportPolicy(
                retry=RetryPolicy(attempts=2, base_delay=0.01),
                breaker=BreakerPolicy(
                    window=4, min_calls=2, failure_rate=0.5,
                    reset_timeout=1e9,
                ),
            ),
            clock,
        )
        with pytest.raises(SourceUnavailable):
            transport.call(query)  # trips the breaker

        def rejected_call():
            try:
                transport.call(query)
            except SourceUnavailable:
                return True
            return False

        assert benchmark(rejected_call)
        assert dead.injected_errors == 2  # never touched again
        benchmark.extra_info["breaker_rejections"] = (
            transport.stats.breaker_rejections
        )


class TestDegradedFederation:
    def test_acceptance_scenario_still_answers(self, benchmark):
        """30% flaky + permanently dead source: the federated view
        still answers and the degraded answer is sound."""
        clock = FakeClock()
        mediator = flaky.build_flaky_federation(
            clock,
            policy=TransportPolicy(
                retry=RetryPolicy(attempts=4, base_delay=0.01),
                breaker=BreakerPolicy(failure_rate=0.9),
            ),
        )
        registration = mediator.union_views["journals"]

        answer = benchmark(lambda: mediator.materialize_union("journals"))
        report = answer.report
        assert answer.degraded
        assert "site2" in report.skipped  # the dead source
        assert validate_document(answer, registration.dtd).ok
        health = mediator.health()
        benchmark.extra_info["skipped"] = sorted(report.skipped)
        benchmark.extra_info["dead_breaker"] = health["site2"]["breaker"]
        benchmark.extra_info["retries"] = sum(
            h["retries"] for h in health.values()
        )
        benchmark.extra_info["degraded_answer_valid"] = True
