"""Concurrent stress tests for the shared mutable transport state.

The parallel fan-out and the serving front end hit one mediator's
breakers, stats, and metrics from many OS threads at once; these tests
hammer those structures with real (unscheduled) threads and pin the
invariants locking is supposed to guarantee.  They are probabilistic
by nature — a regression shows up as a *flaky* failure here, and as a
deterministic one in the FakeClock suites.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import obs
from repro.dtd import generate_document
from repro.mediator import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    FaultPlan,
    FaultySource,
    SourceTransport,
    SystemClock,
    TransportPolicy,
)
from repro.mediator.transport import RetryPolicy
from repro.workloads.flaky import site_schema
import random


def run_threads(n, target):
    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)


class TestBreakerConcurrency:
    POLICY = BreakerPolicy(
        window=8,
        min_calls=4,
        failure_rate=0.5,
        reset_timeout=0.0005,
        half_open_probes=2,
    )

    def test_probe_accounting_balances_under_contention(self):
        """Probe slots taken == probe slots given back, always.

        Threads race allow()/record_*/release_probe through rapid
        open -> half-open -> {closed, open} cycles (the reset timeout
        is near zero, so transitions happen constantly).  Afterwards no
        probe slot may remain in flight — the invariant that broke in
        the pre-lock implementation when two threads raced a half-open
        admission.
        """
        clock = SystemClock()
        breaker = CircuitBreaker(self.POLICY, clock)
        iterations = 400

        def worker(index):
            rng = random.Random(index)
            for _ in range(iterations):
                admitted, state = breaker.admit()
                if not admitted:
                    continue
                probe = state is BreakerState.HALF_OPEN
                outcome = rng.random()
                if outcome < 0.45:
                    breaker.record_failure()
                elif outcome < 0.9:
                    breaker.record_success()
                else:
                    # Deadline died between admission and the call:
                    # the slot must be handed back explicitly.
                    if probe:
                        breaker.release_probe()

        run_threads(8, worker)
        assert breaker.probe_slots_inflight() == 0
        # The breaker must have actually cycled for this to mean much.
        assert breaker.times_opened > 0

    def test_half_open_never_over_admits(self):
        """At no instant do admitted probes exceed the policy's slots."""
        clock = SystemClock()
        breaker = CircuitBreaker(self.POLICY, clock)
        over_admissions = []

        def worker(index):
            for _ in range(300):
                admitted, state = breaker.admit()
                if not admitted:
                    continue
                if state is BreakerState.HALF_OPEN:
                    inflight = breaker.probe_slots_inflight()
                    if inflight > self.POLICY.half_open_probes:
                        over_admissions.append(inflight)
                    breaker.record_failure()
                else:
                    breaker.record_failure()

        run_threads(8, worker)
        assert not over_admissions

    def test_transport_stats_exact_under_parallel_calls(self):
        """N concurrent transport calls = exactly N counted calls."""
        rng = random.Random(7)
        schema = site_schema()
        documents = [generate_document(schema, rng)]
        source = FaultySource(
            "s",
            schema,
            documents,
            plan=FaultPlan(error_rate=0.3, seed=11),
            clock=SystemClock(),
            validate=False,
        )
        transport = SourceTransport(
            source,
            TransportPolicy(retry=RetryPolicy(attempts=1)),
            SystemClock(),
        )
        from repro.workloads.flaky import branch_query
        from repro.errors import SourceTimeout, SourceUnavailable

        query = branch_query("s")
        calls_per_thread = 50
        threads = 8

        def worker(index):
            for _ in range(calls_per_thread):
                try:
                    transport.call(query)
                except (SourceTimeout, SourceUnavailable):
                    pass

        run_threads(threads, worker)
        total = threads * calls_per_thread
        assert transport.stats.calls == total
        assert (
            transport.stats.successes
            + transport.stats.failures
            + transport.stats.breaker_rejections
            + transport.stats.timeouts
        ) == total


class TestMetricsConcurrency:
    def test_counter_increments_are_not_lost(self):
        counter = obs.Counter()
        increments = 2000

        def worker(index):
            for _ in range(increments):
                counter.inc()

        run_threads(8, worker)
        assert counter.value == 8 * increments

    def test_histogram_observations_are_not_lost(self):
        histogram = obs.Histogram()
        observations = 2000

        def worker(index):
            for i in range(observations):
                histogram.observe(0.001 * (index + 1))

        run_threads(8, worker)
        assert histogram.count == 8 * observations
        assert sum(histogram.bucket_counts) == 8 * observations

    def test_registry_instrument_creation_race(self):
        """Two threads asking for the same name get the same object."""
        registry = obs.MetricsRegistry()
        instruments = []

        def worker(index):
            for i in range(200):
                instruments.append(registry.counter(f"c{i % 10}"))

        run_threads(8, worker)
        by_name = {}
        for counter in instruments:
            by_name.setdefault(id(counter), counter)
        # 10 distinct names -> at most 10 distinct objects ever handed out
        assert len(by_name) == 10

    def test_registry_counter_total_across_threads(self):
        registry = obs.MetricsRegistry()

        def worker(index):
            counter = registry.counter("shared")
            for _ in range(1000):
                counter.inc()

        run_threads(8, worker)
        assert registry.counter("shared").value == 8000


class TestSourceAccounting:
    class _YieldingInt(int):
        """An int whose ``+`` yields the GIL mid add.

        ``queries_served += 1`` compiles to read / add / write; CPython
        only switches threads at specific bytecodes, so on some
        interpreter versions the unguarded statement happens to be
        atomic and the race needs the add itself to block to become
        visible -- exactly what happens on interpreters (or future
        free-threaded builds) that can switch inside the window.  This
        models that legal switch point deterministically.
        """

        def __add__(self, other):
            value = int(self) + other
            time.sleep(0.0001)
            return TestSourceAccounting._YieldingInt(value)

    def test_queries_served_is_exact_under_contention(self):
        """N threads x M queries must count exactly N*M served.

        ``queries_served += 1`` is a read-modify-write; unguarded, two
        threads that both read the counter before either writes lose
        one increment, skewing the fan-out accounting the mediator
        pre-flight/pruning claims are measured by.  With the source's
        lock around the increment the count is exact.
        """
        from repro.mediator import Source
        from repro.xmas import parse_query

        schema = site_schema()
        rng = random.Random(11)
        documents = [generate_document(schema, rng) for _ in range(2)]
        source = Source("site", schema, documents, validate=False)
        source.queries_served = self._YieldingInt(0)
        query = parse_query(
            "v = SELECT S WHERE <site> S:<paper/> </>",
            source="site",
        )
        source.warm_indexes()
        threads, per_thread = 8, 25

        def worker(_i):
            for _ in range(per_thread):
                source.query(query)

        run_threads(threads, worker)
        assert source.queries_served == threads * per_thread


class TestMediatorCounters:
    """Counters bumped on paths serve handler threads run at once."""

    QUERIES = (
        # a valid sub-condition the simplifier prunes
        "SELECT Y WHERE Y:<withJournals><professor><journal/></professor>"
        "</withJournals>",
        # composable with the view definition
        "SELECT Y WHERE <withJournals> Y:<professor><journal/></professor>"
        "</withJournals>",
        # provably dead: the pre-flight rejects it
        "SELECT Y WHERE Y:<withJournals><name><journal/></name>"
        "</withJournals>",
    )

    @staticmethod
    def mediator():
        from repro.dtd import dtd
        from repro.mediator import Mediator, Source
        from repro.xmas import parse_query

        schema = dtd(
            {
                "professor": "name, (journal | conference)*",
                "name": "#PCDATA",
                "journal": "#PCDATA",
                "conference": "#PCDATA",
            },
            root="professor",
        )
        rng = random.Random(11)
        documents = [
            generate_document(schema, rng, star_mean=1.5) for _ in range(3)
        ]
        mediator = Mediator("mix")
        mediator.add_source(Source("profs", schema, documents))
        mediator.register_view(
            parse_query(
                "withJournals = SELECT X WHERE X:<professor><journal/>"
                "</professor>"
            ),
            "profs",
        )
        return mediator

    def test_query_view_counters_are_exact_under_contention(self):
        from dataclasses import fields

        from repro.xmas import parse_query

        queries = [parse_query(text) for text in self.QUERIES]
        solo = self.mediator()
        for query in queries:
            solo.query_view(query, "withJournals")
        per_round = vars(solo.stats).copy()
        for name in (
            "queries",
            "conditions_pruned",
            "composed",
            "preflight_rejections",
            "fanouts_skipped",
            "answered_without_source",
        ):
            assert per_round[name] > 0, name
        mediator = self.mediator()
        for field in fields(mediator.stats):
            setattr(
                mediator.stats, field.name, TestSourceAccounting._YieldingInt(0)
            )
        threads, rounds = 8, 5

        def worker(_i):
            for _ in range(rounds):
                for query in queries:
                    mediator.query_view(query, "withJournals")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(threads, worker)
        finally:
            sys.setswitchinterval(interval)
        assert vars(mediator.stats) == {
            name: value * threads * rounds
            for name, value in per_round.items()
        }

    def test_fanout_counters_are_exact_under_contention(self):
        from repro.mediator import FanoutPolicy, ParallelTransport, Source
        from repro.xmas import parse_query

        schema = site_schema()
        rng = random.Random(5)
        query = parse_query("v = SELECT S WHERE <site> S:<paper/> </>")
        transports = [
            SourceTransport(
                Source(
                    f"site{i}",
                    schema,
                    [generate_document(schema, rng)],
                    validate=False,
                )
            )
            for i in range(2)
        ]
        fanout = ParallelTransport(policy=FanoutPolicy(max_workers=2))
        fanout.inline_fanouts = TestSourceAccounting._YieldingInt(0)
        fanout.parallel_fanouts = TestSourceAccounting._YieldingInt(0)
        threads, per_thread = 8, 10

        def worker(_i):
            for _ in range(per_thread):
                fanout.fan_out([(transports[0], query)])
                fanout.fan_out([(t, query) for t in transports])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(threads, worker)
        finally:
            sys.setswitchinterval(interval)
            fanout.close()
        assert fanout.inline_fanouts == threads * per_thread
        assert fanout.parallel_fanouts == threads * per_thread
