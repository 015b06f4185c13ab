#!/usr/bin/env python3
"""A federation that keeps answering while its wrappers misbehave.

The paper's Figure 1 stacks the mediator over wrappers and assumes
they answer; this demo drops that assumption.  Three bibliography
sites export the same schema through separate wrappers:

* ``site0`` is healthy,
* ``site1`` errors on ~30% of calls (seeded — reruns are identical),
* ``site2`` is permanently dead.

A union view federates the three.  Watch the transport policy at work:
flaky calls are retried with exponential backoff, the dead source
trips its circuit breaker and stops being attempted, and the mediator
returns a *degraded* answer — annotated with what was skipped — that
still validates against the inferred union view DTD.

Everything runs on a fake clock: the "retries" and "30 seconds of
breaker recovery" below take no wall time.  See docs/RELIABILITY.md.

Run:  python examples/flaky_federation.py
"""

from repro.dtd import validate_document
from repro.mediator import (
    FakeClock,
    RetryPolicy,
    TransportPolicy,
    render_health,
)
from repro.workloads import flaky


def main() -> None:
    clock = FakeClock()
    mediator = flaky.build_flaky_federation(
        clock,
        policy=TransportPolicy(retry=RetryPolicy(attempts=4)),
    )
    registration = mediator.union_views["journals"]

    print("=" * 72)
    print("Federating 3 sites: healthy / 30% flaky / permanently dead")
    print("=" * 72)
    for name, source in mediator.sources.items():
        plan = source.plan
        status = (
            "dead"
            if plan.dead
            else f"{plan.error_rate:.0%} error rate"
            if plan.error_rate
            else "healthy"
        )
        print(f"  {name}: {status}")

    print()
    print("materializing the union view under fault...")
    answer = mediator.materialize_union("journals")
    print(f"  -> answered with {len(answer.root.children)} journal "
          "publications")
    assert answer.degraded
    print()
    print(answer.report.describe())

    print()
    print("the degraded answer is SOUND — it validates against the")
    print("inferred union view DTD:",
          validate_document(answer, registration.dtd).ok)

    print()
    print("=" * 72)
    print("Transport health after the fan-out")
    print("=" * 72)
    print(render_health(mediator.health()))
    print()
    print(f"virtual time spent in backoff: {clock.now():.2f}s "
          f"({len(clock.sleeps)} sleeps — none of them real)")

    print()
    print("=" * 72)
    print("A second query fails fast: the dead site's breaker is open")
    print("=" * 72)
    mediator.materialize_union("journals")
    print(render_health(mediator.health()))
    dead = mediator.transports["site2"]
    print(f"\nsite2 rejected without being called "
          f"(breaker rejections: {dead.stats.breaker_rejections}; "
          f"wrapper attempts unchanged)")

    print()
    print("=" * 72)
    print("Recovery: the wrapper comes back, the breaker half-opens")
    print("=" * 72)
    # the operator fixes site2's wrapper...
    mediator.sources["site2"].plan.dead = False
    # ...and after the reset timeout the next call probes half-open
    clock.advance(mediator.policy.breaker.reset_timeout)
    answer = mediator.materialize_union("journals")
    print(render_health(mediator.health()))
    print("\ncomplete answer again:", not answer.degraded)


if __name__ == "__main__":
    main()
