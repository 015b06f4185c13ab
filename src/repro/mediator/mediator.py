"""The MIX mediator (Figure 1).

A mediator exports XMAS views over registered sources.  When a view is
registered the View DTD Inference module derives its (specialized and
plain) view DTD; the DTD is served to clients -- users formulating
queries through the DTD-based interface, query processors, and *other
mediators stacked on top* (``as_source`` exports a view as a new
source whose DTD is the inferred one).

Answering a query against a view goes through the DTD-based query
simplifier first: provably empty queries never touch a source, and
valid sub-conditions are pruned before evaluation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .. import obs
from ..dtd import Dtd, SpecializedDtd, validate_document
from ..errors import DegradedAnswer, MediatorError
from ..inference import (
    Classification,
    InferenceMode,
    InferenceResult,
    infer_view_dtd,
)
from ..xmas import CompiledPlan, Query, compile_query, evaluate_many
from ..xmas.engine import Answer, enable_provenance
from ..xmlmodel import Element, fresh_id
from .matview import (
    CacheLeg,
    MatViewCache,
    MatViewPolicy,
    query_signature,
)
from .parallel import FanoutPolicy, ParallelTransport, scatter_gather
from .simplifier import SimplifierDecision, simplify_query
from .source import Source
from .transport import (
    Clock,
    Deadline,
    SourceTransport,
    SystemClock,
    TransportPolicy,
)


@dataclass
class ViewRegistration:
    """A mediated view: its definition, source, inferred DTDs, and the
    compiled execution plan (built once at registration, reused for
    every materialization -- the serving hot path never recompiles)."""

    query: Query
    source_name: str
    inference: InferenceResult
    plan: CompiledPlan | None = None

    @property
    def name(self) -> str:
        return self.query.view_name

    @property
    def dtd(self) -> Dtd:
        """The plain view DTD (after Merge)."""
        return self.inference.dtd

    @property
    def sdtd(self) -> SpecializedDtd:
        """The specialized view DTD (the tight description)."""
        return self.inference.sdtd


@dataclass
class QueryPlan:
    """The mediator's plan for a query against a view (see ``explain``)."""

    view_name: str
    classification: "Classification | None"
    pruned_nodes: int
    #: "empty-answer" | "compose" | "materialize" | "union-fanout"
    strategy: str
    composed_query: Query | None
    effective_query: Query | None
    #: per-source transport snapshots (breaker state, retries, ...)
    source_health: list[dict] = field(default_factory=list)
    #: the rendered planning trace (``repro.obs`` span tree; empty when
    #: tracing was disabled and ``explain`` could not install a tracer)
    trace_lines: list[str] = field(default_factory=list)
    #: what the materialized-view cache would do with this request:
    #: "off" (no cache), "disabled", "cold", "hit", "delta", "recompute"
    cache_status: str = "off"

    def describe(self) -> str:
        lines = [
            f"query against view {self.view_name!r}:",
            "  classification: "
            + (
                self.classification.value
                if self.classification is not None
                else "n/a"
            ),
            f"  conditions pruned: {self.pruned_nodes}",
            f"  strategy: {self.strategy}",
            f"  cache: {self.cache_status}",
        ]
        if self.composed_query is not None:
            lines.append("  composed source query:")
            lines.append(
                "    " + str(self.composed_query).replace("\n", "\n    ")
            )
        for health in self.source_health:
            lines.append(
                f"  source {health['source']!r}: breaker "
                f"{health['breaker']} (opened {health['times_opened']}x), "
                f"{health['calls']} calls, {health['retries']} retries, "
                f"{health['failures']} failures, "
                f"{health['timeouts']} timeouts"
            )
        if self.trace_lines:
            lines.append("  planning trace:")
            lines.extend(f"    {line}" for line in self.trace_lines)
        return "\n".join(lines)


@dataclass
class UnionViewRegistration:
    """A registered multi-source union view."""

    name: str
    branches: list
    source_names: list[str]
    inference: "UnionInferenceResult"
    #: lazily memoized matview cache key (branch plan signatures are
    #: stable once registered; rebuilding them per request would tax
    #: the cache's hit path)
    _cache_key: tuple | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def dtd(self) -> Dtd:
        return self.inference.dtd

    @property
    def sdtd(self) -> SpecializedDtd:
        return self.inference.sdtd


@dataclass
class QueryStats:
    """Bookkeeping for the simplifier-benefit experiments (E10)."""

    queries: int = 0
    answered_without_source: int = 0
    conditions_pruned: int = 0
    composed: int = 0
    #: queries the static pre-flight rejected before any planning
    preflight_rejections: int = 0
    #: source fan-outs that never happened thanks to the pre-flight
    fanouts_skipped: int = 0
    #: answers returned partial because sources failed permanently
    degraded_answers: int = 0


class Mediator:
    """An on-demand XML mediator with DTD support."""

    def __init__(
        self,
        name: str = "mediator",
        mode: InferenceMode = InferenceMode.EXACT,
        policy: TransportPolicy | None = None,
        clock: Clock | None = None,
        fanout: FanoutPolicy | None = None,
        cache: MatViewPolicy | MatViewCache | None = None,
    ) -> None:
        self.name = name
        self.mode = mode
        #: the source-call policy (timeout/retry/breaker) applied to
        #: every registered source; see docs/RELIABILITY.md
        self.policy = policy or TransportPolicy()
        self.clock: Clock = clock or SystemClock()
        #: parallel union fan-out; None runs the legs inline on the
        #: calling thread, in registration order, under policy timeouts
        #: only (later legs' deadline arithmetic depends on that order)
        self.fanout = fanout
        self.parallel = ParallelTransport(
            self.clock,
            fanout
            if fanout is not None
            else FanoutPolicy(max_workers=1, cost_aware=False),
        )
        #: the materialized-view answer cache (None = uncached, the
        #: classic re-evaluate-everything mediator); accepts a policy
        #: (private cache) or a ready MatViewCache (shared warm cache)
        self.matview: MatViewCache | None = None
        if cache is not None:
            self.matview = (
                cache
                if isinstance(cache, MatViewCache)
                else MatViewCache(cache)
            )
            if self.matview.policy.enabled and self.matview.policy.delta:
                # Delta splicing needs the engine's pick provenance.
                enable_provenance()
        self._union_legs: dict[str, tuple[CacheLeg, ...]] = {}
        self.sources: dict[str, Source] = {}
        self.transports: dict[str, SourceTransport] = {}
        self.views: dict[str, ViewRegistration] = {}
        self.union_views: dict[str, "UnionViewRegistration"] = {}
        self.stats = QueryStats()
        #: guards every ``stats`` increment (repro.serve answers one
        #: mediator from many handler threads)
        self._stats_lock = threading.Lock()

    def _count(self, **deltas: int) -> None:
        """Bump ``stats`` counters under the lock (no lost increments)."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def _cache_status(self, cache: bool) -> str | None:
        """The cache verdict that needs no probe -- ``"off"`` (no cache
        configured), ``"disabled"``, or ``"bypass"`` (the request opted
        out, MED006) -- or None when the cache must be probed."""
        mv = self.matview
        if mv is None:
            return "off"
        if not mv.policy.enabled:
            return "disabled"
        if not cache:
            mv.note_bypass()
            return "bypass"
        return None

    # -- administration --------------------------------------------------

    def add_source(self, source: Source) -> None:
        """Register a wrapped source (behind the transport policy)."""
        if source.name in self.sources:
            raise MediatorError(f"source {source.name!r} already registered")
        self.sources[source.name] = source
        self.transports[source.name] = SourceTransport(
            source, self.policy, self.clock
        )

    def deadline(self, budget: float) -> Deadline:
        """A fan-out deadline ``budget`` seconds from now (this clock)."""
        return Deadline.after(self.clock, budget)

    def warm(self) -> int:
        """Pre-build every source's document indexes (serving state).

        View plans are compiled at registration already; after this,
        the first request is as fast as the thousandth.  Returns the
        number of documents indexed.
        """
        return sum(
            source.warm_indexes() for source in self.sources.values()
        )

    def close(self) -> None:
        """Release the parallel fan-out worker pool (idempotent)."""
        self.parallel.close()

    def health(self) -> dict[str, dict]:
        """Per-source transport health: breaker states, retries, ...

        The operational counterpart of ``stats``: one snapshot per
        source (see :meth:`SourceTransport.health`), renderable with
        :func:`repro.mediator.interface.render_health`.
        """
        return {
            name: transport.health()
            for name, transport in sorted(self.transports.items())
        }

    def register_view(self, query: Query, source_name: str | None = None) -> ViewRegistration:
        """Register a view definition; infers its view DTD immediately.

        ``source_name`` defaults to the query's own ``source`` field,
        or to the only registered source.
        """
        target = source_name or query.source
        if target is None:
            if len(self.sources) != 1:
                raise MediatorError(
                    "query names no source and the mediator has "
                    f"{len(self.sources)} sources"
                )
            target = next(iter(self.sources))
        if target not in self.sources:
            raise MediatorError(f"unknown source {target!r}")
        if query.view_name in self.views:
            raise MediatorError(
                f"view {query.view_name!r} already registered"
            )
        source = self.sources[target]
        with obs.span("mediator.register_view") as sp:
            sp.set_attribute("view", query.view_name)
            sp.set_attribute("source", target)
            inference = infer_view_dtd(source.dtd, query, self.mode)
            registration = ViewRegistration(
                query, target, inference, plan=compile_query(query)
            )
        self.views[query.view_name] = registration
        return registration

    # -- the DTD services ------------------------------------------------

    def view_dtd(self, view_name: str) -> Dtd:
        """The inferred plain view DTD (what a generic client asks for)."""
        return self._view(view_name).dtd

    def view_sdtd(self, view_name: str) -> SpecializedDtd:
        """The inferred specialized view DTD (for stacked mediators)."""
        return self._view(view_name).sdtd

    # -- query answering ---------------------------------------------------

    def materialize(
        self, view_name: str, deadline: Deadline | None = None
    ) -> Answer:
        """Evaluate a view against its source (through the transport)."""
        registration = self._view(view_name)
        return self.transports[registration.source_name].call(
            registration.query, deadline
        )

    def preflight(self, query: Query, view_name: str):
        """Static pre-flight: lint a query against the view DTD.

        Runs the query-scope lint rules (one uncollapsed Tighten run)
        and returns the :class:`~repro.lint.DiagnosticReport`.  An
        error-severity finding (a provably-empty ``MIX101`` dead path)
        means the mediator can answer without any source fan-out.
        """
        return self._preflight(query, self._view(view_name))[0]

    def _preflight(self, query: Query, registration: ViewRegistration):
        """``(report, tightening)``: the pre-flight diagnostics and the
        Tighten run behind them, handed to the simplifier by value --
        pre-flight plus simplification cost one classification, not
        two, and concurrent queries never see each other's run."""
        from ..lint import lint_query

        cache: dict = {}
        report = lint_query(
            query, registration.dtd, mode=self.mode, cache=cache
        )
        return report, cache.get("tighten")

    def query_view(
        self,
        query: Query,
        view_name: str,
        use_simplifier: bool = True,
        strategy: str = "auto",
        preflight: bool | None = None,
        deadline: Deadline | None = None,
        degrade: bool = True,
        cache: bool = True,
    ) -> Answer:
        """Answer a query posed against a mediated view.

        With the simplifier on, the view DTD is consulted first: the
        static pre-flight rejects unsatisfiable queries with the empty
        view without materializing anything (recording the skipped
        fan-out), and valid sub-conditions are pruned.

        ``preflight`` defaults to ``use_simplifier``; pass ``False`` to
        measure the un-assisted path.

        ``strategy`` selects the execution plan:

        * ``"auto"`` -- compose the query with the view definition into
          a direct source query when the pair is composable (the
          TSIMMIS rewriting step of Section 1), otherwise materialize;
        * ``"compose"`` -- composition only; raises when not composable;
        * ``"materialize"`` -- always evaluate over the materialized view.

        The source call is a one-leg :func:`scatter_gather` through the
        fault-tolerant transport under ``deadline`` (a shared budget;
        see :meth:`deadline`).  When the source fails permanently and
        ``degrade`` is true, the empty answer is returned instead, its
        report naming the skipped source; ``degrade=False`` propagates
        the :class:`SourceTimeout` / :class:`SourceUnavailable` instead
        (docs/RELIABILITY.md).  A degraded answer -- including one a
        sharded source released partial -- is never cached.
        """
        if strategy not in ("auto", "compose", "materialize"):
            raise MediatorError(f"unknown strategy {strategy!r}")
        registration = self._view(view_name)
        self._count(queries=1)
        run_preflight = use_simplifier if preflight is None else preflight
        source_name = registration.source_name
        status = self._cache_status(cache)
        token = None
        if status is None:
            assert self.matview is not None
            key = (
                "query",
                view_name,
                query_signature(query),
                use_simplifier,
                strategy,
                run_preflight,
            )
            legs = (CacheLeg(source_name, self.sources[source_name], None),)
            outcome = self.matview.probe(key, view_name, None, legs)
            if outcome.answer is not None:
                return outcome.answer
            status, token = "miss", outcome.token
        effective = query
        tightening = None
        with obs.span("mediator.query_view") as sp:
            sp.set_attribute("view", view_name)
            if run_preflight:
                report, tightening = self._preflight(query, registration)
                if report.has_errors:
                    self._count(
                        preflight_rejections=1,
                        fanouts_skipped=1,
                        answered_without_source=1,
                    )
                    sp.set_attribute("outcome", "preflight_rejected")
                    return Answer(
                        Element(query.view_name, [], fresh_id()), cache=status
                    )
            if use_simplifier:
                decision: SimplifierDecision = simplify_query(
                    query, registration.dtd, self.mode, tightening=tightening
                )
                if decision.answer_is_empty:
                    self._count(answered_without_source=1)
                    sp.set_attribute("outcome", "simplified_empty")
                    return Answer(
                        Element(query.view_name, [], fresh_id()), cache=status
                    )
                self._count(conditions_pruned=decision.pruned_nodes)
                effective = decision.query
            composed = None
            if strategy in ("auto", "compose"):
                from .composition import compose_query

                composed = compose_query(
                    registration.query,
                    effective,
                    self.sources[source_name].dtd,
                )
                if composed is None and strategy == "compose":
                    raise MediatorError(
                        "query is not composable with the view definition"
                    )
            if composed is not None:
                self._count(composed=1)
            leg_query = registration.query if composed is None else composed
            sp.set_attribute(
                "outcome", "materialized" if composed is None else "composed"
            )
            gathered, (leg,) = scatter_gather(
                self.parallel,
                [(self.transports[source_name], leg_query)],
                deadline,
                leg_query.view_name,
            )
            if leg.error is not None:
                if not degrade:
                    raise leg.error
                sp.set_attribute("outcome", "degraded")
                sp.add_event(
                    "degraded", source=source_name, code=leg.error.code
                )
            if composed is None:
                answer = evaluate_many(effective, [gathered])
                answer.report = gathered.report
            else:
                answer = gathered
            if answer.degraded:
                self._count(degraded_answers=1)
            elif token is not None:
                assert self.matview is not None and leg.answer is not None
                if composed is not None:
                    # A composed source query re-runs cleanly over a
                    # single document: delta-capable.
                    token.legs = (
                        CacheLeg(
                            source_name, self.sources[source_name], composed
                        ),
                    )
                # A materialized answer's provenance points at the
                # transient view, not at source documents: that entry
                # is recompute-only.
                self.matview.store(
                    token,
                    answer,
                    [leg.answer.provenance if composed is not None else None],
                )
            answer.cache = status
            return answer

    def as_source(self, view_name: str) -> Source:
        """Export a view as a source for a higher-level mediator.

        The exported source's DTD is the inferred view DTD -- this is
        exactly what makes mediator stacking work: "it is important
        that the lower level mediators can derive and provide their
        view DTDs to the higher level ones" (Section 1).
        """
        registration = self._view(view_name)
        document = self.materialize(view_name)
        return Source(
            name=f"{self.name}.{view_name}",
            dtd=registration.dtd,
            documents=[document],
        )

    def explain(self, query: Query, view_name: str) -> "QueryPlan":
        """Describe how a query against a view would be answered.

        Runs the simplifier and the composability check without
        touching any source -- the "query processor derives more
        efficient plans" story of Section 1, made inspectable.  The
        planning work runs under a ``repro.obs`` span (a scoped tracer
        is installed when none is active), and the rendered span tree
        is attached as :attr:`QueryPlan.trace_lines` -- ``describe()``
        shows where the plan's time and decisions went.
        """
        scope = None
        if not obs.enabled():
            scope = obs.traced(clock=self.clock)
            scope.__enter__()
        try:
            with obs.span("mediator.explain") as sp:
                sp.set_attribute("view", view_name)
                plan = self._explain_plan(query, view_name)
                sp.set_attribute("strategy", plan.strategy)
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
        plan.trace_lines = sp.render().splitlines()
        return plan

    def _explain_plan(self, query: Query, view_name: str) -> "QueryPlan":
        registration = self._view(view_name)
        decision = simplify_query(query, registration.dtd, self.mode)
        composed = None
        if not decision.answer_is_empty:
            from .composition import compose_query

            source = self.sources[registration.source_name]
            composed = compose_query(
                registration.query, decision.query, source.dtd
            )
        if decision.answer_is_empty:
            strategy = "empty-answer"
        elif composed is not None:
            strategy = "compose"
        else:
            strategy = "materialize"
        transport = self.transports.get(registration.source_name)
        cache_status = "off"
        if self.matview is not None:
            key = (
                "query",
                view_name,
                query_signature(query),
                True,
                "auto",
                True,
            )
            legs = (
                CacheLeg(
                    registration.source_name,
                    self.sources[registration.source_name],
                    None,
                ),
            )
            cache_status = self.matview.peek(key, legs)
        return QueryPlan(
            view_name=view_name,
            classification=decision.classification,
            pruned_nodes=decision.pruned_nodes,
            strategy=strategy,
            composed_query=composed,
            effective_query=decision.query,
            source_health=[transport.health()] if transport else [],
            cache_status=cache_status,
        )

    def explain_union(self, view_name: str) -> "QueryPlan":
        """Describe how a union-view materialization would be served.

        The union counterpart of :meth:`explain`: reports the fan-out
        shape, per-source transport health, and -- with a configured
        cache -- what the materialized-view cache would do right now
        (``hit``, ``delta``, ``recompute``, or ``cold``) without
        touching any source or mutating the cache.
        """
        registration = self._union_view(view_name)
        scope = None
        if not obs.enabled():
            scope = obs.traced(clock=self.clock)
            scope.__enter__()
        try:
            with obs.span("mediator.explain") as sp:
                sp.set_attribute("view", view_name)
                cache_status = "off"
                if self.matview is not None:
                    cache_status = self.matview.peek(
                        self._union_cache_key(registration),
                        self._union_cache_legs(registration),
                    )
                sp.set_attribute("cache", cache_status)
                plan = QueryPlan(
                    view_name=view_name,
                    classification=None,
                    pruned_nodes=0,
                    strategy="union-fanout",
                    composed_query=None,
                    effective_query=None,
                    source_health=[
                        self.transports[name].health()
                        for name in registration.source_names
                    ],
                    cache_status=cache_status,
                )
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
        plan.trace_lines = sp.render().splitlines()
        return plan

    # -- union views -------------------------------------------------------

    def register_union_view(
        self, queries: list[Query], view_name: str
    ) -> "UnionViewRegistration":
        """Register a view unioning picks from several sources.

        Each query's ``source`` field names its source.  The combined
        view DTD is inferred per branch and merged (name collisions
        across sources become specializations -- see
        :mod:`repro.inference.union`).
        """
        from ..inference.union import UnionBranch, infer_union_view_dtd

        if view_name in self.views or view_name in self.union_views:
            raise MediatorError(f"view {view_name!r} already registered")
        branches: list[UnionBranch] = []
        source_names: list[str] = []
        for query in queries:
            if query.source is None:
                raise MediatorError(
                    "every union branch must name its source"
                )
            if query.source not in self.sources:
                raise MediatorError(f"unknown source {query.source!r}")
            branches.append(
                UnionBranch(self.sources[query.source].dtd, query)
            )
            source_names.append(query.source)
            compile_query(query)  # warm the plan cache for serving
        inference = infer_union_view_dtd(branches, view_name, self.mode)
        registration = UnionViewRegistration(
            view_name, branches, source_names, inference
        )
        self.union_views[view_name] = registration
        return registration

    def _union_cache_key(
        self, registration: "UnionViewRegistration"
    ) -> tuple:
        if registration._cache_key is None:
            registration._cache_key = (
                "union",
                registration.name,
                tuple(
                    query_signature(branch.query)
                    for branch in registration.branches
                ),
            )
        return registration._cache_key

    def _union_cache_legs(
        self, registration: "UnionViewRegistration"
    ) -> tuple[CacheLeg, ...]:
        legs = self._union_legs.get(registration.name)
        if legs is None:
            legs = tuple(
                CacheLeg(source_name, self.sources[source_name], branch.query)
                for branch, source_name in zip(
                    registration.branches, registration.source_names
                )
            )
            self._union_legs[registration.name] = legs
        return legs

    def union_cached(self, view_name: str) -> bool:
        """True when :meth:`materialize_union` would answer
        ``view_name`` from the cache right now, evaluating nothing.

        A non-mutating peek (unknown views and cacheless mediators say
        False); a mutation between this call and the materialization
        can still turn the answer into a delta or a miss.
        """
        registration = self.union_views.get(view_name)
        if registration is None or self.matview is None:
            return False
        verdict = self.matview.peek(
            self._union_cache_key(registration),
            self._union_cache_legs(registration),
        )
        return verdict == "hit"

    def materialize_union(
        self,
        view_name: str,
        deadline: Deadline | None = None,
        degrade: bool = True,
        cache: bool = True,
    ) -> Answer:
        """Evaluate a union view across its sources (fault-tolerant).

        Each branch is one leg of a :func:`scatter_gather` through its
        source's transport; all legs share ``deadline``.  With a
        :class:`FanoutPolicy` configured the legs run concurrently on
        the mediator's
        :class:`~repro.mediator.parallel.ParallelTransport` — a union
        over N sources costs the max, not the sum, of their latencies —
        otherwise inline, in branch order.  Either way the answer
        (picks in branch order), its report, and the ``degrade=False``
        error (the first failing branch in branch order) are the same.

        When a leg fails permanently and ``degrade`` is true, its
        branch is skipped and the *partial* answer — the surviving
        branches' picks, in branch order — is returned, its report
        naming the skipped source.  A sharded source that released a
        partial gather counts the same way: its skipped shards are
        lifted into the report under ``MED008``.  A degraded answer is
        validated against the inferred union view DTD first: if
        dropping the leg would make the answer violate the view DTD the
        mediator raises :class:`DegradedAnswer` rather than return an
        unsound document (the soundness argument is spelled out in
        docs/RELIABILITY.md).

        With a configured :class:`MatViewCache` (``Mediator(cache=...)``),
        repeat materializations of an unchanged federation are served
        from the cache without touching any source, and a mutation
        localized to one source document is delta-spliced instead of
        recomputed; ``cache=False`` bypasses the cache for this one
        request (``MED006``).  The answer's ``cache`` field says which.
        Degraded answers are never cached.  See docs/PERFORMANCE.md.
        """
        registration = self._union_view(view_name)
        status = self._cache_status(cache)
        token = None
        if status is None:
            assert self.matview is not None
            outcome = self.matview.probe(
                self._union_cache_key(registration),
                view_name,
                registration.dtd,
                self._union_cache_legs(registration),
            )
            if outcome.answer is not None:
                return outcome.answer
            status, token = "miss", outcome.token
        with obs.span("mediator.materialize_union") as sp:
            sp.set_attribute("view", view_name)
            sp.set_attribute("sources", len(registration.source_names))
            answer, results = scatter_gather(
                self.parallel,
                [
                    (self.transports[source_name], branch.query)
                    for branch, source_name in zip(
                        registration.branches, registration.source_names
                    )
                ],
                deadline,
                view_name,
            )
            report = answer.report
            assert report is not None
            first_error = next(
                (r.error for r in results if r.error is not None), None
            )
            if first_error is not None and not degrade:
                raise first_error
            sp.set_attribute("degraded", report.degraded)
            sp.set_attribute("answered", len(report.answered))
            sp.set_attribute("skipped", len(report.skipped))
            if report.degraded:
                report.answer_valid = validate_document(
                    answer, registration.dtd
                ).ok
                sp.set_attribute("answer_valid", report.answer_valid)
                if not report.answer_valid:
                    raise DegradedAnswer(
                        f"view {view_name!r}: skipping "
                        f"{sorted(report.skipped)} leaves an answer that "
                        "violates the inferred view DTD; refusing to degrade",
                        document=answer,
                        report=report,
                    ) from first_error
                self._count(degraded_answers=1)
            elif token is not None:
                assert self.matview is not None
                self.matview.store(
                    token,
                    answer,
                    [result.answer.provenance for result in results],
                )
        answer.cache = status
        return answer

    def _union_view(self, view_name: str) -> "UnionViewRegistration":
        try:
            return self.union_views[view_name]
        except KeyError:
            raise MediatorError(f"unknown union view {view_name!r}")

    def _view(self, view_name: str) -> ViewRegistration:
        try:
            return self.views[view_name]
        except KeyError:
            raise MediatorError(f"unknown view {view_name!r}")
