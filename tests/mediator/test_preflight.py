"""Tests for the mediator's static pre-flight (the lint hook).

The headline guarantee: a query with a provably unsatisfiable pick
path performs *zero* source fan-outs -- the mediator answers with the
empty view straight from the diagnostics.
"""

import random

import pytest

from repro.dtd import dtd, generate_document
from repro.mediator import Mediator, Source
from repro.xmas import parse_query

VIEW = "withJournals = SELECT X WHERE X:<professor><journal/></professor>"

#: `name` is PCDATA in the view DTD: demanding a child of it is dead
DEAD = "SELECT Y WHERE Y:<withJournals><name><journal/></name></withJournals>"

SAT = "SELECT Y WHERE Y:<withJournals><professor/></withJournals>"


def professors_dtd():
    return dtd(
        {
            "professor": "name, (journal | conference)*",
            "name": "#PCDATA",
            "journal": "#PCDATA",
            "conference": "#PCDATA",
        },
        root="professor",
    )


@pytest.fixture
def source():
    rng = random.Random(11)
    docs = [
        generate_document(professors_dtd(), rng, star_mean=1.5)
        for _ in range(3)
    ]
    return Source("profs", professors_dtd(), docs)


@pytest.fixture
def mediator(source):
    med = Mediator("mix")
    med.add_source(source)
    med.register_view(parse_query(VIEW), "profs")
    return med


class TestPreflightRejection:
    def test_unsatisfiable_query_skips_all_fanouts(self, mediator, source):
        answer = mediator.query_view(parse_query(DEAD), "withJournals")
        assert answer.root.content == []
        assert source.queries_served == 0
        assert mediator.stats.preflight_rejections == 1
        assert mediator.stats.fanouts_skipped == 1
        assert mediator.stats.answered_without_source == 1

    def test_rejection_report_is_inspectable(self, mediator):
        answer = mediator.query_view(parse_query(DEAD), "withJournals")
        assert answer.root.content == []
        report = mediator.preflight(parse_query(DEAD), "withJournals")
        assert report.has_errors
        assert "MIX101" in report.codes()

    def test_preflight_method_alone_touches_no_source(self, mediator, source):
        report = mediator.preflight(parse_query(DEAD), "withJournals")
        assert report.has_errors
        assert source.queries_served == 0
        assert mediator.stats.queries == 0  # inspection, not answering


class TestPreflightPassThrough:
    def test_satisfiable_query_fans_out_once(self, mediator, source):
        answer = mediator.query_view(parse_query(SAT), "withJournals")
        assert source.queries_served == 1
        assert answer.root.name == "answer"
        assert mediator.stats.preflight_rejections == 0
        assert mediator.stats.fanouts_skipped == 0

    def test_preflight_shares_its_tighten_run(self, mediator, monkeypatch):
        from repro.mediator import mediator as mediator_module

        handed = []
        simplify = mediator_module.simplify_query

        def spy(query, dtd, mode, tightening=None):
            handed.append(tightening)
            return simplify(query, dtd, mode, tightening=tightening)

        monkeypatch.setattr(mediator_module, "simplify_query", spy)
        mediator.query_view(parse_query(SAT), "withJournals")
        # the simplifier consumed the pre-flight's run, so no second
        # classification happened
        assert len(handed) == 1 and handed[0] is not None

    def test_preflight_can_be_disabled(self, mediator, source):
        mediator.query_view(
            parse_query(DEAD), "withJournals", preflight=False
        )
        # the simplifier still catches the dead query downstream
        assert source.queries_served == 0
        assert mediator.stats.preflight_rejections == 0
        assert mediator.stats.answered_without_source == 1

    def test_no_simplifier_means_no_preflight(self, mediator, monkeypatch):
        import repro.lint

        linted = []
        lint_query = repro.lint.lint_query
        monkeypatch.setattr(
            repro.lint,
            "lint_query",
            lambda *args, **kwargs: linted.append(args)
            or lint_query(*args, **kwargs),
        )
        mediator.query_view(
            parse_query(SAT), "withJournals", use_simplifier=False
        )
        assert mediator.stats.preflight_rejections == 0
        assert linted == []


class TestConcurrentPreflight:
    def test_each_query_simplifies_with_its_own_tighten_run(
        self, mediator, monkeypatch
    ):
        """Concurrent queries never share a pre-flight Tighten run.

        Thread A (a satisfiable query) is held at its first mediator
        attribute read after its pre-flight lint returns, until thread
        B (a provably dead query) has linted too.  A Tighten run left
        in shared mediator state would then be B's, and A -- simplified
        as unsatisfiable -- would come back empty.
        """
        import threading

        import repro.lint
        from repro.mediator import Mediator

        solo = mediator.query_view(parse_query(SAT), "withJournals")
        assert solo.root.content
        a_linted = threading.Event()
        b_linted = threading.Event()
        state = threading.local()
        lint_query = repro.lint.lint_query

        def lint_in_order(*args, **kwargs):
            if threading.current_thread().name == "B":
                a_linted.wait(5.0)
            report = lint_query(*args, **kwargs)
            state.linted = True
            if threading.current_thread().name == "A":
                a_linted.set()
            return report

        def getattribute(self, name):
            if getattr(state, "linted", False):
                state.linted = False
                if threading.current_thread().name == "A":
                    b_linted.wait(5.0)
                else:
                    b_linted.set()
            return object.__getattribute__(self, name)

        monkeypatch.setattr(repro.lint, "lint_query", lint_in_order)
        monkeypatch.setattr(Mediator, "__getattribute__", getattribute)
        answers = {}

        def ask(name, text):
            answers[name] = mediator.query_view(
                parse_query(text), "withJournals"
            )

        threads = [
            threading.Thread(target=ask, args=("A", SAT), name="A"),
            threading.Thread(target=ask, args=("B", DEAD), name="B"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert answers["A"].root.structurally_equal(solo.root)
        assert answers["B"].root.content == []
