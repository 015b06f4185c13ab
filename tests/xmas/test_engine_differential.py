"""Differential tests: the query engine vs. the legacy tree matcher.

The legacy backtracking matcher (``tests/xmas/legacy_evaluator.py``)
is the oracle: on random documents and random pick-element queries
(wildcards, disjunctions, PCDATA conditions, recursive steps, extra
variables, ID inequalities) the engine must produce *identical* view
documents -- same pick elements, same document order, same copied
structure.  The ``non_projectable`` strategy forces every query into
the engine's enumeration mode, which the default strategy reaches
only rarely.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.xmas import (
    bindings,
    compile_query,
    compiled_picked_elements,
    evaluate,
    picked_elements,
)
from repro.xmas.engine import position_bindings
from tests.strategies import document_strategy, eval_query_strategy
from tests.xmas.legacy_evaluator import (
    legacy_bindings,
    legacy_evaluate_many,
    legacy_picked_elements,
)


@settings(max_examples=200, deadline=None)
@given(document=document_strategy(), query=eval_query_strategy())
def test_picked_elements_agree(document, query):
    """Same pick ids, same order -- the strongest agreement check."""
    legacy = legacy_picked_elements(query, document)
    compiled = compiled_picked_elements(query, document)
    assert [e.id for e in compiled] == [e.id for e in legacy]


@settings(max_examples=100, deadline=None)
@given(document=document_strategy(), query=eval_query_strategy())
def test_view_documents_agree(document, query):
    """The constructed views agree in structure and order (fresh IDs
    legitimately differ)."""
    legacy_view = legacy_evaluate_many(query, [document])
    assert evaluate(query, document).root.structurally_equal(legacy_view.root)


@settings(max_examples=100, deadline=None)
@given(query=eval_query_strategy())
def test_plan_compilation_idempotent(query):
    """Compiling twice returns the cached plan; recompiling from a
    cleared cache yields an equal plan (compilation is deterministic)."""
    from repro.regex import clear_caches

    first = compile_query(query)
    assert compile_query(query) is first
    clear_caches()
    again = compile_query(query)
    assert again == first


@settings(max_examples=250, deadline=None)
@given(
    document=document_strategy(),
    query=eval_query_strategy(non_projectable=True),
)
def test_enumerated_picks_agree(document, query):
    """Repeated variables and on-path inequalities: enumeration mode."""
    assert not compile_query(query).projectable
    legacy = legacy_picked_elements(query, document)
    assert [e.id for e in picked_elements(query, document)] == [
        e.id for e in legacy
    ]


def _position_rows(envs, document) -> set[tuple]:
    position = {element.id: pos for pos, element in enumerate(document.iter())}
    return {
        tuple(sorted((var, position[element.id]) for var, element in env.items()))
        for env in envs
    }


@settings(max_examples=250, deadline=None)
@given(
    document=document_strategy(),
    query=eval_query_strategy(non_projectable=True),
)
def test_enumerated_bindings_agree(document, query):
    """CONSTRUCT's binding environments, as sets of position tuples."""
    expected = _position_rows(legacy_bindings(query, document), document)
    rows = {
        tuple(sorted(env.items()))
        for env in position_bindings(query, document)
    }
    assert rows == expected
    assert _position_rows(bindings(query, document), document) == expected


@settings(max_examples=100, deadline=None)
@given(document=document_strategy(), query=eval_query_strategy())
def test_projectable_bindings_agree(document, query):
    """The enumerator also serves projectable plans (CONSTRUCT does)."""
    rows = {
        tuple(sorted(env.items()))
        for env in position_bindings(query, document)
    }
    assert rows == _position_rows(legacy_bindings(query, document), document)
