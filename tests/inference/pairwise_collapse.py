"""The original pivot-scan collapse: the signature partition's oracle.

Each refinement round scans a class's members and compares each
against the pivot of every bucket so far with
:func:`tests.regex.pairwise_equivalence.is_equivalent_pairwise` --
O(n^2) product automata per round, and no canonical signatures.
"""

from __future__ import annotations

from repro.dtd import Pcdata, SpecializedDtd, TaggedName
from repro.inference.collapse import (
    _classes_to_result,
    _collapse_by,
    _initial_classes,
    _rep_map,
)
from repro.regex import Sym, rename
from tests.regex.pairwise_equivalence import is_equivalent_pairwise


def _split_pairwise(
    sdtd: SpecializedDtd,
    members: list[TaggedName],
    rep_map: dict[TaggedName, Sym],
) -> list[list[TaggedName]]:
    """One refinement step: compare against pivots."""
    buckets: list[tuple[object, list[TaggedName]]] = []
    for key in members:
        content = sdtd.types[key]
        if not isinstance(content, Pcdata):
            content = rename(content, rep_map)
        for pivot, bucket in buckets:
            if isinstance(content, Pcdata) and isinstance(pivot, Pcdata):
                bucket.append(key)
                break
            if (
                not isinstance(content, Pcdata)
                and not isinstance(pivot, Pcdata)
                and is_equivalent_pairwise(content, pivot)
            ):
                bucket.append(key)
                break
        else:
            buckets.append((content, [key]))
    return [bucket for _, bucket in buckets]


def compute_equivalence_pairwise(
    sdtd: SpecializedDtd,
) -> dict[TaggedName, TaggedName]:
    """``compute_equivalence`` with the pivot-scan refinement."""
    classes = _initial_classes(sdtd)
    while True:
        rep_map = _rep_map(classes)
        refined: list[list[TaggedName]] = []
        for members in classes:
            refined.extend(
                [members]
                if len(members) == 1
                else _split_pairwise(sdtd, members, rep_map)
            )
        if len(refined) == len(classes):
            return _classes_to_result(classes)
        classes = refined


def collapse_pairwise(sdtd: SpecializedDtd):
    """``collapse_equivalent`` over the pivot-scan partition."""
    return _collapse_by(sdtd, compute_equivalence_pairwise(sdtd))
