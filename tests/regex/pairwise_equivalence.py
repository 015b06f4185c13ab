"""Pairwise language equivalence: the signature kernel's test oracle.

Decides equality of two languages the textbook way -- emptiness of
the symmetric-difference product of their automata -- built fresh per
call from :func:`repro.regex.dfa.dfa_from_regex`, sharing none of the
kernel's signatures, union-find or caches.
"""

from __future__ import annotations

from repro.regex import Regex
from repro.regex.dfa import dfa_from_regex, product, with_alphabet


def is_equivalent_pairwise(left: Regex, right: Regex) -> bool:
    """``L(left) == L(right)`` by the symmetric-difference product."""
    letters = left.letters | right.letters
    a = with_alphabet(dfa_from_regex(left), letters)
    b = with_alphabet(dfa_from_regex(right), letters)
    return product(a, b, lambda x, y: x != y).is_empty()
