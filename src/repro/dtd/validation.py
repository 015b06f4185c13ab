"""Validation: does a document satisfy a (specialized) DTD?

* :func:`validate_element` / :func:`validate_document` implement
  ``e |= D`` of Definition 2.3 and produce a report with the precise
  location of every violation.
* :func:`satisfies_sdtd` implements s-DTD satisfaction.  Definition
  3.10 as literally written checks only the *image* of each content
  model, which would make specialization tags vacuous; we implement the
  intended tree-automaton semantics -- there must exist an assignment
  of tags to every element such that each element's tagged child
  sequence is in the tagged content model of its assigned
  specialization -- computed bottom-up over sets of admissible tags.
  The literal reading is also available as :func:`satisfies_sdtd_image`
  so the difference can be demonstrated (see DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..regex import Regex, to_dfa
from ..xmlmodel import Document, Element
from .dtd import Dtd, Pcdata
from .sdtd import SpecializedDtd, format_tagged


@dataclass
class Violation:
    """A single validation failure, with the element path for debugging."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    """Outcome of a validation run."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, path: str, message: str) -> None:
        self.violations.append(Violation(path, message))

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate_element(element: Element, dtd: Dtd) -> ValidationReport:
    """Check ``element |= dtd`` per Definition 2.3; full report.

    Iterative (explicit stack, document order), so recursive-chain
    documents nested deeper than the interpreter's recursion limit
    validate too.  A node's path string is built only when it has a
    violation to report: the paths of a deep chain grow quadratically.
    """
    report = ValidationReport()
    # (element, path): ``path`` is a ``(parent_path, name, index)``
    # link, ``index`` None at the root
    stack: list[tuple[Element, tuple]] = [
        (element, ((), element.name, None))
    ]
    while stack:
        node, path = stack.pop()
        if node.name not in dtd:
            report.add(
                _path_text(path),
                f"element name {node.name!r} is not declared",
            )
            continue
        declared = dtd.type_of(node.name)
        if node.is_pcdata:
            if not isinstance(declared, Pcdata):
                report.add(
                    _path_text(path),
                    f"character content but {node.name!r} is declared "
                    f"with a content model",
                )
            continue
        if isinstance(declared, Pcdata):
            # Definition 2.3 demands string content for PCDATA types; an
            # element-content node (even with zero children) violates it.
            report.add(
                _path_text(path),
                f"element content but {node.name!r} is declared #PCDATA",
            )
            continue
        children = node.children
        word = [(child.name, 0) for child in children]
        if not to_dfa(declared).accepts(word):
            found = ", ".join(child.name for child in children) or "(empty)"
            report.add(
                _path_text(path),
                f"children [{found}] do not match content model of "
                f"{node.name!r}",
            )
        for index in range(len(children) - 1, -1, -1):
            child = children[index]
            stack.append((child, (path, child.name, index)))
    return report


def _path_text(path: tuple) -> str:
    """``root/child[i]/...`` from a ``(parent_path, name, index)`` chain."""
    steps: list[str] = []
    while path:
        path, name, index = path
        steps.append(name if index is None else f"{name}[{index}]")
    return "/".join(reversed(steps))


def validate_document(document: Document, dtd: Dtd) -> ValidationReport:
    """Check a whole document: root type, unique IDs, ``|=``, and --
    when the DTD declares ATTLISTs -- the Appendix A attribute rules."""
    report = ValidationReport()
    if dtd.root is not None and document.root_type != dtd.root:
        report.add(
            document.root_type,
            f"document type is {document.root_type!r}, DTD requires {dtd.root!r}",
        )
    for duplicate in document.check_unique_ids():
        report.add(document.root_type, f"duplicate ID {duplicate!r}")
    inner = validate_element(document.root, dtd)
    report.violations.extend(inner.violations)
    if dtd.attributes:
        from .attributes import validate_attributes

        attr_report = validate_attributes(document, dtd.attributes)
        report.violations.extend(attr_report.violations)
    return report


def require_valid(document: Document, dtd: Dtd) -> None:
    """Raise :class:`ValidationError` unless the document is valid."""
    report = validate_document(document, dtd)
    if not report.ok:
        raise ValidationError(str(report))


# ---------------------------------------------------------------------------
# Specialized DTD satisfaction (tree-automaton semantics)
# ---------------------------------------------------------------------------


def admissible_tags(element: Element, sdtd: SpecializedDtd) -> frozenset[int]:
    """The set of tags ``i`` such that the subtree can be typed as ``n^i``.

    Bottom-up: compute each child's admissible tag set, then test the
    tagged content model by simulating its Glushkov DFA where at each
    child position any admissible tagged letter may be consumed.
    """
    child_sets: list[frozenset[int]] = [
        admissible_tags(child, sdtd) for child in element.children
    ]
    result: set[int] = set()
    for name, tag in sdtd.specializations(element.name):
        content = sdtd.types[(name, tag)]
        if element.is_pcdata:
            if isinstance(content, Pcdata):
                result.add(tag)
            continue
        if isinstance(content, Pcdata):
            continue
        if _children_can_match(element, child_sets, content):
            result.add(tag)
    return frozenset(result)


def _children_can_match(
    element: Element,
    child_sets: list[frozenset[int]],
    content: Regex,
) -> bool:
    """NFA-over-sets simulation: can the children be tagged to match?"""
    dfa = to_dfa(content)
    states: set[int] = {dfa.start}
    for child, tags in zip(element.children, child_sets):
        next_states: set[int] = set()
        for state in states:
            for tag in tags:
                target = dfa.step(state, (child.name, tag))
                if target is not None:
                    next_states.add(target)
        if not next_states:
            return False
        states = next_states
    return any(state in dfa.accepting for state in states)


def satisfies_sdtd(element: Element, sdtd: SpecializedDtd) -> bool:
    """s-DTD satisfaction under tree-automaton semantics.

    True when some consistent assignment of specialization tags to the
    whole subtree exists, with the root assigned the s-DTD's root
    specialization (or any specialization of the root name when the
    s-DTD's root is None).
    """
    tags = admissible_tags(element, sdtd)
    if sdtd.root is None:
        return bool(tags)
    root_name, root_tag = sdtd.root
    return element.name == root_name and root_tag in tags


def satisfies_sdtd_image(element: Element, sdtd: SpecializedDtd) -> bool:
    """Definition 3.10 read literally: per-element image check only.

    Each element needs *some* specialization of its name whose content
    model's image accepts the children's (untagged) names; tags impose
    no cross-level consistency.  Provided to demonstrate why the
    literal reading is too weak (tests assert it accepts documents the
    tree-automaton semantics rejects).
    """
    from ..regex import image as regex_image

    if element.name not in sdtd.base_names:
        return False
    matched = False
    for key in sdtd.specializations(element.name):
        content = sdtd.types[key]
        if element.is_pcdata:
            if isinstance(content, Pcdata):
                matched = True
                break
            continue
        if isinstance(content, Pcdata):
            continue
        word = [(child.name, 0) for child in element.children]
        if to_dfa(regex_image(content)).accepts(word):
            matched = True
            break
    if not matched:
        return False
    return all(satisfies_sdtd_image(child, sdtd) for child in element.children)


def validate_sdtd(element: Element, sdtd: SpecializedDtd) -> ValidationReport:
    """Report-producing wrapper around :func:`satisfies_sdtd`.

    Reports the shallowest elements whose subtree admits no
    specialization (an element may be locally fine but fail because of
    its descendants; we point at the smallest failing subtree).
    """
    report = ValidationReport()
    _locate_sdtd_failures(element, sdtd, element.name, report)
    if report.ok and not satisfies_sdtd(element, sdtd):
        root_req = format_tagged(sdtd.root) if sdtd.root else "(any)"
        report.add(
            element.name,
            f"root cannot be typed as {root_req}",
        )
    return report


def _locate_sdtd_failures(
    element: Element,
    sdtd: SpecializedDtd,
    path: str,
    report: ValidationReport,
) -> None:
    if admissible_tags(element, sdtd):
        return
    children_ok = all(
        admissible_tags(child, sdtd) for child in element.children
    )
    if children_ok:
        report.add(
            path,
            f"no specialization of {element.name!r} types this subtree",
        )
        return
    for index, child in enumerate(element.children):
        _locate_sdtd_failures(
            child, sdtd, f"{path}/{child.name}[{index}]", report
        )
