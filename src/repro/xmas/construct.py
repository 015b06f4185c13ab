"""CONSTRUCT queries -- the "Structuring" in XML Matching And Structuring.

The paper's inference covers pick-element queries only; full XMAS (like
XML-QL) can *restructure*: build new elements from the bound variables
of each match.  This module implements a well-defined CONSTRUCT subset
-- one template instantiated once per distinct binding projection --
and :mod:`repro.inference.construct` extends the view-DTD inference to
it (the "more powerful view definition languages" direction the paper
anticipates for its quality framework).

Syntax::

    pairs =
      CONSTRUCT <pair> $F $L </pair>
      WHERE <department>
              <professor> F:<firstName/> L:<lastName/> </>
            </>

Template grammar: elements contain nested template elements, ``$VAR``
slots (deep copies of the bound element), or one quoted text literal
(``"..."``).  Semantics: enumerate the WHERE bindings, project onto
the template's variables, de-duplicate, order rows by the document
positions of the bound elements (lexicographically, in template
variable order), and instantiate the template once per row.  The view
document's root is named after the view and holds the rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import QueryAnalysisError
from ..xmlmodel import Document, Element, fresh_id
from ..xmlmodel.index import document_index
from .ast import Condition, Query
from .engine import position_bindings
from .parser import _Scanner, _parse_condition


@dataclass(frozen=True)
class Slot:
    """``$VAR``: a copy of the element bound to ``variable``."""

    variable: str


@dataclass(frozen=True)
class Text:
    """A quoted text literal producing PCDATA content."""

    value: str


@dataclass(frozen=True)
class Template:
    """A constructor element.

    ``children`` holds nested :class:`Template` / :class:`Slot` items,
    or exactly one :class:`Text` (no mixed content, matching the
    model).
    """

    name: str
    children: tuple["Template | Slot | Text", ...] = ()

    def __post_init__(self) -> None:
        texts = [c for c in self.children if isinstance(c, Text)]
        if texts and len(self.children) != 1:
            raise QueryAnalysisError(
                f"template <{self.name}> mixes text with other content"
            )

    def variables(self) -> tuple[str, ...]:
        """Slot variables, left-to-right, first occurrence only."""
        seen: list[str] = []

        def visit(node: "Template | Slot | Text") -> None:
            if isinstance(node, Slot):
                if node.variable not in seen:
                    seen.append(node.variable)
            elif isinstance(node, Template):
                for child in node.children:
                    visit(child)

        visit(self)
        return tuple(seen)

    def template_names(self) -> frozenset[str]:
        """All constructor element names in the template."""
        names = {self.name}
        for child in self.children:
            if isinstance(child, Template):
                names |= child.template_names()
        return frozenset(names)


@dataclass(frozen=True)
class ConstructQuery:
    """A CONSTRUCT query: template + tree condition + inequalities."""

    view_name: str
    template: Template
    root: Condition
    inequalities: frozenset[frozenset[str]] = frozenset()
    source: str | None = None

    def __post_init__(self) -> None:
        bound = self.root.variables()
        missing = [v for v in self.template.variables() if v not in bound]
        if missing:
            raise QueryAnalysisError(
                f"template uses unbound variables {missing} "
                f"(bound: {sorted(bound)})"
            )
        if not self.template.variables():
            raise QueryAnalysisError(
                "template binds no variables; the view would repeat one "
                "constant row"
            )

    def as_pick_query(self) -> Query:
        """A pick-element facade over the same WHERE clause.

        The tightening algorithm only needs the condition tree; any
        template variable serves as the nominal pick.
        """
        return Query(
            self.view_name,
            self.template.variables()[0],
            self.root,
            self.inequalities,
            self.source,
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


def _parse_template(scanner: _Scanner) -> Template:
    scanner.expect("<")
    name = scanner.read_word()
    scanner.skip_ws()
    if scanner.try_take("/>"):
        return Template(name, ())
    scanner.expect(">")
    children: list[Template | Slot | Text] = []
    while True:
        scanner.skip_ws()
        if scanner.at_end():
            raise scanner.error(f"unterminated template <{name}>")
        if scanner.text.startswith("</", scanner.pos):
            scanner.pos += 2
            scanner.skip_ws()
            if not scanner.try_take(">"):
                scanner.read_word()
                scanner.expect(">")
            break
        if scanner.text.startswith("<", scanner.pos):
            children.append(_parse_template(scanner))
            continue
        if scanner.text.startswith("$", scanner.pos):
            match = _VAR_RE.match(scanner.text, scanner.pos)
            if not match:
                raise scanner.error("expected a variable name after '$'")
            scanner.pos = match.end()
            children.append(Slot(match.group(1)))
            continue
        if scanner.text.startswith('"', scanner.pos):
            end = scanner.text.find('"', scanner.pos + 1)
            if end < 0:
                raise scanner.error("unterminated string literal")
            children.append(Text(scanner.text[scanner.pos + 1:end]))
            scanner.pos = end + 1
            continue
        raise scanner.error(
            "expected a nested template, $variable, or \"text\""
        )
    try:
        return Template(name, tuple(children))
    except QueryAnalysisError as error:
        raise scanner.error(str(error))


def parse_construct_query(text: str, source: str | None = None) -> ConstructQuery:
    """Parse a CONSTRUCT query."""
    scanner = _Scanner(text)
    view_name = "answer"
    first = scanner.peek_word()
    if first and first.upper() != "CONSTRUCT":
        saved = scanner.pos
        word = scanner.read_word()
        if scanner.try_take("="):
            view_name = word
        else:
            scanner.pos = saved
    keyword = scanner.read_word()
    if keyword.upper() != "CONSTRUCT":
        raise scanner.error("expected CONSTRUCT")
    template = _parse_template(scanner)
    keyword = scanner.read_word()
    if keyword.upper() != "WHERE":
        raise scanner.error("expected WHERE")
    root = _parse_condition(scanner)
    inequalities: set[frozenset[str]] = set()
    while not scanner.at_end():
        keyword = scanner.read_word()
        if keyword.upper() != "AND":
            raise scanner.error(f"expected AND, found {keyword!r}")
        left = scanner.read_word()
        scanner.expect("!=")
        right = scanner.read_word()
        if left == right:
            raise scanner.error(
                f"inequality {left} != {right} is trivially false"
            )
        inequalities.add(frozenset((left, right)))
    try:
        return ConstructQuery(
            view_name, template, root, frozenset(inequalities), source
        )
    except QueryAnalysisError as error:
        raise scanner.error(str(error))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _instantiate(
    node: Template | Slot | Text, row: dict[str, Element]
) -> Element:
    if isinstance(node, Slot):
        return row[node.variable].deep_copy(fresh_ids=True)
    if isinstance(node, Text):  # pragma: no cover - guarded by Template
        raise AssertionError("Text handled by the parent template")
    if len(node.children) == 1 and isinstance(node.children[0], Text):
        return Element(node.name, node.children[0].value, fresh_id())
    return Element(
        node.name,
        [_instantiate(child, row) for child in node.children],
        fresh_id(),
    )


def evaluate_construct(query: ConstructQuery, document: Document) -> Document:
    """Run a CONSTRUCT query over one document."""
    variables = query.template.variables()
    rows = {
        tuple(env[variable] for variable in variables)
        for env in position_bindings(query.as_pick_query(), document)
    }
    index = document_index(document)
    children = [
        _instantiate(
            query.template,
            {v: index.element_at(pos) for v, pos in zip(variables, row)},
        )
        for row in sorted(rows)
    ]
    return Document(Element(query.view_name, children, fresh_id()))


def evaluate_construct_many(
    query: ConstructQuery, documents: list[Document]
) -> Document:
    """Run a CONSTRUCT query over several documents (rows concatenate)."""
    children: list[Element] = []
    for document in documents:
        result = evaluate_construct(query, document)
        children.extend(result.root.children)
    return Document(Element(query.view_name, children, fresh_id()))
