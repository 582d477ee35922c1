"""Rendering K-UXML values as text.

Two formats are supported:

* **paper notation** — a compact, deterministic, single-line rendering close
  to the figures in the paper: ``a^{z}[ b^{x1}[ d^{y1} ] c^{x2}[ d^{y2} e^{y3} ] ]``.
  Annotations equal to ``1`` are omitted (the paper's convention); children are
  sorted canonically so that equal values always render identically.
* **XML** — standard XML text with annotations stored in an attribute
  (default ``annot``), the inverse of :mod:`repro.uxml.parser`.
"""

from __future__ import annotations

from typing import Any

from repro.kcollections.kset import KSet
from repro.uxml.tree import UTree

__all__ = ["to_paper_notation", "to_xml", "forest_to_xml"]


# ``xml.sax.saxutils`` has both, but importing it loads ``urllib.request``,
# ``http.client`` and ``email``, which every ``repro`` command would pay for.
def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>``; byte-identical to ``xml.sax.saxutils.escape``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """Escape and quote an attribute value; byte-identical to
    ``xml.sax.saxutils.quoteattr``."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _render_tree(tree: UTree, annotation_text: str | None) -> str:
    suffix = f"^{{{annotation_text}}}" if annotation_text is not None else ""
    if tree.is_leaf():
        return f"{tree.label}{suffix}"
    children = _render_members(tree.children)
    return f"{tree.label}{suffix}[ {children} ]"


def _render_members(collection: KSet) -> str:
    semiring = collection.semiring
    rendered = []
    for tree, annotation in collection.items():
        text = None if semiring.is_one(annotation) else semiring.repr_element(annotation)
        rendered.append(_render_tree(tree, text))
    return " ".join(sorted(rendered))


def to_paper_notation(value: UTree | KSet) -> str:
    """Render a tree or a K-set of trees in the compact paper-like notation."""
    if isinstance(value, UTree):
        return _render_tree(value, None)
    if isinstance(value, KSet):
        return "( " + _render_members(value) + " )" if len(value) else "( )"
    raise TypeError(f"cannot render {value!r} as UXML")


def _tree_to_xml(tree: UTree, annotation: Any | None, annot_attr: str, indent: str, level: int) -> str:
    semiring = tree.semiring
    pad = indent * level
    attrs = ""
    if annotation is not None and not semiring.is_one(annotation):
        attrs = f" {annot_attr}={quoteattr(semiring.repr_element(annotation))}"
    if tree.is_leaf():
        return f"{pad}<{escape(tree.label)}{attrs}/>"
    rendered_children = sorted(
        _tree_to_xml(child, child_annotation, annot_attr, indent, level + 1)
        for child, child_annotation in tree.children.items()
    )
    body = "\n".join(rendered_children)
    return (
        f"{pad}<{escape(tree.label)}{attrs}>\n{body}\n{pad}</{escape(tree.label)}>"
    )


def to_xml(tree: UTree, annotation: Any | None = None, annot_attr: str = "annot", indent: str = "  ") -> str:
    """Render a single tree as XML text.

    ``annotation`` is the annotation the tree carries as a member of its
    enclosing K-set (written on the root element); pass ``None`` (or ``1``)
    to omit it.
    """
    return _tree_to_xml(tree, annotation, annot_attr, indent, 0)


def forest_to_xml(collection: KSet, root_label: str = "forest", annot_attr: str = "annot", indent: str = "  ") -> str:
    """Render a K-set of trees as an XML document with a synthetic root element."""
    rendered = sorted(
        _tree_to_xml(tree, annotation, annot_attr, indent, 1)
        for tree, annotation in collection.items()
    )
    body = "\n".join(rendered)
    if not body:
        return f"<{root_label}/>"
    return f"<{root_label}>\n{body}\n</{root_label}>"
