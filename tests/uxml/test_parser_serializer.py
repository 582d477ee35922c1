"""Parsing and serializing annotated XML documents."""

from __future__ import annotations

import pytest

from repro.errors import UXMLParseError
from repro.semirings import BOOLEAN, CLEARANCE, NATURAL, PROVENANCE, Polynomial
from repro.uxml import (
    TreeBuilder,
    forest_to_xml,
    parse_document,
    parse_forest,
    parse_tree,
    to_paper_notation,
    to_xml,
)

FIGURE1_XML = """
<a annot="z">
  <b annot="x1"> <d annot="y1"/> </b>
  <c annot="x2"> <d annot="y2"/> <e annot="y3"/> </c>
</a>
"""


class TestParsing:
    def test_parse_tree_reads_annotations(self):
        tree, annotation = parse_tree(FIGURE1_XML, PROVENANCE)
        assert annotation == Polynomial.variable("z")
        assert tree.label == "a"
        assert len(tree.children) == 2

    def test_parse_document_wraps_root(self):
        document = parse_document(FIGURE1_XML, PROVENANCE)
        assert len(document) == 1
        (root,) = document
        assert document.annotation(root) == Polynomial.variable("z")

    def test_parse_matches_builder(self):
        b = TreeBuilder(PROVENANCE)
        expected = b.forest(
            b.tree(
                "a",
                b.tree("b", b.leaf("d") @ "y1") @ "x1",
                b.tree("c", b.leaf("d") @ "y2", b.leaf("e") @ "y3") @ "x2",
            )
            @ "z"
        )
        assert parse_document(FIGURE1_XML, PROVENANCE) == expected

    def test_missing_annotation_defaults_to_one(self):
        tree, annotation = parse_tree("<a><b/></a>", NATURAL)
        assert annotation == 1
        assert tree.children.annotation(TreeBuilder(NATURAL).leaf("b")) == 1

    def test_text_content_becomes_leaf_children(self):
        tree, _ = parse_tree("<A>a</A>", NATURAL)
        assert tree.children.annotation(TreeBuilder(NATURAL).leaf("a")) == 1

    def test_natural_annotations(self):
        tree, _ = parse_tree('<a><b annot="3"/></a>', NATURAL)
        assert tree.children.annotation(TreeBuilder(NATURAL).leaf("b")) == 3

    def test_clearance_annotations(self):
        tree, _ = parse_tree('<a><b annot="S"/></a>', CLEARANCE)
        assert tree.children.annotation(TreeBuilder(CLEARANCE).leaf("b")) == "S"

    def test_bad_annotation_raises(self):
        with pytest.raises(UXMLParseError):
            parse_tree('<a><b annot="x+"/></a>', NATURAL)

    def test_malformed_xml_raises(self):
        with pytest.raises(UXMLParseError):
            parse_tree("<a><b></a>", NATURAL)

    def test_parse_forest_unwraps_wrapper(self):
        text = '<forest><a annot="2"/><b/></forest>'
        collection = parse_forest(text, NATURAL)
        b = TreeBuilder(NATURAL)
        assert collection.annotation(b.leaf("a")) == 2
        assert collection.annotation(b.leaf("b")) == 1

    def test_ordering_in_document_is_irrelevant(self):
        first = parse_tree("<a><b/><c/></a>", BOOLEAN)
        second = parse_tree("<a><c/><b/></a>", BOOLEAN)
        assert first == second


class TestSerialization:
    def test_round_trip_through_xml(self):
        document = parse_document(FIGURE1_XML, PROVENANCE)
        (root,) = document
        xml = to_xml(root, document.annotation(root))
        assert parse_document(xml, PROVENANCE) == document

    def test_forest_round_trip(self):
        b = TreeBuilder(NATURAL)
        collection = b.forest(b.tree("a", b.leaf("x") @ 2) @ 3, b.leaf("y"))
        xml = forest_to_xml(collection)
        assert parse_forest(xml, NATURAL) == collection

    def test_empty_forest(self):
        from repro.kcollections import KSet

        assert forest_to_xml(KSet.empty(NATURAL)) == "<forest/>"

    def test_paper_notation_is_deterministic(self):
        b = TreeBuilder(PROVENANCE)
        left = b.tree("a", b.leaf("x") @ "p", b.leaf("y"))
        right = b.tree("a", b.leaf("y"), b.leaf("x") @ "p")
        assert to_paper_notation(left) == to_paper_notation(right)
        assert to_paper_notation(left) == "a[ x^{p} y ]"

    def test_paper_notation_of_forest(self):
        b = TreeBuilder(NATURAL)
        collection = b.forest(b.leaf("a") @ 2)
        assert to_paper_notation(collection) == "( a^{2} )"

    def test_paper_notation_rejects_other_values(self):
        with pytest.raises(TypeError):
            to_paper_notation(42)  # type: ignore[arg-type]

    def test_xml_escapes_labels(self):
        b = TreeBuilder(NATURAL)
        tree = b.tree("a", b.leaf("x&y"))
        assert "x&amp;y" in to_xml(tree)

    #: Labels and annotation texts with every character either escaper treats
    #: specially, alone and mixed.
    AWKWARD_TEXTS = [
        "plain", "", "x&y", "a<b>c", 'say "hi"', "it's", "both \" and '", "\"'",
        "line\nbreak", "cr\rlf\r\n", "tab\there", "&amp; already", "<&>\"'\n\t\r",
    ]

    @pytest.mark.parametrize("text", AWKWARD_TEXTS)
    def test_escapers_match_the_standard_library(self, text):
        from xml.sax import saxutils

        from repro.uxml.serializer import escape, quoteattr

        assert escape(text) == saxutils.escape(text)
        assert quoteattr(text) == saxutils.quoteattr(text)

    def test_awkward_labels_and_annotations_serialize_like_the_standard_library(self):
        from xml.sax import saxutils

        b = TreeBuilder(PROVENANCE)
        for text in filter(None, self.AWKWARD_TEXTS):
            tree = b.tree(text)
            annotation = Polynomial.variable(text)
            rendered = to_xml(tree, annotation)
            attribute = saxutils.quoteattr(PROVENANCE.repr_element(annotation))
            assert rendered == f"<{saxutils.escape(text)} annot={attribute}/>", text


def test_a_cold_store_query_loads_only_what_it_runs():
    """``xml.sax.saxutils`` pulls in ``urllib.request``, ``http.client`` and
    ``email``; the serializer escapes on its own.  Opening a store needs
    neither the relational algebra and Datalog (``repro.relational``) nor
    ``repro fsck``.  So a cold ``repro store query`` loads none of them."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    modules = (
        "xml.sax.saxutils", "urllib.request", "http.client", "email",
        "repro.relational", "repro.shredding.xpath_to_datalog", "repro.store.fsck",
    )
    script = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.store import DocumentStore\n"
        f"print(sorted(name for name in {modules!r} if name in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert output == "[]"
