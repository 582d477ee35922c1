"""Shredded columnar document storage: the at-rest representation.

A stored document is its Section 7 shredding ``E(pid, nid, label)`` laid out
as four parallel arrays — ``pid``, ``nid``, ``label`` and the annotation
column — in shredding emission order.  Because
:func:`repro.shredding.shred.shred_forest` allocates node identifiers
deterministically (members and children visited in
:func:`~repro.shredding.shred.canonical_member_key` order, depth-first), the
columns are a *function of the forest value*: equal forests produce equal
columns, which is what makes snapshot and WAL-replay equality checks
meaningful.

Rows appear in per-member pre-order and node identifiers are allocated
sequentially along that order, so the rows below a node form a contiguous
``nid`` interval — the invariant the pre/post-order interval index of
:mod:`repro.store.index` turns descendant steps into.

The module also hosts the value codec used by the WAL and snapshots:
annotations (and delta member trees) are arbitrary immutable Python values,
so they are serialized with :mod:`pickle` and carried inside the JSON files
as base64 text.  The codec is exact for every registry semiring — through
the ``__reduce__`` support of K-sets, trees and semiring values — whereas a
textual ``repr_element``/``parse_element`` round-trip is not available for
all of them (e.g. why-provenance).
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Mapping, Tuple

from repro.errors import StoreError
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring
from repro.shredding.shred import EdgeFacts, shred_forest, unshred

__all__ = ["ShreddedColumns", "encode_obj", "decode_obj"]


def encode_obj(obj: Any) -> str:
    """Serialize a value for embedding in a JSON WAL record or snapshot."""
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def decode_obj(text: str) -> Any:
    """Inverse of :func:`encode_obj`."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as error:
        raise StoreError(f"corrupt stored value: {error}") from error


class ShreddedColumns:
    """One document's edge relation in columnar form.

    Immutable; rows are kept in shredding emission order (per-member
    pre-order, members in canonical order).  Equality is row-for-row column
    equality — the "bit-identical columns" notion the recovery tests use.
    """

    __slots__ = ("semiring", "pid", "nid", "label", "annot")

    def __init__(
        self,
        semiring: Semiring,
        pid: Tuple[Any, ...],
        nid: Tuple[Any, ...],
        label: Tuple[str, ...],
        annot: Tuple[Any, ...],
    ):
        if not (len(pid) == len(nid) == len(label) == len(annot)):
            raise StoreError("shredded columns must have equal lengths")
        self.semiring = semiring
        self.pid = tuple(pid)
        self.nid = tuple(nid)
        self.label = tuple(label)
        self.annot = tuple(annot)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_forest(cls, forest: KSet) -> "ShreddedColumns":
        """Shred a K-set of trees into columns (deterministic node ids)."""
        facts = shred_forest(forest)
        return cls.from_facts(forest.semiring, facts)

    @classmethod
    def from_facts(cls, semiring: Semiring, facts: EdgeFacts) -> "ShreddedColumns":
        pid, nid, label, annot = [], [], [], []
        for (parent, node, name), annotation in facts.items():
            pid.append(parent)
            nid.append(node)
            label.append(name)
            annot.append(annotation)
        return cls(semiring, tuple(pid), tuple(nid), tuple(label), tuple(annot))

    # --------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.nid)

    def rows(self):
        """Iterate ``(pid, nid, label, annotation)`` rows in storage order."""
        return zip(self.pid, self.nid, self.label, self.annot)

    def facts(self) -> EdgeFacts:
        """The rows as the ``(pid, nid, label) -> annotation`` fact mapping."""
        return {
            (parent, node, name): annotation
            for parent, node, name, annotation in self.rows()
        }

    def forest(self) -> KSet:
        """Rebuild the stored K-set of trees (prefer the index's cached one)."""
        return unshred(self.facts(), self.semiring)

    # -------------------------------------------------------------- comparison
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShreddedColumns):
            return NotImplemented
        return (
            self.semiring == other.semiring
            and self.pid == other.pid
            and self.nid == other.nid
            and self.label == other.label
            and self.annot == other.annot
        )

    def __hash__(self) -> int:
        return hash((self.semiring, self.pid, self.nid, self.label, self.annot))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShreddedColumns {len(self)} rows over {self.semiring.name}>"

    # ------------------------------------------------------------- persistence
    def to_payload(self) -> dict:
        """A JSON-serializable snapshot of the columns.

        ``pid``/``nid``/``label`` are JSON-native (integers and strings by
        construction); the annotation column goes through the pickle codec
        once per distinct annotation, since a column holds few: a row's text
        is the encoding of the first equal value of the same type, so it
        decodes to a value equal to the row's.
        """
        texts: dict = {}
        annot = []
        for annotation in self.annot:
            key = (type(annotation), annotation)
            try:
                text = texts.get(key)
                if text is None:
                    text = texts[key] = encode_obj(annotation)
            except TypeError:  # an unhashable value: encode it on its own
                text = encode_obj(annotation)
            annot.append(text)
        return {
            "pid": list(self.pid),
            "nid": list(self.nid),
            "label": list(self.label),
            "annot": annot,
        }

    @classmethod
    def from_payload(cls, semiring: Semiring, payload: Mapping[str, Any]) -> "ShreddedColumns":
        try:
            pid = tuple(payload["pid"])
            nid = tuple(payload["nid"])
            label = tuple(payload["label"])
            decoded: dict = {}  # each distinct text is decoded once
            for text in payload["annot"]:
                if text not in decoded:
                    decoded[text] = decode_obj(text)
            annot = tuple(decoded[text] for text in payload["annot"])
        except KeyError as error:
            raise StoreError(f"snapshot payload is missing column {error}") from error
        except TypeError as error:
            raise StoreError(f"corrupt stored value: {error}") from error
        return cls(semiring, pid, nid, label, annot)
