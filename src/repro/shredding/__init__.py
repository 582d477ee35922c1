"""The relational (shredding) semantics of Section 7."""

from repro.shredding.shred import (
    EDGE_ATTRIBUTES,
    ROOT_PID,
    canonical_member_key,
    edge_relation,
    reachable_facts,
    shred_forest,
    shred_tree,
    unshred,
)

#: The Datalog translation loads on first use: it pulls in
#: :mod:`repro.relational`, which shredding a stored document does not need.
_LAZY = {
    name: "repro.shredding.xpath_to_datalog"
    for name in ("apply_step_datalog", "evaluate_xpath_via_datalog", "path_programs", "step_program")
}

__all__ = [
    "ROOT_PID",
    "EDGE_ATTRIBUTES",
    "canonical_member_key",
    "shred_forest",
    "shred_tree",
    "unshred",
    "reachable_facts",
    "edge_relation",
    "step_program",
    "path_programs",
    "apply_step_datalog",
    "evaluate_xpath_via_datalog",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value
