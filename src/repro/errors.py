"""Exception hierarchy for the annotated-XML provenance library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AnnotationError(ReproError):
    """An annotation value is not a valid element of the expected semiring."""


class SemiringError(ReproError):
    """A semiring operation was used incorrectly (e.g. mixing semirings)."""


class HomomorphismError(ReproError):
    """A mapping between semirings is not defined or not a homomorphism."""


class UXMLError(ReproError):
    """Malformed K-UXML data (bad tree structure, parse errors, ...)."""


class UXMLParseError(UXMLError):
    """The textual representation of a UXML document could not be parsed."""


class NRCError(ReproError):
    """Base class for errors in the NRC_K + srt calculus."""


class NRCTypeError(NRCError):
    """An NRC expression does not typecheck."""


class NRCEvalError(NRCError):
    """An NRC expression failed to evaluate (unbound variable, bad value...)."""


class UXQueryError(ReproError):
    """Base class for errors in the K-UXQuery front end."""


class UXQuerySyntaxError(UXQueryError):
    """The K-UXQuery source text could not be tokenized or parsed."""


class UXQueryTypeError(UXQueryError):
    """A K-UXQuery expression does not typecheck (Figure 3 rules)."""


class UXQueryEvalError(UXQueryError):
    """A K-UXQuery expression failed to evaluate."""


class RelationalError(ReproError):
    """Errors in the K-relation / positive relational algebra substrate."""


class SchemaError(RelationalError):
    """A relational operation was applied to incompatible schemas."""


class DatalogError(ReproError):
    """Errors in the Datalog-with-Skolem-functions engine of Section 7."""


class DatalogSafetyError(DatalogError):
    """A Datalog rule is unsafe (head variable not bound in the body)."""


class DatalogNonTerminationError(DatalogError):
    """Fixpoint iteration did not converge within the configured bound."""


class ShreddingError(ReproError):
    """Errors while shredding UXML into relations or rebuilding trees."""


class PossibleWorldsError(ReproError):
    """Errors in the incomplete / probabilistic possible-worlds machinery."""


class WorkloadError(ReproError):
    """Errors in the synthetic workload generators."""


class ExecError(ReproError):
    """Errors in the batched query-execution layer (:mod:`repro.exec`)."""


class IVMError(ReproError):
    """Errors in the incremental view-maintenance layer (:mod:`repro.ivm`)."""


class StoreError(ReproError):
    """Errors in the persistent indexed document store (:mod:`repro.store`)."""


class IntegrityError(StoreError):
    """A durable artifact failed checksum / digest / consistency verification.

    Raised instead of serving possibly-wrong data: a WAL record whose CRC32
    does not match its body, a snapshot whose whole-file checksum or
    per-column digest disagrees with its contents, or a log whose lsns are
    no longer monotone.  ``artifact`` names the damaged file so operators
    (and ``repro fsck``) know exactly what to scrub.
    """

    def __init__(self, message: str, *, artifact: str | None = None):
        super().__init__(message)
        self.artifact = artifact


class ResilienceError(ReproError):
    """Errors in the fault-injection / guardrail layer (:mod:`repro.resilience`)."""


class FaultInjected(ResilienceError):
    """An armed failpoint fired with the ``raise`` action.

    Deliberately injected by :func:`repro.resilience.faults.fail_point` —
    never raised by healthy code paths.
    """


class LimitExceeded(ResilienceError):
    """A cooperative execution limit (:class:`~repro.resilience.limits.EvalLimits`)
    was exceeded.  Base of the two typed guardrail errors below."""


class QueryTimeoutError(LimitExceeded):
    """Evaluation ran past its deadline (``EvalLimits.timeout_s``)."""


class BudgetExceededError(LimitExceeded):
    """Evaluation exceeded its row or result-size budget
    (``EvalLimits.max_rows`` / ``EvalLimits.max_result_bytes``)."""
