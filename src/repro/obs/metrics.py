"""Thread-safe metrics registry with JSON and Prometheus text export.

The library's stats surfaces predate this module and remain the canonical
per-instance accessors (``PlanCache.stats()``, ``DocumentStore.stats()``,
``codegen_stats()``); what was missing is one place
that aggregates them for machine consumption.  Two publication styles keep
the hot paths honest:

* **direct instruments** — counters/gauges/histograms incremented at the
  event site, under the registry lock.  Used for cold events (codegen
  compilations, view maintenance kinds, slow queries) where a lock per
  event is immaterial;
* **collectors** — callables run at *export* time that read an existing
  stats surface and emit samples.  Used for hot, racy-by-design counters
  (``CodegenProgram.calls`` bulk accounting) and for per-instance surfaces
  (plan caches, stores, views) where instances come and go; collectors are
  held by weak reference so registering a store never extends its lifetime.

Export formats: :func:`registry_json` (round-trippable dict) and
:func:`render_prometheus` (text exposition format, ``# HELP``/``# TYPE``
lines included).  :func:`parse_prometheus` is the minimal inverse used by
the export smoke tests.

**Exemplars.** Histograms record the most recent ``(trace_id, value)``
per bucket whenever tracing is armed (one global read otherwise), and
``render_prometheus`` emits them in OpenMetrics exemplar syntax
(``name_bucket{le="..."} 7 # {trace_id="..."} 0.042 <ts>``) — a scraped
latency spike links straight to the trace that caused it.
"""

from __future__ import annotations

import json
import math
import threading
import time
import weakref
from typing import Any, Callable, Iterable, Mapping

from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CollectorSink",
    "default_registry",
    "registry_json",
    "render_prometheus",
    "parse_prometheus",
]

#: Default histogram buckets (seconds-flavored, Prometheus-style).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: Sub-millisecond preset for query-latency histograms.  DEFAULT_BUCKETS
#: starts at 1ms while the evaluate hot path runs ~100us, which would land
#: every observation in the first bucket and make p50/p95 unreadable.
LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.5, 1.0, 5.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """One named metric family: a kind, a help string, labeled samples."""

    __slots__ = ("name", "kind", "help", "_samples", "_lock")

    def __init__(self, name: str, kind: str, help: str, lock: threading.Lock):
        self.name = name
        self.kind = kind
        self.help = help
        self._samples: dict[tuple, Any] = {}
        self._lock = lock

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        with self._lock:
            return [(dict(key), value) for key, value in self._samples.items()]

    def value(self, **labels: Any) -> Any:
        """The current value for one label combination (0/None when unset)."""
        with self._lock:
            return self._samples.get(_label_key(labels), 0)


class Counter(_Metric):
    """A monotonically increasing count (resettable for test isolation)."""

    __slots__ = ()

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, "counter", help, lock)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def set(self, value: float, **labels: Any) -> None:
        """Force a sample to an absolute value (scoped-reset support)."""
        with self._lock:
            self._samples[_label_key(labels)] = value

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()


class Gauge(_Metric):
    """A value that can go up and down."""

    __slots__ = ()

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, "gauge", help, lock)

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics: le-bounded).

    With ``exemplars`` on (the default), each observation made while
    tracing is armed stores the most recent ``(trace_id, value)`` for the
    smallest bucket the value falls into — rendered in OpenMetrics
    exemplar syntax by :func:`render_prometheus`.  Disarmed cost: one
    module-global read per observation.
    """

    __slots__ = ("buckets", "exemplars")

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 exemplars: bool = True):
        super().__init__(name, "histogram", help, lock)
        self.buckets = tuple(sorted(buckets))
        self.exemplars = exemplars

    def observe(self, value: float, **labels: Any) -> None:
        trace_id = (
            _trace.current_trace_id()
            if self.exemplars and _trace._ACTIVE
            else None
        )
        key = _label_key(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = self._samples[key] = {
                    "buckets": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
            exemplar_index = len(self.buckets)  # the +Inf bucket
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state["buckets"][index] += 1
                    exemplar_index = min(exemplar_index, index)
            state["sum"] += value
            state["count"] += 1
            if trace_id is not None:
                exemplars = state.setdefault("exemplars", {})
                exemplars[exemplar_index] = {
                    "trace_id": trace_id,
                    "value": value,
                    "ts": time.time(),
                }

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()


class CollectorSink:
    """The interface handed to collectors: emit samples into declared families."""

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self.samples: list[tuple[str, str, str, dict[str, str], float]] = []

    def counter(self, name: str, value: float, help: str = "", **labels: Any) -> None:
        self._emit(name, "counter", help, labels, value)

    def gauge(self, name: str, value: float, help: str = "", **labels: Any) -> None:
        self._emit(name, "gauge", help, labels, value)

    def _emit(self, name: str, kind: str, help: str,
              labels: Mapping[str, Any], value: float) -> None:
        declared = self._registry._metrics.get(name)
        if declared is not None:
            kind, help = declared.kind, declared.help
        self.samples.append(
            (name, kind, help, {str(k): str(v) for k, v in labels.items()}, value)
        )


class MetricsRegistry:
    """A process-wide, thread-safe home for metric families and collectors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        #: collector name -> weakref to the bound callable's owner (or a
        #: strong callable for module-level collectors).
        self._collectors: dict[str, Callable[[CollectorSink], None]] = {}
        self._weak_collectors: dict[str, tuple[weakref.ref, Callable]] = {}

    # ------------------------------------------------------------- families
    def _get_or_create(self, name: str, kind: str, help: str,
                       factory: Callable[[], _Metric]) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {metric.kind}, "
                    f"not a {kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, "counter", help, lambda: Counter(name, help, self._lock)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, "gauge", help, lambda: Gauge(name, help, self._lock)
        )

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  exemplars: bool = True) -> Histogram:
        return self._get_or_create(
            name, "histogram", help,
            lambda: Histogram(name, help, self._lock, buckets, exemplars=exemplars),
        )

    # ----------------------------------------------------------- collectors
    def register_collector(self, name: str,
                           collect: Callable[[CollectorSink], None]) -> None:
        """Register a pull-time collector under a unique name (replaces)."""
        with self._lock:
            self._collectors[name] = collect
            self._weak_collectors.pop(name, None)

    def register_object_collector(self, name: str, owner: Any,
                                  collect: Callable[[Any, CollectorSink], None]) -> None:
        """Collector bound to ``owner`` by weak reference; auto-pruned when
        the owner is garbage collected (stores and caches are ephemeral)."""
        with self._lock:
            self._weak_collectors[name] = (weakref.ref(owner), collect)
            self._collectors.pop(name, None)

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)
            self._weak_collectors.pop(name, None)

    def _collect(self) -> list[tuple[str, str, str, dict[str, str], float]]:
        with self._lock:
            strong = list(self._collectors.items())
            weak = list(self._weak_collectors.items())
        sink = CollectorSink(self)
        for _name, collect in strong:
            collect(sink)
        dead: list[str] = []
        for name, (ref, collect) in weak:
            owner = ref()
            if owner is None:
                dead.append(name)
            else:
                collect(owner, sink)
        if dead:
            with self._lock:
                for name in dead:
                    self._weak_collectors.pop(name, None)
        return sink.samples

    # --------------------------------------------------------------- export
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready snapshot of every family, collectors included."""
        families: dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            families[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": [
                    {"labels": labels, "value": value}
                    for labels, value in metric.samples()
                ],
            }
        for name, kind, help, labels, value in self._collect():
            family = families.setdefault(
                name, {"type": kind, "help": help, "samples": []}
            )
            family["samples"].append({"labels": labels, "value": value})
        return families

    def reset(self) -> None:
        """Reset every direct instrument (collectors re-pull on export)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if hasattr(metric, "reset"):
                metric.reset()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return str(value)


def _format_exemplar(exemplar: Mapping[str, Any] | None) -> str:
    """The OpenMetrics exemplar suffix (`` # {labels} value ts``), or ``""``."""
    if not exemplar:
        return ""
    labels = _format_labels({"trace_id": str(exemplar.get("trace_id", ""))})
    rendered = f" # {labels} {_format_value(exemplar.get('value', 0.0))}"
    ts = exemplar.get("ts")
    if ts is not None:
        rendered += f" {ts}"
    return rendered


def render_prometheus(registry: "MetricsRegistry | None" = None) -> str:
    """Render the registry in the Prometheus text exposition format."""
    registry = registry if registry is not None else default_registry()
    lines: list[str] = []
    for name, family in sorted(registry.snapshot().items()):
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        if family["type"] == "histogram":
            for sample in family["samples"]:
                labels = sample["labels"]
                state = sample["value"]
                histogram = registry._metrics.get(name)
                bounds = histogram.buckets if isinstance(histogram, Histogram) else ()
                exemplars = state.get("exemplars") or {}
                cumulative = 0
                for index, (bound, count) in enumerate(zip(bounds, state["buckets"])):
                    cumulative = count
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(labels, {'le': _format_value(float(bound))})}"
                        f" {cumulative}"
                        f"{_format_exemplar(exemplars.get(index))}"
                    )
                lines.append(
                    f"{name}_bucket{_format_labels(labels, {'le': '+Inf'})}"
                    f" {state['count']}"
                    f"{_format_exemplar(exemplars.get(len(bounds)))}"
                )
                lines.append(f"{name}_sum{_format_labels(labels)} {state['sum']}")
                lines.append(f"{name}_count{_format_labels(labels)} {state['count']}")
        else:
            if not family["samples"]:
                # An armed-but-silent family still exposes a zero sample so
                # scrapers see the series exists.
                lines.append(f"{name} 0")
            for sample in family["samples"]:
                lines.append(
                    f"{name}{_format_labels(sample['labels'])}"
                    f" {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def registry_json(registry: "MetricsRegistry | None" = None) -> dict[str, Any]:
    """The registry snapshot as a JSON-serializable dict (round-trips)."""
    registry = registry if registry is not None else default_registry()
    snapshot = registry.snapshot()
    # Guarantee round-trippability now, not at the caller.
    return json.loads(json.dumps(snapshot))


def _parse_float(value_text: str, raw: str) -> float:
    try:
        return float(value_text)
    except ValueError as error:
        if value_text not in ("+Inf", "-Inf", "NaN"):
            raise ValueError(f"malformed value in line: {raw!r}") from error
        return float(value_text.replace("Inf", "inf").replace("NaN", "nan"))


def _split_label_block(line: str, raw: str) -> tuple[str, str, str]:
    """Split one sample line into ``(name, "{...}", rest)``.

    Scans the label block with quote/escape awareness: a ``}``, ``#`` or
    space inside a quoted label value (legal once escaped) must not
    terminate the block — ``line.rindex("}")`` would also swallow an
    OpenMetrics exemplar's label set.
    """
    opening = line.index("{")
    in_quotes = False
    escaped = False
    for position in range(opening + 1, len(line)):
        char = line[position]
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            in_quotes = not in_quotes
        elif char == "}" and not in_quotes:
            return line[:opening], line[opening:position + 1], line[position + 1:]
    raise ValueError(f"unterminated label block in line: {raw!r}")


def _split_exemplar(rest: str) -> tuple[str, str | None]:
    """Split ``" value [# exemplar]"`` — the ``#`` introducing an exemplar
    can only appear before any quoted text, so a plain find is safe here."""
    marker = rest.find(" # ")
    if marker == -1:
        return rest.strip(), None
    return rest[:marker].strip(), rest[marker + 3:].strip()


def parse_prometheus(text: str) -> dict[str, dict[str, Any]]:
    """Parse Prometheus exposition text back into families (smoke-test inverse).

    Returns ``{family: {"type": ..., "samples": {label_string: value}}}``;
    OpenMetrics exemplar suffixes land under the family's ``"exemplars"``
    key (``{sample_key: {"labels": ..., "value": ...}}``).  Raises
    ``ValueError`` on malformed lines.
    """
    families: dict[str, dict[str, Any]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"malformed HELP line: {raw!r}")
            families.setdefault(parts[2], {"type": None, "samples": {}})
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _KINDS:
                raise ValueError(f"malformed TYPE line: {raw!r}")
            families.setdefault(parts[2], {"type": None, "samples": {}})
            families[parts[2]]["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, labels, rest = _split_label_block(line, raw)
        else:
            name, _, rest = line.partition(" ")
            labels = ""
        value_text, exemplar_text = _split_exemplar(rest)
        if not name or not value_text:
            raise ValueError(f"malformed sample line: {raw!r}")
        value = _parse_float(value_text, raw)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        families.setdefault(base, {"type": None, "samples": {}})
        families[base]["samples"][name + labels] = value
        if exemplar_text is not None:
            if not exemplar_text.startswith("{"):
                raise ValueError(f"malformed exemplar in line: {raw!r}")
            _, ex_labels, ex_rest = _split_label_block(exemplar_text, raw)
            ex_parts = ex_rest.split()
            ex_value_text = ex_parts[0] if ex_parts else ""
            if not ex_value_text:
                raise ValueError(f"malformed exemplar in line: {raw!r}")
            families[base].setdefault("exemplars", {})[name + labels] = {
                "labels": ex_labels,
                "value": _parse_float(ex_value_text, raw),
            }
    return families


# ---------------------------------------------------------------------------
# The default registry
# ---------------------------------------------------------------------------
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem publishes into."""
    return _DEFAULT
