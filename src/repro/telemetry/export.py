"""Exporters: JSON snapshots and Prometheus-style text exposition.

Two views over the same :class:`~repro.telemetry.registry.MetricsRegistry`:

* :func:`snapshot` / :func:`to_json` — the registry as one nested dict
  (optionally with the tracer's spans), for dashboards and files;
* :func:`render_prometheus` — the plain-text exposition format every
  metrics scraper understands (``# HELP`` / ``# TYPE`` headers,
  ``name{label="v"} value`` samples, cumulative histogram buckets with
  an explicit ``+Inf``).

Both are deterministic: metric names, label sets and bucket bounds are
emitted in sorted order, so golden tests can compare exact strings.
"""

from __future__ import annotations

import json

from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.tracer import Tracer

__all__ = ["snapshot", "to_json", "render_prometheus"]


def snapshot(registry: MetricsRegistry, tracer: Tracer | None = None) -> dict:
    """The registry (and optionally the tracer) as one plain dict."""
    out = registry.snapshot()
    if tracer is not None:
        out["spans"] = tracer.export()
    return out


def to_json(registry: MetricsRegistry, tracer: Tracer | None = None) -> str:
    """:func:`snapshot`, serialised to an indented JSON string."""
    return json.dumps(snapshot(registry, tracer), indent=2, sort_keys=True)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(label_key) -> str:
    if not label_key:
        return ""
    escaped = (
        (name, value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for name, value in label_key
    )
    return "{" + ",".join(f'{name}="{value}"' for name, value in escaped) + "}"


def _bound_str(bound: float) -> str:
    return _format_value(bound)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key in metric.label_keys():
                counts, total, count = metric.child_state(**dict(key))
                cumulative = 0
                for bound, bucket_count in zip(metric.buckets, counts):
                    cumulative += bucket_count
                    labels = _format_labels(key + (("le", _bound_str(bound)),))
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                cumulative += counts[-1]
                labels = _format_labels(key + (("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                lines.append(
                    f"{metric.name}_sum{_format_labels(key)} {_format_value(total)}"
                )
                lines.append(f"{metric.name}_count{_format_labels(key)} {count}")
        else:
            for key in metric.label_keys():
                value = metric.value(**dict(key))
                lines.append(f"{metric.name}{_format_labels(key)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")
