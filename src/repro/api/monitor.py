"""Job and cluster monitoring (the paper's Figure 18 web interface).

Rafiki ships a web dashboard; here the same information is rendered as
plain-text tables (and JSON through the gateway's monitoring routes):
training jobs with their best accuracy, deployed inference jobs with
query counts, per-node cluster utilisation — and, since the telemetry
layer landed, the live contents of the process-wide metrics registry
(every counter/gauge/histogram the subsystems record), so the
dashboard shows real measured activity rather than only book-keeping.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.system import Rafiki

__all__ = ["render_dashboard", "dashboard_data", "telemetry_summary"]


def telemetry_summary(registry: "telemetry.MetricsRegistry | None" = None) -> dict:
    """A flat, render-friendly view of the metrics registry.

    Counters and gauges become ``{"name{labels}": value}``; histograms
    collapse to their count/sum/mean. The full bucket detail stays
    available through :func:`repro.telemetry.snapshot`.
    """
    registry = registry if registry is not None else telemetry.get_registry()
    snap = registry.snapshot()
    flat: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for section in ("counters", "gauges"):
        for name, family in snap[section].items():
            for labels, value in family["values"].items():
                key = f"{name}{{{labels}}}" if labels else name
                flat[section][key] = value
    for name, family in snap["histograms"].items():
        for labels, series in family["series"].items():
            key = f"{name}{{{labels}}}" if labels else name
            count = series["count"]
            flat["histograms"][key] = {
                "count": count,
                "sum": series["sum"],
                "mean": series["sum"] / count if count else 0.0,
            }
    return flat


def dashboard_data(system: Rafiki) -> dict:
    """The dashboard's content as a JSON-serialisable dict.

    Job/cluster tables come from the facade's book-keeping; the
    ``telemetry`` section reads the live process-wide metrics registry.
    """
    train_rows = [
        {
            "job_id": info.job_id,
            "name": info.name,
            "task": info.task,
            "dataset": info.dataset,
            "status": info.status,
            "models": list(info.model_names),
            "best": info.best_performance,
        }
        for info in system.train_jobs.values()
    ]
    inference_rows = [
        {
            "job_id": info.job_id,
            "status": info.status,
            "models": [spec.model_name for spec in info.specs],
            "queries_served": info.queries_served,
            "cache_hit_rate": info.cache.hit_rate,
        }
        for info in system.inference_jobs.values()
    ]
    node_rows = [
        {
            "name": node.name,
            "alive": node.alive,
            "gpus_used": node.allocated.gpus,
            "gpus_total": node.capacity.gpus,
            "containers": len(node.container_ids),
        }
        for node in system.cluster.nodes.values()
    ]
    return {
        "train_jobs": train_rows,
        "inference_jobs": inference_rows,
        "nodes": node_rows,
        "parameter_server": {
            "keys": len(system.param_server.keys()),
            "cache_hit_rate": system.param_server.cache_stats()["hit_rate"],
        },
        "telemetry": telemetry_summary(),
    }


def render_dashboard(system: Rafiki) -> str:
    """A human-readable dashboard (what the web UI would show)."""
    data = dashboard_data(system)
    lines = ["=== training jobs ==="]
    if data["train_jobs"]:
        lines.append(f"{'job':<10} {'name':<14} {'status':<10} {'best':>6}  models")
        for row in data["train_jobs"]:
            lines.append(
                f"{row['job_id']:<10} {row['name']:<14} {row['status']:<10} "
                f"{row['best']:>6.3f}  {', '.join(row['models'])}"
            )
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("=== inference jobs ===")
    if data["inference_jobs"]:
        lines.append(f"{'job':<10} {'status':<10} {'queries':>8} {'cache':>6}  models")
        for row in data["inference_jobs"]:
            lines.append(
                f"{row['job_id']:<10} {row['status']:<10} {row['queries_served']:>8} "
                f"{row['cache_hit_rate']:>6.0%}  {', '.join(row['models'])}"
            )
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("=== cluster ===")
    lines.append(f"{'node':<10} {'state':<6} {'gpus':>9} {'containers':>11}")
    for row in data["nodes"]:
        state = "up" if row["alive"] else "DOWN"
        lines.append(
            f"{row['name']:<10} {state:<6} {row['gpus_used']:.0f}/{row['gpus_total']:.0f}"
            f"{'':>5} {row['containers']:>11}"
        )
    ps = data["parameter_server"]
    lines.append("")
    lines.append(
        f"parameter server: {ps['keys']} keys, cache hit rate {ps['cache_hit_rate']:.0%}"
    )
    flat = data["telemetry"]
    lines.append("")
    lines.append("=== telemetry ===")
    rows = sorted(flat["counters"].items()) + sorted(flat["gauges"].items())
    if rows or flat["histograms"]:
        for name, value in rows:
            lines.append(f"{name:<58} {value:>12g}")
        for name, stats in sorted(flat["histograms"].items()):
            lines.append(
                f"{name:<58} n={stats['count']} mean={stats['mean']:.6g}"
            )
    else:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
