"""Job and cluster monitoring (the paper's Figure 18 web interface).

Rafiki ships a web dashboard; here the same information is served as
JSON through the gateway's ``GET /dashboard`` route: training jobs with
their best accuracy, deployed inference jobs with query counts, per-node
cluster utilisation — and, since the telemetry layer landed, the live
contents of the process-wide metrics registry
(every counter/gauge/histogram the subsystems record), so the
dashboard shows real measured activity rather than only book-keeping.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.system import Rafiki

__all__ = ["dashboard_data", "telemetry_summary"]


def telemetry_summary() -> dict:
    """A flat view of the process-wide metrics registry.

    Counters and gauges become ``{"name{labels}": value}``; histograms
    collapse to their count/sum/mean. The full bucket detail stays
    available through :func:`repro.telemetry.snapshot`.
    """
    snap = telemetry.get_registry().snapshot()
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
