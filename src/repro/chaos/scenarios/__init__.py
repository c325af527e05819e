"""Seeded end-to-end chaos scenarios, and the one runner over them.

A scenario is a module with the three functions a perf-bench spec
(``benchmarks/_perf.py``) has::

    run(seed, **params) -> out      # drive the system under a seeded FaultPlan
    check(out) -> [failure, ...]    # the verdict: what a healthy run looks like
    table(out) -> str               # the human summary

:data:`SCENARIOS` is the registry and :func:`run_scenario` the only
runner (``repro chaos --scenario`` the only verb over it), so an
invariant asserted at the end of every scenario is added there, once.
Everything — fault decisions, retry jitter, model training — is a pure
function of the seed: ``out["trace"]`` (the fault log, the
retry/circuit/recovery counters, the scenario's digests) is
bit-identical across same-seed runs, which ``verify`` asserts.
"""

from __future__ import annotations

import json
import sys

from repro.chaos.scenarios import default, shard_kill, store_kill, tenants
from repro.chaos.scenarios._core import same_seed_rerun
from repro.chaos.scenarios.default import build_default_plan

__all__ = [
    "SCENARIOS",
    "run_scenario",
    "build_default_plan",
    "same_seed_rerun",
]

#: scenario name (``repro chaos --scenario``) -> its run/check/table spec.
SCENARIOS = {
    "default": default,
    "shard-kill": shard_kill,
    "store-kill": store_kill,
    "tenants": tenants,
}


def run_scenario(name: str, seed: int = 0, verify: bool = False, as_json: bool = False) -> int:
    """Run one scenario through every gate and print it; the exit code.

    ``verify`` runs it twice and fails unless both traces are identical.
    """
    spec = SCENARIOS[name]
    if verify:
        out, identical = same_seed_rerun(lambda: spec.run(seed))
    else:
        out, identical = spec.run(seed), True
    failures = spec.check(out)
    if not identical:
        failures.insert(0, "trace differs across two same-seed runs")
    if as_json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(spec.table(out))
        if verify and identical:
            print("verify: trace identical across two same-seed runs")
    for failure in failures:
        print(f"FAIL [{name}]: {failure}", file=sys.stderr)
    return 1 if failures else 0
